"""The anticommutator spin algebra: canonical irreducible modules and their
classification.

Generators x, y, z obey xy+yx=2z, yz+zy=2x, zx+xz=2y.  Finite-dimensional
irreducible modules fall into five families: B(d) for even d, and AB(d,n)
for n in {0,x,y,z}.  In the AB families the top basis vector folds back
(v_{d+1}=v_d), which puts the single nonzero corner on the diagonal.
"""
from __future__ import annotations

import re as _re

from .exactnum import GaussianRational
from .linalg import ExactMatrix, bracket, integer_eigenspaces, restrict
from .record import Record, _set

AB_VARIANTS = ("0", "x", "y", "z")


class ModuleType(Record):
    """Isomorphism type of an irreducible module: B(d) or AB(d,n)."""

    __slots__ = ("family", "d", "n")

    def __init__(self, family: str, d: int, n: str | None = None):
        if family == "B":
            if d < 0 or d % 2:
                raise ValueError(f"type B requires even d >= 0, got {d}")
            if n is not None:
                raise ValueError("type B carries no variant")
        elif family == "AB":
            if d < 0:
                raise ValueError("negative diameter")
            if n not in AB_VARIANTS:
                raise ValueError(f"AB variant must be one of {AB_VARIANTS}, got {n!r}")
        else:
            raise ValueError(f"unknown family {family!r}")
        _set(self, "family", family)
        _set(self, "d", d)
        _set(self, "n", n)

    @property
    def dimension(self) -> int:
        return self.d + 1

    def __str__(self):
        if self.family == "B":
            return f"B({self.d})"
        return f"AB({self.d},{self.n})"

    @classmethod
    def parse(cls, text: str) -> "ModuleType":
        m = _re.fullmatch(r"\s*B\((\d+)\)\s*", text)
        if m:
            return cls("B", int(m.group(1)))
        m = _re.fullmatch(r"\s*AB\((\d+),\s*([0xyz])\)\s*", text)
        if m:
            return cls("AB", int(m.group(1)), m.group(2))
        raise ValueError(f"malformed module type: {text!r}")


def b_type(d: int) -> ModuleType:
    return ModuleType("B", d)


def ab_type(d: int, n: str) -> ModuleType:
    return ModuleType("AB", d, n)


class ModuleActionTriple(Record):
    """Actions of the generators x, y, z as square matrices of equal size."""

    __slots__ = ("x_mat", "y_mat", "z_mat")

    def __init__(self, x_mat: ExactMatrix, y_mat: ExactMatrix, z_mat: ExactMatrix):
        mats = (x_mat, y_mat, z_mat)
        if len({m.nrows for m in mats} | {m.ncols for m in mats}) != 1:
            raise ValueError("generator matrices must be square and of equal size")
        _set(self, "x_mat", x_mat)
        _set(self, "y_mat", y_mat)
        _set(self, "z_mat", z_mat)

    def matrices(self):
        return (self.x_mat, self.y_mat, self.z_mat)

    @property
    def dimension(self) -> int:
        return self.x_mat.nrows

    @property
    def diameter(self) -> int:
        return self.dimension - 1

    def traces(self):
        return tuple(m.trace() for m in self.matrices())


def restrict_triple(triple: ModuleActionTriple, s: ExactMatrix) -> ModuleActionTriple:
    """The triple acting on the span of the basis columns of s; `restrict`
    proves each generator leaves the span invariant."""
    return ModuleActionTriple(*(restrict(m, s) for m in triple.matrices()))


def _sign(k: int) -> int:
    return 1 if k % 2 == 0 else -1


def _chain(d: int, lower, upper, fold: bool) -> ExactMatrix:
    """Matrix sending v_i -> lower(i) v_{i-1} + upper(i) v_{i+1}.

    With fold=True the out-of-range v_{d+1} is identified with v_d.
    """
    entries: dict = {}
    for i in range(d + 1):
        lo = lower(i)
        if i > 0 and lo:
            entries[(i - 1, i)] = entries.get((i - 1, i), 0) + lo
        up = upper(i)
        if up:
            if i < d:
                entries[(i + 1, i)] = entries.get((i + 1, i), 0) + up
            elif fold:
                entries[(d, d)] = entries.get((d, d), 0) + up
    return ExactMatrix(d + 1, d + 1, entries)


def build_canonical(t: ModuleType) -> ModuleActionTriple:
    """Generator matrices in the family's standard basis {v_0..v_d}.  The
    relations are not checked here: the families suite checks them, with
    irreducibility and the classification round trip."""
    d = t.d
    if t.family == "B":
        x = ExactMatrix.diagonal([_sign(i) * (d - 2 * i) for i in range(d + 1)])
        y = _chain(d, lambda i: d - i + 1, lambda i: i + 1, fold=False)
        z = _chain(
            d,
            lambda i: _sign(i - 1) * (d - i + 1),
            lambda i: _sign(i) * (i + 1),
            fold=False,
        )
    else:
        sx = _sign(d) if t.n in ("0", "x") else _sign(d + 1)
        sy = 0 if t.n in ("0", "y") else 1
        x = _chain(
            d,
            lambda i: sx * (2 * d - i + 2),
            lambda i: sx * (i + 1),
            fold=True,
        )
        y = ExactMatrix.diagonal(
            [_sign(d + i + sy) * (2 * d - 2 * i + 1) for i in range(d + 1)]
        )
        if t.n in ("0", "z"):
            z = _chain(
                d,
                lambda i: _sign(i - 1) * (2 * d - i + 2),
                lambda i: _sign(i) * (i + 1),
                fold=True,
            )
        else:
            z = _chain(
                d,
                lambda i: _sign(i) * (2 * d - i + 2),
                lambda i: _sign(i + 1) * (i + 1),
                fold=True,
            )
    return ModuleActionTriple(x, y, z)


_RELATIONS = (
    ("xy+yx=2z", 0, 1, 2),
    ("yz+zy=2x", 1, 2, 0),
    ("zx+xz=2y", 2, 0, 1),
)


def check_relations(m: ModuleActionTriple) -> tuple[bool, str | None]:
    """True iff all three anticommutator relations hold; else names the first
    failure, with the residue ab + ba - 2c at its smallest (row, col) entry.
    Each side is one canonical matrix, ab + ba the integer walk `bracket`,
    so they compare as stored forms; the residue is formed on a failure
    only."""
    mats = m.matrices()
    for label, a, b, c in _RELATIONS:
        lhs, rhs = bracket(mats[a], mats[b]), mats[c] * 2
        if lhs != rhs:
            residue = lhs - rhs
            r, col = min(residue.entries)
            return False, f"{label} fails at entry ({r},{col}): residue {residue.get(r, col)}"
    return True, None


def is_irreducible(m: ModuleActionTriple) -> bool:
    """True iff the space is nonzero and every eigenvector of a generator g
    generates it under {x, y}; the zero module is not irreducible.

    g is the first of x, y whose stored entries all lie on the diagonal, and
    x when neither is diagonal.  The {x, y}-closure of a subspace does not
    depend on which of the two generators is listed first, so let h be the
    other one.  For any diagonalizable, multiplicity-free g, let P hold its
    eigenvectors v_0..v_{n-1} as columns and C = P^-1 h P, so that
    h v_c = sum_r C[r,c] v_r.  Every g-invariant subspace is spanned by the
    eigenvectors it contains, so the {x, y}-closure of v_j is the span of
    the v_r reachable from j along the edges c -> r with C[r,c] != 0, and
    every eigenvector generates the space iff that support graph is
    strongly connected: node 0 reaches every node, and every node reaches
    node 0.  Any nonzero {x, y}-invariant subspace contains a g-eigenvector,
    so the test is irreducibility of the {x, y}-action itself.

    A diagonal g has P = I, so C is h as stored and no eigenvalue scan or
    solve is needed; its eigenvalues are its diagonal numerators over its
    one denominator, compared as integers.  A repeated eigenvalue of g
    returns False.  Irreducible modules of the five families have multiplicity-free integer x-spectrum,
    and (x, y, z) -> (y, z, x) is an automorphism of the algebra, so on a
    triple that satisfies the relations their y-spectrum is multiplicity-free
    too: a repeated eigenvalue of either generator witnesses reducibility.
    Both callers, the families suite and `cubetri classify`, check the
    relations first.  Every canonical module is built with x or y diagonal.
    """
    n = m.dimension
    for g, coupling in ((m.x_mat, m.y_mat), (m.y_mat, m.x_mat)):
        diag = {r: (a, b) for r, row in g.rows.items() for c, a, b in row if c == r}
        if len(diag) == g.nnz():  # P = I: the coupling is stored
            distinct = len(set(diag.values())) + (len(diag) < n)  # 0 counts once
            if distinct < n:
                return False
            break
    else:
        eigenspaces = list(integer_eigenspaces(m.x_mat))
        if any(basis.ncols > 1 for _theta, basis in eigenspaces):
            return False
        p = ExactMatrix.hstack(basis for _theta, basis in eigenspaces)
        coupling = restrict(m.y_mat, p)
    edges = [(r, c) for r, row in coupling.rows.items() for c, _a, _b in row]
    forward = [(c, r) for r, c in edges]
    return n > 0 and _reaches_all(n, forward) and _reaches_all(n, edges)


def _reaches_all(n: int, edges) -> bool:
    """True iff node 0 reaches all n nodes along the (source, target) edges."""
    targets: dict = {}
    for source, target in edges:
        targets.setdefault(source, []).append(target)
    seen = {0}
    stack = [0]
    while stack:
        for target in targets.get(stack.pop(), ()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return len(seen) == n


def trace_table(d: int) -> dict:
    """Trace triples of the four almost-bipartite variants at diameter d."""
    s = GaussianRational(_sign(d) * (d + 1))
    return {
        "0": (s, s, s),
        "x": (s, -s, -s),
        "y": (-s, s, -s),
        "z": (-s, -s, s),
    }


def trace_variant(traces, d: int) -> str | None:
    """The variant whose trace row matches, or None."""
    for n, pattern in trace_table(d).items():
        if tuple(traces) == pattern:
            return n
    return None


def classify(m: ModuleActionTriple) -> ModuleType:
    """The unique type of an irreducible triple, from its dimension and traces."""
    d = m.diameter
    tx, ty, tz = m.traces()
    zero = GaussianRational(0)
    if (tx, ty, tz) == (zero, zero, zero):
        if d % 2:
            raise ValueError(f"traceless module of odd diameter {d} matches no classified family")
        return b_type(d)
    n = trace_variant((tx, ty, tz), d)
    if n is not None:
        return ab_type(d, n)
    raise ValueError(
        f"trace triple ({tx},{ty},{tz}) at diameter {d} matches no row of the classification table"
    )
