"""Leonard-triple verification: eigenstructure, standard orderings,
tridiagonal shape tests, the Bannai/Ito condition, anticommutator scalars,
and normalization verdicts, gathered into machine-checkable certificates.

Every eigenvalue here is an integer root of an exact characteristic
polynomial, and its eigenvector an exact kernel vector; no numeric root
finding, no floating point.
"""
from __future__ import annotations

from functools import lru_cache

from .acsa import ModuleType, ab_type, b_type, trace_variant
from .exactnum import GaussianRational, gr
from .linalg import ExactMatrix, bracket, integer_eigenspaces, restrict
from .record import Record, _set

GENERATOR_LABELS = ("A", "B", "C")

# (diagonalized generator, companion) pairs in definition order
SHAPE_SLOTS = (
    ("A", "B"),
    ("A", "C"),
    ("B", "C"),
    ("B", "A"),
    ("C", "A"),
    ("C", "B"),
)


class LeonardTripleCertificate(Record):
    """Verification record for one ordered triple on one module."""

    __slots__ = (
        "module_id", "dimension", "orderings", "shapes", "bannai_ito", "nu", "traces", "verdict", "classification"
    )

    def __init__(
        self, module_id: str, dimension: int, orderings: dict, shapes: tuple, bannai_ito: bool,
        nu: tuple, traces: tuple, verdict: str, classification: ModuleType | None,
    ):
        _set(self, "module_id", module_id)
        _set(self, "dimension", dimension)
        _set(self, "orderings", orderings)
        _set(self, "shapes", shapes)
        _set(self, "bannai_ito", bannai_ito)
        _set(self, "nu", nu)
        _set(self, "traces", traces)
        _set(self, "verdict", verdict)
        _set(self, "classification", classification)

    @property
    def diameter(self) -> int:
        return self.dimension - 1

    def to_json_dict(self) -> dict:
        return {
            "module_id": self.module_id,
            "dim": self.dimension,
            "orderings": {k: list(v) for k, v in self.orderings.items()},
            "shapes": [
                {"diagonal": diag, "companion": comp, "shape": s}
                for (diag, comp), s in zip(SHAPE_SLOTS, self.shapes)
            ],
            "bannai_ito": self.bannai_ito,
            "nu": [str(v) for v in self.nu] if self.nu is not None else None,
            "traces": [str(v) for v in self.traces],
            "verdict": self.verdict,
            "type": str(self.classification) if self.classification else None,
        }


def eigenstructure(m: ExactMatrix, bound: int):
    """All (integer eigenvalue, eigenvector) pairs, multiplicity-free.

    Scans the integer roots in [-bound, bound] of the characteristic
    polynomial (see `integer_eigenspaces`); fails if an eigenspace has
    dimension two or they do not exhaust the space."""
    pairs = []
    for theta, k in integer_eigenspaces(m, bound):
        if k.ncols > 1:
            raise ValueError(
                f"eigenvalue {theta} has multiplicity {k.ncols}; not a Leonard-triple candidate"
            )
        pairs.append((theta, k.column(0)))
    return pairs


def standard_ordering(pairs, other1: ExactMatrix, other2: ExactMatrix):
    """Order the eigenvalues so both companion matrices become irreducible
    tridiagonal; returns (ordering, companion1, companion2) in that basis.

    The support graph over eigenvalues must be a path; the traversal starts
    at the endpoint with the larger eigenvalue."""
    n = len(pairs)
    p = ExactMatrix.hstack(vec for _theta, vec in pairs)
    c1, c2 = restrict(other1, p), restrict(other2, p)
    neighbors: dict = {j: set() for j in range(n)}
    for mat in (c1, c2):
        for r, row in mat.rows.items():
            for c, _a, _b in row:
                if r != c:
                    neighbors[r].add(c)
                    neighbors[c].add(r)
    order = _path_order(neighbors, [theta for theta, _v in pairs])
    for mat, label in ((c1, "first"), (c2, "second")):
        for a, b in zip(order, order[1:]):
            if not mat.get(a, b) or not mat.get(b, a):
                raise ValueError(
                    f"{label} companion matrix is tridiagonal but not irreducible: "
                    f"zero block between eigenvalues {pairs[a][0]} and {pairs[b][0]}"
                )
    pos = {j: p for p, j in enumerate(order)}  # a permutation keeps the stored form canonical
    c1, c2 = (
        ExactMatrix._make(n, n, m.den, {
            pos[r]: [(pos[c], a, b) for c, a, b in row] for r, row in m.rows.items()
        })
        for m in (c1, c2)
    )
    return [pairs[j][0] for j in order], c1, c2


def _path_order(neighbors: dict, thetas) -> list[int]:
    n = len(neighbors)
    if n == 1:
        return [0]
    degrees = {j: len(s) for j, s in neighbors.items()}
    ends = [j for j, deg in degrees.items() if deg <= 1]
    if any(deg > 2 for deg in degrees.values()) or len(ends) != 2:
        raise ValueError("eigenvalue support graph is not a path")
    start = max(ends, key=lambda j: thetas[j])
    order = [start]
    seen = {start}
    while len(order) < n:
        nxt = [j for j in neighbors[order[-1]] if j not in seen]
        if not nxt:
            raise ValueError("eigenvalue support graph is not a path")
        order.append(nxt[0])
        seen.add(nxt[0])
    if any(j not in seen for j in neighbors):
        raise ValueError("eigenvalue support graph is not a path")
    return order


def tridiagonal_shape(m: ExactMatrix) -> str:
    """'bipartite', 'almost-bipartite' or 'neither' for a tridiagonal matrix."""
    n = m.nrows
    diag = [m.get(i, i) for i in range(n)]
    corners = {0, n - 1}
    middle_zero = all(not diag[i] for i in range(n) if i not in corners)
    nonzero_corners = sum(1 for i in corners if diag[i])
    if nonzero_corners == 0 and middle_zero:
        return "bipartite"
    if nonzero_corners == 1 and middle_zero:
        return "almost-bipartite"
    return "neither"


def bannai_ito_check(ordering) -> bool:
    """(theta_{i-2} - theta_{i+1})/(theta_{i-1} - theta_i) = -1 throughout,
    tested cross-multiplied on the integer eigenvalues; vacuously true below
    diameter 3."""
    theta = list(ordering)
    for i in range(2, len(theta) - 1):
        gap = theta[i - 1] - theta[i]
        if gap == 0:
            raise ValueError("repeated adjacent eigenvalues in a standard ordering")
        if theta[i - 2] - theta[i + 1] != -gap:
            return False
    return True


def nu_scalars(a: ExactMatrix, a_star: ExactMatrix, a_eps: ExactMatrix):
    """The unique scalars with AA*+A*A = nu^eps A^eps and cyclic variants."""
    nu_eps = _anticommutator_ratio(a, a_star, a_eps)
    nu = _anticommutator_ratio(a_star, a_eps, a)
    nu_star = _anticommutator_ratio(a_eps, a, a_star)
    return nu, nu_star, nu_eps


def _anticommutator_ratio(p: ExactMatrix, q: ExactMatrix, target: ExactMatrix) -> GaussianRational:
    lhs = bracket(p, q)
    if target.is_zero():
        raise ValueError("anticommutator target is the zero matrix")
    key = min(target.entries)
    ratio = lhs.get(*key) / target.entries[key]
    if lhs != target * ratio:
        raise ValueError("anticommutator is not proportional to the third generator")
    return ratio


def certify_triple(
    a: ExactMatrix,
    a_star: ExactMatrix,
    a_eps: ExactMatrix,
    module_id: str = "",
) -> LeonardTripleCertificate:
    """Full verification record for the ordered triple (a, a_star, a_eps),
    memoized on the triple's value: equal triples share one certification."""
    cert = _certify(a, a_star, a_eps)
    return cert.replace(module_id=module_id, orderings={k: list(v) for k, v in cert.orderings.items()})


@lru_cache(maxsize=None)
def _certify(a: ExactMatrix, a_star: ExactMatrix, a_eps: ExactMatrix) -> LeonardTripleCertificate:
    mats = {"A": a, "B": a_star, "C": a_eps}
    n = a.nrows
    bound = 2 * n + 1
    orderings = {}
    shapes = []
    bannai = True
    companions = {
        "A": ("B", "C"),
        "B": ("C", "A"),
        "C": ("A", "B"),
    }
    shape_by_slot = {}
    for label in GENERATOR_LABELS:
        first, second = companions[label]
        pairs = eigenstructure(mats[label], bound)
        ordering, c1, c2 = standard_ordering(pairs, mats[first], mats[second])
        orderings[label] = ordering
        bannai = bannai and bannai_ito_check(ordering)
        shape_by_slot[(label, first)] = tridiagonal_shape(c1)
        shape_by_slot[(label, second)] = tridiagonal_shape(c2)
    shapes = tuple(shape_by_slot[slot] for slot in SHAPE_SLOTS)
    if any(mats[label].is_zero() for label in GENERATOR_LABELS):
        nu = None  # zero generators leave the anticommutator scalars undefined
    else:
        nu = nu_scalars(a, a_star, a_eps)
    traces = (a.trace(), a_star.trace(), a_eps.trace())
    verdict, classification = _verdict(n - 1, shapes, bannai, nu, traces)
    return LeonardTripleCertificate(
        module_id="",
        dimension=n,
        orderings=orderings,
        shapes=shapes,
        bannai_ito=bannai,
        nu=nu,
        traces=traces,
        verdict=verdict,
        classification=classification,
    )


def _verdict(d: int, shapes, bannai: bool, nu, traces):
    two = gr(2)
    if bannai and all(s == "bipartite" for s in shapes) and nu == (two, two, two):
        classified = b_type(d) if d >= 3 and d % 2 == 0 else None
        return "normalized-B", classified
    if bannai and nu is not None and all(s == "almost-bipartite" for s in shapes):
        n = trace_variant(traces, d)
        if n is not None:
            return f"{n}-normalized-AB", (ab_type(d, n) if d >= 3 else None)
    return "other", None
