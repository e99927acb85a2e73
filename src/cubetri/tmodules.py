"""Decomposition of the hypercube standard module into irreducible
Terwilliger modules, and the induced module structures on each piece.

The decomposition follows the raising/lowering structure: seed vectors are
the kernel of the lowering map inside each weight slice, and each seed is
raised until it dies.  Every basis vector lives in a single weight slice:
the thinness witness, and the disjoint supports that let `_class_action`
check each module against one restricted triple per class (D, r).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .acsa import ModuleActionTriple, ModuleType, ab_type, b_type, classify, restrict_triple
from .exactnum import gr
from .hypercube import (
    CubeContext,
    adjacency,
    distance_matrix,
    dual_adjacency,
    s_diagonal,
    second_dual_adjacency,
    _spectral_images,
)
from .linalg import ExactMatrix, VectorBasis, kernel_basis, rank, restrict
from .quotient import QuotientContext, psi_matrix, quotient_adjacency, quotient_dual_adjacency
from .sl2rep import Sl2Action, build_skew, check_brackets


@dataclass(frozen=True)
class SubmoduleBasis:
    """One irreducible T-module: a thin raising chain with metadata.

    Basis vector j is supported on the weight-(endpoint+j) slice.
    """

    module_id: str
    endpoint: int
    vectors: VectorBasis

    @property
    def diameter(self) -> int:
        return self.vectors.size - 1

    @property
    def dimension(self) -> int:
        return self.vectors.size

    def slice_labels(self):
        return [self.endpoint + j for j in range(self.vectors.size)]


def _slice_vertices(ctx: CubeContext, w: int):
    return [y for y in ctx.vertices() if ctx.weight(y) == w]


def _lowering_block(ctx: CubeContext, r: int) -> ExactMatrix:
    """The lowering part of A from the weight-r slice to the slice below."""
    rows = {y: idx for idx, y in enumerate(_slice_vertices(ctx, r - 1))}
    cols = _slice_vertices(ctx, r)
    one = gr(1)
    entries = {}
    for j, y in enumerate(cols):
        for b in range(ctx.D):
            z = y ^ (1 << b)
            if ctx.weight(z) == r - 1:
                entries[(rows[z], j)] = one
    return ExactMatrix(len(rows), len(cols), entries)


def _raise_vector(ctx: CubeContext, vec: dict, w: int) -> dict:
    """Apply the raising map (weight w -> w+1) to a slice-supported vector."""
    out: dict = {}
    for y, v in vec.items():
        for b in range(ctx.D):
            z = y ^ (1 << b)
            if ctx.weight(z) == w + 1:
                cur = out.get(z)
                out[z] = v if cur is None else cur + v
    return {z: v for z, v in out.items() if v}


@lru_cache(maxsize=None)
def decompose(ctx: CubeContext) -> list[SubmoduleBasis]:
    """All irreducible T-modules, as raising chains seeded in ker(lowering)."""
    D = ctx.D
    modules: list[SubmoduleBasis] = []
    total_dim = 0
    for r in range(D // 2 + 1):
        slice_r = _slice_vertices(ctx, r)
        if r == 0:
            seeds = [{0: gr(1)}]
        else:
            block = _lowering_block(ctx, r)
            kern = kernel_basis(block)
            seeds = []
            for m in range(kern.size):
                col = kern.column(m)
                seeds.append({slice_r[row]: v for (row, _c), v in col.entries.items()})
        expected_mult = comb(D, r) - (comb(D, r - 1) if r >= 1 else 0)
        if len(seeds) != expected_mult:
            raise AssertionError(
                f"endpoint {r} of Q_{D}: found {len(seeds)} seeds, "
                f"binomial cross-check expects {expected_mult}"
            )
        diameter = D - 2 * r
        for m, seed in enumerate(seeds):
            chain = [seed]
            current = seed
            for j in range(diameter):
                current = _raise_vector(ctx, current, r + j)
                if not current:
                    raise AssertionError(
                        f"chain r={r}#{m} of Q_{D} died early at step {j + 1}"
                    )
                chain.append(current)
            if _raise_vector(ctx, current, r + diameter):
                raise AssertionError(f"chain r={r}#{m} of Q_{D} failed to terminate")
            basis = VectorBasis.from_columns(ctx.nvertices, chain)
            modules.append(SubmoduleBasis(f"r{r}#{m}", r, basis))
            total_dim += diameter + 1
    if total_dim != ctx.nvertices:
        raise AssertionError(
            f"decomposition of Q_{D} spans {total_dim} of {ctx.nvertices} dimensions"
        )
    return modules


@lru_cache(maxsize=None)
def check_span(ctx: CubeContext) -> None:
    """Prove that the modules of `decompose(ctx)` together span V."""
    _check_slices(ctx, decompose(ctx))


def _check_slices(ctx: CubeContext, modules) -> None:
    """Each vector of a module lies in the weight slice its label names, and
    for each w = 0..D the C(D, w) vectors labelled w have full rank on that
    slice's rows.  The slices partition the vertices, so the vectors are
    independent and span V; anything else raises ValueError."""
    slices: dict = {}
    for m in modules:
        for j, label in enumerate(m.slice_labels()):
            col = m.vectors.column(j)
            if {ctx.weight(r) for (r, _c) in col.entries} != {label}:
                raise ValueError(f"D={ctx.D} {m.module_id}: vector {j} leaves its weight slice")
            slices.setdefault(label, []).append(col)
    for w in range(ctx.D + 1):
        cols = slices.get(w, [])
        rows = [[col.get(y, 0) for col in cols] for y in _slice_vertices(ctx, w)]
        if len(cols) != comb(ctx.D, w) or rank(ExactMatrix.from_rows(rows)) != len(cols):
            raise ValueError(f"D={ctx.D}: weight-{w} slice vectors are not a basis")


@lru_cache(maxsize=None)
def h_by_class(ctx: CubeContext) -> tuple[ExactMatrix, ...]:
    """h_W for the classes r = 0..D//2, once Go's brackets, the skew relations
    of s = `s_diagonal(ctx)` and s = h k are proved on V.

    `_class_action` restricts X = A, Y = A* and s to each T-module W (by
    products for every module but its class representative), so W is
    invariant under Z = (XY - YX)/(2i) and h too.  `_skew_class` proves the
    identities on W, and `check_span` proves the modules span V."""
    check_span(ctx)
    builders = (adjacency, dual_adjacency, s_diagonal)
    by_class = {w.endpoint: _class_action(ctx, w, builders, _skew_class) for w in decompose(ctx)}
    return tuple(by_class.values())


def _skew_class(ctx: CubeContext, x: ExactMatrix, y: ExactMatrix, s: ExactMatrix) -> ExactMatrix:
    """h_W from x_W, y_W and z_W = (x_W y_W - y_W x_W)/(2i); requires the sl2
    brackets, the skew relations (`build_skew`) and s_W = h_W k."""
    action = Sl2Action(x, y, (x @ y - y @ x) * gr(0, Fraction(-1, 2)))
    where = f"on the diameter-{action.diameter} modules"
    if not check_brackets(action):
        raise AssertionError(f"sl2 brackets fail {where} of Q_{ctx.D}")
    skew = build_skew(action)
    if s != skew.s_mat:
        raise AssertionError(f"skew operator on Q_{ctx.D}: closed form disagrees with h*k {where}")
    return skew.h_mat


def dual_profile(ctx: CubeContext, w: SubmoduleBasis) -> list[int]:
    """Dimensions of the spectral projections E_i W for i = 0..D.

    `_class_action` proves that S = w.vectors.matrix has full column rank and
    A S = S A_W, or raises ValueError.  Then E_i S = p_i(A) S = S p_i(A_W) for
    the interpolation polynomial p_i of E_i, so dim E_i W = rank p_i(A_W)."""
    return list(_class_action(ctx, w, (adjacency,), _window_ranks))


def _window_ranks(ctx: CubeContext, a_w: ExactMatrix) -> tuple[int, ...]:
    return tuple(rank(p) for p in _spectral_images(a_w, ExactMatrix.identity(a_w.nrows), ctx.D))


# Variant tables for the odd-diameter splits of T-modules under the positive
# structure, keyed by the parity of floor(D/2).  Exact computation shows the
# endpoint parity does not enter: the dual adjacency restricted to an
# endpoint-r module carries an inherent (-1)^r which the classification
# absorbs.
# psi is injective on W+ and intertwines the structures, so a quotient image
# psi(W+) has the type of W+ and uses _PLUS_TABLE too.
_PLUS_TABLE = {0: "0", 1: "z"}
_MINUS_TABLE = {0: "y", 1: "x"}

# Reference tables keyed additionally by endpoint parity.  They describe the
# other convention: classification after rescaling the restricted dual
# adjacency by (-1)^r (equivalently, under the negative structure at odd
# endpoints).  The verification suites compare them against the untwisted
# classification and report every cell where the conventions disagree.
# tests/test_acceptance.py::test_criterion_7_odd_types_reference_tables_known_defect
# checks every cell at D = 5, 7, 9 under the twisted convention.  Quotient
# images psi(W+) are read from REFERENCE_PLUS_TABLE, for the reason above.
REFERENCE_PLUS_TABLE = {(0, 0): "0", (0, 1): "z", (1, 0): "x", (1, 1): "y"}
REFERENCE_MINUS_TABLE = {(0, 0): "y", (0, 1): "x", (1, 0): "z", (1, 1): "0"}


def _classify_against(sub: ModuleActionTriple, want: ModuleType, what: str) -> ModuleType:
    found = classify(sub)
    if found != want:
        raise AssertionError(f"{what}: classified {found}, table predicts {want}")
    return found


@lru_cache(maxsize=None)
def _class_value(space, r: int, builders, derive):
    """The basis of the class (D, r) representative, the first T-module of
    endpoint r (for a quotient, the image of its W+), each build(space)
    `restrict`ed to it, and derive(space, *those matrices)."""
    is_quotient = isinstance(space, QuotientContext)
    reps = [w for w in decompose(space.parent if is_quotient else space) if w.endpoint == r]
    if not reps:
        raise ValueError(f"Q_{space.D} has no T-module with endpoint {r}")
    rep = (_quotient_image(space, psi_matrix(space), reps[0]) if is_quotient else reps[0]).vectors
    mats = tuple(restrict(build(space), rep) for build in builders)
    return rep, mats, derive(space, *mats)


def _class_action(space, w: SubmoduleBasis, builders, derive):
    """derive(space, *M_W) for the matrices M = build(space) on span(w.vectors),
    in its coordinates, w a module of class (D, r = w.endpoint).

    Every module of a class carries the same action in its normalized chain
    basis, so the M_class are `restrict`ed once, on the representative.  Any
    other basis S is proved by products: its columns are nonzero with
    pairwise disjoint supports (so S has full column rank) and M S == S M_class
    holds exactly, so M_W = M_class.  Anything else raises ValueError."""
    rep, mats, value = _class_value(space, w.endpoint, builders, derive)
    if w.vectors == rep:
        return value
    s = w.vectors.matrix
    owner: dict = {}
    for (row, c) in s.entries:
        if owner.setdefault(row, c) != c:
            raise ValueError(f"basis vectors {owner[row]} and {c} overlap at coordinate {row}")
    where = f"class (D={space.D}, r={w.endpoint}) action"
    nonzero = len(set(owner.values()))
    if (s.nrows, s.ncols, nonzero) != (rep.ambient_dim, rep.size, rep.size):
        raise ValueError(f"subspace not invariant under the {where}: a {s.nrows}x{s.ncols} "
                         f"basis with {nonzero} nonzero vectors")
    for build, m in zip(builders, mats):
        image, want = build(space) @ s, s @ m
        if image != want:
            j = min(c for _row, c in (image - want).entries)
            raise ValueError(f"subspace not invariant: image of basis vector {j} is not the {where}")
    return value


def _antipodal_map(ctx: CubeContext) -> ExactMatrix:
    return distance_matrix(ctx, ctx.D)


def _anticommutator_triple(_space, x: ExactMatrix, y: ExactMatrix) -> ModuleActionTriple:
    return ModuleActionTriple(x, y, (x @ y + y @ x) * Fraction(1, 2))


def _halves(_ctx, inside: ExactMatrix) -> tuple[VectorBasis, VectorBasis]:
    eye = ExactMatrix.identity(inside.nrows)
    return kernel_basis(inside - eye), kernel_basis(inside + eye)


@lru_cache(maxsize=None)
def module_structure(ctx: CubeContext, w: SubmoduleBasis) -> ModuleActionTriple:
    """The positive structure on W in the coordinates of w.vectors: x = A and
    y = A*_{D-1} by `_class_action`, z_W = (x_W y_W + y_W x_W)/2 as z = (xy+yx)/2.
    One triple per class; memoized on (ctx, w), so each module is checked once."""
    return _class_action(ctx, w, (adjacency, second_dual_adjacency), _anticommutator_triple)


@lru_cache(maxsize=None)
def quotient_structure(q: QuotientContext, sb: SubmoduleBasis) -> ModuleActionTriple:
    """`module_structure` for a quotient image sb, with x, y the quotient
    adjacency and dual adjacency; one triple per (q, endpoint)."""
    builders = (quotient_adjacency, quotient_dual_adjacency)
    return _class_action(q, sb, builders, _anticommutator_triple)


@lru_cache(maxsize=None)
def antipodal_split(ctx: CubeContext, w: SubmoduleBasis) -> tuple[VectorBasis, VectorBasis]:
    """Intersections of W with the symmetric/antisymmetric halves, in
    W-coordinates (ambient vectors S c): the kernels of (A_D)_W - I and
    (A_D)_W + I for the antipodal involution A_D, once per class.  Memoized
    on (ctx, w): `split_and_type` and `quotient_modules` share one split."""
    return _class_action(ctx, w, (_antipodal_map,), _halves)


def split_and_type(ctx: CubeContext, w: SubmoduleBasis):
    """Module structure carried by one T-module under the positive structure.

    Even D: the module itself (basis w.vectors), of type B(D-2r).  Odd D:
    the two halves under the antipodal involution, in W-coordinates as
    `antipodal_split` returns them, with variants from the parity tables.
    """
    sub = module_structure(ctx, w)
    if ctx.D % 2 == 0:
        want = b_type(ctx.D - 2 * w.endpoint)
        return [(w.vectors, _classify_against(sub, want, f"Q_{ctx.D} module {w.module_id}"))]
    cal_d = ctx.D // 2
    out = []
    for basis, table, label in zip(
        antipodal_split(ctx, w), (_PLUS_TABLE, _MINUS_TABLE), ("plus", "minus")
    ):
        want = ab_type(cal_d - w.endpoint, table[cal_d % 2])
        what = f"Q_{ctx.D} module {w.module_id} ({label} half)"
        out.append((basis, _classify_against(restrict_triple(sub, basis), want, what)))
    return out


def quotient_modules(q: QuotientContext):
    """Images psi(W+) of the parent T-modules in the quotient, with their types."""
    psi = psi_matrix(q)
    cal_d = q.cal_d
    out = []
    for w in decompose(q.parent):
        sb = _quotient_image(q, psi, w)
        want = ab_type(cal_d - w.endpoint, _PLUS_TABLE[cal_d % 2])
        what = f"Q~_{q.D} image of {w.module_id}"
        out.append((sb, _classify_against(quotient_structure(q, sb), want, what)))
    return out


def _quotient_image(q: QuotientContext, psi: ExactMatrix, w: SubmoduleBasis) -> SubmoduleBasis:
    """psi S c for the W-coordinates c of W+, columns by class weight."""
    plus, _minus = antipodal_split(q.parent, w)
    img = psi @ w.vectors.matrix @ plus.matrix
    cols = [{r: v for (r, c), v in img.entries.items() if c == j} for j in range(img.ncols)]
    cols.sort(key=lambda col: min(q.class_weight(u) for u in col))
    return SubmoduleBasis(w.module_id, w.endpoint, VectorBasis.from_columns(q.nclasses, cols))


def module_summary(ctx: CubeContext, w: SubmoduleBasis, typed) -> dict:
    """JSON-ready record for one module of the decomposition listing."""
    record = {
        "id": w.module_id,
        "endpoint": w.endpoint,
        "diameter": w.diameter,
        "dim": w.dimension,
    }
    if ctx.D % 2 == 0:
        record["type"] = str(typed[0][1])
        record["parity_split"] = None
    else:
        record["type"] = None
        record["parity_split"] = {
            "plus": str(typed[0][1]),
            "minus": str(typed[1][1]),
        }
    return record
