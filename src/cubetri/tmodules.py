"""Decomposition of the hypercube standard module into irreducible
Terwilliger modules, and the induced module structures on each piece.

The decomposition follows the raising/lowering structure of the one
adjacency matrix A.  The kernel of lowering on the weight-r slice is the
Specht module S^(D-r,r), and its standard polytabloids are a basis in
closed form (G. D. James, The Representation Theory of the Symmetric
Groups, LNM 682, 1978); the raising chains on them are the T-modules
(J. T. Go, "The Terwilliger algebra of the hypercube", Europ. J. Combin.
23, 2002).  The bit permutations P_sigma commute with A and with every
E*_i, and P_sigma e_t = e_{sigma t}, so `decompose` raises one chain per
class (D, r), on the polytabloid of the first standard tableau, and builds
every other module as its relabelling.  It proves that the chains are a
basis of V from one sl2 identity of raising and lowering, with no rank
taken.  A module's basis is the matrix whose columns are its chain vectors
(`SubmoduleBasis.vectors`), and the V+/V- halves are matrices of
W-coordinates.  Every basis vector lives in a single weight slice: the
thinness witness, and the disjoint supports that let `_module_action` read
each action off one row per basis vector and prove it by one exact
product, with no elimination on V.

That product runs once per class (D, r), on r{r}#0 (on Q~_D, psi(W+)); every
other module is its relabelling by a permutation of bit positions, with which
every acting matrix is checked to commute (`_module_action`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
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
)
from .linalg import ExactMatrix, integer_eigenspaces, kernel_basis
from .quotient import QuotientContext, psi_matrix, quotient_adjacency, quotient_dual_adjacency
from .sl2rep import Sl2Action, build_skew, check_brackets


@dataclass(frozen=True)
class SubmoduleBasis:
    """One irreducible T-module: a thin raising chain with metadata.

    Basis vector j, column j of `vectors`, is supported on the
    weight-(endpoint+j) slice, so the columns have disjoint supports.
    `tableau` is the second row of the standard tableau of its seed, or None
    for a basis built otherwise.
    """

    module_id: str
    endpoint: int
    vectors: ExactMatrix
    tableau: tuple[int, ...] | None = None

    @property
    def diameter(self) -> int:
        return self.vectors.ncols - 1

    @property
    def dimension(self) -> int:
        return self.vectors.ncols


def _standard_tableaux(D: int, r: int) -> list[tuple[int, ...]]:
    """The second rows b_1 < ... < b_r of the standard tableaux of shape
    (D-r, r), in lexicographic order: a_i < b_i for a_1 < ... < a_r the r
    smallest other positions."""
    out = []
    for second in combinations(range(D), r):
        first = [p for p in range(D) if p not in second]
        if all(a < b for a, b in zip(first, second)):
            out.append(second)
    return out


def _polytabloid(D: int, second: tuple[int, ...]) -> dict:
    """e_t = prod_i (e_{b_i} - e_{a_i}) for the tableau t with second row b:
    the +-1 sum over c_i in {a_i, b_i} of the vertex with bits {c_i},
    negated once per c_i = a_i."""
    vec = {0: gr(1)}
    for a, b in zip((p for p in range(D) if p not in second), second):
        vec = {y | 1 << c: v if c == b else -v for y, v in vec.items() for c in (a, b)}
    return vec


@lru_cache(maxsize=None)
def _columns(m: ExactMatrix) -> list[list]:
    """Column y of m as a list of (row, value) pairs, for each y."""
    cols: list[list] = [[] for _ in range(m.ncols)]
    for (z, y), v in m.entries.items():
        cols[y].append((z, v))
    return cols


def _move_vector(ctx: CubeContext, vec: dict, to: int) -> dict:
    """The part of A v that lies in the weight-`to` slice, for A =
    `adjacency(ctx)` and v supported on the slice next to it: raising R if
    `to` is above, lowering L if below, so R + L = A."""
    cols = _columns(adjacency(ctx))
    out: dict = {}
    for y, v in vec.items():
        for z, a in cols[y]:
            if ctx.weight(z) == to:
                cur = out.get(z)
                out[z] = a * v if cur is None else cur + a * v
    return {z: v for z, v in out.items() if v}


def _check_commutator(ctx: CubeContext) -> None:
    """LR - RL = (D - 2w) I on the weight-w slice, for R and L the raising
    and lowering parts of A (`_move_vector`), checked exactly at the one
    vertex y = 2^w - 1 of each weight w.  Once A commutes with the two
    generators of S_D, and so with every bit permutation P_sigma
    (`_check_symmetric`), so do R, L and LR - RL, because P_sigma keeps
    weights; S_D is transitive on each weight slice, so the identity at e_y
    gives it at every P_sigma e_y."""
    D = ctx.D
    for w in range(D + 1):
        y = (1 << w) - 1
        diff = _move_vector(ctx, _move_vector(ctx, {y: 1}, w + 1), w)
        diff[y] = diff.get(y, 0) - (D - 2 * w)
        for z, v in _move_vector(ctx, _move_vector(ctx, {y: 1}, w - 1), w).items():
            diff[z] = diff.get(z, 0) - v
        if any(diff.values()):
            raise AssertionError(f"Q_{D}: LR - RL != (D - 2w) I at vertex {y} of weight {w}")


@lru_cache(maxsize=None)
def decompose(ctx: CubeContext) -> list[SubmoduleBasis]:
    """All irreducible T-modules, as raising chains on polytabloid seeds,
    proved to be a basis of V.

    Let R and L be the raising and lowering parts of A = `adjacency(ctx)`
    (`_move_vector`); each seed and each chain vector lies in one weight
    slice by construction.  `_check_symmetric` proves A P_sigma = P_sigma A
    for the two generators of S_D, hence for every bit permutation sigma,
    and P_sigma keeps weights, so R P_sigma = P_sigma R and
    L P_sigma = P_sigma L.  `_check_commutator` then checks
    LR - RL = (D - 2w) I on every weight slice.

    For each endpoint r there must be C(D, r) - C(D, r - 1) standard
    tableaux of shape (D - r, r).  Only the seed u = e_rep of the first one
    is built and raised: lowering must kill it, its chain must not die
    before step D - 2r, and it must then terminate.  Module t gets the basis
    P_sigma S_rep, for sigma the bit permutation that takes the first
    tableau to t, read row by row (`_relabelled`).  P_sigma e_rep = e_t, and
    R^k P_sigma = P_sigma R^k, so column k is R^k e_t scaled as column k of
    S_rep, and L e_t = P_sigma L e_rep = 0.  The seed of each module must
    have its largest vertex at the bits of its tableau, and the tableaux
    are distinct, which makes the seeds triangular and so independent.
    Together these prove that the chains are a basis of V:

    - Chains are sl2 strings.  Let u be a seed.  By induction on k,
      L R^k u = k(D - 2r - k + 1) R^(k-1) u.  So L^k R^k is a nonzero
      scalar on the seeds for k <= D - 2r, and R^(w-r) is injective on
      them.
    - Different endpoints are independent.  RL acts on R^(w-r) u as
      (w - r)(D - r - w + 1).  For a fixed w this value strictly decreases
      in r, so the pieces of the weight-w slice with different r are
      eigenspaces of RL for distinct eigenvalues, hence independent.
    - The counts fill each slice.  Over r <= min(w, D - w) the counts
      telescope to C(D, w), the size of the weight-w slice, and the slices
      partition the vertices.

    The total dimension is checked as well."""
    D = ctx.D
    _check_symmetric(ctx, adjacency)
    _check_commutator(ctx)
    modules: list[SubmoduleBasis] = []
    total_dim = 0
    for r in range(D // 2 + 1):
        tableaux = _standard_tableaux(D, r)
        expected_mult = comb(D, r) - (comb(D, r - 1) if r >= 1 else 0)
        if len(tableaux) != expected_mult:
            raise AssertionError(
                f"endpoint {r} of Q_{D}: found {len(tableaux)} seeds, "
                f"binomial cross-check expects {expected_mult}"
            )
        if len(set(tableaux)) != len(tableaux):
            raise AssertionError(f"endpoint {r} of Q_{D}: seeds share a largest vertex")
        chain = [_polytabloid(D, tableaux[0])]
        if _move_vector(ctx, chain[0], r - 1):
            raise AssertionError(f"seed r={r}#0 of Q_{D} is not killed by lowering")
        diameter = D - 2 * r
        for j in range(diameter):
            chain.append(_move_vector(ctx, chain[-1], r + j + 1))
            if not chain[-1]:
                raise AssertionError(f"chain r={r}#0 of Q_{D} died early at step {j + 1}")
        if _move_vector(ctx, chain[-1], r + diameter + 1):
            raise AssertionError(f"chain r={r}#0 of Q_{D} failed to terminate")
        rep = ExactMatrix.from_columns(ctx.nvertices, chain)
        for m, tableau in enumerate(tableaux):
            basis = _relabelled(ctx, rep, tableaux[0], tableau)
            if max(y for y, c in basis.entries if c == 0) != sum(1 << p for p in tableau):
                raise AssertionError(
                    f"seed r={r}#{m} of Q_{D}: largest vertex is not at tableau {tableau}"
                )
            modules.append(SubmoduleBasis(f"r{r}#{m}", r, basis, tableau))
            total_dim += diameter + 1
    if total_dim != ctx.nvertices:
        raise AssertionError(
            f"decomposition of Q_{D} spans {total_dim} of {ctx.nvertices} dimensions"
        )
    return modules


@lru_cache(maxsize=None)
def h_by_class(ctx: CubeContext) -> tuple[ExactMatrix, ...]:
    """h_W for the classes r = 0..D//2, once Go's brackets, the skew relations
    of s = `s_diagonal(ctx)` and s = h k are proved on V.

    `_module_action` proves each T-module W invariant under X = A, Y = A*
    and s, so W is invariant under Z = (XY - YX)/(2i) and h too.
    `_skew_class` proves the identities on W, once per class, and
    `decompose` proves that the modules are a basis of V."""
    builders = (adjacency, dual_adjacency, s_diagonal)
    by_class = {w.endpoint: _module_action(ctx, w, builders, _skew_class) for w in decompose(ctx)}
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

    `_module_action` proves that S = w.vectors has full column rank and
    A S = S A_W, or raises ValueError.  Then E_i W = S V_i for V_i the
    theta_i-eigenspace of A_W, so dim E_i W is the dimension the one integer
    eigenvalue scan finds at theta_i = D - 2i, and 0 where it finds none.
    The scan proves that A_W is diagonalizable or raises ValueError."""
    return list(_module_action(ctx, w, (adjacency,), _eigenspace_dims))


def _eigenspace_dims(ctx: CubeContext, a_w: ExactMatrix) -> tuple[int, ...]:
    dims = {theta: k.ncols for theta, k in integer_eigenspaces(a_w, ctx.D)}
    return tuple(dims.get(ctx.D - 2 * i, 0) for i in range(ctx.D + 1))


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


@lru_cache(maxsize=None)
def _typed(sub: ModuleActionTriple, basis: ExactMatrix | None = None) -> ModuleType:
    """classify(sub restricted to basis), memoized on value: once per class."""
    return classify(sub if basis is None else restrict_triple(sub, basis))


def _classify_against(sub, want: ModuleType, what: str, basis=None) -> ModuleType:
    found = _typed(sub, basis)
    if found != want:
        raise AssertionError(f"{what}: classified {found}, table predicts {want}")
    return found


def _module_action(space, w: SubmoduleBasis, builders, derive):
    """derive(space, *M_W) for the matrices M = build(space) on span(w.vectors),
    in its coordinates.  A basis with no tableau is proved by `_product_proof`.
    Otherwise w gets the value of its class representative (`_derived`), for
    sigma the bit permutation that takes rep's tableau, read row by row, to
    w's: S_t = w.vectors must be P_sigma S_rep entry for entry (ValueError
    otherwise), and M P_sigma = P_sigma M, which `_check_symmetric` proves
    on the two generators of S_D, so M S_t = P_sigma M S_rep =
    P_sigma S_rep M_rep = S_t M_rep."""
    if w.tableau is None:
        return derive(space, *_product_proof(space, w, builders))
    rep, value = _derived(space, w.endpoint, builders, derive)
    for build in builders:
        _check_symmetric(space, build)
    if w.vectors != _relabelled(space, rep.vectors, rep.tableau, w.tableau):
        raise ValueError(f"module {w.module_id} is not the relabelling of {rep.module_id}")
    return value


@lru_cache(maxsize=None)
def _derived(space, endpoint: int, builders, derive):
    """The representative r{endpoint}#0 (on Q~_D, psi(W+)) and derive of its `_product_proof`."""
    if isinstance(space, QuotientContext):
        rep = _quotient_image(space, endpoint)
    else:
        rep = next(w for w in decompose(space) if w.endpoint == endpoint)
    return rep, derive(space, *_product_proof(space, rep, builders))


def _product_proof(space, w: SubmoduleBasis, builders) -> tuple[ExactMatrix, ...]:
    """The M_W for M = build(space), proved by products on V.

    The columns of S = w.vectors must be nonzero with pairwise disjoint
    supports, which proves that S has full column rank.  With p_i the first
    row of column i, (S X)[p_i, j] = S[p_i, i] X[i, j] for every X, so the
    only candidate is M_W[i, j] = (M S)[p_i, j] / S[p_i, i], and M S == S M_W
    is checked exactly.  Anything else raises ValueError."""
    s = w.vectors
    owner: dict = {}
    first: dict = {}
    for (row, c) in sorted(s.entries):
        if owner.setdefault(row, c) != c:
            raise ValueError(f"basis vectors {owner[row]} and {c} overlap at coordinate {row}")
        first.setdefault(c, row)
    if len(first) != s.ncols:
        raise ValueError(f"basis vector {min(set(range(s.ncols)) - set(first))} is zero")
    pivots = {row: (c, s.entries[(row, c)].inverse()) for c, row in first.items()}
    mats = []
    for build in builders:
        image = build(space) @ s
        m_w = ExactMatrix(s.ncols, s.ncols, {
            (pivots[row][0], j): v * pivots[row][1]
            for (row, j), v in image.entries.items() if row in pivots
        })
        want = s @ m_w
        if image != want:
            j = min(c for _row, c in (image - want).entries)
            raise ValueError(f"subspace not invariant: image of basis vector {j} leaves the span")
        mats.append(m_w)
    return tuple(mats)


def _relabelling(space, positions):
    """The coordinate map of P_sigma for sigma(p) = positions[p] on bit
    positions: y -> sigma(y) on Q_D, and class u -> class_of(sigma(u)) on
    Q~_D.  It reads two tables, one over each half of the bit positions,
    so a relabelling costs 2^(D/2) entries, not 2^D."""
    quotient = isinstance(space, QuotientContext)
    nbits = space.D - quotient  # class indices are the vertices below 2^(D-1)
    half = nbits // 2
    low, high = [0], [0]
    for p in range(half):
        low += [y | 1 << positions[p] for y in low]
    for p in range(half, nbits):
        high += [y | 1 << positions[p] for y in high]
    mask = (1 << half) - 1
    if quotient:
        class_of = space.class_of
        return lambda y: class_of(low[y & mask] | high[y >> half])
    return lambda y: low[y & mask] | high[y >> half]


def _relabelled(space, s: ExactMatrix, rep_tableau, tableau) -> ExactMatrix:
    """P_sigma s, for sigma the bit permutation that takes rep_tableau to
    tableau, each read row by row; sigma is applied to the stored rows of s only."""
    words = (sorted(range(space.D), key=t.__contains__) for t in (rep_tableau, tableau))
    sigma = _relabelling(space, dict(zip(*words)))
    image = {(sigma(y), c): v for (y, c), v in s.entries.items()}
    return ExactMatrix._make(s.nrows, s.ncols, image)


@lru_cache(maxsize=None)
def _check_symmetric(space, build) -> None:
    """M P_tau == P_tau M, i.e. M[tau(y), tau(z)] = M[y, z], for M = build(space)
    and tau each of the transposition (0 1) and the cycle (0 1 ... D-1) of bit
    positions, which generate S_D (for D <= 1 there is nothing to check, and
    at D = 2 they coincide).  On Q~_D the cycle takes bit D-2 to D-1, and
    class_of folds it back.  tau is checked to be a bijection, so it maps the
    stored entries one to one onto stored entries of equal value; there are
    as many, so M has no others.  The sigma with M P_sigma = P_sigma M form a
    group, so M commutes with every P_sigma."""
    D = space.D
    if D < 2:
        return
    m = build(space)
    entries = m.entries
    for name, positions in (
        ("transposition (0 1)", [1, 0, *range(2, D)]),
        (f"cycle (0 1 ... {D - 1})", [*range(1, D), 0]),
    ):
        sigma = _relabelling(space, positions)
        tau = [sigma(y) for y in range(m.nrows)]
        what = f"{build.__name__} at D={D}, {name}"
        if len(set(tau)) != len(tau):
            raise AssertionError(f"{what}: the relabelling is not a bijection")
        if any(entries.get((tau[y], tau[z])) != v for (y, z), v in entries.items()):
            raise AssertionError(f"{what}: the builder does not commute with it")


def _antipodal_map(ctx: CubeContext) -> ExactMatrix:
    return distance_matrix(ctx, ctx.D)


def _anticommutator_triple(_space, x: ExactMatrix, y: ExactMatrix) -> ModuleActionTriple:
    return ModuleActionTriple(x, y, (x @ y + y @ x) * Fraction(1, 2))


def _halves(_ctx, inside: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    eye = ExactMatrix.identity(inside.nrows)
    return kernel_basis(inside - eye), kernel_basis(inside + eye)


@lru_cache(maxsize=None)
def module_structure(ctx: CubeContext, w: SubmoduleBasis) -> ModuleActionTriple:
    """The positive structure on W in the coordinates of w.vectors: x = A and
    y = A*_{D-1} by `_module_action`, z_W = (x_W y_W + y_W x_W)/2 as z = (xy+yx)/2.
    One triple per class; memoized on (ctx, w), so each module is checked once."""
    return _module_action(ctx, w, (adjacency, second_dual_adjacency), _anticommutator_triple)


@lru_cache(maxsize=None)
def quotient_structure(q: QuotientContext, sb: SubmoduleBasis) -> ModuleActionTriple:
    """`module_structure` for a quotient image sb, with x, y the quotient
    adjacency and dual adjacency, proved on sb by `_module_action`; one
    triple per (q, endpoint)."""
    builders = (quotient_adjacency, quotient_dual_adjacency)
    return _module_action(q, sb, builders, _anticommutator_triple)


@lru_cache(maxsize=None)
def antipodal_split(ctx: CubeContext, w: SubmoduleBasis) -> tuple[ExactMatrix, ExactMatrix]:
    """Intersections of W with the symmetric/antisymmetric halves, in
    W-coordinates (ambient vectors S c): the kernels of (A_D)_W - I and
    (A_D)_W + I for the antipodal involution A_D, with (A_D)_W proved by
    `_module_action` and the kernels taken once per class.  Memoized
    on (ctx, w): `split_and_type` and `quotient_modules` share one split."""
    return _module_action(ctx, w, (_antipodal_map,), _halves)


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
        out.append((basis, _classify_against(sub, want, what, basis)))
    return out


def quotient_modules(q: QuotientContext):
    """Images psi(W+) of the parent T-modules in the quotient, with their types.

    psi(W+) is formed once per endpoint, for the representative
    (`_quotient_image`).  Every other image is P~_sigma times it: the module
    of tableau t has basis S_t = P_sigma S_rep (`decompose`), c+ is the class
    value of `antipodal_split`, and psi P_sigma = P~_sigma psi, so
    psi S_t c+ = P~_sigma psi S_rep c+.  P~_sigma keeps class weights, so the
    columns stay ordered by class weight."""
    cal_d = q.cal_d
    out = []
    for w in decompose(q.parent):
        rep = _quotient_image(q, w.endpoint)
        basis = _relabelled(q, rep.vectors, rep.tableau, w.tableau)
        sb = SubmoduleBasis(w.module_id, w.endpoint, basis, w.tableau)
        want = ab_type(cal_d - w.endpoint, _PLUS_TABLE[cal_d % 2])
        what = f"Q~_{q.D} image of {w.module_id}"
        out.append((sb, _classify_against(quotient_structure(q, sb), want, what)))
    return out


@lru_cache(maxsize=None)
def _quotient_image(q: QuotientContext, endpoint: int) -> SubmoduleBasis:
    """psi S c for S the basis of r{endpoint}#0 and c the W-coordinates of
    its W+, columns by class weight."""
    rep = next(w for w in decompose(q.parent) if w.endpoint == endpoint)
    plus, _minus = antipodal_split(q.parent, rep)
    img = psi_matrix(q) @ rep.vectors @ plus
    cols = [{r: v for (r, c), v in img.entries.items() if c == j} for j in range(img.ncols)]
    cols.sort(key=lambda col: min(q.class_weight(u) for u in col))
    basis = ExactMatrix.from_columns(q.nclasses, cols)
    return SubmoduleBasis(rep.module_id, endpoint, basis, rep.tableau)
