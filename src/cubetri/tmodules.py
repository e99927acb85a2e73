"""Decomposition of the hypercube standard module into irreducible
Terwilliger modules, and the induced module structures on each piece.

The decomposition follows the raising/lowering structure of the one
adjacency matrix A.  The kernel of lowering on the weight-r slice is the
Specht module S^(D-r,r), and its standard polytabloids are a basis in
closed form (G. D. James, The Representation Theory of the Symmetric
Groups, LNM 682, 1978); the raising chains on them are the T-modules
(J. T. Go, "The Terwilliger algebra of the hypercube", Europ. J. Combin.
23, 2002).  The bit permutations P_sigma commute with A and with every
E*_i, and P_sigma e_t = e_{sigma t}, so a module is its class (D, r) and
its standard tableau t (`SubmoduleBasis`), and its basis, formed only when
asked for, is P_sigma S_rep for S_rep the one chain raised per class
(`_class_basis`).  `decompose` proves that the chains are a basis of V from
one sl2 identity of raising and lowering, with no rank taken.  A basis is
the matrix of its chain vectors; the V+/V- halves are matrices of
W-coordinates.  Every chain vector lives in a single weight slice: the
thinness witness, and the disjoint supports that let `_product_proof` read
each action off one row per basis vector and prove it by one exact
product, with no elimination on V.  That product runs once per class, on
S_rep (on Q~_D, psi(S_rep c+)), and every module of the class gets its
value (`_module_action`).  The chains and the proofs run in Gaussian
integers: the stored entries of S_rep are walked through the integer
columns of each acting matrix, formed once and kept on the matrix
(`ExactMatrix.columns`), so a product costs nnz(S_rep) times the column
length, D for A.  A module is the only argument of the functions
that act on it: its `space` chooses the acting matrices, so a T-module of
Q_D and an image psi(W+) in Q~_D (`quotient_modules`) share
`module_structure` and `split_and_type`.
"""
from __future__ import annotations

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
from .linalg import (
    ExactMatrix,
    _canonical,
    _first_entry_one,
    _over_lcm,
    _walk,
    bracket,
    integer_eigenspaces,
    kernel_basis,
)
from .quotient import QuotientContext, psi_matrix, quotient_adjacency, quotient_dual_adjacency
from .record import Record, _set
from .sl2rep import Sl2Action, build_h, build_skew, check_brackets


class SubmoduleBasis(Record):
    """An irreducible T-module of Q_D, or its image psi(W+) in Q~_D, named
    by its class (space, endpoint) and the second row of the standard
    tableau of its seed.  Its basis `vectors`, formed on each call, is
    P_sigma S_rep for sigma the bit permutation that takes the first tableau
    to this one (`_class_basis`, `_relabelled`); column j is supported on
    the weight-(endpoint+j) slice, so the columns have disjoint supports."""

    __slots__ = ("space", "module_id", "endpoint", "tableau")

    def __init__(
        self, space: CubeContext | QuotientContext, module_id: str, endpoint: int, tableau: tuple[int, ...]
    ):
        _set(self, "space", space)
        _set(self, "module_id", module_id)
        _set(self, "endpoint", endpoint)
        _set(self, "tableau", tableau)

    @property
    def vectors(self) -> ExactMatrix:
        first = _standard_tableaux(self.space.D, self.endpoint)[0]
        return _relabelled(self.space, _class_basis(self.space, self.endpoint), first, self.tableau)

    @property
    def diameter(self) -> int:
        return self.dimension - 1

    @property
    def dimension(self) -> int:
        return _class_basis(self.space, self.endpoint).ncols


@lru_cache(maxsize=None)
def _standard_tableaux(D: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The second rows b_1 < ... < b_r of the standard tableaux of shape
    (D-r, r), in lexicographic order: a_i < b_i for a_1 < ... < a_r the r
    smallest other positions."""
    out = []
    for second in combinations(range(D), r):
        first = [p for p in range(D) if p not in second]
        if all(a < b for a, b in zip(first, second)):
            out.append(second)
    return tuple(out)


def _polytabloid(D: int, second: tuple[int, ...]) -> dict:
    """e_t = prod_i (e_{b_i} - e_{a_i}) for the tableau t with second row b:
    the +-1 sum over c_i in {a_i, b_i} of the vertex with bits {c_i},
    negated once per c_i = a_i, as ints."""
    vec = {0: 1}
    for a, b in zip((p for p in range(D) if p not in second), second):
        vec = {y | 1 << c: v if c == b else -v for y, v in vec.items() for c in (a, b)}
    return vec


def _move_vector(ctx: CubeContext, vec: dict, to: int) -> dict:
    """The part of den*A v that lies in the weight-`to` slice, for
    A = `adjacency(ctx)` read through its denominator den and its integer
    columns (`ExactMatrix.columns`), and v an int vector on the slice next
    to it: den R v if `to` is above, den L v if below, for the raising and
    lowering parts R + L = A.  Each step is integer
    multiply-adds, so k steps carry den^k.  Every entry of A that a step
    reads must be real, or the vector would leave Z."""
    cols = adjacency(ctx).columns()
    out: dict = {}
    for y, v in vec.items():
        for z, a, b in cols.get(y, ()):
            if z.bit_count() == to:
                if b:
                    raise AssertionError(f"Q_{ctx.D}: adjacency entry ({z}, {y}) is not real")
                out[z] = out.get(z, 0) + a * v
    return {z: v for z, v in out.items() if v}


def _check_commutator(ctx: CubeContext) -> None:
    """LR - RL = (D - 2w) I on the weight-w slice, for R and L the raising
    and lowering parts of A (`_move_vector`), checked exactly at the one
    vertex y = 2^w - 1 of each weight w.  `_move_vector` scales each step
    by the denominator den of A, so both products carry den^2 and are
    compared with den^2 (D - 2w).  Once A commutes with the two
    generators of S_D, and so with every bit permutation P_sigma
    (`_check_symmetric`), so do R, L and LR - RL, because P_sigma keeps
    weights; S_D is transitive on each weight slice, so the identity at e_y
    gives it at every P_sigma e_y."""
    D = ctx.D
    den = adjacency(ctx).den
    for w in range(D + 1):
        y = (1 << w) - 1
        diff = _move_vector(ctx, _move_vector(ctx, {y: 1}, w + 1), w)
        diff[y] = diff.get(y, 0) - den * den * (D - 2 * w)
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
    is built and raised (`_class_basis`): lowering must kill it, its chain
    must not die before step D - 2r, and it must then terminate.  Module t
    is named by its class and t, and its basis is P_sigma S_rep by
    construction (`SubmoduleBasis.vectors`), for sigma the bit permutation
    that takes the first tableau to t, read row by row.  P_sigma e_rep =
    e_t, and R^k P_sigma = P_sigma R^k, so column k is R^k e_t scaled as
    column k of S_rep, and L e_t = P_sigma L e_rep = 0.  The seed of each
    module, sigma applied to the entries of e_rep, must have its largest
    vertex at the bits of its tableau, and the tableaux are distinct, which
    makes the seeds triangular and so independent.  Together these prove
    that the chains are a basis of V:

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
        rep = _class_basis(ctx, r)
        seed = [y for y, row in rep.rows.items() for c, _a, _b in row if c == 0]
        for m, tableau in enumerate(tableaux):
            sigma = _sigma(ctx, tableaux[0], tableau)
            if max(map(sigma, seed)) != sum(1 << p for p in tableau):
                raise AssertionError(
                    f"seed r={r}#{m} of Q_{D}: largest vertex is not at tableau {tableau}"
                )
            modules.append(SubmoduleBasis(ctx, f"r{r}#{m}", r, tableau))
            total_dim += rep.ncols
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
    by_class = {w.endpoint: _module_action(w, builders, _skew_class) for w in decompose(ctx)}
    return tuple(by_class.values())


def _skew_class(ctx: CubeContext, x: ExactMatrix, y: ExactMatrix, s: ExactMatrix) -> ExactMatrix:
    """h_W from x_W, y_W and z_W = (x_W y_W - y_W x_W)/(2i); requires the sl2
    brackets, the skew relations (`build_skew`) and s_W = h_W k."""
    action = Sl2Action(x, y, bracket(x, y, -1) * gr(0, Fraction(-1, 2)))
    where = f"on the diameter-{action.diameter} modules"
    if not check_brackets(action):
        raise AssertionError(f"sl2 brackets fail {where} of Q_{ctx.D}")
    if s != build_skew(action):
        raise AssertionError(f"skew operator on Q_{ctx.D}: closed form disagrees with h*k {where}")
    return build_h(action)


def dual_profile(w: SubmoduleBasis) -> list[int]:
    """Dimensions of the spectral projections E_i W for i = 0..D, for a
    T-module w of Q_D.

    `_module_action` proves that S = w.vectors has full column rank and
    A S = S A_W, or raises ValueError.  Then E_i W = S V_i for V_i the
    theta_i-eigenspace of A_W, so dim E_i W is the dimension the one integer
    eigenvalue scan finds at theta_i = D - 2i, and 0 where it finds none.
    The scan proves that A_W is diagonalizable or raises ValueError."""
    _require_cube_module(w, "dual_profile")
    return list(_module_action(w, (adjacency,), _eigenspace_dims))


def _require_cube_module(w: SubmoduleBasis, what: str) -> None:
    if isinstance(w.space, QuotientContext):
        raise ValueError(
            f"{what} takes a T-module of Q_D, not the Q~_{w.space.D} image {w.module_id}"
        )


def _eigenspace_dims(ctx: CubeContext, a_w: ExactMatrix) -> tuple[int, ...]:
    dims = {theta: k.ncols for theta, k in integer_eigenspaces(a_w)}
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


def _module_action(w: SubmoduleBasis, builders, derive):
    """derive(space, *M_W) for the matrices M = build(space) on span(w.vectors),
    in its coordinates, for space = w.space: the value of w's class
    (`_derived`), once `_check_symmetric` proves M P_sigma = P_sigma M on
    the two generators of S_D, hence for every bit permutation sigma.  The
    basis of w is S_t = P_sigma S_rep by construction
    (`SubmoduleBasis.vectors`), so
    M S_t = P_sigma M S_rep = P_sigma S_rep M_rep = S_t M_rep."""
    value = _derived(w.space, w.endpoint, builders, derive)
    for build in builders:
        _check_symmetric(w.space, build)
    return value


@lru_cache(maxsize=None)
def _derived(space, endpoint: int, builders, derive):
    """derive of the `_product_proof` on the class basis S_rep (`_class_basis`)."""
    return derive(space, *_product_proof(space, _class_basis(space, endpoint), builders))


@lru_cache(maxsize=None)
def _class_basis(space, endpoint: int) -> ExactMatrix:
    """S_rep, the basis of the representative r{endpoint}#0 of its class.
    On Q_D: the chain R^k e_rep on the polytabloid of the first standard
    tableau, for R and L the raising and lowering parts of A
    (`_move_vector`), raised in integers; `from_columns` scales each column
    to first entry 1, so the denominator of A drops out.  Lowering must kill
    the seed, the chain must not die before step D - 2r, and it must then
    terminate.  On Q~_D: psi S_rep c+ for c+ the W-coordinates of its W+
    (`antipodal_split`), columns by class weight."""
    if isinstance(space, QuotientContext):
        rep = next(w for w in decompose(space.parent) if w.endpoint == endpoint)
        plus, _minus = antipodal_split(rep)
        img = psi_matrix(space) @ _class_basis(space.parent, endpoint) @ plus
        cols = [img.columns().get(j, []) for j in range(img.ncols)]
        cols.sort(key=lambda col: min(space.class_weight(u) for u, _a, _b in col))
        return _first_entry_one(space.nclasses, cols)
    D, r = space.D, endpoint
    chain = [_polytabloid(D, _standard_tableaux(D, r)[0])]
    if _move_vector(space, chain[0], r - 1):
        raise AssertionError(f"seed r={r}#0 of Q_{D} is not killed by lowering")
    diameter = D - 2 * r
    for j in range(diameter):
        chain.append(_move_vector(space, chain[-1], r + j + 1))
        if not chain[-1]:
            raise AssertionError(f"chain r={r}#0 of Q_{D} died early at step {j + 1}")
    if _move_vector(space, chain[-1], r + diameter + 1):
        raise AssertionError(f"chain r={r}#0 of Q_{D} failed to terminate")
    return ExactMatrix.from_columns(space.nvertices, chain)


def _product_proof(space, s: ExactMatrix, builders) -> tuple[ExactMatrix, ...]:
    """The M_W for M = build(space) on span(s), proved by products on V.

    The columns of s must be nonzero with pairwise disjoint supports, which
    proves that s has full column rank.  With p_i the first row of column i,
    (s X)[p_i, j] = s[p_i, i] X[i, j] for every X, so the only candidate is
    M_W[i, j] = (M s)[p_i, j] / s[p_i, i], and M s == s M_W is checked
    exactly.  Anything else raises ValueError.

    Both sides are Gaussian integers.  With s = S/sigma and M = N/mu, their
    stored forms, column j of Y = N S = sigma mu (M s) is the `_walk` of
    the stored entries of column j of S through the integer columns of N
    (`ExactMatrix.columns`): nnz(S) times the column length of N per
    product, and M itself is never walked.  Then
    M_W[i, j] = Y[p_i, j] / (S[p_i, i] mu), over the lcm of those
    denominators, reduced once.  Row z of s M_W is s[z, i] M_W[i, j] for
    the column i that owns z, and 0 if no column does.  So column j of
    M s == s M_W holds exactly when Y[., j] is 0 at every row no column
    owns, and Y[z, j] S[p_i, i] == S[z, i] Y[p_i, j] at every row z of
    every column i, the rows where Y is 0 included (`_span_coordinates`).  A column that owns no nonzero of Y[., j] meets
    this with M_W[i, j] = 0.  The least failing j is named: the least
    column where M s and s M_W differ."""
    rows = s.rows
    owner: dict = {}
    cols: list[list] = [[] for _ in range(s.ncols)]
    for row in sorted(rows):
        (c, a, b), *others = sorted(rows[row])
        if others:
            raise ValueError(f"basis vectors {c} and {others[0][0]} overlap at coordinate {row}")
        owner[row] = c
        cols[c].append((row, a, b))
    zero = [c for c, col in enumerate(cols) if not col]
    if zero:
        raise ValueError(f"basis vector {zero[0]} is zero")
    mats = []
    for build in builders:
        m = build(space)
        mu, n_cols = m.den, m.columns()
        items = []
        for j, image in _walk(enumerate(cols), n_cols):
            at_pivots = _span_coordinates(image, owner, cols)
            if at_pivots is None:
                raise ValueError(
                    f"subspace not invariant: image of basis vector {j} leaves the span"
                )
            for i, (yr, yi) in at_pivots.items():
                _p, sr, si = cols[i][0]
                norm = (sr * sr + si * si) * mu
                items.append((i, j, yr * sr + yi * si, yi * sr - yr * si, norm))
        mats.append(_canonical(s.ncols, s.ncols, *_over_lcm(items)))
    return tuple(mats)


def _span_coordinates(image: dict, owner: dict, cols: list) -> dict | None:
    """{i: Y[p_i]} for the columns i of S that own a nonzero of the image
    column Y, a dict row -> [re, im] from `_walk` (`_product_proof`); None
    if Y is outside span(S): it is nonzero at a row no column owns, or 0 at
    the first row p_i of such a column, or Y[z] S[p_i, i] != S[z, i] Y[p_i]
    at some row z of one."""
    touched = set()
    for z, (re, im) in image.items():
        if re or im:
            i = owner.get(z)
            if i is None:
                return None
            touched.add(i)
    at_pivots = {}
    for i in touched:
        p, sr, si = cols[i][0]
        yr, yi = image.get(p, (0, 0))
        if not (yr or yi):
            return None
        for z, ar, ai in cols[i]:
            zr, zi = image.get(z, (0, 0))
            if zr * sr - zi * si != ar * yr - ai * yi or zr * si + zi * sr != ar * yi + ai * yr:
                return None
        at_pivots[i] = (yr, yi)
    return at_pivots


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


def _sigma(space, rep_tableau, tableau):
    """The coordinate map of P_sigma, for sigma the bit permutation that
    takes rep_tableau to tableau, each read row by row."""
    words = (sorted(range(space.D), key=t.__contains__) for t in (rep_tableau, tableau))
    return _relabelling(space, dict(zip(*words)))


def _relabelled(space, s: ExactMatrix, rep_tableau, tableau) -> ExactMatrix:
    """P_sigma s (`_sigma`); sigma relabels the stored rows of s, which it
    shares, and a permutation keeps the stored form canonical."""
    sigma = _sigma(space, rep_tableau, tableau)
    rows = {sigma(y): row for y, row in s.rows.items()}
    return ExactMatrix._make(s.nrows, s.ncols, s.den, rows)


@lru_cache(maxsize=None)
def _check_symmetric(space, build) -> None:
    """M P_tau == P_tau M, i.e. M[tau(y), tau(z)] = M[y, z], for M = build(space)
    and tau each of the transposition (0 1) and the cycle (0 1 ... D-1) of bit
    positions, which generate S_D (for D <= 1 there is nothing to check, and
    at D = 2 they coincide).  On Q~_D the cycle takes bit D-2 to D-1, and
    class_of folds it back.  tau is checked to be a bijection.  Then each
    stored row y of M, its columns z moved to tau(z), must be row tau(y) as
    it is stored, compared as sets of integer triples over M's one
    denominator, so M[tau(y), tau(z)] = M[y, z] for every z.  tau maps the
    stored rows one to one into the stored rows, which are finitely many,
    so onto them, and a row tau(y) is empty exactly when row y is.  The
    sigma with M P_sigma = P_sigma M form a group, so M commutes with
    every P_sigma."""
    D = space.D
    if D < 2:
        return
    m = build(space)
    rows = m.rows
    for name, positions in (
        ("transposition (0 1)", [1, 0, *range(2, D)]),
        (f"cycle (0 1 ... {D - 1})", [*range(1, D), 0]),
    ):
        sigma = _relabelling(space, positions)
        tau = [sigma(y) for y in range(m.nrows)]
        what = f"{build.__name__} at D={D}, {name}"
        if len(set(tau)) != len(tau):
            raise AssertionError(f"{what}: the relabelling is not a bijection")
        if any(
            {(tau[z], a, b) for z, a, b in row} != set(rows.get(tau[y], ()))
            for y, row in rows.items()
        ):
            raise AssertionError(f"{what}: the builder does not commute with it")


def _antipodal_map(ctx: CubeContext) -> ExactMatrix:
    return distance_matrix(ctx, ctx.D)


def _anticommutator_triple(_space, x: ExactMatrix, y: ExactMatrix) -> ModuleActionTriple:
    return ModuleActionTriple(x, y, bracket(x, y) * Fraction(1, 2))


def _halves(_ctx, inside: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
    eye = ExactMatrix.identity(inside.nrows)
    return kernel_basis(inside - eye), kernel_basis(inside + eye)


def module_structure(w: SubmoduleBasis) -> ModuleActionTriple:
    """The anticommutator spin algebra structure on W in the coordinates of
    w.vectors, by `_module_action`: on Q_D the positive structure, x = A
    and y = A*_{D-1}; on Q~_D the quotient structure, x = A~ and y = B~.
    z_W = (x_W y_W + y_W x_W)/2, as z = (xy+yx)/2.  One triple per class."""
    if isinstance(w.space, QuotientContext):
        builders = (quotient_adjacency, quotient_dual_adjacency)
    else:
        builders = (adjacency, second_dual_adjacency)
    return _module_action(w, builders, _anticommutator_triple)


def antipodal_split(w: SubmoduleBasis) -> tuple[ExactMatrix, ExactMatrix]:
    """Intersections of a T-module W of Q_D with the symmetric/antisymmetric
    halves, in W-coordinates (ambient vectors S c): the kernels of
    (A_D)_W - I and (A_D)_W + I for the antipodal involution A_D, with
    (A_D)_W proved by `_module_action` and the kernels taken once per class."""
    _require_cube_module(w, "antipodal_split")
    return _module_action(w, (_antipodal_map,), _halves)


def split_and_type(w: SubmoduleBasis) -> list[ModuleType]:
    """Types of the structure `module_structure` puts on one module, each
    checked against its table.  A T-module of Q_D at even D: the type of
    the module itself, B(D-2r).  At odd D: the types of its V+ and V- halves
    (`antipodal_split`), with variants from the parity tables.  An image
    psi(W+) in Q~_D: the type of W+, AB(cal_d - r) with its variant from
    _PLUS_TABLE."""
    space, sub = w.space, module_structure(w)
    if isinstance(space, QuotientContext):
        want = ab_type(space.cal_d - w.endpoint, _PLUS_TABLE[space.cal_d % 2])
        return [_classify_against(sub, want, f"Q~_{space.D} image of {w.module_id}")]
    if space.D % 2 == 0:
        want = b_type(space.D - 2 * w.endpoint)
        return [_classify_against(sub, want, f"Q_{space.D} module {w.module_id}")]
    cal_d = space.D // 2
    out = []
    for basis, table, label in zip(
        antipodal_split(w), (_PLUS_TABLE, _MINUS_TABLE), ("plus", "minus")
    ):
        want = ab_type(cal_d - w.endpoint, table[cal_d % 2])
        what = f"Q_{space.D} module {w.module_id} ({label} half)"
        out.append(_classify_against(sub, want, what, basis))
    return out


def quotient_modules(q: QuotientContext) -> list[SubmoduleBasis]:
    """The images psi(W+) in Q~_D of the T-modules W of the parent, in the
    order of `decompose`: each is its parent module with `space` q.

    An image's basis is formed when asked for, and proved and typed by
    `module_structure` and `split_and_type`.  psi(W+) is formed once per
    endpoint, for the representative (`_class_basis`).  Every other image is
    P~_sigma times it (`SubmoduleBasis.vectors`): S_t = P_sigma S_rep, c+ is
    the class value of `antipodal_split`, and psi P_sigma = P~_sigma psi, so
    psi S_t c+ = P~_sigma psi S_rep c+.  P~_sigma keeps class weights, so
    the columns stay ordered by class weight."""
    return [w.replace(space=q) for w in decompose(q.parent)]
