"""The hypercube Q_D over Q(i): Bose-Mesner and dual Bose-Mesner matrices,
Go's sl2 structure, and the induced anticommutator-algebra structures.

Every operator is built in closed form, straight from its entries, and
the identity that the paper proves of it is a check: the relations of C
(the `relations` suite), the brackets of Z (`check_brackets`), the base
columns of E_i (`_idempotent_base_columns`), s (`tmodules.h_by_class`).

Vertices are integers 0..2^D-1, bit j is coordinate j, distance is XOR
popcount, and the base vertex is the all-zeros string.  Each primitive
idempotent E_i is read off its base column E_i e_0, which is a Krawtchouk
polynomial in the Hamming weight, proved an eigenvector of A once per D;
since XOR-translations are automorphisms of Q_D commuting with A,
E_i[y, z] = E_i[y ^ z, 0].
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, gcd

from .acsa import ModuleActionTriple
from .linalg import ExactMatrix, unit_entries
from .record import Record, _set
from .sl2rep import Sl2Action, check_brackets


class CubeContext(Record):
    """Q_D with the base vertex fixed at the all-zeros string."""

    __slots__ = ("D",)

    def __init__(self, D: int):
        if D < 1:
            raise ValueError("cube diameter must be positive")
        _set(self, "D", D)

    @property
    def nvertices(self) -> int:
        return 1 << self.D

    @property
    def base_vertex(self) -> int:
        return 0

    def weight(self, y: int) -> int:
        return y.bit_count()

    def distance(self, y: int, z: int) -> int:
        return (y ^ z).bit_count()

    def antipode(self, y: int) -> int:
        return y ^ (self.nvertices - 1)

    def vertices(self):
        return range(self.nvertices)

    def edges(self):
        """Ordered pairs (y, z) with z = y + one bit."""
        for y in self.vertices():
            for b in range(self.D):
                z = y ^ (1 << b)
                yield (y, z)


def cube(D: int) -> CubeContext:
    return CubeContext(D)


@lru_cache(maxsize=None)
def distance_matrix(ctx: CubeContext, i: int) -> ExactMatrix:
    """The 0/1 matrix pairing vertices at distance exactly i; y ^ m < 2^D,
    so the rows go in as they are.  Every row with an entry 1 in column z
    shares one stored triple (`unit_entries`)."""
    _check_index(ctx, i)
    n = ctx.nvertices
    unit = unit_entries(n)
    masks = [_bits_to_mask(bits) for bits in combinations(range(ctx.D), i)]
    return ExactMatrix._make(n, n, 1, {y: [unit[y ^ m] for m in masks] for y in range(n)})


def _bits_to_mask(bits) -> int:
    m = 0
    for b in bits:
        m |= 1 << b
    return m


def adjacency(ctx: CubeContext) -> ExactMatrix:
    return distance_matrix(ctx, 1)


def eigenvalue(ctx: CubeContext, i: int) -> int:
    """The i-th eigenvalue D - 2i of the first Q-polynomial ordering."""
    _check_index(ctx, i)
    return ctx.D - 2 * i


def primitive_idempotent(ctx: CubeContext, i: int) -> ExactMatrix:
    """E_i, with (y, z)-entry the base column of E_i at y XOR z.  Row y
    relabels the column's stored entries, over its denominator, and
    y XOR x < 2^D, so the rows go in as they are."""
    _check_index(ctx, i)
    base = _idempotent_base_column(ctx.D, i)
    col = [(x, a, b) for x, row in base.rows.items() for _c, a, b in row]
    n = ctx.nvertices
    rows = {y: [(y ^ x, a, b) for x, a, b in col] for y in range(n)}
    return ExactMatrix._make(n, n, base.den, rows)


def dual_idempotent(ctx: CubeContext, i: int) -> ExactMatrix:
    """Diagonal 0/1 projector onto the Hamming-weight-i vertices."""
    _check_index(ctx, i)
    unit = unit_entries(ctx.nvertices)
    rows = {y: [unit[y]] for y in ctx.vertices() if ctx.weight(y) == i}
    return ExactMatrix._make(ctx.nvertices, ctx.nvertices, 1, rows)


def _krawtchouk(D: int, i: int) -> list[int]:
    """K_i(w) for w = 0..D: the coefficient of t^i in (1 - t)^w (1 + t)^(D-w)."""
    return [
        sum((-1) ** j * comb(w, j) * comb(D - w, i - j) for j in range(i + 1)) for w in range(D + 1)
    ]


@lru_cache(maxsize=None)
def _idempotent_base_columns(D: int) -> tuple[ExactMatrix, ...]:
    """E_i e_0 = K_i(wt x)/2^D for i = 0..D (Delsarte 1973), proved at all
    2^D coordinates in integers: each f_i[x] = K_i(wt x) satisfies
    sum_b f_i[x ^ 2^b] = (D - 2i) f_i[x], so A f_i = theta_i f_i, and the f_i
    sum to 2^D e_0.  Eigenvectors of distinct eigenvalues are independent, so
    e_0 splits into eigenvectors of A in one way only, and f_i/2^D is its
    theta_i-component E_i e_0; no knowledge of A's spectrum is assumed."""
    n = 1 << D
    weights = [x.bit_count() for x in range(n)]
    tables = [_krawtchouk(D, i) for i in range(D + 1)]
    for i, k in enumerate(tables):
        f = [k[w] for w in weights]
        af = [0] * n
        for b in range(D):
            m = 1 << b
            af = [s + f[x ^ m] for x, s in enumerate(af)]
        if af != [(D - 2 * i) * v for v in f]:
            raise AssertionError(
                f"E_{i} e_0 of Q_{D}: column {i} is not a theta_{i}-eigenvector of A"
            )
    if [sum(k[w] for k in tables) for w in weights] != [n] + [0] * (n - 1):
        raise AssertionError(f"E_i e_0 of Q_{D}: the columns do not sum to e_0")
    cols = []
    for k in tables:
        # K_i(w)/2^D over the reduced denominator; the rows of one weight
        # share one stored row
        g = gcd(n, *k)
        by_weight = [[(0, v // g, 0)] for v in k]
        rows = {x: by_weight[w] for x, w in enumerate(weights) if k[w]}
        cols.append(ExactMatrix._make(n, 1, n // g, rows))
    return tuple(cols)


def _idempotent_base_column(D: int, i: int) -> ExactMatrix:
    """E_i e_0; all D+1 columns are built and proved together."""
    return _idempotent_base_columns(D)[i]


@lru_cache(maxsize=None)
def dual_distance_matrix(ctx: CubeContext, i: int) -> ExactMatrix:
    """Diagonal matrix with (y,y)-entry 2^D times the base-vertex row of E_i:
    the base column's numerators times 2^D over its denominator, which
    divides 2^D, so the entries are integers."""
    _check_index(ctx, i)
    base = _idempotent_base_column(ctx.D, i)
    f = ctx.nvertices // base.den
    rows = {y: [(y, a * f, b * f)] for y, row in base.rows.items() for _c, a, b in row}
    return ExactMatrix._make(ctx.nvertices, ctx.nvertices, 1, rows)


def dual_adjacency(ctx: CubeContext) -> ExactMatrix:
    return dual_distance_matrix(ctx, 1)


def second_dual_adjacency(ctx: CubeContext) -> ExactMatrix:
    """The dual adjacency of the second eigenvalue ordering: diagonal with
    entry (-1)^w (D-2w) at a weight-w vertex."""
    return dual_distance_matrix(ctx, ctx.D - 1)


@lru_cache(maxsize=None)
def go_sl2_structure(ctx: CubeContext) -> Sl2Action:
    """X = A, Y = A*, and Z in closed form: i (wt z - wt y) at each edge
    (y, z), which is +i where z = y + 2^b and -i where z = y - 2^b.  That
    is (XY - YX)/(2i) entry by entry, as A* is diagonal with D - 2 wt y at
    y; `check_brackets` proves it, [X, Y] = 2iZ with the other two."""
    n = ctx.nvertices
    up, down = unit_entries(n, 0, 1), unit_entries(n, 0, -1)
    masks = [1 << b for b in range(ctx.D)]
    z = ExactMatrix._make(
        n, n, 1, {y: [(down if y & m else up)[y ^ m] for m in masks] for y in range(n)}
    )
    action = Sl2Action(adjacency(ctx), dual_adjacency(ctx), z)
    if not check_brackets(action):
        raise AssertionError(f"sl2 brackets fail on Q_{ctx.D}; construction bug")
    return action


def positive_structure(ctx: CubeContext) -> ModuleActionTriple:
    """x = A, y = A*_{D-1} and z = C, the closed-form weighted adjacency.
    The relations are not checked here: the relations suite proves them
    for both signs, xy+yx = 2z among them."""
    return _signed_structure(ctx, +1)


def negative_structure(ctx: CubeContext) -> ModuleActionTriple:
    return _signed_structure(ctx, -1)


@lru_cache(maxsize=None)
def _signed_structure(ctx: CubeContext, sign: int) -> ModuleActionTriple:
    return ModuleActionTriple(
        adjacency(ctx), second_dual_adjacency(ctx) * sign, weighted_adjacency(ctx) * sign
    )


@lru_cache(maxsize=None)
def weighted_adjacency(ctx: CubeContext) -> ExactMatrix:
    """C, the z-matrix of the positive structure, in closed form: the
    signed adjacency with (-1)^wt(y & z) at each edge (y, z).  y & z =
    y & ~2^b is the lower end of the edge, so the sign is (-1)^(min weight),
    the form `weights` checks; `relations` proves
    C = (A A*_{D-1} + A*_{D-1} A)/2."""
    n = ctx.nvertices
    signed = (unit_entries(n), unit_entries(n, -1))
    masks = [1 << b for b in range(ctx.D)]
    return ExactMatrix._make(n, n, 1, {
        y: [signed[(y & ~m).bit_count() & 1][y ^ m] for m in masks] for y in range(n)
    })


def antipodal_pairs(ctx: CubeContext):
    """Vertex pairs (y, antipode(y)) keyed by the smaller representative."""
    half = ctx.nvertices >> 1
    return [(y, ctx.antipode(y)) for y in range(half)]


def v_plus_minus(ctx: CubeContext) -> tuple[ExactMatrix, ExactMatrix]:
    """Bases (as columns) of the symmetric and antisymmetric halves under
    the antipodal map."""
    n = ctx.nvertices
    plus_cols = [{y: 1, yp: 1} for (y, yp) in antipodal_pairs(ctx)]
    minus_cols = [{y: 1, yp: -1} for (y, yp) in antipodal_pairs(ctx)]
    return ExactMatrix.from_columns(n, plus_cols), ExactMatrix.from_columns(n, minus_cols)


@lru_cache(maxsize=None)
def s_diagonal(ctx: CubeContext) -> ExactMatrix:
    """The skew involution on the standard module, in closed form: entry
    (-1)^(floor(D/2)+w) at a weight-w vertex.  `tmodules.h_by_class` proves
    it is h k and skew for Go's sl2 action, one T-module class at a time."""
    base = ctx.D // 2
    return ExactMatrix.diagonal([(-1) ** (base + ctx.weight(y)) for y in ctx.vertices()])


def _check_index(ctx: CubeContext, i: int) -> None:
    if not 0 <= i <= ctx.D:
        raise ValueError(f"index {i} out of range 0..{ctx.D}")
