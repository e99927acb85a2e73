"""The hypercube Q_D over Q(i): Bose-Mesner and dual Bose-Mesner matrices,
Go's sl2 structure, and the induced anticommutator-algebra structures.

Vertices are integers 0..2^D-1, bit j is coordinate j, distance is XOR
popcount, and the base vertex is the all-zeros string.  Each primitive
idempotent E_i is read off its base column E_i e_0, a combination of the
Krylov vectors A^k e_0 (k <= D) computed once per D; since XOR-translations
are automorphisms of Q_D commuting with A, E_i[y, z] = E_i[y ^ z, 0].
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .acsa import ModuleActionTriple, check_relations
from .exactnum import gr
from .linalg import ExactMatrix, VectorBasis
from .sl2rep import Sl2Action, check_brackets


@dataclass(frozen=True)
class CubeContext:
    """Q_D with the base vertex fixed at the all-zeros string."""

    D: int

    def __post_init__(self):
        if self.D < 1:
            raise ValueError("cube diameter must be positive")

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
    """The 0/1 matrix pairing vertices at distance exactly i."""
    _check_index(ctx, i)
    n = ctx.nvertices
    one = gr(1)
    masks = [_bits_to_mask(bits) for bits in combinations(range(ctx.D), i)]
    entries = {(y, y ^ m): one for y in range(n) for m in masks}
    return ExactMatrix(n, n, entries)


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


@lru_cache(maxsize=None)
def primitive_idempotent(ctx: CubeContext, i: int) -> ExactMatrix:
    """E_i, with (y, z)-entry the base column of E_i at y XOR z."""
    _check_index(ctx, i)
    col = [(x, v) for (x, _c), v in _idempotent_base_column(ctx.D, i).entries.items()]
    n = ctx.nvertices
    return ExactMatrix(n, n, {(y, y ^ x): v for y in range(n) for x, v in col})


def dual_idempotent(ctx: CubeContext, i: int) -> ExactMatrix:
    """Diagonal 0/1 projector onto the Hamming-weight-i vertices."""
    _check_index(ctx, i)
    one = gr(1)
    entries = {(y, y): one for y in ctx.vertices() if ctx.weight(y) == i}
    return ExactMatrix(ctx.nvertices, ctx.nvertices, entries)


@lru_cache(maxsize=None)
def _interpolation_coefficients(D: int, i: int) -> tuple[Fraction, ...]:
    """Coefficients of prod_{j != i} (t - theta_j)/(theta_i - theta_j),
    constant term first."""
    coeffs = [Fraction(1)]
    denom = 1
    theta_i = D - 2 * i
    for j in range(D + 1):
        if j == i:
            continue
        theta_j = D - 2 * j
        denom *= theta_i - theta_j
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] -= c * theta_j
            nxt[k + 1] += c
        coeffs = nxt
    return tuple(c / denom for c in coeffs)


def _spectral_images(m: ExactMatrix, v: ExactMatrix, D: int) -> list[ExactMatrix]:
    """p_i(m) v for i = 0..D, with p_i the interpolation polynomial of E_i
    (1 at theta_i = D - 2i, 0 at the other eigenvalues of Q_D).  The Krylov
    powers v, m v, ..., m^D v are formed once, and each p_i(m) v is their
    combination with the coefficients of p_i."""
    powers = [v]
    for _k in range(D):
        powers.append(m @ powers[-1])
    zero = ExactMatrix.zeros(v.nrows, v.ncols)
    return [
        sum((power * c for c, power in zip(_interpolation_coefficients(D, i), powers) if c), zero)
        for i in range(D + 1)
    ]


@lru_cache(maxsize=None)
def _idempotent_base_columns(D: int) -> tuple[ExactMatrix, ...]:
    e0 = ExactMatrix.column_vector([1] + [0] * ((1 << D) - 1))
    return tuple(_spectral_images(adjacency(CubeContext(D)), e0, D))


def _idempotent_base_column(D: int, i: int) -> ExactMatrix:
    """E_i e_0 = p_i(A) e_0; all D+1 columns share one set of Krylov vectors."""
    return _idempotent_base_columns(D)[i]


@lru_cache(maxsize=None)
def dual_distance_matrix(ctx: CubeContext, i: int) -> ExactMatrix:
    """Diagonal matrix with (y,y)-entry 2^D times the base-vertex row of E_i."""
    _check_index(ctx, i)
    col = _idempotent_base_column(ctx.D, i)
    scale = ctx.nvertices
    return ExactMatrix.diagonal([col.get(y, 0) * scale for y in ctx.vertices()])


def dual_adjacency(ctx: CubeContext) -> ExactMatrix:
    return dual_distance_matrix(ctx, 1)


def second_dual_adjacency(ctx: CubeContext) -> ExactMatrix:
    """The dual adjacency of the second eigenvalue ordering: diagonal with
    entry (-1)^w (D-2w) at a weight-w vertex."""
    return dual_distance_matrix(ctx, ctx.D - 1)


@lru_cache(maxsize=None)
def go_sl2_structure(ctx: CubeContext) -> Sl2Action:
    """X = A, Y = A*, Z = (XY - YX)/(2i); the brackets are re-verified."""
    x = adjacency(ctx)
    y = dual_adjacency(ctx)
    z = (x @ y - y @ x) * gr(0, Fraction(-1, 2))
    action = Sl2Action(x, y, z)
    if not check_brackets(action):
        raise AssertionError(f"sl2 brackets fail on Q_{ctx.D}; construction bug")
    return action


def positive_structure(ctx: CubeContext) -> ModuleActionTriple:
    """x = A, y = A*_{D-1}, z = (xy+yx)/2; all three relations verified."""
    return _signed_structure(ctx, +1)


def negative_structure(ctx: CubeContext) -> ModuleActionTriple:
    return _signed_structure(ctx, -1)


@lru_cache(maxsize=None)
def _signed_structure(ctx: CubeContext, sign: int) -> ModuleActionTriple:
    triple = ModuleActionTriple(
        adjacency(ctx), second_dual_adjacency(ctx) * sign, weighted_adjacency(ctx) * sign
    )
    ok, detail = check_relations(triple)
    if not ok:
        label = "positive" if sign > 0 else "negative"
        raise AssertionError(f"Q_{ctx.D} {label} structure: {detail}")
    return triple


@lru_cache(maxsize=None)
def weighted_adjacency(ctx: CubeContext) -> ExactMatrix:
    """C = (A A*_{D-1} + A*_{D-1} A)/2, the z-matrix of the positive
    structure; a signed adjacency matrix."""
    x, y = adjacency(ctx), second_dual_adjacency(ctx)
    return (x @ y + y @ x) * Fraction(1, 2)


def antipodal_pairs(ctx: CubeContext):
    """Vertex pairs (y, antipode(y)) keyed by the smaller representative."""
    half = ctx.nvertices >> 1
    return [(y, ctx.antipode(y)) for y in range(half)]


def v_plus_minus(ctx: CubeContext) -> tuple[VectorBasis, VectorBasis]:
    """Bases of the symmetric and antisymmetric halves under the antipodal map."""
    n = ctx.nvertices
    one = gr(1)
    plus_cols = [{y: one, yp: one} for (y, yp) in antipodal_pairs(ctx)]
    minus_cols = [{y: one, yp: -one} for (y, yp) in antipodal_pairs(ctx)]
    return (
        VectorBasis.from_columns(n, plus_cols),
        VectorBasis.from_columns(n, minus_cols),
    )


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
