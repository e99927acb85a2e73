"""sl2 in the physicist basis and the skew-operator bridge to the
anticommutator spin algebra.

Basis X, Y, Z with [X,Y]=2iZ and cyclic variants.  The operator
h = exp((iY-X)/2) exp((iY+X)/2) exp((iY-X)/2) anticommutes with X and Z and
commutes with Y; correcting it by the scalar k (1 on an odd-dimensional
irreducible, -i on an even one) yields an involution s = hk, which twists Y
and Z into generators of the anticommutator spin algebra.  `build_skew` forms
and checks s for the canonical modules and the hypercube's T-modules alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .acsa import ModuleActionTriple, ab_type, check_relations, classify, restrict_triple
from .exactnum import GaussianRational, I, gr, integer_power_of_i
from .linalg import ExactMatrix, VectorBasis, exp_nilpotent, kernel_basis, restrict


# Actions of X, Y, Z on one space, as three square matrices like a module
# triple; the brackets [X,Y]=2iZ etc. are what `check_brackets` verifies.
Sl2Action = ModuleActionTriple


@dataclass(frozen=True)
class SkewOperatorRealization:
    """h, k and the skew involution s = hk on the same space as the action."""

    h_mat: ExactMatrix
    k_mat: ExactMatrix
    s_mat: ExactMatrix


def check_brackets(action: Sl2Action) -> bool:
    x, y, z = action.matrices()
    two_i = gr(0, 2)
    return (
        x @ y - y @ x == z * two_i
        and y @ z - z @ y == x * two_i
        and z @ x - x @ z == y * two_i
    )


@lru_cache(maxsize=None)
def build_irreducible_sl2(d: int) -> Sl2Action:
    """The (d+1)-dimensional irreducible module, in the basis {v_i} where Y is
    diagonal.  Memoized: the action is immutable, so callers share one copy."""
    if d < 0:
        raise ValueError("diameter must be nonnegative")
    n = d + 1
    x_entries = {}
    z_entries = {}
    for i in range(n):
        if i > 0:
            x_entries[(i - 1, i)] = gr(d - i + 1)
            z_entries[(i - 1, i)] = gr(0, d - i + 1)
        if i < d:
            x_entries[(i + 1, i)] = gr(i + 1)
            z_entries[(i + 1, i)] = gr(0, -(i + 1))
    action = Sl2Action(
        ExactMatrix(n, n, x_entries),
        ExactMatrix.diagonal([d - 2 * i for i in range(n)]),
        ExactMatrix(n, n, z_entries),
    )
    if not check_brackets(action):
        raise AssertionError(f"bracket relations fail on the diameter-{d} module")
    return action


def z_weight_basis(action: Sl2Action) -> VectorBasis:
    """The {w_i} basis of a canonical module: Z.w_i = (d-2i)w_i with Y acting
    tridiagonally."""
    n, d = action.dimension, action.diameter
    top = kernel_basis(action.z_mat - ExactMatrix.identity(n) * d)
    if top.size != 1:
        raise AssertionError("top Z-weight space is not one-dimensional")
    cols = [top.column(0)]
    prev = ExactMatrix.zeros(n, 1)
    for i in range(d):
        nxt = (action.y_mat @ cols[i] - prev * (d - i + 1)) * Fraction(1, i + 1)
        prev = cols[i]
        cols.append(nxt)
    # chain scaling is meaningful: only w_0 is normalized (by kernel_basis)
    basis = VectorBasis.from_columns(
        n,
        [{r: v for (r, _c), v in col.entries.items()} for col in cols],
        normalize=False,
    )
    z_restricted = restrict(action.z_mat, basis)
    if z_restricted != ExactMatrix.diagonal([d - 2 * i for i in range(n)]):
        raise AssertionError("constructed w-basis does not diagonalize Z")
    return basis


def raising_lowering_halves(action: Sl2Action):
    """The two nilpotent combinations (iY-X)/2 and (iY+X)/2."""
    half = Fraction(1, 2)
    iy = action.y_mat * I
    return (iy - action.x_mat) * half, (iy + action.x_mat) * half


@lru_cache(maxsize=None)
def build_h(action: Sl2Action) -> ExactMatrix:
    """h as a product of three nilpotent exponentials, computed exactly; a
    nilpotent n x n matrix N has N^n = 0, so the dimension bounds each series.
    Memoized on the action's value: each canonical module and each T-module
    class pays for its exponentials once per process."""
    n_minus, n_plus = raising_lowering_halves(action)
    e_minus = exp_nilpotent(n_minus, action.dimension)
    return e_minus @ exp_nilpotent(n_plus, action.dimension) @ e_minus


def exp_ad_matrices() -> tuple[ExactMatrix, ExactMatrix]:
    """The 3x3 matrices of exp ad for the two nilpotent halves, rows and
    columns ordered (X, Y, Z)."""
    half = Fraction(1, 2)
    half_i = gr(0, half)
    first = ExactMatrix.from_rows(
        [
            [gr(half), half_i, gr(-1)],
            [half_i, gr(Fraction(3, 2)), I],
            [gr(1), -I, gr(1)],
        ]
    )
    second = ExactMatrix.from_rows(
        [
            [gr(half), -half_i, gr(-1)],
            [-half_i, gr(Fraction(3, 2)), -I],
            [gr(1), I, gr(1)],
        ]
    )
    return first, second


def k_scalar(dimension: int) -> GaussianRational:
    """k on an irreducible module: 1 if its dimension is odd, -i if even."""
    return gr(1) if dimension % 2 else gr(0, -1)


def verify_skew(action: Sl2Action, s_mat: ExactMatrix) -> bool:
    """s^2 = I together with sX=-Xs, sY=Ys, sZ=-Zs."""
    x, y, z = action.matrices()
    eye = ExactMatrix.identity(action.dimension)
    return (
        s_mat @ s_mat == eye
        and s_mat @ x == -(x @ s_mat)
        and s_mat @ y == y @ s_mat
        and s_mat @ z == -(z @ s_mat)
    )


def build_skew(action: Sl2Action) -> SkewOperatorRealization:
    """s = h k for an irreducible action, k = k_scalar(dimension) I; raises
    AssertionError unless `verify_skew` holds (it fails on summands of mixed
    parity, where s^2 != I)."""
    h = build_h(action)
    k = ExactMatrix.identity(action.dimension) * k_scalar(action.dimension)
    s = h @ k
    if not verify_skew(action, s):
        raise AssertionError("h*k is not a skew operator; inputs are inconsistent")
    return SkewOperatorRealization(h, k, s)


def induce_acsa_structures(action: Sl2Action, s_mat: ExactMatrix):
    """The two anticommutator-algebra structures carried by a skew operator:
    (X, sY, -siZ) and (X, -sY, siZ)."""
    sy = s_mat @ action.y_mat
    siz = (s_mat @ action.z_mat) * I
    first = ModuleActionTriple(action.x_mat, sy, -siz)
    second = ModuleActionTriple(action.x_mat, -sy, siz)
    for label, triple in (("first", first), ("second", second)):
        ok, detail = check_relations(triple)
        if not ok:
            raise ValueError(
                f"{label} induced structure violates the algebra relations ({detail}); "
                "the supplied matrix is not a skew operator for this action"
            )
    return first, second


# Variant labels of the two summands, keyed by structure and parity of delta.
# Structure 1 always yields the {0, y} pair and structure 2 the {x, z} pair,
# but which summand carries which label flips with the parity of delta.
_SPLIT_TYPES = {
    (1, 0): ("0", "y"),
    (1, 1): ("y", "0"),
    (2, 0): ("x", "z"),
    (2, 1): ("z", "x"),
}


def split_odd(action: Sl2Action, structure_index: int):
    """For odd diameter d = 2*delta+1: the two irreducible summands
    span{v_i + v_{d-i}} and span{(-1)^i (v_i - v_{d-i})} with their types.

    Returns [(plus_basis, plus_type), (minus_basis, minus_type)].
    """
    d = action.diameter
    if d % 2 == 0:
        raise ValueError("split_odd needs odd diameter")
    if structure_index not in (1, 2):
        raise ValueError("structure_index must be 1 or 2")
    delta = (d - 1) // 2
    n = d + 1
    skew = build_skew(action)
    structure = induce_acsa_structures(action, skew.s_mat)[structure_index - 1]
    one = gr(1)
    plus_cols = [{i: one, d - i: one} for i in range(delta + 1)]
    minus_cols = [
        {i: gr(_pm(i)), d - i: gr(-_pm(i))} for i in range(delta + 1)
    ]
    plus = VectorBasis.from_columns(n, plus_cols)
    minus = VectorBasis.from_columns(n, minus_cols)
    out = []
    expected = _SPLIT_TYPES[(structure_index, delta % 2)]
    for basis, want_n in zip((plus, minus), expected):
        found = classify(restrict_triple(structure, basis))
        want = ab_type(delta, want_n)
        if found != want:
            raise AssertionError(
                f"odd split of diameter {d} classified as {found}, theory predicts {want}"
            )
        out.append((basis, found))
    return out


def _pm(i: int) -> int:
    return 1 if i % 2 == 0 else -1


def expected_h_eigenvalue(i: int, d: int) -> GaussianRational:
    """(-1)^i i^d, the h-eigenvalue on the i-th X-weight vector."""
    v = integer_power_of_i(d)
    return v if i % 2 == 0 else -v
