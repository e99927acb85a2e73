"""sl2 in the physicist basis and the skew-operator bridge to the
anticommutator spin algebra.

Basis X, Y, Z with [X,Y]=2iZ and cyclic variants.  The operator
h = exp((iY-X)/2) exp((iY+X)/2) exp((iY-X)/2) anticommutes with X and Z and
commutes with Y; correcting it by the scalar k (1 on an odd-dimensional
irreducible, -i on an even one) yields an involution s = hk, which twists Y
and Z into generators of the anticommutator spin algebra.  `build_skew` forms
s as `build_h` times the scalar `k_scalar` and checks it, for the canonical
modules and the hypercube's T-modules alike.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .acsa import ModuleActionTriple, _chain, _sign, ab_type, check_relations, classify, restrict_triple
from .exactnum import GaussianRational, I, gr, integer_power_of_i
from .linalg import ExactMatrix, bracket, exp_nilpotent


# Actions of X, Y, Z on one space, as three square matrices like a module
# triple; the brackets [X,Y]=2iZ etc. are what `check_brackets` verifies.
Sl2Action = ModuleActionTriple


def check_brackets(action: Sl2Action) -> bool:
    x, y, z = action.matrices()
    two_i = gr(0, 2)
    return (
        bracket(x, y, -1) == z * two_i
        and bracket(y, z, -1) == x * two_i
        and bracket(z, x, -1) == y * two_i
    )


@lru_cache(maxsize=None)
def build_irreducible_sl2(d: int) -> Sl2Action:
    """The (d+1)-dimensional irreducible module, in the basis {v_i} where Y is
    diagonal.  Memoized: the action is immutable, so callers share one copy."""
    if d < 0:
        raise ValueError("diameter must be nonnegative")
    action = Sl2Action(
        _chain(d, lambda i: d - i + 1, lambda i: i + 1, fold=False),
        ExactMatrix.diagonal([d - 2 * i for i in range(d + 1)]),
        _chain(d, lambda i: d - i + 1, lambda i: -(i + 1), fold=False) * I,
    )
    if not check_brackets(action):
        raise AssertionError(f"bracket relations fail on the diameter-{d} module")
    return action


def raising_lowering_halves(action: Sl2Action):
    """The two nilpotent combinations (iY-X)/2 and (iY+X)/2."""
    half = Fraction(1, 2)
    iy = action.y_mat * I
    return (iy - action.x_mat) * half, (iy + action.x_mat) * half


@lru_cache(maxsize=None)
def build_h(action: Sl2Action) -> ExactMatrix:
    """h as a product of three nilpotent exponentials, computed exactly.
    Memoized on the action's value: each canonical module and each T-module
    class pays for its exponentials once per process."""
    n_minus, n_plus = raising_lowering_halves(action)
    e_minus = exp_nilpotent(n_minus)
    return e_minus @ exp_nilpotent(n_plus) @ e_minus


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


@lru_cache(maxsize=None)
def build_skew(action: Sl2Action) -> ExactMatrix:
    """s = h k for an irreducible action, k = k_scalar(dimension) a scalar;
    raises AssertionError unless s^2 = I, sX = -Xs, sY = Ys and sZ = -Zs
    (s^2 = I fails on summands of mixed parity).  Memoized on the action's
    value, like `build_h`: the skew suite, the sl2 factory and `split_odd`
    share one checked s."""
    x, y, z = action.matrices()
    s = build_h(action) * k_scalar(action.dimension)
    if not (
        s @ s == ExactMatrix.identity(action.dimension)
        and bracket(s, x).is_zero()
        and bracket(s, y, -1).is_zero()
        and bracket(s, z).is_zero()
    ):
        raise AssertionError("h*k is not a skew operator; inputs are inconsistent")
    return s


def checked_skew(d: int) -> tuple[Sl2Action, ExactMatrix]:
    """The diameter-d irreducible action and its s = `build_skew`, once h is
    checked: h = diag((-1)^i i^d) and h^2 = (-1)^d I, or AssertionError.
    `build_skew` proves that s = hk anticommutes with X and Z and commutes
    with Y, so h does, as k is a nonzero scalar; that fixes s only up to
    sign, and these fix h."""
    action = build_irreducible_sl2(d)
    h = build_h(action)
    want_h = ExactMatrix.diagonal([expected_h_eigenvalue(i, d) for i in range(d + 1)])
    for holds, what in (
        (h == want_h, "h eigenvalues differ from (-1)^i i^d"),
        (h @ h == ExactMatrix.identity(d + 1) * ((-1) ** d), "h^2 != (-1)^d"),
    ):
        if not holds:
            raise AssertionError(f"d={d}: {what}")
    return action, build_skew(action)


@lru_cache(maxsize=None)
def induce_acsa_structures(action: Sl2Action, s_mat: ExactMatrix):
    """The two anticommutator-algebra structures carried by a skew operator:
    (X, sY, -siZ) and (X, -sY, siZ), each checked against the relations.
    Memoized on its immutable arguments: `split_odd` asks for both
    structures once per structure index."""
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
    structure = induce_acsa_structures(action, build_skew(action))[structure_index - 1]
    plus_cols = [{i: 1, d - i: 1} for i in range(delta + 1)]
    minus_cols = [{i: _sign(i), d - i: -_sign(i)} for i in range(delta + 1)]
    plus = ExactMatrix.from_columns(n, plus_cols)
    minus = ExactMatrix.from_columns(n, minus_cols)
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


def expected_h_eigenvalue(i: int, d: int) -> GaussianRational:
    """(-1)^i i^d, the h-eigenvalue on the i-th X-weight vector."""
    v = integer_power_of_i(d)
    return v if i % 2 == 0 else -v
