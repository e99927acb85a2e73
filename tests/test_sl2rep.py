import pytest
from fractions import Fraction

from cubetri import linalg, sl2rep
from cubetri.acsa import ab_type, b_type, classify
from cubetri.exactnum import gr
from cubetri.linalg import ExactMatrix, exp_nilpotent, invert, kernel_basis, restrict
from cubetri.sl2rep import (
    Sl2Action,
    build_h,
    build_irreducible_sl2,
    build_skew,
    check_brackets,
    checked_skew,
    exp_ad_matrices,
    expected_h_eigenvalue,
    induce_acsa_structures,
    k_scalar,
    raising_lowering_halves,
    split_odd,
)


def z_weight_basis(action: Sl2Action) -> ExactMatrix:
    """The {w_i} basis of a canonical module, as columns: Z.w_i = (d-2i)w_i
    with Y acting tridiagonally.  The tests' oracle for the w-basis forms."""
    n, d = action.dimension, action.diameter
    top = kernel_basis(action.z_mat - ExactMatrix.identity(n) * d)
    if top.ncols != 1:
        raise AssertionError("top Z-weight space is not one-dimensional")
    cols = [top.column(0)]
    prev = ExactMatrix.zeros(n, 1)
    for i in range(d):
        nxt = (action.y_mat @ cols[i] - prev * (d - i + 1)) * Fraction(1, i + 1)
        prev = cols[i]
        cols.append(nxt)
    # chain scaling is meaningful: only w_0 is normalized (by kernel_basis)
    basis = ExactMatrix(
        n, n, {(r, j): v for j, col in enumerate(cols) for (r, _c), v in col.entries.items()}
    )
    z_restricted = restrict(action.z_mat, basis)
    if z_restricted != ExactMatrix.diagonal([d - 2 * i for i in range(n)]):
        raise AssertionError("constructed w-basis does not diagonalize Z")
    return basis


def test_diameter_one_matrices():
    m = build_irreducible_sl2(1)
    assert m.x_mat == ExactMatrix.from_rows([[0, 1], [1, 0]])
    assert m.y_mat == ExactMatrix.diagonal([1, -1])
    assert m.z_mat == ExactMatrix.from_rows([[0, gr(0, 1)], [gr(0, -1), 0]])


def test_diameter_zero_is_trivial():
    m = build_irreducible_sl2(0)
    assert all(mat.is_zero() for mat in m.matrices())


def test_brackets_hold():
    for d in range(0, 11):
        assert check_brackets(build_irreducible_sl2(d)) is True


def test_brackets_fail_when_any_one_bracket_breaks():
    # (a X, b Y, c Z) turns [X,Y]=2iZ into ab = c, [Y,Z]=2iX into bc = a and
    # [Z,X]=2iY into ca = b, so each choice of scalars breaks exactly one
    action = build_irreducible_sl2(3)
    for scales in ((2, 2, 1), (1, 2, 2), (2, 1, 2)):
        scaled = Sl2Action(*(m * c for m, c in zip(action.matrices(), scales)))
        assert check_brackets(scaled) is False


def test_brackets_and_skew_checks_walk_no_product_pair(monkeypatch):
    # every (anti)commutator is one `bracket` walk, not p @ q beside q @ p:
    # the only products left are s = h k, s^2 and h^2
    action = build_irreducible_sl2(5)
    h = build_h(action)
    checked_skew(4)  # fills the caches checked_skew reads
    calls = []
    matmul = linalg.matmul
    monkeypatch.setattr(linalg, "matmul", lambda a, b: calls.append((a, b)) or matmul(a, b))
    assert check_brackets(action) is True and calls == []
    skew = build_skew.__wrapped__(action)
    assert calls == [(h, skew.k_mat), (skew.s_mat, skew.s_mat)]
    calls.clear()
    h4 = checked_skew(4)[1].h_mat
    assert calls == [(h4, h4)]


def test_exp_of_nilpotent_halves_in_w_basis():
    # frozen by direct series summation on diameter 2: the raising half
    # carries the binomial pattern C(d-i, d-j) * i^(j-i) above the diagonal,
    # the lowering half its mirror below
    m = build_irreducible_sl2(2)
    n_minus, n_plus = raising_lowering_halves(m)
    w = z_weight_basis(m)
    winv = invert(w)
    assert winv @ exp_nilpotent(n_plus, 3) @ w == ExactMatrix.from_rows(
        [[1, gr(0, 2), -1], [0, 1, gr(0, 1)], [0, 0, 1]]
    )
    assert winv @ exp_nilpotent(n_minus, 3) @ w == ExactMatrix.from_rows(
        [[1, 0, 0], [gr(0, 1), 1, 0], [-1, gr(0, 2), 1]]
    )


def test_h_is_diagonal_with_scale_eigenvalues():
    for d in range(0, 11):
        m = build_irreducible_sl2(d)
        h = build_h(m)
        assert h == ExactMatrix.diagonal(
            [expected_h_eigenvalue(i, d) for i in range(d + 1)]
        )


def test_h_squared_is_parity_sign():
    for d in range(0, 11):
        m = build_irreducible_sl2(d)
        h = build_h(m)
        assert h @ h == ExactMatrix.identity(d + 1) * ((-1) ** d)


def test_h_commutation_pattern():
    for d in range(0, 11):
        m = build_irreducible_sl2(d)
        x, y, z = m.matrices()
        h = build_h(m)
        assert h @ x == -(x @ h)
        assert h @ y == y @ h
        assert h @ z == -(z @ h)


def _adjoint_matrix(alpha, beta, gamma):
    # ad(aX+bY+cZ) on the basis (X, Y, Z), from the bracket table
    two_i = gr(0, 2)
    return ExactMatrix.from_rows(
        [
            [0, -(two_i * gamma), two_i * beta],
            [two_i * gamma, 0, -(two_i * alpha)],
            [-(two_i * beta), two_i * alpha, 0],
        ]
    )


def test_exp_ad_matrices_frozen_and_independently_recomputed():
    first, second = exp_ad_matrices()
    assert first.get(0, 0) == gr(Fraction(1, 2))
    assert first.get(0, 1) == gr(0, Fraction(1, 2))
    assert first.get(0, 2) == gr(-1)
    assert second.get(2, 0) == gr(1)
    assert second.get(2, 1) == gr(0, 1)
    assert second.get(2, 2) == gr(1)
    half = Fraction(1, 2)
    ad_minus = _adjoint_matrix(gr(-half), gr(0, half), gr(0))
    ad_plus = _adjoint_matrix(gr(half), gr(0, half), gr(0))
    assert exp_nilpotent(ad_minus, 3) == first
    assert exp_nilpotent(ad_plus, 3) == second


def test_h_conjugation_negates_x_on_diameter_one():
    m = build_irreducible_sl2(1)
    h = build_h(m)
    assert h @ m.x_mat @ invert(h) == -m.x_mat


def test_k_scalars_and_centrality():
    m2 = build_irreducible_sl2(2)
    assert build_skew(m2).k_mat == ExactMatrix.identity(3)
    m3 = build_irreducible_sl2(3)
    k = build_skew(m3).k_mat
    assert k == ExactMatrix.identity(4) * gr(0, -1)
    for mat in m3.matrices():
        assert k @ mat == mat @ k


def test_skew_operator_properties():
    for d in range(0, 11):
        m = build_irreducible_sl2(d)
        skew = build_skew(m)
        assert skew.k_mat == ExactMatrix.identity(d + 1) * k_scalar(d + 1)
        assert skew.s_mat == skew.h_mat @ skew.k_mat


def test_weight_sum_vector():
    # the sum of the w-basis is the top weight vector: the generator acting
    # tridiagonally on {w_i} fixes it with eigenvalue d, and it spans the
    # top eigenspace of the diagonal generator of the {v_i} basis
    for d in range(0, 11):
        m = build_irreducible_sl2(d)
        w_basis = z_weight_basis(m)
        total = ExactMatrix.zeros(d + 1, 1)
        for j in range(d + 1):
            total = total + w_basis.column(j)
        assert m.y_mat @ total == total * d
        assert set(r for (r, _c) in total.entries) == {0}


def test_induced_structures_even_diameter():
    for d in (2, 4):
        m = build_irreducible_sl2(d)
        skew = build_skew(m)
        first, second = induce_acsa_structures(m, skew.s_mat)
        assert classify(first) == b_type(d)
        assert classify(second) == b_type(d)


def test_induced_structures_reject_bad_skew():
    m = build_irreducible_sl2(2)
    with pytest.raises(ValueError):
        induce_acsa_structures(m, ExactMatrix.identity(3) * 2)


def test_split_odd_type_table():
    # frozen from the classify oracle (hand-checked at d=1); structure 1
    # yields the {0,y} pair, structure 2 the {x,z} pair, labels swapping
    # with the parity of delta
    expected = {
        (1, 0): ("0", "y"),
        (1, 1): ("y", "0"),
        (2, 0): ("x", "z"),
        (2, 1): ("z", "x"),
    }
    for d in (1, 3, 5, 7, 9):
        delta = (d - 1) // 2
        m = build_irreducible_sl2(d)
        for structure in (1, 2):
            parts = split_odd(m, structure)
            want = [ab_type(delta, n) for n in expected[(structure, delta % 2)]]
            assert [t for (_b, t) in parts] == want
            assert sum(b.ncols for (b, _t) in parts) == d + 1


def test_split_odd_diameter_seven_pairs():
    m = build_irreducible_sl2(7)
    first = {t for (_b, t) in split_odd(m, 1)}
    second = {t for (_b, t) in split_odd(m, 2)}
    assert first == {ab_type(3, "0"), ab_type(3, "y")}
    assert second == {ab_type(3, "z"), ab_type(3, "x")}


def test_split_odd_rejects_even():
    with pytest.raises(ValueError):
        split_odd(build_irreducible_sl2(4), 1)


def test_canonical_module_is_built_once():
    assert build_irreducible_sl2(5) is build_irreducible_sl2(5)


def test_build_h_agrees_on_equal_but_distinct_actions():
    action = build_irreducible_sl2(3)
    twin = Sl2Action(*(ExactMatrix(m.nrows, m.ncols, dict(m.entries)) for m in action.matrices()))
    assert twin is not action and twin == action
    h = build_h(action)
    assert build_h(twin) == h
    assert build_h.__wrapped__(twin) == h  # the uncached computation
    assert h == ExactMatrix.diagonal([expected_h_eigenvalue(i, 3) for i in range(4)])


def test_build_skew_rejects_summands_of_mixed_parity():
    # the trivial module (h = 1) beside the diameter-1 module (h^2 = -1): an
    # sl2 action on which no one scalar k makes s^2 = I
    action = Sl2Action(*(
        ExactMatrix(3, 3, {(r + 1, c + 1): v for (r, c), v in m.entries.items()})
        for m in build_irreducible_sl2(1).matrices()
    ))
    assert check_brackets(action)
    with pytest.raises(AssertionError, match="not a skew operator"):
        build_skew(action)


def test_build_skew_checks_each_skew_relation(monkeypatch):
    # with h that of the diameter-1 module, s = hk = Y, and s^2 = I; Y in
    # place of X or Z, or X in place of Y, breaks exactly one of sX = -Xs,
    # sY = Ys and sZ = -Zs.  On an sl2 action sY = Ys follows from the other
    # two, as s fixes [Z, X] = 2iY, so only broken brackets can show it
    action = build_irreducible_sl2(1)
    h = build_h(action)
    monkeypatch.setattr(sl2rep, "build_h", lambda _action: h)
    x, y, z = action.matrices()
    assert build_skew.__wrapped__(action).s_mat == y
    for broken in (Sl2Action(y, y, z), Sl2Action(x, x, z), Sl2Action(x, y, y)):
        with pytest.raises(AssertionError, match="not a skew operator"):
            build_skew.__wrapped__(broken)


def test_canonical_module_needs_no_elimination(monkeypatch):
    def refuse(*_args, **_kw):
        raise AssertionError("build_irreducible_sl2 called an elimination routine")

    # raising=False: sl2rep imports neither routine, and one it imports
    # later is refused all the same
    for module in (sl2rep, linalg):
        monkeypatch.setattr(module, "kernel_basis", refuse, raising=False)
        monkeypatch.setattr(module, "restrict", refuse, raising=False)
    action = build_irreducible_sl2.__wrapped__(5)
    assert action == build_irreducible_sl2(5)
