from fractions import Fraction
from math import comb

import pytest

from cubetri import suites
from cubetri.exactnum import gr
from cubetri.hypercube import (
    adjacency,
    cube,
    distance_matrix,
    dual_adjacency,
    dual_distance_matrix,
    dual_idempotent,
    go_sl2_structure,
    negative_structure,
    positive_structure,
    primitive_idempotent,
    s_diagonal,
    second_dual_adjacency,
    v_plus_minus,
    weighted_adjacency,
)
from cubetri.linalg import ExactMatrix, kernel_basis
from cubetri.sl2rep import induce_acsa_structures, k_scalar


def test_context_geometry():
    ctx = cube(4)
    assert ctx.nvertices == 16
    assert ctx.distance(0b0101, 0b0110) == 2
    assert ctx.antipode(0b0000) == 0b1111
    for y in ctx.vertices():
        assert ctx.distance(y, ctx.antipode(y)) == 4


def test_adjacency_row_sums_and_counts():
    ctx = cube(2)
    a = adjacency(ctx)
    for y in ctx.vertices():
        assert sum(1 for (r, _c) in a.entries if r == y) == 2
    assert distance_matrix(cube(4), 1).nnz() == 64


def test_distance_matrix_easy_cases():
    ctx = cube(3)
    assert distance_matrix(ctx, 0) == ExactMatrix.identity(8)
    ad = distance_matrix(ctx, 3)
    assert ad @ ad == ExactMatrix.identity(8)
    for y in ctx.vertices():
        assert ad.get(ctx.antipode(y), y) == gr(1)
    with pytest.raises(ValueError):
        distance_matrix(ctx, 4)


def test_idempotent_algebra_small():
    # the dense-product oracle for the idempotents suite's base-column check
    for D in (2, 3, 4, 5):
        ctx = cube(D)
        n = ctx.nvertices
        es = [primitive_idempotent(ctx, i) for i in range(D + 1)]
        total = ExactMatrix.zeros(n, n)
        for e in es:
            total = total + e
        assert total == ExactMatrix.identity(n)
        for i, ei in enumerate(es):
            for j, ej in enumerate(es):
                assert ei @ ej == (ei if i == j else ExactMatrix.zeros(n, n))
        j_matrix = ExactMatrix(n, n, {(r, c): 1 for r in range(n) for c in range(n)})
        assert es[0] == j_matrix * Fraction(1, n)
        a = adjacency(ctx)
        for i, ei in enumerate(es):
            assert a @ ei == ei * (D - 2 * i)
            assert ei.trace() == comb(D, i)  # rank of a verified idempotent


def test_idempotent_sign_relation():
    # entries of E_{D-i} are (-1)^distance times those of E_i
    D = 4
    ctx = cube(D)
    for i in range(D + 1):
        ei = primitive_idempotent(ctx, i)
        edi = primitive_idempotent(ctx, D - i)
        twisted = ExactMatrix(
            ctx.nvertices,
            ctx.nvertices,
            {(y, z): v * ((-1) ** ctx.distance(y, z)) for (y, z), v in ei.entries.items()},
        )
        assert edi == twisted


def test_perron_eigenvector():
    for D in (2, 3, 5):
        ctx = cube(D)
        a = adjacency(ctx)
        k = kernel_basis(a - ExactMatrix.identity(ctx.nvertices) * D)
        assert k.size == 1
        ones = ExactMatrix.column_vector([1] * ctx.nvertices)
        assert k.column(0) == ones * Fraction(1, 1)
        assert (a @ ones) == ones * D


def test_dual_idempotents():
    D = 4
    ctx = cube(D)
    total = ExactMatrix.zeros(ctx.nvertices, ctx.nvertices)
    for i in range(D + 1):
        ei = dual_idempotent(ctx, i)
        assert ei.nnz() == comb(D, i)
        total = total + ei
        for j in range(D + 1):
            ej = dual_idempotent(ctx, j)
            assert ei @ ej == (ei if i == j else ExactMatrix.zeros(ctx.nvertices, ctx.nvertices))
    assert total == ExactMatrix.identity(ctx.nvertices)


def test_dual_distance_matrices():
    ctx = cube(3)
    assert dual_distance_matrix(ctx, 0) == ExactMatrix.identity(8)
    astar = dual_adjacency(ctx)
    y = 0b001  # weight 1
    assert astar.get(y, y) == gr(1)
    a2star = dual_distance_matrix(ctx, 2)
    assert a2star.get(y, y) == gr(-1)
    for D in (2, 3, 4):
        c2 = cube(D)
        astar = dual_adjacency(c2)
        sec = second_dual_adjacency(c2)
        for v in c2.vertices():
            w = c2.weight(v)
            assert astar.get(v, v) == gr(D - 2 * w)
            assert sec.get(v, v) == gr((-1) ** w * (D - 2 * w))


def _krawtchouk(D: int, i: int, x: int) -> int:
    """K_i(x) = sum_j (-1)^j C(x, j) C(D - x, i - j): 2^D E_i at distance x."""
    return sum((-1) ** j * comb(x, j) * comb(D - x, i - j) for j in range(i + 1))


def test_dual_distance_matches_full_idempotent():
    # both views against the Krawtchouk closed form, which is computed
    # independently of the base-column construction they share
    for D in (2, 3, 4):
        ctx = cube(D)
        for i in range(D + 1):
            e = primitive_idempotent(ctx, i)
            diag = dual_distance_matrix(ctx, i)
            for y in ctx.vertices():
                assert diag.get(y, y) == e.get(y, 0) * ctx.nvertices
                for z in ctx.vertices():
                    want = _krawtchouk(D, i, ctx.distance(y, z))
                    assert e.get(y, z) * ctx.nvertices == want


def test_dual_distance_matrix_krawtchouk_oracle():
    for D in range(1, 9):
        ctx = cube(D)
        for i in range(D + 1):
            diag = dual_distance_matrix(ctx, i)
            for y in ctx.vertices():
                assert diag.get(y, y) == _krawtchouk(D, i, ctx.weight(y))


def _idempotents_failure(D):
    r = suites.run_suite("idempotents", Ds=(D,))
    assert r.status == "fail"
    return r.detail


def test_idempotents_suite_catches_swapped_eigenprojections(monkeypatch):
    # E_1 and E_{D-1} share rank and the sign relation, so only the
    # spectral sum tells their base columns apart
    D = 4
    swap = {1: D - 1, D - 1: 1}
    column = suites._idempotent_base_column
    monkeypatch.setattr(suites, "_idempotent_base_column", lambda d, i: column(d, swap.get(i, i)))
    assert "sum theta_i E_i is not A" in _idempotents_failure(D)
    monkeypatch.undo()
    # with the columns intact, swapped matrices fail the entrywise pin
    monkeypatch.setattr(
        suites, "primitive_idempotent", lambda ctx, i: primitive_idempotent(ctx, swap.get(i, i))
    )
    assert "entrywise pin" in _idempotents_failure(D)
    monkeypatch.undo()
    r = suites.run_suite("idempotents", Ds=(D,))
    assert r.passed, r.detail
    assert "spectral sum" in r.detail and "pinned" in r.detail


def test_idempotents_suite_checks_every_coordinate_at_d9():
    r = suites.run_suite("idempotents", Ds=(9,))
    assert r.passed, r.detail
    assert "on all 512 coordinates" in r.detail
    assert "pinned" not in r.detail  # E_i is not materialized beyond D = 8


def test_idempotents_suite_catches_entry_off_translation_pattern(monkeypatch):
    # E_2 of Q_4 vanishes at distance 1, so moving its (0, 0) entry to (0, 1)
    # keeps the entry count and breaks only the XOR pattern
    D = 4

    def moved(ctx, i):
        e = primitive_idempotent(ctx, i)
        if i != 2:
            return e
        assert e.get(0, 1) == 0
        entries = dict(e.entries)
        entries[(0, 1)] = entries.pop((0, 0))
        return ExactMatrix(e.nrows, e.ncols, entries)

    monkeypatch.setattr(suites, "primitive_idempotent", moved)
    assert "E_2 fails the entrywise pin" in _idempotents_failure(D)


def test_idempotents_suite_catches_perturbed_base_column_at_d9(monkeypatch):
    column = suites._idempotent_base_column
    bump = ExactMatrix(1 << 9, 1, {(37, 0): Fraction(1, 7)})

    def perturbed(D, i):
        col = column(D, i)
        return col + bump if i == 3 else col

    monkeypatch.setattr(suites, "_idempotent_base_column", perturbed)
    assert "sum of idempotents is not I" in _idempotents_failure(9)


def test_idempotents_suite_catches_missing_adjacency_entry(monkeypatch):
    def damaged(ctx):
        a = adjacency(ctx)
        entries = dict(a.entries)
        del entries[(5, 4)]
        return ExactMatrix(a.nrows, a.ncols, entries)

    monkeypatch.setattr(suites, "adjacency", damaged)
    assert "A is not translation-invariant" in _idempotents_failure(4)


def test_go_sl2_structure():
    for D in (1, 2, 4):
        action = go_sl2_structure(cube(D))
        x, y, z = action.matrices()
        two_i = gr(0, 2)
        assert y @ z - z @ y == x * two_i
    ctx = cube(5)
    action = go_sl2_structure(ctx)
    for i in range(6):
        ei_star = dual_idempotent(ctx, i)
        assert action.y_mat @ ei_star == ei_star * (5 - 2 * i)


def test_positive_structure_relations_and_entries():
    for D in (2, 3, 4):
        ctx = cube(D)
        positive_structure(ctx)
        negative_structure(ctx)
        c = weighted_adjacency(ctx)
        edge_set = {(y, z) for (y, z) in ctx.edges()}
        assert set(c.entries) == edge_set
        for (y, z), v in c.entries.items():
            assert v == gr((-1) ** min(ctx.weight(y), ctx.weight(z)))


def test_weighted_adjacency_weight_one_two_entry():
    ctx = cube(4)
    c = weighted_adjacency(ctx)
    assert c.get(0b0001, 0b0011) == gr(-1)


def test_v_plus_minus():
    for D in (2, 3, 4):
        ctx = cube(D)
        plus, minus = v_plus_minus(ctx)
        assert plus.size == minus.size == ctx.nvertices // 2
        ad = distance_matrix(ctx, D)
        eye = ExactMatrix.identity(ctx.nvertices)
        for j in range(plus.size):
            assert ((ad - eye) @ plus.column(j)).is_zero()
            assert ((ad + eye) @ minus.column(j)).is_zero()
        # spectral halves: even idempotents kill the minus half and vice versa
        for i in range(D + 1):
            e = primitive_idempotent(ctx, i)
            victims = minus if i % 2 == 0 else plus
            for j in range(victims.size):
                assert (e @ victims.column(j)).is_zero()


def test_s_diagonal_closed_form():
    ctx = cube(2)
    s = s_diagonal(ctx)
    assert s.get(0, 0) == gr(-1)  # weight 0, floor(D/2) = 1
    assert k_scalar(4) == gr(0, -1)
    for D in (1, 2, 3, 4, 5):
        ctx = cube(D)
        s = s_diagonal(ctx)
        for y in ctx.vertices():
            assert s.get(y, y) == gr((-1) ** (D // 2 + ctx.weight(y)))


def test_induced_structures_sign_bookkeeping():
    # first structure pairs A with epsilon * A*_{D-1}, second with -epsilon,
    # where epsilon is +1 for D = 0,1 (mod 4) and -1 for D = 2,3 (mod 4)
    for D in (2, 3, 4, 5):
        ctx = cube(D)
        action = go_sl2_structure(ctx)
        first, second = induce_acsa_structures(action, s_diagonal(ctx))
        eps = 1 if D % 4 in (0, 1) else -1
        sec_dual = second_dual_adjacency(ctx)
        assert first.x_mat == adjacency(ctx)
        assert first.y_mat == sec_dual * eps
        assert second.y_mat == sec_dual * (-eps)
