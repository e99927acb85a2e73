import weakref
from fractions import Fraction
from math import comb, gcd

import pytest

from cubetri import hypercube, suites
from cubetri.acsa import check_relations
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
from cubetri.linalg import ExactMatrix, kernel_basis, matmul
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
    es = [primitive_idempotent(ctx, i) for i in range(D + 1)]
    for ei, edi in zip(es, reversed(es)):
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
        assert k.ncols == 1
        ones = ExactMatrix.from_rows([[1]] * ctx.nvertices)
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
    # both views against the Krawtchouk closed form; the construction they
    # share uses that form too, so the oracle independent of it is the dense
    # check of the defining identities in test_idempotent_algebra_small
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


def test_base_columns_reject_a_wrong_krawtchouk_value(monkeypatch):
    krawtchouk = hypercube._krawtchouk

    def wrong(D, i):
        k = krawtchouk(D, i)
        return k if i != 3 else k[:2] + [k[2] + 1] + k[3:]

    def doubled(D, i):  # still an eigenvector: only the sum catches it
        return [v * 2 if i == 3 else v for v in krawtchouk(D, i)]

    for table, message in (
        (wrong, "E_3 e_0 of Q_6: column 3 is not a theta_3-eigenvector"),
        (doubled, "the columns do not sum to e_0"),
    ):
        monkeypatch.setattr(hypercube, "_krawtchouk", table)
        with pytest.raises(AssertionError, match=message):
            hypercube._idempotent_base_columns.__wrapped__(6)


def _inside_and_nonzero(m):
    """Every stored entry is in bounds and nonzero, and the stored form is
    canonical: den > 0 and gcd(den, every part) = 1."""
    parts = [x for row in m.rows.values() for _c, a, b in row for x in (a, b)]
    return (
        all(v and 0 <= r < m.nrows and 0 <= c < m.ncols for (r, c), v in m.entries.items())
        and m.den > 0
        and gcd(m.den, *parts) == 1
    )


def test_cube_builders_match_the_checking_constructor():
    # the builders store their entries as they are; each must equal the
    # matrix the bounds-checking, zero-dropping constructor builds
    for D in range(0, 9):
        n = 1 << D
        for i, col in enumerate(hypercube._idempotent_base_columns(D)):
            want = ExactMatrix.from_rows(
                [[Fraction(_krawtchouk(D, i, x.bit_count()), n)] for x in range(n)]
            )
            assert col == want and _inside_and_nonzero(col), (D, i)
        if D == 0:
            continue
        ctx = cube(D)
        for i in range(D + 1):
            dist = ExactMatrix(n, n, {
                (y, y ^ m): 1 for y in range(n) for m in range(n) if m.bit_count() == i
            })
            diag = ExactMatrix.diagonal([_krawtchouk(D, i, y.bit_count()) for y in range(n)])
            for got, want in ((distance_matrix(ctx, i), dist),
                              (dual_distance_matrix(ctx, i), diag)):
                assert got == want and _inside_and_nonzero(got), (D, i)


def test_second_dual_adjacency_closed_form_beyond_the_suite_range():
    # the idempotents suite checks the base columns only up to D = 8 by default
    for D in (9, 10):
        ctx = cube(D)
        sec = second_dual_adjacency(ctx)
        assert sec == ExactMatrix.diagonal(
            [(-1) ** ctx.weight(y) * (D - 2 * ctx.weight(y)) for y in ctx.vertices()]
        )


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


def test_idempotents_pin_compares_values_not_numerators(monkeypatch):
    # 2 E_1 has E_1's numerators over half its denominator
    D = 4
    monkeypatch.setattr(
        suites, "primitive_idempotent", lambda ctx, i: primitive_idempotent(ctx, i) * (1 + (i == 1))
    )
    assert _idempotents_failure(D) == "D=4: E_1 fails the entrywise pin E_1[y, z] = col_1[y ^ z]"


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


def _idempotents_failure_with(monkeypatch, D, extra):
    """The suite's detail with extra[i] added to the base column col_i."""
    column = suites._idempotent_base_column

    def perturbed(d, i):
        return column(d, i) + extra[i] if i in extra else column(d, i)

    monkeypatch.setattr(suites, "_idempotent_base_column", perturbed)
    return _idempotents_failure(D)


def test_idempotents_suite_catches_perturbed_base_column_at_d9(monkeypatch):
    # a non-real bump fails where a real one does: no realness check runs first
    for value in (Fraction(1, 7), gr(0, Fraction(1, 7))):
        bump = ExactMatrix(1 << 9, 1, {(37, 0): value})
        detail = _idempotents_failure_with(monkeypatch, 9, {3: bump})
        assert detail == "D=9: sum of idempotents is not I"
        monkeypatch.undo()


def _character(D, u, c):
    """c (-1)^(u.z) / 2^D: its Walsh-Hadamard transform is c at u and 0 elsewhere."""
    n = 1 << D
    return ExactMatrix(n, 1, {(z, 0): c * (-1) ** (u & z).bit_count() / n for z in range(n)})


@pytest.mark.parametrize(
    "n_col, detail",
    [
        (ExactMatrix(16, 1, {(5, 0): Fraction(1, 7)}), "D=4: E_0 E_0 != delta * E_0"),
        (
            ExactMatrix(16, 1, {(6, 0): gr(Fraction(1, 3), Fraction(1, 3))}),
            "D=4: E_0 E_0 != delta * E_0",
        ),
        (_character(4, 0b0001, gr(1)), "D=4: E_0 E_1 != delta * E_0"),
        (_character(4, 0b0001, gr(1, 1)), "D=4: E_0 E_0 != delta * E_0"),
    ],
)
def test_idempotents_suite_names_the_first_non_orthogonal_pair(monkeypatch, n_col, detail):
    # theta = (4, 2, 0): E_0 + N, E_1 - 2N, E_2 + N keep the sum and the spectral
    # sum, so only orthogonality fails; each detail is the first (i, j), i <= j,
    # at which the pairwise products (H col_i)(H col_j) fail
    extra = {0: n_col, 1: n_col * -2, 2: n_col}
    assert _idempotents_failure_with(monkeypatch, 4, extra) == detail


@pytest.mark.parametrize(
    "coefficients, scale, detail",
    [
        # H g_0 takes only the values 0 and L, but its support meets that of H g_2
        ((1, 0, -3, 2, 0), gr(1), "D=4: E_0 E_2 != delta * E_0"),
        ((1, 0, -3, 2, 0), gr(1, 1), "D=4: E_0 E_0 != delta * E_0"),
        # H g_1 takes the value 2L, outside {0, L}; the supports before it are disjoint
        ((0, 2, -3, 0, 1), gr(1), "D=4: E_1 E_1 != delta * E_1"),
        ((0, 2, -3, 0, 1), gr(1, 1), "D=4: E_1 E_1 != delta * E_1"),
    ],
)
def test_idempotents_suite_checks_transform_values_and_supports(
    monkeypatch, coefficients, scale, detail
):
    # H col_i gains c_i at u = 0111 alone; sum c_i = sum theta_i c_i = 0 keeps both sums
    extra = {i: _character(4, 0b0111, scale * c) for i, c in enumerate(coefficients) if c}
    assert _idempotents_failure_with(monkeypatch, 4, extra) == detail


def test_idempotents_pin_holds_one_e_i_at_a_time(monkeypatch):
    class Tracked(ExactMatrix):
        __slots__ = ("__weakref__",)

    built = []

    def tracked(ctx, i):
        assert all(ref() is None for ref in built), f"E_{i} built while an earlier E_i is alive"
        e = primitive_idempotent(ctx, i)
        m = Tracked._make(e.nrows, e.ncols, e.den, e.rows)
        built.append(weakref.ref(m))
        return m

    monkeypatch.setattr(suites, "primitive_idempotent", tracked)
    r = suites.run_suite("idempotents", Ds=(4,))
    assert r.passed, r.detail
    assert len(built) == 5 and built[-1]() is None


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
        assert check_relations(positive_structure(ctx)) == (True, None)
        assert check_relations(negative_structure(ctx)) == (True, None)
        c = weighted_adjacency(ctx)
        edge_set = {(y, z) for (y, z) in ctx.edges()}
        assert set(c.entries) == edge_set
        for (y, z), v in c.entries.items():
            assert v == gr((-1) ** min(ctx.weight(y), ctx.weight(z)))


def test_closed_forms_equal_the_product_definitions():
    # the oracle: C and Z as the products that define them in the paper;
    # equal canonical forms give byte-identical `build --matrix C` and `Z`
    for D in range(1, 10):
        ctx = cube(D)
        a, b = adjacency(ctx), second_dual_adjacency(ctx)
        assert weighted_adjacency(ctx) == (matmul(a, b) + matmul(b, a)) * Fraction(1, 2), D
        y = dual_adjacency(ctx)
        z = (matmul(a, y) - matmul(y, a)) * gr(0, Fraction(-1, 2))  # divided by 2i
        assert go_sl2_structure(ctx).z_mat == z, D


def test_weighted_adjacency_weight_one_two_entry():
    ctx = cube(4)
    c = weighted_adjacency(ctx)
    assert c.get(0b0001, 0b0011) == gr(-1)


def test_v_plus_minus():
    for D in (2, 3, 4):
        ctx = cube(D)
        plus, minus = v_plus_minus(ctx)
        assert plus.ncols == minus.ncols == ctx.nvertices // 2
        ad = distance_matrix(ctx, D)
        eye = ExactMatrix.identity(ctx.nvertices)
        for j in range(plus.ncols):
            assert ((ad - eye) @ plus.column(j)).is_zero()
            assert ((ad + eye) @ minus.column(j)).is_zero()
        # spectral halves: even idempotents kill the minus half and vice versa
        for i in range(D + 1):
            e = primitive_idempotent(ctx, i)
            victims = minus if i % 2 == 0 else plus
            for j in range(victims.ncols):
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
