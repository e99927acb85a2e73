import importlib
from fractions import Fraction
from math import comb

import pytest

from cubetri import linalg, suites
from cubetri.exactnum import gr
from cubetri.hypercube import (
    adjacency,
    distance_matrix,
    second_dual_adjacency,
    v_plus_minus,
    weighted_adjacency,
)
from cubetri.linalg import ExactMatrix, kernel_basis, matmul, rank
from cubetri.quotient import (
    psi_matrix,
    quotient,
    quotient_acsa_structure,
    quotient_adjacency,
    quotient_dual_adjacency,
    quotient_weighted_adjacency,
)

# `from cubetri import quotient` gives the function the package exports
quotient_module = importlib.import_module("cubetri.quotient")


def section_matrix(q):
    """Right inverse of psi with image the symmetric half: class -> (y + y')/2."""
    half = gr(Fraction(1, 2))
    entries = {}
    for u in q.classes():
        entries[(u, u)] = half
        entries[(q.parent.antipode(u), u)] = half
    return ExactMatrix(q.parent.nvertices, q.nclasses, entries)


def all_pairs_adjacency(q):
    """Brute-force adjacency: classes joined when some lifts are neighbors."""
    entries = {}
    for u in q.classes():
        for v in q.classes():
            if u != v and q.distance(u, v) == 1:
                entries[(u, v)] = 1
    return ExactMatrix(q.nclasses, q.nclasses, entries)


def intersection_numbers(q):
    """Brute-force (c_i, a_i, b_i) for i = 0..calD, plus the k_i sphere
    sizes: the tests' oracle for the distance-regularity of Q~_D."""
    cal_d = q.cal_d
    spheres = {}
    for u in q.classes():
        spheres.setdefault(q.class_weight(u), []).append(u)
    adj = quotient_adjacency(q)
    numbers = []
    k_sizes = [len(spheres.get(i, [])) for i in range(cal_d + 1)]
    for i in range(cal_d + 1):
        ci = ai = bi = None
        for u in spheres.get(i, []):
            c = a = b = 0
            for v in q.classes():
                if adj.get(u, v):
                    w = q.class_weight(v)
                    if w == i - 1:
                        c += 1
                    elif w == i:
                        a += 1
                    elif w == i + 1:
                        b += 1
                    else:
                        raise AssertionError("neighbor at non-adjacent distance")
            trio = (c, a, b)
            if ci is None:
                ci, ai, bi = trio
            elif (ci, ai, bi) != trio:
                raise AssertionError(f"quotient of Q_{q.D} is not distance-regular at i={i}")
        numbers.append((ci, ai, bi))
    return numbers, k_sizes


def test_requires_odd_diameter():
    with pytest.raises(ValueError):
        quotient(4)


def test_requires_diameter_at_least_three():
    with pytest.raises(ValueError, match="antipodal quotient needs odd D >= 3"):
        quotient(1)


def test_q3_quotient_is_complete_graph():
    q = quotient(3)
    adj = quotient_adjacency(q)
    n = q.nclasses
    assert n == 4
    expected = ExactMatrix(n, n, {(u, v): 1 for u in range(n) for v in range(n) if u != v})
    assert adj == expected
    numbers, k_sizes = intersection_numbers(q)
    assert numbers == [(0, 0, 3), (1, 2, 0)]
    assert k_sizes == [1, 3]


def test_intersection_numbers_match_displayed_values():
    for D in (3, 5, 7, 9):
        q = quotient(D)
        cal_d = q.cal_d
        numbers, k_sizes = intersection_numbers(q)
        for i in range(cal_d):
            ci, ai, bi = numbers[i]
            if i > 0:
                assert ci == i
            assert ai == 0
            assert bi == D - i
            assert k_sizes[i] == comb(D, i)
        c_top, a_top, b_top = numbers[cal_d]
        assert c_top == cal_d
        assert a_top == cal_d + 1
        assert b_top == 0
        assert k_sizes[cal_d] == comb(D, cal_d)


def test_psi_and_section():
    for D in (3, 5):
        q = quotient(D)
        psi = psi_matrix(q)
        sec = section_matrix(q)
        assert rank(psi) == q.nclasses
        assert psi @ sec == ExactMatrix.identity(q.nclasses)
        for y in range(4):
            yp = q.parent.antipode(y)
            diff = ExactMatrix(q.parent.nvertices, 1, {(y, 0): 1, (yp, 0): -1})
            assert (psi @ diff).is_zero()
            summed = ExactMatrix(q.parent.nvertices, 1, {(y, 0): 1, (yp, 0): 1})
            image = psi @ summed
            assert image == ExactMatrix(q.nclasses, 1, {(q.class_of(y), 0): 2})


def test_kernel_of_psi_is_antisymmetric_half():
    # the elimination oracle of the structural proof in `suite_transport`
    for D in (3, 5, 7):
        q = quotient(D)
        k = kernel_basis(psi_matrix(q))
        minus = v_plus_minus(q.parent)[1]
        assert k.ncols == minus.ncols == q.nclasses  # 2^(D-1)
        linalg._solve(minus, k)  # V- is independent and spans every kernel vector
        ad = distance_matrix(q.parent, D)
        assert ((ad + ExactMatrix.identity(q.parent.nvertices)) @ k).is_zero()


def test_closed_form_c_tilde_equals_the_product_definition():
    # the oracle: C~ = (A~B~ + B~A~)/2, the product that defines it
    for D in (3, 5, 7, 9, 11):
        q = quotient(D)
        a, b = quotient_adjacency(q), quotient_dual_adjacency(q)
        assert quotient_weighted_adjacency(q) == (matmul(a, b) + matmul(b, a)) * Fraction(1, 2), D


def test_transport_never_eliminates_on_v(monkeypatch):
    # ker psi is proved by its structure; cold builders show every elimination
    D = 9
    for cached in (
        quotient_acsa_structure, quotient_weighted_adjacency, quotient_dual_adjacency,
        quotient_adjacency, weighted_adjacency, distance_matrix,
    ):
        cached.cache_clear()
    sizes = []
    echelon = linalg._echelon

    def counted(rows, *args, **kwargs):
        sizes.append(len(rows))
        return echelon(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "_echelon", counted)
    assert suites.run_suite("transport", Ds=(D,)).passed
    assert max(sizes, default=0) <= D + 1


def test_quotient_adjacency_row_sums_and_conjugation():
    for D in (3, 5, 7):
        q = quotient(D)
        adj = quotient_adjacency(q)
        for u in q.classes():
            assert sum(1 for (r, _c) in adj.entries if r == u) == D
        assert psi_matrix(q) @ adjacency(q.parent) @ section_matrix(q) == adj


def test_quotient_adjacency_matches_all_pairs_oracle():
    for D in (3, 5, 7, 9):
        q = quotient(D)
        assert quotient_adjacency(q) == all_pairs_adjacency(q)


def test_quotient_dual_adjacency_is_the_conjugated_parent():
    for D in (3, 5, 7):
        q = quotient(D)
        conjugated = psi_matrix(q) @ second_dual_adjacency(q.parent) @ section_matrix(q)
        assert quotient_dual_adjacency(q) == conjugated
        conjugated = psi_matrix(q) @ weighted_adjacency(q.parent) @ section_matrix(q)
        assert quotient_weighted_adjacency(q) == conjugated


def _damaged(m, key, value):
    entries = dict(m.entries)
    entries[key] = value
    return ExactMatrix(m.nrows, m.ncols, entries)


def test_quotient_dual_adjacency_rejects_damaged_parent(monkeypatch):
    q = quotient(5)
    parent = second_dual_adjacency(q.parent)
    damaged = _damaged(parent, (6, 6), 7)
    monkeypatch.setattr(quotient_module, "second_dual_adjacency", lambda ctx: damaged)
    with pytest.raises(AssertionError, match="dual adjacency of Q~_5 is not the image"):
        quotient_dual_adjacency.__wrapped__(q)


def test_quotient_weighted_adjacency_rejects_damaged_parent(monkeypatch):
    q = quotient(5)
    parent = weighted_adjacency(q.parent)
    (y, z), v = next(iter(parent.entries.items()))
    damaged = _damaged(parent, (y, z), -v)
    monkeypatch.setattr(quotient_module, "weighted_adjacency", lambda ctx: damaged)
    with pytest.raises(AssertionError, match="weighted adjacency of Q~_5 is not the image"):
        quotient_weighted_adjacency.__wrapped__(q)


def test_transport_checks_the_quotient_relations_and_weights_does_not(monkeypatch):
    checked = []
    for module in (quotient_module, suites):
        check = module.check_relations
        monkeypatch.setattr(
            module, "check_relations", lambda t, check=check: checked.append(t.dimension) or check(t)
        )
    for suite, kwargs, want in (
        ("transport", {"Ds": (9,)}, [256]),
        ("weights", {"Ds": (), "quotient_Ds": (9,)}, []),
    ):
        checked.clear()
        quotient_acsa_structure.cache_clear()  # a cached triple would skip the check
        assert suites.run_suite(suite, **kwargs).passed
        assert checked == want, suite


def test_quotient_dual_adjacency_entries():
    q = quotient(3)
    b = quotient_dual_adjacency(q)
    base = q.class_of(0)
    assert b.get(base, base) == gr(3)
    for u in q.classes():
        if q.class_weight(u) == 1:
            assert b.get(u, u) == gr(-1)


def test_quotient_eigenvalue_multiplicities():
    # same spectrum, two indexings: eigenvalue D-4i has multiplicity C(D,2i),
    # equivalently (-1)^i (D-2i) has multiplicity C(D,i); settled by rank
    for D in (3, 5, 7):
        q = quotient(D)
        adj = quotient_adjacency(q)
        eye = ExactMatrix.identity(q.nclasses)
        total = 0
        for i in range(q.cal_d + 1):
            mult_first = kernel_basis(adj - eye * (D - 4 * i)).ncols
            assert mult_first == comb(D, 2 * i)
            theta = (-1) ** i * (D - 2 * i)
            mult_second = kernel_basis(adj - eye * theta).ncols
            assert mult_second == comb(D, i)
            total += mult_second
        assert total == q.nclasses


def test_quotient_structure_relations_and_weights():
    for D in (3, 5, 7):
        q = quotient(D)
        triple = quotient_acsa_structure(q)
        c = quotient_weighted_adjacency(q)
        adj = quotient_adjacency(q)
        assert set(c.entries) == set(adj.entries)
        for (u, v), val in c.entries.items():
            i = min(q.class_weight(u), q.class_weight(v))
            assert val == gr((-1) ** i)


def test_commutation_with_psi():
    for D in (3, 5, 7, 9):
        q = quotient(D)
        psi = psi_matrix(q)
        pairs = (
            (adjacency(q.parent), quotient_adjacency(q)),
            (second_dual_adjacency(q.parent), quotient_dual_adjacency(q)),
            (weighted_adjacency(q.parent), quotient_weighted_adjacency(q)),
        )
        for parent_m, quotient_m in pairs:
            assert psi @ parent_m == quotient_m @ psi
