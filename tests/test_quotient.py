from math import comb

import pytest

from cubetri.exactnum import gr
from cubetri.hypercube import adjacency, second_dual_adjacency, weighted_adjacency
from cubetri.linalg import ExactMatrix, kernel_basis, rank
from cubetri.quotient import (
    intersection_numbers,
    psi_matrix,
    quotient,
    quotient_acsa_structure,
    quotient_adjacency,
    quotient_dual_adjacency,
    quotient_weighted_adjacency,
    section_matrix,
)


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
            diff = ExactMatrix.column_vector(
                [1 if v == y else (-1 if v == yp else 0) for v in q.parent.vertices()]
            )
            assert (psi @ diff).is_zero()
            summed = ExactMatrix.column_vector(
                [1 if v in (y, yp) else 0 for v in q.parent.vertices()]
            )
            image = psi @ summed
            assert image == ExactMatrix.column_vector(
                [2 if u == q.class_of(y) else 0 for u in q.classes()]
            )


def test_kernel_of_psi_is_antisymmetric_half():
    q = quotient(5)
    psi = psi_matrix(q)
    k = kernel_basis(psi)
    assert k.size == q.nclasses  # 2^(D-1)
    ad_minus_id = None
    from cubetri.hypercube import distance_matrix

    ad = distance_matrix(q.parent, q.D)
    eye = ExactMatrix.identity(q.parent.nvertices)
    for j in range(k.size):
        col = k.column(j)
        assert ((ad + eye) @ col).is_zero()


def test_quotient_adjacency_row_sums_and_conjugation():
    for D in (3, 5, 7):
        q = quotient(D)
        adj = quotient_adjacency(q)
        for u in q.classes():
            assert sum(1 for (r, _c) in adj.entries if r == u) == D
        from cubetri.quotient import push_through

        assert push_through(q, adjacency(q.parent)) == adj


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
            mult_first = kernel_basis(adj - eye * (D - 4 * i)).size
            assert mult_first == comb(D, 2 * i)
            theta = (-1) ** i * (D - 2 * i)
            mult_second = kernel_basis(adj - eye * theta).size
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
