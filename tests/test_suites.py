import importlib
from fractions import Fraction

import pytest

from cubetri import suites
from cubetri.exactnum import gr
from cubetri.hypercube import (
    adjacency,
    cube,
    second_dual_adjacency,
    v_plus_minus,
    weighted_adjacency,
)
from cubetri.linalg import ExactMatrix
from cubetri.quotient import (
    quotient,
    quotient_acsa_structure,
    quotient_adjacency,
    quotient_dual_adjacency,
    quotient_weighted_adjacency,
)
from cubetri.suites import run_suite

# `from cubetri import quotient` gives the function the package exports
quotient_module = importlib.import_module("cubetri.quotient")


@pytest.mark.parametrize(
    "name, kwargs", [("decomposition", {"Dz": (2,)}), ("skew", {"Ds": (3,)})]
)
def test_an_unknown_keyword_raises(name, kwargs):
    with pytest.raises(TypeError):
        run_suite(name, **kwargs)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("relations", {"Ds": ()}),
        ("weights", {"Ds": (), "quotient_Ds": ()}),
        ("idempotents", {"Ds": ()}),
        ("decomposition", {"Ds": ()}),
        ("leonard-even", {"Ds": ()}),
        ("leonard-quotient", {"Ds": ()}),
        ("transport", {"Ds": ()}),
        ("families", {"ds": ()}),
        ("sl2-factory", {"ds": ()}),
        ("skew", {"ds": ()}),
    ],
)
def test_an_empty_range_checks_nothing(name, kwargs):
    r = run_suite(name, **kwargs)
    assert r.passed
    # the exp-ad matrices do not depend on a diameter, so skew always checks them
    assert r.detail == ("exp-ad matrices" if name == "skew" else "")
    assert r.certificates == []


def _negated_entry(m):
    entries = dict(m.entries)
    key, v = next(iter(entries.items()))
    entries[key] = -v
    return ExactMatrix(m.nrows, m.ncols, entries)


@pytest.mark.parametrize(
    "parent_name, parent, want",
    [
        ("adjacency", adjacency, "quotient adjacency"),
        ("second_dual_adjacency", second_dual_adjacency, "dual adjacency"),
        ("weighted_adjacency", weighted_adjacency, "weighted adjacency"),
    ],
)
def test_transport_stops_on_the_builders_check_of_a_damaged_parent(
    monkeypatch, parent_name, parent, want
):
    # the suite leaves psi M == M~ psi to the quotient builders, which prove it
    damaged = _negated_entry(parent(quotient(5).parent))
    monkeypatch.setattr(quotient_module, parent_name, lambda ctx: damaged)
    builders = (quotient_adjacency, quotient_dual_adjacency, quotient_weighted_adjacency)
    for cached in (*builders, quotient_acsa_structure):
        cached.cache_clear()  # a cached matrix would skip the check
    with pytest.raises(AssertionError, match=f"{want} of Q~_5 is not the image"):
        run_suite("transport", Ds=(5,))


def _with_entry(m, key, value):
    return ExactMatrix(m.nrows, m.ncols, {**m.entries, key: value})


@pytest.mark.parametrize(
    "value, shown, q_value, q_shown",
    [
        (1, "1", -1, "-1"),
        (Fraction(-1, 2), "-1/2", Fraction(1, 2), "1/2"),
        (gr(0, -1), "-i", gr(1, 1), "1+i"),
    ],
)
def test_weights_names_the_one_entry_off_its_sign(monkeypatch, value, shown, q_value, q_shown):
    # C[3,1] of Q_4 is -1, as min(wt 3, wt 1) = 1; C~[0,1] of Q~_5 is 1
    damaged = _with_entry(weighted_adjacency(cube(4)), (3, 1), value)
    monkeypatch.setattr(suites, "weighted_adjacency", lambda ctx: damaged)
    r = run_suite("weights", Ds=(4,), quotient_Ds=())
    assert (r.status, r.detail) == ("fail", f"D=4: C[3,1] = {shown}, expected -1")
    damaged_q = _with_entry(quotient_weighted_adjacency(quotient(5)), (0, 1), q_value)
    monkeypatch.setattr(suites, "quotient_weighted_adjacency", lambda q: damaged_q)
    r = run_suite("weights", Ds=(), quotient_Ds=(5,))
    assert (r.status, r.detail) == ("fail", f"quotient D=5: C~[0,1] = {q_shown}, expected 1")


def test_transport_needs_psi_of_full_rank(monkeypatch):
    # the all-ones psi' = J psi intertwines A with A~ (J commutes with the
    # regular A~) and kills V-, but its kernel is larger than span V-
    def all_ones(q):
        n = q.parent.nvertices
        return ExactMatrix(q.nclasses, n, {(u, y): 1 for u in q.classes() for y in range(n)})

    monkeypatch.setattr(suites, "psi_matrix", all_ones)
    r = run_suite("transport", Ds=(5,))
    assert (r.status, r.detail) == ("fail", "D=5: psi is not one entry per column on every class")


def test_transport_needs_v_minus_with_disjoint_supports(monkeypatch):
    # a repeated column still lies in ker psi and in the antisymmetric
    # half; only the disjoint supports show that V- no longer spans ker psi
    def repeated(ctx):
        plus, minus = v_plus_minus(ctx)
        cols = [{r: a for r, a, _b in col} for _j, col in sorted(minus.columns().items())]
        return plus, ExactMatrix.from_columns(minus.nrows, [cols[1]] + cols[1:])

    monkeypatch.setattr(suites, "v_plus_minus", repeated)
    r = run_suite("transport", Ds=(5,))
    want = "D=5: V- is not 16 nonzero columns with disjoint supports"
    assert (r.status, r.detail) == ("fail", want)
