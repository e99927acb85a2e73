import random
from fractions import Fraction

import pytest

from cubetri import acsa
from cubetri.acsa import (
    ModuleActionTriple,
    ModuleType,
    ab_type,
    b_type,
    build_canonical,
    check_relations,
    classify,
    is_irreducible,
)
from cubetri.exactnum import gr
from cubetri.linalg import ExactMatrix, integer_eigenspaces, invert, rank
from cubetri.sl2rep import checked_skew, induce_acsa_structures

ALL_TYPES_SMALL = [b_type(d) for d in range(0, 11, 2)] + [
    ab_type(d, n) for d in range(0, 11) for n in "0xyz"
]


def test_module_type_text_round_trip():
    for t in ALL_TYPES_SMALL:
        assert ModuleType.parse(str(t)) == t
    with pytest.raises(ValueError):
        ModuleType.parse("B(3)")  # odd diameter has no B module
    with pytest.raises(ValueError):
        ModuleType.parse("AB(2,w)")


def test_b2_canonical_matrices():
    t = build_canonical(b_type(2))
    assert t.x_mat == ExactMatrix.diagonal([2, 0, -2])
    assert t.y_mat == ExactMatrix.from_rows([[0, 2, 0], [1, 0, 1], [0, 2, 0]])


def test_b0_is_zero():
    t = build_canonical(b_type(0))
    assert all(m.is_zero() for m in t.matrices())
    assert is_irreducible(t)


def test_ab_trace_of_x():
    for d in range(0, 8):
        t = build_canonical(ab_type(d, "0"))
        assert t.x_mat.trace() == (-1) ** d * (d + 1)


def test_ab2x_traces():
    t = build_canonical(ab_type(2, "x"))
    assert t.traces() == (gr(3), gr(-3), gr(-3))


def test_relations_hold_for_b4():
    ok, detail = check_relations(build_canonical(b_type(4)))
    assert ok and detail is None


def test_relations_trivial_cases():
    zero = ExactMatrix.zeros(3, 3)
    ok, _ = check_relations(ModuleActionTriple(zero, zero, zero))
    assert ok
    eye = ExactMatrix.identity(3)
    ok, detail = check_relations(ModuleActionTriple(eye, eye, zero))
    assert not ok
    assert "xy+yx=2z" in detail


def test_relations_detail_names_the_residue_at_the_smallest_entry():
    # (a x, b y, c z) for a triple satisfying the relations multiplies
    # xy+yx=2z by (ab, c), yz+zy=2x by (bc, a) and zx+xz=2y by (ca, b), so
    # each choice of scalars below breaks exactly the named relation first
    action, s = checked_skew(3)
    first, _second = induce_acsa_structures(action, s)
    third, third_1i = gr(Fraction(1, 3)), gr(Fraction(1, 3), Fraction(1, 3))
    half_1i, sixth_1i = gr(Fraction(1, 2), Fraction(1, 2)), gr(Fraction(1, 6), Fraction(1, 6))
    cases = (
        ((third_1i, third_1i, third_1i), "xy+yx=2z fails at entry (0,1): residue 2+2/3*i"),
        ((third, half_1i, sixth_1i), "yz+zy=2x fails at entry (0,1): residue -2+i"),
        ((third_1i, gr(-1), -third_1i), "zx+xz=2y fails at entry (0,0): residue -6+4/3*i"),
    )
    for scales, detail in cases:
        triple = ModuleActionTriple(*(m * s for m, s in zip(first.matrices(), scales)))
        assert check_relations(triple) == (False, detail)


def test_relations_drop_products_that_cancel():
    # xy and yx cancel entry by entry, so xy+yx=2z holds with z = 0 and the
    # first failure is yz+zy=2x; one entry of z breaks xy+yx=2z there
    x = ExactMatrix.diagonal([gr(0, Fraction(1, 3)), gr(0, Fraction(-1, 3))])
    y = ExactMatrix.from_rows([[0, gr(Fraction(1, 2))], [1, 0]])
    assert (x @ y + y @ x).is_zero()
    zero = ExactMatrix.zeros(2, 2)
    assert check_relations(ModuleActionTriple(x, y, zero)) == (
        False,
        "yz+zy=2x fails at entry (0,0): residue -2/3*i",
    )
    z = ExactMatrix(2, 2, {(1, 0): gr(Fraction(1, 5))})
    assert check_relations(ModuleActionTriple(x, y, z)) == (
        False,
        "xy+yx=2z fails at entry (1,0): residue -2/5",
    )


def _direct_sum(t1, t2):
    n1, n2 = t1.dimension, t2.dimension
    mats = []
    for m1, m2 in zip(t1.matrices(), t2.matrices()):
        entries = dict(m1.entries)
        entries.update({(r + n1, c + n1): v for (r, c), v in m2.entries.items()})
        mats.append(ExactMatrix(n1 + n2, n1 + n2, entries))
    return ModuleActionTriple(*mats)


def test_irreducibility():
    assert is_irreducible(build_canonical(ab_type(3, "y")))
    b2 = build_canonical(b_type(2))
    assert not is_irreducible(_direct_sum(b2, b2))
    assert not is_irreducible(_direct_sum(b2, build_canonical(ab_type(1, "x"))))


def _columns(n, vectors):
    return ExactMatrix(
        n,
        len(vectors),
        {(r, j): v for j, vec in enumerate(vectors) for (r, _c), v in vec.entries.items()},
    )


def _closure_dimension(seed, mats):
    """Dimension of the smallest subspace containing seed and invariant under mats."""
    n = seed.nrows
    span = [seed]
    queue = [seed]
    while queue:
        vec = queue.pop()
        for g in mats:
            img = g @ vec
            if rank(_columns(n, span + [img])) > len(span):
                span.append(img)
                queue.append(img)
    return len(span)


def _irreducible_by_closure(m):
    """The former definition: every x-eigenvector generates the space under {x, y}."""
    spaces = list(integer_eigenspaces(m.x_mat))
    if any(basis.ncols > 1 for _theta, basis in spaces):
        return False
    gens = (m.x_mat, m.y_mat)
    return all(
        _closure_dimension(basis.column(0), gens) == m.dimension for _theta, basis in spaces
    )


def test_irreducibility_matches_closure_oracle_on_canonical_modules_and_sums():
    small = [t for t in ALL_TYPES_SMALL if t.d <= 6]
    for t in small:
        triple = build_canonical(t)
        assert is_irreducible(triple) is _irreducible_by_closure(triple) is True, t
    tiny = [build_canonical(t) for t in small if t.d <= 2]
    for a in tiny:
        for b in tiny:
            summed = _direct_sum(a, b)
            assert is_irreducible(summed) is _irreducible_by_closure(summed) is False


def test_irreducibility_matches_closure_oracle_on_random_conjugates():
    rng = random.Random(20240817)
    verdicts = []
    for _ in range(120):
        n = rng.randint(1, 5)
        spectrum = rng.sample(range(-(2 * n - 1), 2 * n), n)
        if n > 1 and rng.random() < 0.15:
            spectrum[1] = spectrum[0]
        g = _random_invertible(rng, n)
        ginv = invert(g)
        sparse = ExactMatrix(
            n,
            n,
            {
                (r, c): gr(rng.choice([-2, -1, 1, 3]), rng.randint(-1, 1))
                for r in range(n)
                for c in range(n)
                if rng.random() < 0.35
            },
        )
        triple = ModuleActionTriple(
            g @ ExactMatrix.diagonal(spectrum) @ ginv,
            g @ sparse @ ginv,
            ExactMatrix.zeros(n, n),
        )
        got = is_irreducible(triple)
        assert got is _irreducible_by_closure(triple), (spectrum, sparse.entries)
        verdicts.append(got)
    assert 20 <= sum(verdicts) <= 100


def test_one_way_coupling_is_reducible():
    # x = diag(1, 2), y = E_01: the support graph 1 -> 0 is weakly but not
    # strongly connected, and span{v_0} is a proper submodule
    x = ExactMatrix.diagonal([1, 2])
    zero = ExactMatrix.zeros(2, 2)
    forward = ExactMatrix(2, 2, {(0, 1): 1})
    backward = ExactMatrix(2, 2, {(1, 0): 1})
    assert not is_irreducible(ModuleActionTriple(x, forward, zero))
    assert not is_irreducible(ModuleActionTriple(x, backward, zero))
    assert is_irreducible(ModuleActionTriple(x, forward + backward, zero))


def _irreducible_by_y_closure(m):
    """For y diagonal and multiplicity-free, every y-eigenvector is a unit
    vector, and each must generate the space under {x, y}."""
    n = m.dimension
    return all(
        _closure_dimension(ExactMatrix(n, 1, {(j, 0): 1}), (m.x_mat, m.y_mat)) == n
        for j in range(n)
    )


def test_irreducibility_with_y_diagonal_matches_closure_oracle():
    rng = random.Random(20261020)
    # x the one-way chain e_j -> e_{j+1}: span{e_{n-1}} is a proper submodule
    chain = ExactMatrix(3, 3, {(1, 0): 1, (2, 1): 1})
    cases = [ModuleActionTriple(chain, ExactMatrix.diagonal([5, -1, 2]), ExactMatrix.zeros(3, 3))]
    cases += [build_canonical(ab_type(d, n)) for d in range(1, 5) for n in "0xyz"]
    while len(cases) < 80:
        n = rng.randint(2, 5)
        x = ExactMatrix(
            n,
            n,
            {
                (r, c): gr(rng.choice([-2, -1, 1, 3]), rng.randint(-1, 1))
                for r in range(n)
                for c in range(n)
                if rng.random() < 0.4
            },
        )
        if all(r == c for r, c in x.entries):
            continue
        y = ExactMatrix.diagonal(rng.sample(range(-6, 7), n))
        cases.append(ModuleActionTriple(x, y, ExactMatrix.zeros(n, n)))
    verdicts = []
    for triple in cases:
        assert any(r != c for r, c in triple.x_mat.entries)
        got = is_irreducible(triple)
        assert got is _irreducible_by_y_closure(triple), (triple.x_mat.entries, triple.y_mat)
        verdicts.append(got)
    assert verdicts[0] is False
    assert 20 <= sum(verdicts) <= 70


def test_canonical_modules_need_no_eigenvalue_scan_or_solve(monkeypatch):
    triples = [build_canonical(t) for t in ALL_TYPES_SMALL]

    def forbidden(*_args, **_kwargs):
        raise AssertionError("a diagonal generator needs no change of basis")

    for name in ("integer_eigenspaces", "restrict", "ExactMatrix"):
        monkeypatch.setattr(acsa, name, forbidden)
    for t, triple in zip(ALL_TYPES_SMALL, triples):
        assert is_irreducible(triple), t


def test_a_missing_chain_entry_makes_an_ab_module_reducible():
    for t in [ab_type(d, n) for d in (1, 2, 5) for n in "0xyz"]:
        triple = build_canonical(t)
        off_diagonal = [k for k in triple.x_mat.entries if k[0] != k[1]]
        assert off_diagonal, t
        for key in off_diagonal:
            entries = dict(triple.x_mat.entries)
            del entries[key]
            x = ExactMatrix(t.dimension, t.dimension, entries)
            cut = ModuleActionTriple(x, triple.y_mat, triple.z_mat)
            assert is_irreducible(cut) is False, (t, key)


def test_a_repeated_diagonal_value_is_reducible_even_when_the_coupling_connects():
    # B(2) + B(2) conjugated by g = [[I, K], [0, I]] with K = diag(1, 0, 0):
    # g commutes with x = diag(2, 0, -2, 2, 0, -2), so x stays diagonal with
    # every value twice, while y gains entries between the two copies
    b2 = build_canonical(b_type(2))
    summed = _direct_sum(b2, b2)
    g = ExactMatrix.identity(6) + ExactMatrix(6, 6, {(0, 3): 1})
    ginv = invert(g)
    conj = ModuleActionTriple(*(g @ m @ ginv for m in summed.matrices()))
    assert conj.x_mat == summed.x_mat
    assert check_relations(conj) == (True, None)
    assert any(r < 3 <= c or c < 3 <= r for r, c in conj.y_mat.entries)
    assert is_irreducible(conj) is False
    # the same for the bare pair x = I, y = swap, whose coupling is strongly connected
    swap = ExactMatrix(2, 2, {(0, 1): 1, (1, 0): 1})
    pair = ModuleActionTriple(ExactMatrix.identity(2), swap, ExactMatrix.zeros(2, 2))
    assert is_irreducible(pair) is False
    assert _irreducible_by_closure(pair) is False


def test_zero_module_is_not_irreducible():
    zero = ExactMatrix.zeros(0, 0)
    triple = ModuleActionTriple(zero, zero, zero)
    assert check_relations(triple) == (True, None)
    assert is_irreducible(triple) is False


def test_canonical_round_trip_all_families():
    for t in ALL_TYPES_SMALL:
        triple = build_canonical(t)
        ok, detail = check_relations(triple)
        assert ok, (t, detail)
        assert is_irreducible(triple), t
        assert classify(triple) == t


def _random_invertible(rng, n):
    while True:
        m = ExactMatrix(
            n,
            n,
            {
                (r, c): gr(rng.randint(-3, 3), rng.randint(-1, 1))
                for r in range(n)
                for c in range(n)
                if rng.random() < 0.7
            },
        )
        if rank(m) == n:
            return m


def test_classify_is_conjugation_invariant():
    rng = random.Random(1234)
    for t in [b_type(4), ab_type(2, "x"), ab_type(3, "z"), ab_type(1, "y")]:
        triple = build_canonical(t)
        g = _random_invertible(rng, t.dimension)
        ginv = invert(g)
        conj = ModuleActionTriple(*(g @ m @ ginv for m in triple.matrices()))
        assert classify(conj) == t


def test_classify_rejects_unknown_trace_pattern():
    eye = ExactMatrix.identity(3)
    zero = ExactMatrix.zeros(3, 3)
    with pytest.raises(ValueError):
        classify(ModuleActionTriple(eye, zero, zero))
