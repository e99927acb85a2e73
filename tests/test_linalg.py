import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetri.exactnum import gr
from cubetri.linalg import (
    ExactMatrix,
    VectorBasis,
    exp_nilpotent,
    format_matrix,
    integer_eigenspaces,
    invert,
    kernel_basis,
    matmul,
    parse_matrix,
    rank,
    restrict,
    _char_poly,
    _matmul_sparse,
)


def _random_matrix(rng, nrows, ncols, density=0.5, complex_part=True):
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                im = rng.randint(-4, 4) if complex_part else 0
                entries[(r, c)] = gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), im)
    return ExactMatrix(nrows, ncols, entries)


def test_identity_product():
    rng = random.Random(3)
    m = _random_matrix(rng, 7, 7)
    assert ExactMatrix.identity(7) @ m == m
    assert m @ ExactMatrix.identity(7) == m


def test_nilpotent_square_is_zero():
    n = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert (n @ n).is_zero()


def test_dimension_mismatch():
    a = ExactMatrix.zeros(2, 3)
    b = ExactMatrix.zeros(2, 3)
    with pytest.raises(ValueError):
        matmul(a, b)


def _q2_adjacency():
    return ExactMatrix(4, 4, {(y, y ^ (1 << b)): 1 for y in range(4) for b in range(2)})


def _q2_idempotents():
    # Q_2 adjacency has spectrum 2, 0, -2; interpolate the projections.
    a = _q2_adjacency()
    eye = ExactMatrix.identity(4)
    thetas = [2, 0, -2]
    es = []
    for i, ti in enumerate(thetas):
        e = eye
        for j, tj in enumerate(thetas):
            if j != i:
                e = (e @ (a - eye * tj)) * Fraction(1, ti - tj)
        es.append(e)
    return es


def test_q2_idempotents_multiply_like_projections():
    es = _q2_idempotents()
    for i, ei in enumerate(es):
        for j, ej in enumerate(es):
            expected = ei if i == j else ExactMatrix.zeros(4, 4)
            assert ei @ ej == expected


def test_matmul_associative_random():
    rng = random.Random(11)
    for _ in range(20):
        a = _random_matrix(rng, 4, 5)
        b = _random_matrix(rng, 5, 3)
        c = _random_matrix(rng, 3, 6)
        assert (a @ b) @ c == a @ (b @ c)


def test_packed_path_matches_sparse_path():
    rng = random.Random(17)
    for trial in range(3):
        a = _random_matrix(rng, 48, 52, density=0.9)
        b = _random_matrix(rng, 52, 47, density=0.9)
        # 48*52*47 scalar steps exceeds the packing cutoff
        assert matmul(a, b) == _matmul_sparse(a, b)
    a = _random_matrix(rng, 50, 50, density=0.9, complex_part=False)
    b = _random_matrix(rng, 50, 50, density=0.9, complex_part=False)
    assert matmul(a, b) == _matmul_sparse(a, b)


def test_kernel_of_identity_empty():
    assert kernel_basis(ExactMatrix.identity(5)).size == 0


def test_kernel_of_shift():
    n = ExactMatrix.from_rows([[0, 1], [0, 0]])
    k = kernel_basis(n)
    assert k.size == 1
    assert k.column(0) == ExactMatrix.column_vector([1, 0])


def test_kernel_columns_annihilated():
    rng = random.Random(23)
    for _ in range(15):
        m = _random_matrix(rng, 5, 8, density=0.4)
        k = kernel_basis(m)
        assert rank(m) + k.size == 8
        for j in range(k.size):
            assert (m @ k.column(j)).is_zero()
        if k.size:
            assert k.verify_independent()


def test_exp_of_zero_and_shift():
    assert exp_nilpotent(ExactMatrix.zeros(3, 3), 4) == ExactMatrix.identity(3)
    n = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert exp_nilpotent(n, 2) == ExactMatrix.from_rows([[1, 1], [0, 1]])


def test_exp_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        exp_nilpotent(ExactMatrix.identity(2), 5)


def test_exp_inverse_property():
    rng = random.Random(31)
    for _ in range(10):
        n = 5
        entries = {
            (r, c): gr(rng.randint(-3, 3), rng.randint(-2, 2))
            for r in range(n)
            for c in range(r + 1, n)
        }
        m = ExactMatrix(n, n, entries)
        assert exp_nilpotent(m, n) @ exp_nilpotent(-m, n) == ExactMatrix.identity(n)


def test_restrict_identity_and_regular_vector():
    basis = VectorBasis.from_columns(4, [{0: 1, 1: 1, 2: 1, 3: 1}])
    a = _q2_adjacency()
    assert restrict(ExactMatrix.identity(4), basis) == ExactMatrix.identity(1)
    assert restrict(a, basis) == ExactMatrix.from_rows([[2]])


def test_restrict_reports_violating_vector():
    a = _q2_adjacency()
    bad = VectorBasis.from_columns(4, [{0: 1}])
    with pytest.raises(ValueError, match="basis vector 0"):
        restrict(a, bad)


def test_restrict_is_multiplicative():
    # span{all-ones, weight vector} is invariant under the Q_2 Bose-Mesner algebra
    a = _q2_adjacency()
    a2 = ExactMatrix(4, 4, {(y, y ^ 3): 1 for y in range(4)})
    basis = VectorBasis.from_columns(
        4, [{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 3: 1}]
    )
    left = restrict(a @ a2, basis)
    assert left == restrict(a, basis) @ restrict(a2, basis)


def test_invert_round_trip():
    rng = random.Random(41)
    for _ in range(10):
        m = _random_matrix(rng, 4, 4, density=0.8)
        if rank(m) < 4:
            continue
        assert m @ invert(m) == ExactMatrix.identity(4)


def test_exchange_format_round_trip():
    rng = random.Random(53)
    for _ in range(10):
        m = _random_matrix(rng, 6, 9, density=0.3)
        text = format_matrix(m)
        again = parse_matrix(text)
        assert again == m
        assert format_matrix(again) == text


def test_exchange_format_layout():
    m = ExactMatrix(2, 2, {(0, 1): gr(Fraction(1, 2), 1), (1, 0): gr(-2)})
    assert format_matrix(m) == "dims 2 2\n0 1 1/2+i\n1 0 -2\n"


def test_parse_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        parse_matrix("0 0 1\n")
    # each error names its 1-based line; blank lines count
    for text, where in (
        ("dims 2 2\n0 0 1\n0 0 2\n", "line 3:"),
        ("dims 2 2\n0 0 1/0\n", "line 2:"),
        ("dims 2 2\n\n0 0 1\n1 1 x\n", "line 4:"),
        ("dims 2 2\n0 2 1\n", "line 2:"),
        ("dims 2 2\n0 0\n", "line 2:"),
        ("dims 2 two\n", "line 1:"),
    ):
        with pytest.raises(ValueError, match=where):
            parse_matrix(text)


def test_integer_eigenspaces_stops_once_they_span(monkeypatch):
    import cubetri.linalg as linalg

    tried = []
    monkeypatch.setattr(linalg, "kernel_basis", lambda m: tried.append(m) or kernel_basis(m))
    m = ExactMatrix.diagonal([3, -1, 3])
    scan = integer_eigenspaces(m, 50)
    assert [(theta, k.size) for theta, k in scan] == [(-1, 1), (3, 2)]
    # the characteristic polynomial rules out every other candidate
    eye = ExactMatrix.identity(3)
    assert tried == [m + eye, m - eye * 3]
    with pytest.raises(ValueError, match="span 0 of 2"):
        list(integer_eigenspaces(ExactMatrix.from_rows([[0, 2], [1, 0]]), 5))


def test_integer_eigenspaces_rejects_non_square_in_one_line():
    tall = _random_matrix(random.Random(5), 3, 2)
    for m in (ExactMatrix.zeros(2, 3), ExactMatrix.zeros(0, 3), tall):
        with pytest.raises(ValueError, match="non-square") as err:
            list(integer_eigenspaces(m, 4))
        assert "\n" not in str(err.value)


# -- characteristic polynomial: sympy oracle -----------------------------------


def _sympy_matrix(sympy, m):
    def entry(r, c):
        v = m.get(r, c)
        return sympy.Rational(v.re.numerator, v.re.denominator) + sympy.I * sympy.Rational(
            v.im.numerator, v.im.denominator
        )

    return sympy.Matrix(m.nrows, m.ncols, entry)


def _assert_char_poly_matches_sympy(sympy, m):
    d, coeffs = _char_poly(m)
    t = sympy.Symbol("t")
    expected = sympy.Poly(_sympy_matrix(sympy, m).charpoly(t).as_expr(), t).all_coeffs()
    expected = [0] * (m.nrows + 1 - len(expected)) + expected
    # det(t I - d m) has the coefficients of det(t I - m) times d^k at t^(n-k)
    assert [sympy.expand(d**k * c) for k, c in enumerate(expected)] == [
        re + im * sympy.I for re, im in coeffs
    ]


def test_char_poly_matches_sympy_on_seeded_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    cases = [ExactMatrix.zeros(0, 0), ExactMatrix.from_rows([[gr(Fraction(-3, 7), 2)]])]
    for n in range(1, 7):
        cases.append(_random_matrix(rng, n, n))  # complex, mixed denominators
        cases.append(_random_matrix(rng, n, n, density=0.3, complex_part=False))
        negative = {(r, c): -rng.randint(1, 9) for r in range(n) for c in range(n)}
        cases.append(ExactMatrix(n, n, negative))
    for m in cases:
        _assert_char_poly_matches_sympy(sympy, m)


def test_char_poly_matches_sympy_on_certificate_triples(monkeypatch):
    sympy = pytest.importorskip("sympy")
    import cubetri.suites as suites

    triples = []
    certify = suites.certify_triple
    monkeypatch.setattr(
        suites, "certify_triple", lambda *mats, **kw: triples.append(mats) or certify(*mats, **kw)
    )
    assert suites.run_suite("leonard-even", Ds=(6, 8)).passed
    assert suites.run_suite("leonard-quotient", Ds=(5, 7)).passed
    assert len(triples) > 20
    for mats in triples:
        for m in mats:
            _assert_char_poly_matches_sympy(sympy, m)


# -- integer_eigenspaces against the exhaustive scan it replaced ---------------


def _exhaustive_scan(m, bound):
    n = m.nrows
    eye = ExactMatrix.identity(n)
    total = 0
    for theta in range(-bound, bound + 1):
        if total == n:
            return
        k = kernel_basis(m - eye * theta)
        if k.size:
            total += k.size
            yield theta, k
    if total != n:
        raise ValueError(
            f"integer eigenvalues in [-{bound},{bound}] span {total} of {n} dimensions; "
            "input is outside the supported class"
        )


def _outcome(scan):
    found = []
    try:
        for theta, k in scan:
            found.append((theta, k))
    except ValueError as exc:
        return found, str(exc)
    return found, None


_EIGENVALUES = st.one_of(
    st.integers(-5, 5),
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.builds(gr, st.integers(-3, 3), st.integers(-2, 2)),
)


@st.composite
def _conjugated_jordan_forms(draw):
    """P J P^-1 with J block diagonal: Jordan blocks of sizes 1..3 whose
    eigenvalues may repeat, be non-integer or lie outside the scan range."""
    sizes = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3]), min_size=1, max_size=3))
    pool = draw(st.lists(_EIGENVALUES, min_size=1, max_size=2))
    n = sum(sizes)
    jordan, start = {}, 0
    for size in sizes:
        theta = draw(st.sampled_from(pool))
        for i in range(start, start + size):
            jordan[(i, i)] = theta
            if i + 1 < start + size:
                jordan[(i, i + 1)] = 1
        start += size
    # unit upper triangular, permutation, nonzero diagonal: always invertible;
    # the diagonal puts denominators into m even when the spectrum is integer
    perm = draw(st.permutations(range(n)))
    upper = {(r, c): draw(st.integers(-2, 2)) for r in range(n) for c in range(r + 1, n)}
    upper.update({(i, i): 1 for i in range(n)})
    scale = st.sampled_from([1, 1, 2, -3, gr(1, 1), gr(0, 2)])
    mixed = ExactMatrix(n, n, {(i, perm[i]): draw(scale) for i in range(n)})
    p = ExactMatrix(n, n, upper) @ mixed
    return p @ ExactMatrix(n, n, jordan) @ invert(p)


@settings(max_examples=80, deadline=None)
@given(_conjugated_jordan_forms(), st.integers(0, 6))
def test_integer_eigenspaces_equals_exhaustive_scan(m, bound):
    assert _outcome(integer_eigenspaces(m, bound)) == _outcome(_exhaustive_scan(m, bound))
