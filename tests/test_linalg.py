import random
import re
import sys
from fractions import Fraction
from math import ceil, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetri import linalg
from cubetri.exactnum import GaussianRational, gr
from cubetri.linalg import (
    ExactMatrix,
    bracket,
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
)
from cubetri.sl2rep import build_irreducible_sl2, raising_lowering_halves


def _random_matrix(rng, nrows, ncols, density=0.5, complex_part=True):
    entries = {}
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                im = rng.randint(-4, 4) if complex_part else 0
                entries[(r, c)] = gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), im)
    return ExactMatrix(nrows, ncols, entries)


def _dense(m):
    """m as a list of rows, zeros written out."""
    return [[m.get(r, c) for c in range(m.ncols)] for r in range(m.nrows)]


def test_identity_product():
    rng = random.Random(3)
    m = _random_matrix(rng, 7, 7)
    assert ExactMatrix.identity(7) @ m == m
    assert m @ ExactMatrix.identity(7) == m


def test_nilpotent_square_is_zero():
    n = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert (n @ n).is_zero()


def test_constructor_checks_bounds_and_drops_zeros_of_every_scalar_type():
    # Gaussian rationals skip the coercion, not the bounds check or the zero drop
    for zero in (gr(0), 0, Fraction(0)):
        m = ExactMatrix(2, 2, {(0, 0): zero, (1, 0): gr(1, 2), (1, 1): 3})
        assert m.entries == {(1, 0): gr(1, 2), (1, 1): gr(3)}
        assert all(type(v) is GaussianRational for v in m.entries.values())
    for entry in (gr(1), 1):
        with pytest.raises(ValueError, match=r"^entry index \(2,0\) out of bounds for 2x2$"):
            ExactMatrix(2, 2, {(2, 0): entry})
        with pytest.raises(ValueError, match=r"^entry index \(0,-1\) out of bounds for 2x2$"):
            ExactMatrix(2, 2, {(0, -1): entry})


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


def _coprime_denominators(rng, nrows, ncols, dens, density):
    """Gaussian entries whose parts have denominators drawn from dens."""
    def part():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    return ExactMatrix(nrows, ncols, {
        (r, c): gr(part(), part())
        for r in range(nrows) for c in range(ncols) if rng.random() < density
    })


def test_matmul_matches_row_by_column_sums():
    rng = random.Random(17)
    pairs = []
    for density in (0.1, 0.5, 1.0):
        pairs.append((_random_matrix(rng, 7, 9, density), _random_matrix(rng, 9, 6, density)))
        # a and b are read as integers over lcm(2, 3, 5) and lcm(7, 11, 13)
        pairs.append((_coprime_denominators(rng, 7, 9, (1, 2, 3, 5), density),
                      _coprime_denominators(rng, 9, 6, (7, 11, 13), density)))
    for a, b in pairs:
        a_rows, b_rows = _dense(a), _dense(b)
        want = [[sum((a_rows[i][k] * b_rows[k][j] for k in range(9)), gr(0)) for j in range(6)]
                for i in range(7)]
        assert matmul(a, b) == ExactMatrix.from_rows(want)


def test_kernel_of_identity_empty():
    assert kernel_basis(ExactMatrix.identity(5)).ncols == 0


def test_kernel_of_shift():
    n = ExactMatrix.from_rows([[0, 1], [0, 0]])
    k = kernel_basis(n)
    assert k.ncols == 1
    assert k.column(0) == ExactMatrix(2, 1, {(0, 0): 1})


def test_kernel_columns_annihilated():
    rng = random.Random(23)
    for _ in range(15):
        m = _random_matrix(rng, 5, 8, density=0.4)
        k = kernel_basis(m)
        assert rank(m) + k.ncols == 8
        for j in range(k.ncols):
            assert (m @ k.column(j)).is_zero()
        if k.ncols:
            assert rank(k) == k.ncols


def test_exp_of_zero_and_shift():
    assert exp_nilpotent(ExactMatrix.zeros(3, 3)) == ExactMatrix.identity(3)
    # the empty sum of the 0 x 0 series is the 0 x 0 identity
    assert exp_nilpotent(ExactMatrix.zeros(0, 0)) == ExactMatrix.identity(0)
    n = ExactMatrix.from_rows([[0, 1], [0, 0]])
    assert exp_nilpotent(n) == ExactMatrix.from_rows([[1, 1], [0, 1]])
    # the n x n shift has N^(n-1) != 0 = N^n, so its series needs all n terms
    half, sixth = gr(Fraction(1, 2)), gr(Fraction(1, 6))
    for size, want in (
        (3, [[1, 1, half], [0, 1, 1], [0, 0, 1]]),
        (4, [[1, 1, half, sixth], [0, 1, 1, half], [0, 0, 1, 1], [0, 0, 0, 1]]),
    ):
        shift = ExactMatrix(size, size, {(i, i + 1): 1 for i in range(size - 1)})
        assert exp_nilpotent(shift) == ExactMatrix.from_rows(want)


def test_exp_rejects_non_nilpotent():
    message = "power series did not terminate within 2 terms; input is not nilpotent there"
    with pytest.raises(ValueError) as info:
        exp_nilpotent(ExactMatrix.identity(2))
    assert str(info.value) == message
    # the cyclic shift is a permutation, so no power of it is 0
    cycle = ExactMatrix(3, 3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    with pytest.raises(ValueError, match="did not terminate within 3 terms"):
        exp_nilpotent(cycle)


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
        assert exp_nilpotent(m) @ exp_nilpotent(-m) == ExactMatrix.identity(n)


# -- exp_nilpotent against a Fraction-pair series ------------------------------


def _pairs(m):
    """m as dense rows of (re, im) Fraction pairs."""
    return [[(m.get(r, c).re, m.get(r, c).im) for c in range(m.ncols)] for r in range(m.nrows)]


def _pair_identity(size):
    return [[(Fraction(int(r == c)), Fraction(0)) for c in range(size)] for r in range(size)]


def _pair_product(a, b):
    """a b for dense rows of (re, im) Fraction pairs, with no linalg code."""
    zero = Fraction(0)
    out = []
    for row in a:
        re, im = [zero] * len(b[0]), [zero] * len(b[0])
        for (pr, pi), b_row in zip(row, b):
            if pr or pi:
                for c, (qr, qi) in enumerate(b_row):
                    if qr or qi:
                        re[c] += pr * qr - pi * qi
                        im[c] += pr * qi + pi * qr
        out.append(list(zip(re, im)))
    return out


def _pair_exp(n, limit):
    """(Sum_{j<k} n^j/j!, k) for dense Fraction-pair rows n, summed term by
    term, with k the least j <= limit such that n^j = 0, or (None, None)."""
    term = total = _pair_identity(len(n))
    for j in range(1, limit + 1):
        term = [[(re / j, im / j) for re, im in row] for row in _pair_product(term, n)]
        if not any(re or im for row in term for re, im in row):
            return total, j
        total = [
            [(p[0] + q[0], p[1] + q[1]) for p, q in zip(row, add)] for row, add in zip(total, term)
        ]
    return None, None


def _check_exp_against_pairs(n):
    """exp_nilpotent(n) is the pair series, which ends within n.nrows terms."""
    want, k = _pair_exp(_pairs(n), n.nrows)
    assert k is not None
    assert _pairs(exp_nilpotent(n)) == want


def test_exp_matches_fraction_pair_series_on_conjugated_nilpotents():
    # N = G U G^-1: U strictly upper triangular with mixed denominators and
    # non-real entries, G a product of integer row operations, whose inverse
    # is the product of the opposite operations in reverse order
    rng = random.Random(47)
    zero = (Fraction(0), Fraction(0))
    for size in (1, 2, 3, 4, 5, 6) * 3:
        u = [
            [
                (
                    Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6))),
                    Fraction(rng.randint(-3, 3), rng.choice((1, 5))),
                )
                if c > r and rng.random() < 0.7
                else zero
                for c in range(size)
            ]
            for r in range(size)
        ]
        g = ginv = _pair_identity(size)
        for _ in range(2 * size if size > 1 else 0):
            r, c = rng.sample(range(size), 2)
            f = rng.choice((-2, -1, 1, 2))
            op, back = _pair_identity(size), _pair_identity(size)
            op[r][c], back[r][c] = (Fraction(f), Fraction(0)), (Fraction(-f), Fraction(0))
            g, ginv = _pair_product(op, g), _pair_product(ginv, back)
        assert _pair_product(g, ginv) == _pair_identity(size)
        conj = _pair_product(_pair_product(g, u), ginv)
        n = ExactMatrix(size, size, {
            (r, c): GaussianRational(re, im)
            for r, row in enumerate(conj)
            for c, (re, im) in enumerate(row)
        })
        _check_exp_against_pairs(n)


def test_exp_matches_fraction_pair_series_on_the_sl2_halves():
    for d in range(13):
        for half in raising_lowering_halves(build_irreducible_sl2(d)):
            _check_exp_against_pairs(half)


def test_from_columns_normalizes_and_column_reads_back():
    s = ExactMatrix.from_columns(3, [{2: 4, 1: gr(0, 2)}, {0: -1}])
    assert s == ExactMatrix.from_rows([[0, 1], [1, 0], [gr(0, -2), 0]])
    assert s.column(0) == ExactMatrix(3, 1, {(1, 0): 1, (2, 0): gr(0, -2)})
    assert s.column(1) == ExactMatrix(3, 1, {(0, 0): 1})
    assert ExactMatrix.from_columns(3, []) == ExactMatrix.zeros(3, 0)
    with pytest.raises(ValueError, match="basis vector 1 is zero"):
        ExactMatrix.from_columns(3, [{0: 1}, {2: 0}])


def test_restrict_identity_and_regular_vector():
    basis = ExactMatrix.from_columns(4, [{0: 1, 1: 1, 2: 1, 3: 1}])
    a = _q2_adjacency()
    assert restrict(ExactMatrix.identity(4), basis) == ExactMatrix.identity(1)
    assert restrict(a, basis) == ExactMatrix.from_rows([[2]])


def test_restrict_reports_violating_vector():
    a = _q2_adjacency()
    bad = ExactMatrix.from_columns(4, [{0: 1}])
    with pytest.raises(ValueError, match="basis vector 0"):
        restrict(a, bad)


def test_restrict_is_multiplicative():
    # span{all-ones, weight vector} is invariant under the Q_2 Bose-Mesner algebra
    a = _q2_adjacency()
    a2 = ExactMatrix(4, 4, {(y, y ^ 3): 1 for y in range(4)})
    basis = ExactMatrix.from_columns(
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


def test_equal_matrices_by_different_routes_hash_equal(monkeypatch):
    m = _random_matrix(random.Random(11), 5, 4)
    routes = [
        ExactMatrix(5, 4, dict(reversed(list(m.entries.items())))),
        ExactMatrix.from_rows(_dense(m)),
        (m + m) * Fraction(1, 2),
        ExactMatrix.identity(5) @ m,
        parse_matrix(format_matrix(m)),
    ]
    for other in routes:
        assert other == m and hash(other) == hash(m)
    # the hash is computed once per matrix, not once per lookup, from the
    # stored form: no scalar is hashed
    fresh = ExactMatrix.from_rows(_dense(m))
    computed = []
    store = linalg._set
    monkeypatch.setattr(
        linalg, "_set", lambda obj, name, value: store(obj, name, value) or (
            name == "_hash" and computed.append(obj)
        )
    )
    monkeypatch.setattr(GaussianRational, "__hash__", lambda v: pytest.fail("scalar hashed"))
    assert {fresh: 1}[m] == 1 and hash(fresh) == hash(m) and hash(fresh) == hash(m)
    assert len(computed) == 1 and computed[0] is fresh
    with pytest.raises(AttributeError):
        fresh.entries = {}


def test_exchange_format_layout():
    m = ExactMatrix(2, 2, {(0, 1): gr(Fraction(1, 2), 1), (1, 0): gr(-2)})
    assert format_matrix(m) == "dims 2 2\n0 1 1/2+i\n1 0 -2\n"


_GAUSSIAN_RATIONALS = st.builds(
    gr, st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6)
)


@st.composite
def _sparse_matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cells = [(r, c) for r in range(nrows) for c in range(ncols)]
    keys = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return ExactMatrix(nrows, ncols, {key: draw(_GAUSSIAN_RATIONALS) for key in keys})


@settings(max_examples=200, deadline=None)
@given(_sparse_matrices(), _GAUSSIAN_RATIONALS)
@example(ExactMatrix(0, 3), gr(0))
@example(ExactMatrix(4, 0), gr(0, -1))
def test_exchange_format_round_trip_property(m, scalar):
    assert parse_matrix(format_matrix(m)) == m
    for v in [scalar, *m.entries.values()]:
        assert GaussianRational.parse(str(v)) == v


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
    scan = integer_eigenspaces(m)
    assert [(theta, k.ncols) for theta, k in scan] == [(-1, 1), (3, 2)]
    # the characteristic polynomial rules out every other candidate
    eye = ExactMatrix.identity(3)
    assert tried == [m + eye, m - eye * 3]
    # eigenvalues +-sqrt(2); the row sums bound the scan to [-2, 2]
    message = (
        "integer eigenvalues in [-2,2] span 0 of 2 dimensions; input is outside the supported class"
    )
    with pytest.raises(ValueError) as err:
        list(integer_eigenspaces(ExactMatrix.from_rows([[0, 2], [1, 0]])))
    assert str(err.value) == message


def test_integer_eigenspaces_try_candidates_by_modulus(monkeypatch):
    # P diag(2, -1, 0) P^-1 with P = I + 10^12 E_01 has a row sum above
    # 10^12, and so has b; the candidates 0, -1, 1, -2, 2 span the space, so the
    # scan evaluates the characteristic polynomial five times, not 10^12
    evaluations = []

    class Counted(list):
        def __iter__(self):
            evaluations.append(1)
            assert len(evaluations) <= 5, "the scan tries candidates beyond the spectrum"
            return super().__iter__()

    char_poly = linalg._char_poly

    def counted(m):
        d, chi = char_poly(m)
        return d, Counted(chi)

    monkeypatch.setattr(linalg, "_char_poly", counted)
    p = ExactMatrix(3, 3, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): 10**12})
    m = p @ ExactMatrix.diagonal([2, -1, 0]) @ invert(p)
    assert [(theta, k.ncols) for theta, k in integer_eigenspaces(m)] == [(-1, 1), (0, 1), (2, 1)]
    assert len(evaluations) == 5


def test_integer_eigenspaces_rejects_non_square_in_one_line():
    tall = _random_matrix(random.Random(5), 3, 2)
    for m in (ExactMatrix.zeros(2, 3), ExactMatrix.zeros(0, 3), tall):
        with pytest.raises(ValueError, match="non-square") as err:
            list(integer_eigenspaces(m))
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


# -- integer_eigenspaces against an exhaustive scan over a wider range ---------


def _wider_bound(m):
    """The sum of |re| + |im| over every entry of m, rounded up: at least
    each row sum, so at least |theta| for every eigenvalue theta."""
    return ceil(sum(abs(v.re) + abs(v.im) for v in m.entries.values()))


def _exhaustive_scan(m, bound):
    n = m.nrows
    eye = ExactMatrix.identity(n)
    total = 0
    for theta in range(-bound, bound + 1):
        if total == n:
            return
        k = kernel_basis(m - eye * theta)
        if k.ncols:
            total += k.ncols
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
    eigenvalues may repeat or be non-integer."""
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
    # the diagonal of P puts denominators into m even when the spectrum is integer
    p = draw(_invertible_matrices(n))
    return p @ ExactMatrix(n, n, jordan) @ invert(p)


@st.composite
def _invertible_matrices(draw, n):
    """Unit upper triangular times a permutation with nonzero Q(i) scales:
    always invertible."""
    perm = draw(st.permutations(range(n)))
    upper = {(r, c): draw(st.integers(-2, 2)) for r in range(n) for c in range(r + 1, n)}
    upper.update({(i, i): 1 for i in range(n)})
    scale = st.sampled_from([1, 1, 2, -3, gr(1, 1), gr(0, 2)])
    mixed = ExactMatrix(n, n, {(i, perm[i]): draw(scale) for i in range(n)})
    return ExactMatrix(n, n, upper) @ mixed


@settings(max_examples=80, deadline=None)
@given(_conjugated_jordan_forms())
def test_integer_eigenspaces_equals_exhaustive_scan(m):
    # every integer eigenvalue lies in both ranges, so both scans find the
    # same eigenspaces, or fail together; the failure names the row-sum range
    found, error = _outcome(integer_eigenspaces(m))
    want, want_error = _outcome(_exhaustive_scan(m, _wider_bound(m)))
    assert (error is None) == (want_error is None)
    if error is None:
        assert found == want
    else:
        named = re.match(r"integer eigenvalues in \[-(\d+),\1\] span ", error)
        assert named and int(named[1]) <= _wider_bound(m)


@pytest.mark.parametrize(
    "rows, want",
    [
        # all ones: the eigenvalue 3 is the row sum, the end of the range
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], [(0, 2), (3, 1)]),
        # eigenvalues +-1 bounded only by the imaginary parts
        ([[0, gr(0, 1)], [gr(0, -1), 0]], [(-1, 1), (1, 1)]),
        # row sums 1/2 and 2 over one denominator 2: the range is [-2, 2]
        ([[0, Fraction(1, 2)], [2, 0]], [(-1, 1), (1, 1)]),
    ],
)
def test_integer_eigenspaces_reach_the_row_sum_bound(rows, want):
    m = ExactMatrix.from_rows(rows)
    scan = list(integer_eigenspaces(m))
    assert [(theta, k.ncols) for theta, k in scan] == want
    for theta, k in scan:
        assert m @ k == k * theta


# -- invert and restrict: the one solve, pinned through the public API ---------


def _reference_restrict(m, basis):
    """restrict as it was computed before the shared solve: pick k independent
    rows of S, invert that k x k block, and solve and check S c == m s_j one
    column at a time."""
    if m.ncols != basis.nrows:
        raise ValueError("matrix and basis ambient dimensions differ")
    s, k = basis, basis.ncols
    row_data: dict = {}
    for (r, c), v in s.entries.items():
        row_data.setdefault(r, [gr(0)] * k)[c] = v
    picked_rows, reduced, pivot_pos = [], [], []
    for r in sorted(row_data):
        vec = list(row_data[r])
        for pos, red in zip(pivot_pos, reduced):
            f = vec[pos]
            if f:
                vec = [x - f * y for x, y in zip(vec, red)]
        lead = next((j for j in range(k) if vec[j]), None)
        if lead is None:
            continue
        inv = vec[lead].inverse()
        reduced.append([x * inv for x in vec])
        pivot_pos.append(lead)
        picked_rows.append(r)
        if len(picked_rows) == k:
            break
    if len(picked_rows) < k:
        raise ValueError("basis columns are linearly dependent")
    square_inv = invert(ExactMatrix.from_rows([[s.get(r, c) for c in range(k)] for r in picked_rows]))
    entries = {}
    for j in range(k):
        w = m @ basis.column(j)
        c = square_inv @ ExactMatrix.from_rows([[w.get(r, 0)] for r in picked_rows])
        if s @ c != w:
            raise ValueError(f"subspace not invariant: image of basis vector {j} leaves the span")
        entries.update({(r, j): v for (r, _c), v in c.entries.items()})
    return ExactMatrix(k, k, entries)


_SCALARS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(gr, st.integers(-2, 2), st.integers(-2, 2)),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(_invertible_matrices), st.data())
def test_invert_is_a_two_sided_inverse(m, data):
    n = m.nrows
    eye = ExactMatrix.identity(n)
    inverse = invert(m)
    assert m @ inverse == eye and inverse @ m == eye
    if n >= 2:
        i, j = data.draw(st.permutations(range(n)))[:2]
        rows = _dense(m)
        rows[j] = rows[i]
        with pytest.raises(ValueError, match="matrix is singular"):
            invert(ExactMatrix.from_rows(rows))


@st.composite
def _invariant_subspaces(draw):
    """(M, S, B, P) with M = P B P^-1, B block upper triangular with a
    leading k x k block, and S the first k columns of P as an unnormalized
    basis.  P is a row permutation of diag(P0, I), so the rows of the
    identity part are never touched by S."""
    k = draw(st.integers(1, 4))
    n = k + draw(st.integers(0, 3))
    ambient = n + draw(st.integers(1, 3))
    spots = draw(st.permutations(range(ambient)))
    p0 = draw(_invertible_matrices(n))
    p_entries = {(spots[r], c): v for (r, c), v in p0.entries.items()}
    p_entries.update({(spots[t], t): 1 for t in range(n, ambient)})
    p = ExactMatrix(ambient, ambient, p_entries)
    b_entries = {}
    for r in range(ambient):
        for c in range(ambient):
            if (r < k or c >= k) and draw(st.booleans()):
                b_entries[(r, c)] = draw(_SCALARS)
    b = ExactMatrix(ambient, ambient, b_entries)
    s = ExactMatrix(ambient, k, {(r, c): v for (r, c), v in p_entries.items() if c < k})
    return p @ b @ invert(p), s, b, p


@settings(max_examples=60, deadline=None)
@given(_invariant_subspaces(), st.data())
def test_restrict_recovers_the_leading_block(case, data):
    m, s, b, p = case
    k = s.ncols
    leading = ExactMatrix(k, k, {(r, c): v for (r, c), v in b.entries.items() if r < k and c < k})
    assert restrict(m, s) == leading == _reference_restrict(m, s)
    # entries below the block in column j and maybe later columns send the
    # image of s_j, and of no earlier basis vector, out of span S
    j = data.draw(st.integers(0, k - 1))
    spikes = st.sampled_from([1, -2, gr(0, 1), Fraction(1, 3)])
    rows_below = st.integers(k, s.nrows - 1)
    bent = {**b.entries, (data.draw(rows_below), j): data.draw(spikes)}
    for c in range(j + 1, k):
        if data.draw(st.booleans()):
            bent[(data.draw(rows_below), c)] = data.draw(spikes)
    leaky = p @ ExactMatrix(b.nrows, b.ncols, bent) @ invert(p)
    for solve in (restrict, _reference_restrict):
        with pytest.raises(ValueError, match=f"image of basis vector {j} leaves the span"):
            solve(leaky, s)
    # a repeated column is reported as dependence, invariant span or not
    again = {(r, k): v for (r, c), v in s.entries.items() if c == j}
    repeated = ExactMatrix(s.nrows, k + 1, {**s.entries, **again})
    for mat in (m, leaky):
        for solve in (restrict, _reference_restrict):
            with pytest.raises(ValueError, match="basis columns are linearly dependent"):
                solve(mat, repeated)


# -- kernel_basis and rank: a property and a sympy oracle ----------------------


@st.composite
def _low_rank_matrices(draw):
    """L @ R with L m x k and R k x n, so rank <= k and kernels are common;
    any of m, k, n may be 0."""
    m, k, n = draw(st.integers(0, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 6))

    def sparse(rows, cols):
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        return ExactMatrix(rows, cols, {rc: draw(_SCALARS) for rc in cells if draw(st.booleans())})

    return sparse(m, k) @ sparse(k, n)


@settings(max_examples=80, deadline=None)
@given(_low_rank_matrices())
def test_kernel_basis_spans_the_null_space(m):
    k = kernel_basis(m)
    assert k.nrows == m.ncols
    assert (m @ k).is_zero()
    assert rank(m) + k.ncols == m.ncols
    assert rank(k) == k.ncols


def _elimination_cases():
    """Q(i) matrices with fractional and imaginary parts: empty shapes,
    random ones, and products through a narrow inner dimension, so that
    kernels are common."""
    rng = random.Random(59)
    cases = [ExactMatrix.zeros(0, 3), ExactMatrix.zeros(3, 0), ExactMatrix.zeros(2, 4)]
    for nrows, ncols in ((1, 1), (2, 3), (3, 2), (3, 3), (4, 5), (5, 4), (5, 5), (4, 7), (6, 6)):
        cases.append(_random_matrix(rng, nrows, ncols, density=0.6))
        cases.append(_random_matrix(rng, nrows, ncols, density=0.4, complex_part=False))
        inner = rng.randint(1, min(nrows, ncols))
        cases.append(_random_matrix(rng, nrows, inner) @ _random_matrix(rng, inner, ncols))
    return cases


def _from_sympy(sympy, v):
    v = sympy.expand(v)
    re, im = sympy.re(v), sympy.im(v)
    return gr(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def test_rank_and_kernel_match_sympy():
    # the kernel entry for entry: sympy's nullspace() basis, each vector
    # scaled so its first nonzero coordinate is 1
    sympy = pytest.importorskip("sympy")
    for m in _elimination_cases():
        want = _sympy_matrix(sympy, m)
        assert rank(m) == want.rank(), m
        columns = []
        for vec in want.nullspace():
            values = [_from_sympy(sympy, x) for x in vec]
            first = next(v for v in values if v).inverse()
            columns.append({r: v * first for r, v in enumerate(values) if v})
        assert kernel_basis(m) == ExactMatrix(m.ncols, len(columns), {
            (r, j): v for j, col in enumerate(columns) for r, v in col.items()
        }), m


def _reduced_from_echelon(pivots):
    """The reduced row echelon form of `_echelon`'s rows, in Fraction
    (re, im) pairs: each row divided by its real pivot, then each pivot
    column cleared in the rows above."""
    rows = [
        (c, {j: (Fraction(a, row[c][0]), Fraction(b, row[c][0])) for j, (a, b) in row.items()})
        for c, row in pivots
    ]
    for i, (c, row) in enumerate(rows):
        for _c, above in rows[:i]:
            fr, fi = above.get(c, (0, 0))
            for j, (a, b) in row.items():
                ar, ai = above.get(j, (0, 0))
                above[j] = (ar - fr * a + fi * b, ai - fr * b - fi * a)
    return [{j: gr(a, b) for j, (a, b) in row.items() if a or b} for _c, row in rows]


def test_echelon_rows_equal_sympy_rref():
    # the forward form: sympy's pivot columns, real pivots, zeros below
    # them, and sympy's rref() once reduced
    sympy = pytest.importorskip("sympy")
    for m in _elimination_cases():
        reduced, pivot_cols = _sympy_matrix(sympy, m).rref()
        pivots = linalg._echelon(list(m.rows.values()))
        assert tuple(c for c, _row in pivots) == pivot_cols, m
        for i, (c, row) in enumerate(pivots):
            assert row[c][0] and not row[c][1], m
            assert all(c not in below for _c, below in pivots[i + 1:]), m
        for i, row in enumerate(_reduced_from_echelon(pivots)):
            want = {c: _from_sympy(sympy, reduced[i, c]) for c in range(m.ncols)}
            assert row == {c: v for c, v in want.items() if v}, m


def _hilbert_style(n):
    return ExactMatrix.from_rows([
        [gr(Fraction(1, r + c + 1), Fraction(1, r + 2 * c + 3)) for c in range(n)] for r in range(n)
    ])


def test_hilbert_style_solve_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    h = _hilbert_style(12)
    b = ExactMatrix.from_rows(
        [[gr(r - r % 3, 1 + r % 3), gr(Fraction(1, r + 1))] for r in range(12)]
    )
    to_domain = DomainMatrix.from_Matrix
    want = to_domain(_sympy_matrix(sympy, h)).lu_solve(to_domain(_sympy_matrix(sympy, b)))
    assert _sympy_matrix(sympy, linalg._solve(h, b)) == want.to_Matrix().applyfunc(sympy.expand)


def test_echelon_integers_stay_near_the_minors():
    # Hadamard: every minor of the integer matrix d*h is at most the product
    # of its row norms.  With the content division the echelon rows stay
    # within twice that bit length; without it they grow exponentially.
    h = _hilbert_style(12)
    rows = h.rows
    hadamard_bits = sum(
        (sum(re * re + im * im for _c, re, im in row).bit_length() + 1) // 2
        for row in rows.values()
    )
    pivots = linalg._echelon(list(rows.values()))
    bits = max(max(abs(re).bit_length(), abs(im).bit_length())
               for _c, row in pivots for re, im in row.values())
    assert len(pivots) == 12 and bits <= 2 * hadamard_bits


@pytest.mark.parametrize("n", [12, 20])
def test_back_substitution_integers_stay_near_the_minors(n):
    # each null vector of the echelon rows of [d*h | d*I] holds minors of
    # that matrix (Cramer), up to a common factor that the rescale by a
    # pivot brings in; they stay within twice the Hadamard bit length
    h = _hilbert_style(n)
    augmented = ExactMatrix(n, 2 * n, {**h.entries, **{(i, n + i): 1 for i in range(n)}})
    rows = augmented.rows
    hadamard_bits = sum(
        (sum(re * re + im * im for _c, re, im in row).bit_length() + 1) // 2
        for row in rows.values()
    )
    pivots = linalg._echelon(list(rows.values()))
    assert [c for c, _row in pivots] == list(range(n))
    for f in range(n, 2 * n):
        y = linalg._null_vector(pivots, f)
        bits = max(max(abs(re).bit_length(), abs(im).bit_length()) for re, im in y.values())
        assert y[f][0] and not y[f][1] and bits <= 2 * hadamard_bits, (f, bits, hadamard_bits)


# -- the stored form against an independent Fraction-pair oracle --------------
#
# The oracle keeps a matrix as a dict (row, col) -> (re, im) of Fractions with
# no zero, and does each operation entry by entry in Fractions; it shares no
# code with the integer form it checks.

_FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6, 9]))
_PAIRS = st.tuples(_FRACTIONS, _FRACTIONS).filter(any)


@st.composite
def _oracle_matrices(draw, nrows, ncols):
    cells = [(r, c) for r in range(nrows) for c in range(ncols)]
    keys = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return {key: draw(_PAIRS) for key in keys}


def _matrix(nrows, ncols, pairs):
    return ExactMatrix(nrows, ncols, {k: gr(*p) for k, p in pairs.items()})


def _oracle_of(m):
    """m read through its stored form, after checking that form canonical:
    den > 0, each row non-empty with distinct in-bounds columns, no zero,
    and gcd(den, every part) = 1."""
    assert type(m.den) is int and m.den > 0
    parts = []
    out = {}
    for r, row in m.rows.items():
        assert 0 <= r < m.nrows and row
        assert len({c for c, _a, _b in row}) == len(row)
        for c, a, b in row:
            assert 0 <= c < m.ncols and (a or b)
            parts += [a, b]
            out[(r, c)] = (Fraction(a, m.den), Fraction(b, m.den))
    assert gcd(m.den, *parts) == 1
    return out


def _nonzero(entries):
    return {k: p for k, p in entries.items() if any(p)}


def _o_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _o_sum(p, q, sign=1):
    return p[0] + sign * q[0], p[1] + sign * q[1]


def _o_inverse(p):
    n = p[0] * p[0] + p[1] * p[1]
    return p[0] / n, -p[1] / n


def _o_plus(a, b, sign=1):
    zero = (Fraction(0), Fraction(0))
    return _nonzero({k: _o_sum(a.get(k, zero), b.get(k, zero), sign) for k in a.keys() | b.keys()})


def _o_matmul(a, b):
    out = {}
    for (i, k), p in a.items():
        for (k2, j), q in b.items():
            if k == k2:
                out[(i, j)] = _o_sum(out.get((i, j), (Fraction(0), Fraction(0))), _o_mul(p, q))
    return _nonzero(out)


def _o_scaled_columns(columns):
    out = {}
    for j, col in enumerate(columns):
        inv = _o_inverse(col[min(col)])
        out.update({(r, j): _o_mul(p, inv) for r, p in col.items()})
    return out


def _o_solve(s, b, n, k, ncols):
    """The X with S X = B by Gauss-Jordan on [S | B] over Fraction pairs, S
    n x k of full column rank and every column of B in span S."""
    zero = (Fraction(0), Fraction(0))
    rows = [[s.get((r, c), zero) for c in range(k)] + [b.get((r, c), zero) for c in range(ncols)]
            for r in range(n)]
    for col in range(k):
        pivot = next(r for r in range(col, n) if any(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = _o_inverse(rows[col][col])
        rows[col] = [_o_mul(p, inv) for p in rows[col]]
        for r in range(n):
            if r != col and any(rows[r][col]):
                f = rows[r][col]
                rows[r] = [_o_sum(p, _o_mul(f, q), -1) for p, q in zip(rows[r], rows[col])]
    return _nonzero({(i, j): rows[i][k + j] for i in range(k) for j in range(ncols)})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_ring_operations_agree_with_the_pair_oracle(data):
    n, m, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b = data.draw(_oracle_matrices(n, m)), data.draw(_oracle_matrices(n, m))
    c = data.draw(_oracle_matrices(m, k))
    s = data.draw(st.one_of(_PAIRS, st.just((Fraction(0), Fraction(0)))))
    ma, mb, mc = _matrix(n, m, a), _matrix(n, m, b), _matrix(m, k, c)
    assert _oracle_of(ma) == a and _oracle_of(mb) == b
    assert _oracle_of(ma + mb) == _o_plus(a, b)
    assert _oracle_of(ma - mb) == _o_plus(a, b, -1)
    assert _oracle_of(-ma) == {key: (-p[0], -p[1]) for key, p in a.items()}
    scaled = _nonzero({key: _o_mul(p, s) for key, p in a.items()})
    assert _oracle_of(ma * gr(*s)) == scaled
    if not s[1]:  # a real scalar may also be a Fraction, or an int, on either side
        for scalar in {s[0], int(s[0])} if s[0].denominator == 1 else {s[0]}:
            assert _oracle_of(ma * scalar) == scaled == _oracle_of(scalar * ma)
    assert _oracle_of(ma @ mc) == _o_matmul(a, c)
    beside = {**a, **{(r, col + m): p for (r, col), p in b.items()}}
    assert _oracle_of(ExactMatrix.hstack([ma, mb])) == beside
    for j in range(m):
        assert _oracle_of(ma.column(j)) == {(r, 0): p for (r, col), p in a.items() if col == j}
    square = _matrix(n, n, data.draw(_oracle_matrices(n, n)))
    diag = [p for (r, col), p in _oracle_of(square).items() if r == col]
    trace = (sum(p[0] for p in diag), sum(p[1] for p in diag))
    assert square.trace() == gr(*trace)
    # the canonical form is unique, so equal matrices by any route are equal
    # stored forms, with equal hashes
    again = (ma + mb) - mb
    assert again == ma and hash(again) == hash(ma)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_from_columns_and_exp_nilpotent_agree_with_the_pair_oracle(data):
    n = data.draw(st.integers(1, 5))
    columns = data.draw(st.lists(_oracle_matrices(n, 1).filter(bool), max_size=4))
    columns = [{r: p for (r, _c), p in col.items()} for col in columns]
    # each coordinate as a Gaussian rational, or as an int or Fraction when real
    given_cols = [
        {r: (p[0] if not p[1] and data.draw(st.booleans()) else gr(*p)) for r, p in col.items()}
        for col in columns
    ]
    got = ExactMatrix.from_columns(n, given_cols)
    assert (got.nrows, got.ncols) == (n, len(columns))
    assert _oracle_of(got) == _o_scaled_columns(columns)
    # strictly upper triangular, then relabelled: nilpotent, N^n = 0
    upper = {(r, c): p for (r, c), p in data.draw(_oracle_matrices(n, n)).items() if r < c}
    perm = data.draw(st.permutations(range(n)))
    nil = {(perm[r], perm[c]): p for (r, c), p in upper.items()}
    total = {(i, i): (Fraction(1), Fraction(0)) for i in range(n)}
    term, j = total, 1
    while term:
        inv_j = (Fraction(1, j), Fraction(0))
        term = _nonzero({key: _o_mul(p, inv_j) for key, p in _o_matmul(term, nil).items()})
        total, j = _o_plus(total, term), j + 1
    assert _oracle_of(exp_nilpotent(_matrix(n, n, nil))) == total


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bracket_agrees_with_the_pair_oracle(data):
    # b is drawn on its own, or as a scalar multiple of a, whose commutator
    # with a cancels entry by entry
    n = data.draw(st.integers(0, 4))
    a = data.draw(_oracle_matrices(n, n))
    if data.draw(st.booleans()):
        b = data.draw(_oracle_matrices(n, n))
    else:
        t = data.draw(_PAIRS)
        b = {key: _o_mul(p, t) for key, p in a.items()}
    ma, mb = _matrix(n, n, a), _matrix(n, n, b)
    for sign in (1, -1):
        want = _o_plus(_o_matmul(a, b), _o_matmul(b, a), sign)
        got = bracket(ma, mb, sign)
        assert (got.nrows, got.ncols) == (n, n) and _oracle_of(got) == want
        if not want:
            assert got.den == 1 and got.rows == {}


def test_bracket_cancels_to_the_zero_matrix_and_checks_shapes():
    # x and y anticommute, over the mixed denominators 3 and 2
    x = ExactMatrix.diagonal([gr(0, Fraction(1, 3)), gr(0, Fraction(-1, 3))])
    y = ExactMatrix.from_rows([[0, gr(Fraction(1, 2))], [1, 0]])
    zero = bracket(x, y)
    assert (zero.nrows, zero.ncols, zero.den, zero.rows) == (2, 2, 1, {})
    assert bracket(x, y, -1) == (x @ y) * 2
    for a, b in (
        (x, ExactMatrix.identity(3)),
        (ExactMatrix.zeros(2, 3), ExactMatrix.zeros(3, 2)),
        (ExactMatrix.zeros(2, 3), ExactMatrix.zeros(2, 3)),
    ):
        with pytest.raises(ValueError, match="bracket of"):
            bracket(a, b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_restrict_agrees_with_the_pair_oracle(data):
    # m = P B P^-1 with B block upper triangular, so span of the first k
    # columns of P is invariant and m restricted to it is the block X
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    # P = L U with its rows permuted, invertible: L unit lower and U upper
    # triangular with a nonzero diagonal
    eye = {(i, i): (Fraction(1), Fraction(0)) for i in range(n)}
    lower = {**{(r, c): v for (r, c), v in data.draw(_oracle_matrices(n, n)).items() if r > c}, **eye}
    upper = {(r, c): v for (r, c), v in data.draw(_oracle_matrices(n, n)).items() if r < c}
    upper.update({(i, i): data.draw(_PAIRS) for i in range(n)})
    perm = data.draw(st.permutations(range(n)))
    p = {(perm[r], c): v for (r, c), v in _o_matmul(lower, upper).items()}
    p_inv = _o_solve(p, eye, n, n, n)
    block = {(r, c): v for (r, c), v in data.draw(_oracle_matrices(n, n)).items() if c >= k or r < k}
    m = _o_matmul(_o_matmul(p, block), p_inv)
    s = {(r, c): v for (r, c), v in p.items() if c < k}
    got = restrict(_matrix(n, n, m), _matrix(n, k, s))
    assert _oracle_of(got) == {(r, c): v for (r, c), v in block.items() if c < k}
    assert _oracle_of(got) == _o_solve(s, _o_matmul(m, s), n, k, k)


def test_integer_matrix_operations_form_no_scalar(monkeypatch):
    # on integer-entry inputs every operation below reads and writes the
    # stored form only: no GaussianRational is constructed, by __init__ or
    # by exactnum._reduced under any of its module bindings
    from cubetri import acsa, tmodules
    from cubetri.hypercube import adjacency, cube, second_dual_adjacency
    from cubetri.quotient import quotient, quotient_adjacency

    a = ExactMatrix.from_rows([[1, 2, 0], [0, -1, 3], [4, 0, 1]])
    b = ExactMatrix.from_rows([[0, 1, 1], [2, 0, -2], [1, 1, 0]])
    nil = ExactMatrix.from_rows([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    triple = acsa.build_canonical(acsa.ab_type(3, "x"))
    spaces = [cube(5), quotient(5)]
    i, half = gr(0, 1), Fraction(1, 2)
    made = []
    init = GaussianRational.__init__
    monkeypatch.setattr(
        GaussianRational, "__init__", lambda self, *args: made.append(args) or init(self, *args)
    )
    reduced = sys.modules["cubetri.exactnum"]._reduced
    bindings = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("cubetri")
        for name, value in vars(module).items()
        if value is reduced
    ]
    assert len(bindings) >= 2  # exactnum's own and linalg's, at least
    for module, name in bindings:
        monkeypatch.setattr(module, name, lambda *args: made.append(args) or reduced(*args))
    products = [a @ b, a + b, a - b, a._plus(b, -1), a * 3, 3 * a, a * half, a * i, -a]
    products += [bracket(a, b), bracket(a, b, -1)]
    assert a == a @ ExactMatrix.identity(3) and a != b and hash(a) != hash(b)
    assert exp_nilpotent(nil) == ExactMatrix.from_rows([[1, 1, 7 * half], [0, 1, 3], [0, 0, 1]])
    assert acsa.check_relations(triple) == (True, None)
    for space, build in zip(spaces, (adjacency, quotient_adjacency)):
        tmodules._check_symmetric.__wrapped__(space, build)
    tmodules._check_symmetric.__wrapped__(cube(5), second_dual_adjacency)
    assert len(products) == 11 and made == []
