import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubetri.exactnum import GaussianRational, gr
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


def test_matmul_matches_row_by_column_sums():
    rng = random.Random(17)
    for density in (0.1, 0.5, 1.0):
        a = _random_matrix(rng, 7, 9, density=density)
        b = _random_matrix(rng, 9, 6, density=density)
        a_rows, b_rows = a.to_rows(), b.to_rows()
        want = [[sum((a_rows[i][k] * b_rows[k][j] for k in range(9)), gr(0)) for j in range(6)]
                for i in range(7)]
        assert matmul(a, b) == ExactMatrix.from_rows(want)


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
@given(_conjugated_jordan_forms(), st.integers(0, 6))
def test_integer_eigenspaces_equals_exhaustive_scan(m, bound):
    assert _outcome(integer_eigenspaces(m, bound)) == _outcome(_exhaustive_scan(m, bound))


# -- invert and restrict: the one solve, pinned through the public API ---------


def _reference_restrict(m, basis):
    """restrict as it was computed before the shared solve: pick k independent
    rows of S, invert that k x k block, and solve and check S c == m s_j one
    column at a time."""
    if m.ncols != basis.ambient_dim:
        raise ValueError("matrix and basis ambient dimensions differ")
    s, k = basis.matrix, basis.size
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
        c = square_inv @ ExactMatrix.column_vector([w.get(r, 0) for r in picked_rows])
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
        rows = m.to_rows()
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
    s = VectorBasis(ExactMatrix(ambient, k, {(r, c): v for (r, c), v in p_entries.items() if c < k}))
    return p @ b @ invert(p), s, b, p


@settings(max_examples=60, deadline=None)
@given(_invariant_subspaces(), st.data())
def test_restrict_recovers_the_leading_block(case, data):
    m, s, b, p = case
    k = s.size
    leading = ExactMatrix(k, k, {(r, c): v for (r, c), v in b.entries.items() if r < k and c < k})
    assert restrict(m, s) == leading == _reference_restrict(m, s)
    # entries below the block in column j and maybe later columns send the
    # image of s_j, and of no earlier basis vector, out of span S
    j = data.draw(st.integers(0, k - 1))
    spikes = st.sampled_from([1, -2, gr(0, 1), Fraction(1, 3)])
    rows_below = st.integers(k, s.ambient_dim - 1)
    bent = {**b.entries, (data.draw(rows_below), j): data.draw(spikes)}
    for c in range(j + 1, k):
        if data.draw(st.booleans()):
            bent[(data.draw(rows_below), c)] = data.draw(spikes)
    leaky = p @ ExactMatrix(b.nrows, b.ncols, bent) @ invert(p)
    for solve in (restrict, _reference_restrict):
        with pytest.raises(ValueError, match=f"image of basis vector {j} leaves the span"):
            solve(leaky, s)
    # a repeated column is reported as dependence, invariant span or not
    cols = [s.matrix.column(c) for c in range(k)]
    repeated = VectorBasis.from_columns(s.ambient_dim, cols + [cols[j]], normalize=False)
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
    assert k.ambient_dim == m.ncols
    assert (m @ k.matrix).is_zero()
    assert rank(m) + k.size == m.ncols
    assert rank(k.matrix) == k.size


def test_rank_and_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    cases = [ExactMatrix.zeros(0, 3), ExactMatrix.zeros(3, 0), ExactMatrix.zeros(2, 4)]
    for nrows, ncols in ((1, 1), (2, 3), (3, 2), (3, 3), (4, 5), (5, 4), (5, 5)):
        cases.append(_random_matrix(rng, nrows, ncols, density=0.6))
        cases.append(_random_matrix(rng, nrows, ncols, density=0.4, complex_part=False))
        inner = rng.randint(1, min(nrows, ncols))
        cases.append(_random_matrix(rng, nrows, inner) @ _random_matrix(rng, inner, ncols))
    for m in cases:
        want = _sympy_matrix(sympy, m)
        assert rank(m) == want.rank(), m
        null = want.nullspace()
        k = kernel_basis(m)
        assert k.size == len(null), m
        if null:
            # the two bases span one space: stacking them adds no rank
            both = sympy.Matrix.hstack(*null, _sympy_matrix(sympy, k.matrix))
            assert both.rank() == len(null), m
