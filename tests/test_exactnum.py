import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubetri.exactnum import GaussianRational, gr, integer_power_of_i


def test_norm_product():
    z = gr(Fraction(1, 2), Fraction(1, 2))
    assert z * gr(Fraction(1, 2), Fraction(-1, 2)) == gr(Fraction(1, 2))


def test_inverse_of_i():
    assert gr(0, 1).inverse() == gr(0, -1)


def test_rational_addition():
    assert gr(Fraction(2, 3)) + gr(Fraction(1, 6)) == gr(Fraction(5, 6))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


def test_powers_of_i():
    assert integer_power_of_i(0) == gr(1)
    assert integer_power_of_i(2) == gr(-1)
    assert integer_power_of_i(3) == gr(0, -1)
    assert integer_power_of_i(7) == gr(0, -1)
    assert integer_power_of_i(-1) == gr(0, -1)


def _random_value(rng):
    return gr(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_field_axioms_on_random_inputs():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (_random_value(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inverse() == gr(1)
        assert (a - a).is_zero()


def test_canonical_zero():
    a = gr(Fraction(3, 7), Fraction(-2, 5))
    z = a - a
    assert z.re == 0 and z.im == 0
    assert str(z) == "0"


@pytest.mark.parametrize(
    "value,text",
    [
        (gr(Fraction(1, 2)), "1/2"),
        (gr(-3), "-3"),
        (gr(0), "0"),
        (gr(0, 1), "i"),
        (gr(0, -1), "-i"),
        (gr(0, Fraction(2, 3)), "2/3*i"),
        (gr(Fraction(1, 2), Fraction(1, 2)), "1/2+1/2*i"),
        (gr(1, -2), "1-2*i"),
        (gr(Fraction(-5, 4), Fraction(-1, 3)), "-5/4-1/3*i"),
    ],
)
def test_text_form(value, text):
    assert str(value) == text
    assert GaussianRational.parse(text) == value


def test_parse_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        v = _random_value(rng)
        assert GaussianRational.parse(str(v)) == v


def test_parse_rejects_garbage():
    for bad in ["", "1//2", "i+i", "2+3", "1znak", "1/0", "1+2/0*i"]:
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_parse_rejects_decimal_and_exponent_literals():
    for bad in ["1.5e0", "1.5", "1e3", "2.0*i", "1/2+0.5*i", "-1E2*i"]:
        with pytest.raises(ValueError, match="malformed"):
            GaussianRational.parse(bad)


# -- the integer triple against an independent Fraction-pair reference --------

_NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(-(10**40), 10**40))
_DENOMINATORS = st.one_of(st.sampled_from([1, 2, 4, 6]), st.integers(1, 10**40))


@st.composite
def _parts(draw):
    """(re, im) as Fractions: zero, pure real, pure imaginary or both, the
    imaginary part over the real part's denominator or its own."""
    kind = draw(st.sampled_from(["zero", "real", "imaginary", "both"]))
    d = draw(_DENOMINATORS)
    re = Fraction(draw(_NUMERATORS), d) if kind in ("real", "both") else Fraction(0)
    im_den = draw(st.one_of(st.just(d), _DENOMINATORS))
    im = Fraction(draw(_NUMERATORS), im_den) if kind in ("imaginary", "both") else Fraction(0)
    return re, im


def _ref_add(p, q):
    return p[0] + q[0], p[1] + q[1]


def _ref_sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def _ref_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _ref_inverse(p):
    n = p[0] * p[0] + p[1] * p[1]
    return p[0] / n, -p[1] / n


def _check(value, ref):
    """value is the canonical triple of the Fraction pair ref."""
    a, b, d = value.triple
    assert all(type(x) is int for x in (a, b, d))
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == ref
    assert (value.re, value.im) == ref


@settings(max_examples=300, deadline=None)
@given(_parts(), _parts())
def test_field_operations_match_fraction_pairs(p, q):
    x, y = gr(*p), gr(*q)
    _check(x, p)
    _check(x + y, _ref_add(p, q))
    _check(x - y, _ref_sub(p, q))
    _check(x * y, _ref_mul(p, q))
    _check(-x, (-p[0], -p[1]))
    if any(q):
        _check(y.inverse(), _ref_inverse(q))
        _check(x / y, _ref_mul(p, _ref_inverse(q)))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@settings(max_examples=200, deadline=None)
@given(st.one_of(_NUMERATORS, st.builds(Fraction, _NUMERATORS, _DENOMINATORS)))
def test_real_values_equal_and_hash_as_int_or_fraction(q):
    v = gr(q)
    assert v == q and q == v
    assert hash(v) == hash(q)
    assert gr(0, 1) * v * gr(0, -1) == q


@settings(max_examples=200, deadline=None)
@given(_parts(), _parts())
def test_equal_values_by_different_routes_hash_equal(p, q):
    x, y = gr(*p), gr(*q)
    routes = [(x + y) - y, x * (y + 1) - x * y, GaussianRational.parse(str(x))]
    if any(q):
        routes.append((x * y) / y)
    for v in routes:
        assert v == x and hash(v) == hash(x)
    # the hash of a complex value is that of its pair of rational parts
    assert hash(x) == (hash(x.re) if x.im == 0 else hash((x.re, x.im)))


@settings(max_examples=200, deadline=None)
@given(_parts())
def test_text_form_round_trip_property(p):
    v = gr(*p)
    assert GaussianRational.parse(str(v)) == v


def test_constructor_stores_the_canonical_triple():
    assert gr(3, -4).triple == (3, -4, 1)
    assert gr(Fraction(1, 2), Fraction(1, 3)).triple == (3, 2, 6)
    assert gr(Fraction(2, 4), Fraction(-3, 6)).triple == (1, -1, 2)
    assert gr(Fraction(0, 5), 0).triple == (0, 0, 1)
    assert (gr(Fraction(1, 2), Fraction(1, 2)) * gr(1, -1)).triple == (1, 0, 1)


def test_values_are_immutable():
    v = gr(Fraction(1, 2), 3)
    for name in ("triple", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 1)
    assert v.triple == (1, 6, 2)


def test_a_foreign_operand_is_left_to_its_own_type():
    from cubetri.linalg import ExactMatrix

    m = ExactMatrix.from_rows([[1, Fraction(1, 2)], [0, gr(0, 1)]])
    i = gr(0, 1)
    assert i * m == m * i
    assert Fraction(1, 2) * m == m * gr(Fraction(1, 2))
    for op in (
        lambda: gr(1) + "x",
        lambda: "x" + gr(1),
        lambda: gr(1) - "x",
        lambda: "x" - gr(1),
        lambda: gr(1) * 1.5,
        lambda: gr(1) / "x",
        lambda: "x" / gr(1),
        lambda: gr(1) + m,
        lambda: gr(1) / m,
    ):
        with pytest.raises(TypeError):
            op()
