import random
from fractions import Fraction

import pytest

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


def test_sqrt_in_qi():
    assert gr(1).sqrt() in (gr(1), gr(-1))
    assert gr(-1).sqrt() in (gr(0, 1), gr(0, -1))
    assert gr(Fraction(9, 4)).sqrt() == gr(Fraction(3, 2))
    assert gr(0, 2).sqrt() in (gr(1, 1), gr(-1, -1))
    assert gr(2).sqrt() is None
    rng = random.Random(99)
    for _ in range(100):
        v = _random_value(rng)
        sq = v * v
        root = sq.sqrt()
        assert root is not None and root * root == sq
