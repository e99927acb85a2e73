"""Exact arithmetic in Q(i), the field of Gaussian rationals.

A scalar of this package is a GaussianRational: one integer triple
(a, b, d), meaning (a + b*i)/d, kept canonical: d > 0, gcd(a, b, d) = 1,
and zero is (0, 0, 1).  Values are immutable and compare by exact
structural equality of their triples.  Each field operation costs a few
integer operations and at most one gcd; the exact rational parts are
Fractions formed on demand, for the text form and square roots.  A matrix
stores its entries as Gaussian integers over one common denominator
(`linalg.ExactMatrix`) and forms a GaussianRational only where an entry is
read.
"""
from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm


class GaussianRational:
    """An element (a + b*i)/d of Q(i), stored as its canonical `triple`
    (a, b, d); `re` = a/d and `im` = b/d are its exact rational parts."""

    __slots__ = ("triple",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            triple = (re, im, 1)
        else:
            # both parts in lowest terms over the lcm d of their
            # denominators; a prime power p^k exactly dividing d divides
            # the denominator q of one part, so p divides neither d/q nor
            # that part's numerator, and gcd(a, b, d) = 1 already
            re, im = Fraction(re), Fraction(im)
            d = lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            triple = (a, im.numerator * (d // im.denominator), d)
        object.__setattr__(self, "triple", triple)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        a, _b, d = self.triple
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _a, b, d = self.triple
        return Fraction(b, d)

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        a, b, d = self.triple
        c, e, f = other.triple
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        a, b, d = self.triple
        c, e, f = other.triple
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other - self

    def __neg__(self):
        a, b, d = self.triple
        v = _new(GaussianRational)
        _set(v, "triple", (-a, -b, d))
        return v

    def __mul__(self, other):
        if type(other) is not GaussianRational and (other := _operand(other)) is NotImplemented:
            return other
        a, b, d = self.triple
        c, e, f = other.triple
        if b == 0 and e == 0:
            return _reduced(a * c, 0, d * f)
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        # d / (a + b*i) = d*(a - b*i) / (a^2 + b^2)
        a, b, d = self.triple
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def __truediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other * self.inverse()

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return self.triple != _ZERO_TRIPLE

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.triple == other.triple
        if isinstance(other, int):
            return self.triple == (other, 0, 1)
        if isinstance(other, Fraction):
            return self.triple == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes as the equal int or Fraction, as == requires;
        # any other as its pair (re, im), which keeps set orders as they were
        a, b, d = self.triple
        if b == 0:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        return hash((self.re, self.im))

    # -- text form --------------------------------------------------------
    # "p/q+r/s*i" with zero parts omitted; round-trips exactly.

    def __str__(self):
        re_, im_ = self.re, self.im
        if im_ == 0:
            return str(re_)
        if im_ == 1:
            imag = "i"
        elif im_ == -1:
            imag = "-i"
        else:
            imag = f"{im_}*i"
        if re_ == 0:
            return imag
        sign = "+" if im_ > 0 else ""
        return f"{re_}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Inverse of str(); accepts e.g. "5/6", "-i", "1/2-3/4*i"."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational literal")
        parts = _re.findall(r"[+-]?[^+-]+", s)
        if not parts or "".join(parts) != s:
            raise ValueError(f"malformed Gaussian rational literal: {text!r}")
        re_ = Fraction(0)
        im_ = Fraction(0)
        seen_re = seen_im = False
        for part in parts:
            if part.endswith("i"):
                if seen_im:
                    raise ValueError(f"two imaginary parts in {text!r}")
                seen_im = True
                coeff = part[:-1].removesuffix("*")
                if coeff in ("", "+"):
                    im_ = Fraction(1)
                elif coeff == "-":
                    im_ = Fraction(-1)
                else:
                    im_ = _literal_fraction(coeff, text)
            else:
                if seen_re:
                    raise ValueError(f"two real parts in {text!r}")
                seen_re = True
                re_ = _literal_fraction(part, text)
        return cls(re_, im_)


def _literal_fraction(piece: str, text: str) -> Fraction:
    # Fraction() alone would also take decimals and exponents such as "1.5e0"
    if not _re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", piece):
        raise ValueError(f"malformed Gaussian rational literal: {text!r}")
    try:
        return Fraction(piece)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _operand(value):
    """The other operand of a field operation as a GaussianRational, or
    NotImplemented unless it is one or an int or a Fraction, so that Python
    asks the other operand next: gr(0, 1) * m is then m * gr(0, 1) for a
    matrix m, and gr(1) + "x" raises TypeError."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return NotImplemented


_new = object.__new__
_set = object.__setattr__
_ZERO_TRIPLE = (0, 0, 1)


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided by gcd(a, b, d) into its canonical
    triple; every operation that can leave a common factor ends here."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    v = _new(GaussianRational)
    _set(v, "triple", (a, b, d))
    return v


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

_I_CYCLE = (ONE, I, GaussianRational(-1), GaussianRational(0, -1))


def integer_power_of_i(n: int) -> GaussianRational:
    """i**n, reduced mod 4."""
    return _I_CYCLE[n % 4]


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)
