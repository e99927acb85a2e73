"""Exact arithmetic in Q(i), the field of Gaussian rationals.

Every matrix entry in this package is a GaussianRational.  Values are
immutable, canonical (lowest terms, positive denominators, courtesy of
fractions.Fraction) and compare by exact structural equality.
"""
from __future__ import annotations

import re as _re
from fractions import Fraction


class GaussianRational:
    """An element re + im*i of Q(i), with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion -------------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0 and d == 0:
            return GaussianRational(a * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    # -- predicates ------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_zero(self) -> bool:
        return not self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
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

    # -- square roots in Q(i) ---------------------------------------------

    def sqrt(self) -> "GaussianRational | None":
        """An exact square root in Q(i), or None when none exists there."""
        c, d = self.re, self.im
        if d == 0:
            if c >= 0:
                r = _fraction_sqrt(c)
                return None if r is None else GaussianRational(r)
            r = _fraction_sqrt(-c)
            return None if r is None else GaussianRational(0, r)
        # (a+bi)^2 = c+di needs a^2 = (m+c)/2 with m = |c+di| rational.
        m = _fraction_sqrt(c * c + d * d)
        if m is None:
            return None
        a2 = (m + c) / 2
        a = _fraction_sqrt(a2)
        if a is None or a == 0:
            return None
        return GaussianRational(a, d / (2 * a))


def _literal_fraction(piece: str, text: str) -> Fraction:
    # Fraction() alone would also take decimals and exponents such as "1.5e0"
    if not _re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", piece):
        raise ValueError(f"malformed Gaussian rational literal: {text!r}")
    try:
        return Fraction(piece)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    num = _int_sqrt_exact(q.numerator)
    den = _int_sqrt_exact(q.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_sqrt_exact(n: int) -> int | None:
    import math

    r = math.isqrt(n)
    return r if r * r == n else None


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
