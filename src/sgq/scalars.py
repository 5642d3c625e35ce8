"""Exact scalars: Gaussian rationals (a + b*i)/d as one normalized integer triple."""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Union

RationalLike = Union[int, Fraction, "GaussianRational"]


# int_max_str_digits is 0 or at least 640, so int() and str() take this many
# digits at any setting; an int below 2**2126 < 10**640 has no more than that
STR_SAFE_DIGITS = 640
STR_SAFE_BITS = 2126


def _digits(n: int) -> str:
    return str(n) if n.bit_length() <= STR_SAFE_BITS else str(Decimal(n))


def ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)), for den > 0, at any length: str() of an int
    stops at the interpreter's int_max_str_digits (4300 by default), Decimal
    does not."""
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
    digits = _digits(num)
    return digits if den == 1 else f"{digits}/{_digits(den)}"


def rational_str(value: Fraction) -> str:
    """str(value) at any length."""
    return ratio_str(value.numerator, value.denominator)


def _canonical_triple(a: int, d1: int, b: int, d2: int):
    """The canonical (re_num, im_num, den) of a/d1 + (b/d2)*i, for d1, d2 > 0."""
    a, b, d = a * d2, b * d1, d1 * d2
    g = gcd(a, b, d)
    return a // g, b // g, d // g


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class GaussianRational:
    """An element (re_num + im_num*i)/den of Q(i).

    The triple is canonical: den > 0 and gcd(re_num, im_num, den) = 1, with
    zero stored as (0, 0, 1), so equal values have equal triples.  The
    components ``re`` and ``im`` are read as Fractions.  Immutable; all
    arithmetic is exact and the constructor accepts no floats.
    """

    re_num: int
    im_num: int
    den: int

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"Gaussian rational components must be int or Fraction, not {part!r}")
        a, b, d = _canonical_triple(re.numerator, re.denominator, im.numerator, im.denominator)
        _set_re(self, a)
        _set_im(self, b)
        _set_den(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self.re_num, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.im_num, self.den)

    @staticmethod
    def coerce(value: RationalLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            a, b = self.re_num + other.re_num, self.im_num + other.im_num
            if d1 == 1:
                return from_triple(a, b, 1)
            d = d1
        else:
            a = self.re_num * d2 + other.re_num * d1
            b = self.im_num * d2 + other.im_num * d1
            d = d1 * d2
        g = gcd(a, b, d)
        return from_triple(a // g, b // g, d // g)

    __radd__ = __add__

    def __neg__(self):
        return from_triple(-self.re_num, -self.im_num, self.den)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            a, b = self.re_num - other.re_num, self.im_num - other.im_num
            if d1 == 1:
                return from_triple(a, b, 1)
            d = d1
        else:
            a = self.re_num * d2 - other.re_num * d1
            b = self.im_num * d2 - other.im_num * d1
            d = d1 * d2
        g = gcd(a, b, d)
        return from_triple(a // g, b // g, d // g)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a1, b1, a2, b2 = self.re_num, self.im_num, other.re_num, other.im_num
        d = self.den * other.den
        if b1 or b2:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        else:
            a, b = a1 * a2, 0
        if d == 1:
            return from_triple(a, b, 1)
        g = gcd(a, b, d)
        return from_triple(a // g, b // g, d // g)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
        a, b, d = self.re_num, self.im_num, self.den
        norm = a * a + b * b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        a, b = d * a, -d * b
        g = gcd(a, b, norm)
        return from_triple(a // g, b // g, norm // g)

    def __truediv__(self, other):
        return self * GaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (self.re_num == other.re_num and self.im_num == other.im_num
                    and self.den == other.den)
        if isinstance(other, (int, Fraction)):
            return (not self.im_num and self.re_num == other.numerator
                    and self.den == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value equals its int or Fraction, so it must hash like one
        return hash(self.re) if not self.im_num else hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re_num or self.im_num)

    def is_zero(self) -> bool:
        return not self

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return rational_str(re)
        if re == 0:
            return f"({rational_str(im)})*i" if im.denominator != 1 or im < 0 else f"{rational_str(im)}*i"
        sign = "+" if im > 0 else "-"
        return f"({rational_str(re)} {sign} {rational_str(abs(im))}*i)"


# The fields are slots of a frozen class: arithmetic fills a fresh instance
# through the slot descriptors, which skips the frozen __setattr__.
_set_re = GaussianRational.re_num.__set__
_set_im = GaussianRational.im_num.__set__
_set_den = GaussianRational.den.__set__


def from_ratios(a: int, d1: int, b: int = 0, d2: int = 1) -> GaussianRational:
    """The value a/d1 + (b/d2)*i from integers, for d1, d2 > 0: the
    constructor's normalization without building a Fraction."""
    return from_triple(*_canonical_triple(a, d1, b, d2))


def from_triple(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d from a triple already in canonical form."""
    obj = object.__new__(GaussianRational)
    _set_re(obj, a)
    _set_im(obj, b)
    _set_den(obj, d)
    return obj
