"""GaussianRational against a reference implementation on two Fractions."""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from sgq import GaussianRational
from sgq.scalars import from_ratios, ratio_str

_ZERO = Fraction(0)


class PairGaussianRational:
    """Reference: a + b*i stored as two Fractions, one Fraction operation per component."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(value):
        if isinstance(value, PairGaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return PairGaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other):
        other = PairGaussianRational.coerce(other)
        return PairGaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return PairGaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = PairGaussianRational.coerce(other)
        return PairGaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return PairGaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = PairGaussianRational.coerce(other)
        if self.im == 0 and other.im == 0:
            return PairGaussianRational(self.re * other.re, _ZERO)
        return PairGaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return PairGaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        return self * PairGaussianRational.coerce(other).inverse()

    def __rtruediv__(self, other):
        return PairGaussianRational.coerce(other) * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PairGaussianRational(other)
        if not isinstance(other, PairGaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"({self.im})*i" if self.im.denominator != 1 or self.im < 0 else f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


# -- strategies ---------------------------------------------------------------

SMALL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
LARGE = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12))
RATIONALS = st.one_of(st.just(Fraction(0)), SMALL, LARGE)
PLAIN = st.one_of(st.integers(-6, 6), st.integers(-10**30, 10**30), SMALL, LARGE)


@st.composite
def gaussians(draw):
    """(new, reference) for the same value; zero, real and pure imaginary ones included."""
    re, im = draw(RATIONALS), draw(RATIONALS)
    return GaussianRational(re, im), PairGaussianRational(re, im)


@st.composite
def operands(draw):
    """(new, reference) for a Gaussian rational, or the same int or Fraction twice."""
    if draw(st.booleans()):
        return draw(gaussians())
    value = draw(PLAIN)
    return value, value


def assert_canonical(value):
    assert type(value) is GaussianRational
    a, b, d = value.re_num, value.im_num, value.den
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and gcd(a, b, d) == 1
    if not a and not b:
        assert (a, b, d) == (0, 0, 1)


def assert_matches(new, ref):
    assert_canonical(new)
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert (new.re, new.im) == (ref.re, ref.im)
    assert str(new) == str(ref) and repr(new) == repr(ref)


BINARY = {
    "add": operator.add,
    "radd": lambda x, y: y + x,
    "sub": operator.sub,
    "rsub": lambda x, y: y - x,
    "mul": operator.mul,
    "rmul": lambda x, y: y * x,
    "truediv": operator.truediv,
    "rtruediv": lambda x, y: y / x,
}


@pytest.mark.parametrize("name", sorted(BINARY))
@given(gaussians(), operands())
def test_binary_operations_match_reference(name, x, y):
    op = BINARY[name]
    try:
        expected = op(x[1], y[1])
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(x[0], y[0])
        return
    assert_matches(op(x[0], y[0]), expected)


@given(gaussians())
def test_unary_operations_and_protocols_match_reference(x):
    new, ref = x
    assert_canonical(new)
    assert_matches(new, ref)
    assert_matches(-new, -ref)
    if ref:
        assert_matches(new.inverse(), ref.inverse())
    assert hash(new) == hash(ref)
    assert bool(new) == bool(ref)
    assert new.is_zero() == (not ref)


@given(gaussians(), operands())
def test_equality_matches_reference(x, y):
    assert (x[0] == y[0]) == (x[1] == y[1])
    assert (y[0] == x[0]) == (y[1] == x[1])
    assert (x[0] != y[0]) == (x[1] != y[1])
    if x[0] == y[0]:
        assert hash(x[0]) == hash(y[0])


@given(gaussians())
def test_equal_values_have_equal_triples(x):
    new, _ = x
    rebuilt = (new + 1) * 3 / 3 - 1
    assert rebuilt == new
    assert (rebuilt.re_num, rebuilt.im_num, rebuilt.den) == (new.re_num, new.im_num, new.den)


_BIG = st.integers(-10 ** 30, 10 ** 30)
_DEN = st.integers(1, 10 ** 30)


@given(_BIG, _DEN, _BIG, _DEN)
def test_from_ratios_and_ratio_str_match_fraction(a, d1, b, d2):
    value = from_ratios(a, d1, b, d2)
    reference = GaussianRational(Fraction(a, d1), Fraction(b, d2))
    assert_canonical(value)
    assert (value.re_num, value.im_num, value.den) == (reference.re_num, reference.im_num, reference.den)
    assert ratio_str(value.re_num, value.den) == str(Fraction(a, d1))
    assert ratio_str(value.im_num, value.den) == str(Fraction(b, d2))


def test_zero_is_one_triple():
    for zero in (GaussianRational(), GaussianRational(0, Fraction(0, 5)),
                 GaussianRational(Fraction(1, 3), -1) - GaussianRational(Fraction(1, 3), -1),
                 GaussianRational(0, 7) * 0):
        assert (zero.re_num, zero.im_num, zero.den) == (0, 0, 1)


@pytest.mark.parametrize("zero", [0, Fraction(0), GaussianRational(0)])
def test_division_by_zero_raises(zero):
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        GaussianRational.coerce(zero).inverse()
    with pytest.raises(ZeroDivisionError):
        3 / GaussianRational.coerce(zero)


@pytest.mark.parametrize("component", [0.1, 1.0, "1/2", 1j, None])
def test_constructor_rejects_non_rational_components(component):
    with pytest.raises(TypeError):
        GaussianRational(component)
    with pytest.raises(TypeError):
        GaussianRational(1, component)
    with pytest.raises(TypeError):
        GaussianRational.coerce(component)
