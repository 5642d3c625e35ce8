from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from sgq import (
    GaussianRational,
    NotInvertible,
    ParityViolation,
    RingMismatch,
    SuperHom,
    SuperRing,
    UnknownVariable,
)
from sgq import algebra
from sgq.algebra import accumulate_product, inverse_terms, sign_mask
from sgq.sampling import random_element, trial_rng
from sgq.scalars import from_ratios

from oracles import operator_accumulate_product, series_inv, tuple_accumulate_product

LAW_RING = SuperRing([], ["a", "b", "c"])
MIXED = SuperRing(["x"], ["th1", "th2"])


# -- products ---------------------------------------------------------------


def test_koszul_sign_on_one_transposition(grassmann2):
    t1, t2 = grassmann2.gen("t1"), grassmann2.gen("t2")
    assert t1 * t2 == -(t2 * t1)
    assert repr(t2 * t1) == "-t1*t2"


def test_top_form_squares_to_zero(grassmann2):
    one = grassmann2.one()
    t1t2 = grassmann2.gen("t1") * grassmann2.gen("t2")
    assert (one + t1t2) * (one - t1t2) == one


def test_odd_cross_terms_cancel(mixed_ring):
    x, th1 = mixed_ring.gen("x"), mixed_ring.gen("th1")
    assert (x + th1) * (x - th1) == x * x


def test_odd_square_is_zero(grassmann2):
    t1 = grassmann2.gen("t1")
    assert (t1 * t1).is_zero()


def test_scalar_and_imaginary_arithmetic(grassmann2):
    i = grassmann2.imaginary_unit()
    assert i * i == grassmann2.scalar(-1)
    half = grassmann2.scalar(Fraction(1, 2))
    assert half + half == grassmann2.one()


def test_real_gaussian_rational_hashes_like_int_and_fraction():
    for x in (0, 1, -3, Fraction(1, 2), Fraction(-7, 3)):
        assert GaussianRational(x) == x and hash(GaussianRational(x)) == hash(x)
    assert len({GaussianRational(1), 1, Fraction(1)}) == 1


def test_element_accepts_every_scalar_type(grassmann2):
    one, t1 = grassmann2.one(), grassmann2.gen("t1")
    for scalar in (1, Fraction(1), GaussianRational(1)):
        assert one == scalar and scalar == one
    half = Fraction(1, 2)
    assert one + half == half + one == grassmann2.scalar(Fraction(3, 2))
    assert one - half == grassmann2.scalar(half)
    assert half - one == grassmann2.scalar(-half)
    assert t1 * half == half * t1 == grassmann2.element({((), (0,)): half})


def test_constant_element_hashes_like_its_scalar(grassmann2):
    for x in (0, 3, Fraction(-2, 5), GaussianRational(1, 2)):
        element = grassmann2.scalar(x)
        assert element == x and hash(element) == hash(x)
    assert len({grassmann2.one(), 1, GaussianRational(1)}) == 1


def test_ring_mismatch_is_rejected(grassmann2, mixed_ring):
    with pytest.raises(RingMismatch):
        grassmann2.gen("t1") * mixed_ring.gen("x")


# -- body and soul -----------------------------------------------------------


def test_body_drops_odd_terms(mixed_ring):
    x = mixed_ring.gen("x")
    th1, th2 = mixed_ring.gen("th1"), mixed_ring.gen("th2")
    assert (x + th1 * th2).body() == x
    assert th1.body().is_zero()
    assert (mixed_ring.scalar(3) + 2 * th1 + th1 * th2).body() == mixed_ring.scalar(3)


def test_body_plus_soul_reassembles(grassmann2):
    a = grassmann2.scalar(5) + grassmann2.gen("t1") + grassmann2.gen("t1") * grassmann2.gen("t2")
    assert a.body() + a.soul() == a


# -- inversion ----------------------------------------------------------------


def test_inverse_of_scalar(grassmann2):
    assert grassmann2.scalar(2).inv() == grassmann2.scalar(Fraction(1, 2))


def test_neumann_inverse(grassmann2):
    a = grassmann2.one() + grassmann2.gen("t1") * grassmann2.gen("t2")
    expected = grassmann2.one() - grassmann2.gen("t1") * grassmann2.gen("t2")
    assert a.inv() == expected
    assert (a * a.inv()).is_one()


def test_zero_body_not_invertible(grassmann2):
    with pytest.raises(NotInvertible):
        grassmann2.gen("t1").inv()


def test_polynomial_body_not_invertible(mixed_ring):
    # units over Q(i)[x] are nonzero constants only
    with pytest.raises(NotInvertible):
        mixed_ring.gen("x").inv()
    with pytest.raises(NotInvertible):
        (mixed_ring.one() + mixed_ring.gen("x")).inv()


def test_unit_with_polynomial_soul_inverts(mixed_ring):
    x = mixed_ring.gen("x")
    th1, th2 = mixed_ring.gen("th1"), mixed_ring.gen("th2")
    a = mixed_ring.scalar(2) + x * th1 * th2 + th1
    assert (a * a.inv()).is_one()


INVERSE_RINGS = [SuperRing(["x", "y"][:p], [f"t{k}" for k in range(1, q + 1)]) for p in (0, 1, 2) for q in range(7)]


@st.composite
def inverse_candidates(draw):
    """An element over a ring with up to 2 even and 6 odd generators: a
    constant body plus souls, mostly, and sometimes zero, a soul alone, or a
    body that involves an even generator."""
    ring = draw(st.sampled_from(INVERSE_RINGS))
    body = draw(st.sampled_from(["unit", "unit", "unit", "zero", "soul", "polynomial"]))
    coeff = st.builds(GaussianRational, st.fractions(-4, 4, max_denominator=5), st.fractions(-4, 4, max_denominator=5))
    terms = {}
    if ring.n_odd:
        for _ in range(draw(st.integers(0 if body == "unit" else 1, 6))):
            exp = tuple(draw(st.integers(0, 2)) for _ in ring.even_vars)
            terms[(exp, draw(st.integers(1, (1 << ring.n_odd) - 1)))] = draw(coeff)
    if body in ("unit", "polynomial"):
        terms[((0,) * ring.n_even, 0)] = draw(coeff.filter(bool))
    if body == "polynomial" and ring.n_even:
        terms[((1,) + (0,) * (ring.n_even - 1), 0)] = draw(coeff.filter(bool))
    return ring.element(terms)


@given(inverse_candidates())
def test_inverse_terms_matches_the_series_oracle(a):
    kept = dict(a.terms)
    try:
        expected = series_inv(a)
    except NotInvertible as exc:
        with pytest.raises(NotInvertible) as err:
            a.inv()
        assert str(err.value) == str(exc)
        return
    assert inverse_terms(a.terms) == expected.terms
    assert a.inv() == expected and (a * a.inv()).is_one()
    assert a.terms == kept
    for c in a.inv().terms.values():
        assert c and c.den > 0 and gcd(c.re_num, c.im_num, c.den) == 1


def test_non_units_keep_the_series_text(mixed_ring):
    for element in (mixed_ring.zero(), mixed_ring.gen("th1"), mixed_ring.gen("x"),
                    mixed_ring.one() + mixed_ring.gen("x") + mixed_ring.gen("th1") * mixed_ring.gen("th2")):
        with pytest.raises(NotInvertible) as expected:
            series_inv(element)
        with pytest.raises(NotInvertible) as err:
            element.inv()
        assert str(err.value) == str(expected.value)
    assert str(err.value) == "body is not a unit: 1 + x"


def _count_products(monkeypatch):
    """Count the element products made from now on."""
    calls = []
    original = algebra.accumulate_product

    def spy(dest, left, right):
        calls.append(1)
        original(dest, left, right)

    monkeypatch.setattr(algebra, "accumulate_product", spy)
    return calls


def test_power_zero_and_one(monkeypatch, mixed_ring):
    x = mixed_ring.gen("x") + mixed_ring.gen("th1") + mixed_ring.scalar(2)
    calls = _count_products(monkeypatch)
    assert x**0 == mixed_ring.one()
    assert x**1 == x
    assert calls == []


@pytest.mark.parametrize("seed", range(4))
def test_power_matches_repeated_products(seed):
    x = random_element(MIXED, trial_rng(seed, "power", 0))
    expected = MIXED.one()
    for k in range(7):
        assert x**k == expected
        expected = expected * x


def test_negative_power_rejected(mixed_ring):
    with pytest.raises(ValueError):
        mixed_ring.gen("x") ** -1


# -- substitution ---------------------------------------------------------------


def test_substitute_even_image(grassmann2):
    source = SuperRing(["x"], [])
    hom = SuperHom(source, grassmann2, {"x": grassmann2.one() + grassmann2.gen("t1") * grassmann2.gen("t2")})
    result = hom(source.gen("x") + source.one())
    assert result == grassmann2.scalar(2) + grassmann2.gen("t1") * grassmann2.gen("t2")


def test_substitute_kills_repeated_odds(grassmann2):
    source = SuperRing(["x"], ["xi"])
    hom = SuperHom(source, grassmann2, {
        "x": grassmann2.gen("t1") * grassmann2.gen("t2"),
        "xi": grassmann2.gen("t1"),
    })
    assert hom(source.gen("x") * source.gen("xi")).is_zero()


def test_substitution_stops_at_a_zero_product(monkeypatch, grassmann2):
    # x maps to zero: the first product is zero, so t1 and t2 are never applied
    source = SuperRing(["x"], ["xi", "zeta"])
    hom = SuperHom(source, grassmann2, {
        "x": grassmann2.zero(),
        "xi": grassmann2.gen("t1"),
        "zeta": grassmann2.gen("t2"),
    })
    element = source.gen("x") * source.gen("xi") * source.gen("zeta")
    calls = _count_products(monkeypatch)
    assert hom(element).is_zero()
    assert len(calls) == 1


def test_parity_violation_at_construction(grassmann2):
    source = SuperRing(["x"], [])
    with pytest.raises(ParityViolation):
        SuperHom(source, grassmann2, {"x": grassmann2.gen("t1")})
    odd_source = SuperRing([], ["xi"])
    with pytest.raises(ParityViolation):
        SuperHom(odd_source, grassmann2, {"xi": grassmann2.one()})


def test_hom_requires_all_images(grassmann2):
    source = SuperRing(["x", "y"], [])
    with pytest.raises(UnknownVariable):
        SuperHom(source, grassmann2, {"x": grassmann2.one()})


# -- derivatives -------------------------------------------------------------------


def test_left_derivative_leading_factor(grassmann2):
    t1, t2 = grassmann2.gen("t1"), grassmann2.gen("t2")
    assert (t1 * t2).derivative("t1") == t2


def test_left_derivative_picks_up_sign(grassmann2):
    t1, t2 = grassmann2.gen("t1"), grassmann2.gen("t2")
    assert (t1 * t2).derivative("t2") == -t1


def test_even_derivative(mixed_ring):
    x, th1 = mixed_ring.gen("x"), mixed_ring.gen("th1")
    assert (x**2 + x * th1).derivative("x") == 2 * x + th1


def test_derivative_unknown_variable(grassmann2):
    with pytest.raises(UnknownVariable):
        grassmann2.one().derivative("zz")


# -- algebraic laws (hypothesis) ------------------------------------------------------


def small_coeffs():
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.builds(GaussianRational, fractions, fractions)


@st.composite
def homogeneous_elements(draw, ring=LAW_RING, parity=None):
    if parity is None:
        parity = draw(st.integers(0, 1))
    q = ring.n_odd
    subsets = [
        tuple(sorted(s))
        for size in range(parity, q + 1, 2)
        for s in _subsets_of_size(range(q), size)
    ]
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, 2)) for _ in ring.even_vars)
        odd = draw(st.sampled_from(subsets))
        terms[(exp, odd)] = draw(small_coeffs())
    return parity, ring.element(terms)


def _subsets_of_size(items, size):
    from itertools import combinations

    return combinations(items, size)


@given(homogeneous_elements(), homogeneous_elements())
def test_supercommutativity(ha, hb):
    pa, a = ha
    pb, b = hb
    signed = b * a if pa * pb == 0 else -(b * a)
    assert a * b == signed


@given(homogeneous_elements(parity=1), homogeneous_elements(parity=1))
def test_soul_nilpotency(ha, hb):
    _, a = ha
    _, b = hb
    soul = (a + b * b).soul() + a  # body-free by construction
    assert soul.body().is_zero()
    assert (soul ** (LAW_RING.n_odd + 1)).is_zero()


@given(homogeneous_elements(), homogeneous_elements())
def test_body_is_multiplicative(ha, hb):
    _, a = ha
    _, b = hb
    assert (a * b).body() == a.body() * b.body()


@given(homogeneous_elements(ring=MIXED), homogeneous_elements(ring=MIXED))
def test_substitution_preserves_products(ha, hb):
    _, a = ha
    _, b = hb
    target = LAW_RING
    hom = SuperHom(MIXED, target, {
        "x": target.gen("a") * target.gen("b"),
        "th1": target.gen("c"),
        "th2": target.gen("a"),
    })
    assert hom(a * b) == hom(a) * hom(b)
    assert hom(a + b) == hom(a) + hom(b)
    assert hom(MIXED.one()).is_one()


@given(homogeneous_elements(ring=MIXED), homogeneous_elements(ring=MIXED),
       st.sampled_from(["x", "th1", "th2"]))
def test_graded_leibniz(ha, hb, var):
    pa, a = ha
    _, b = hb
    var_parity = MIXED.parity_of_var(var)
    lhs = (a * b).derivative(var)
    second = a * b.derivative(var)
    if var_parity and pa:
        second = -second
    assert lhs == a.derivative(var) * b + second


@given(homogeneous_elements(ring=MIXED))
def test_odd_second_derivative_vanishes(ha):
    _, a = ha
    assert a.derivative("th1").derivative("th1").is_zero()


@given(homogeneous_elements(parity=0))
def test_units_invert_exactly(ha):
    _, soul_part = ha
    unit = LAW_RING.scalar(GaussianRational(3, 1)) + soul_part.soul()
    assert (unit * unit.inv()).is_one()
    assert (unit.inv() * unit).is_one()


@given(homogeneous_elements(ring=MIXED))
def test_element_round_trips_its_terms(ha):
    _, a = ha
    assert MIXED.element(a.terms) == a
    assert MIXED.element(dict(a.sorted_terms())) == a


# -- the bitmask kernel against the index-tuple oracle --------------------------------


def test_element_takes_masks_in_range(grassmann2):
    t1t2 = grassmann2.gen("t1") * grassmann2.gen("t2")
    assert grassmann2.element({((), 0b11): 1}) == grassmann2.element({((), (0, 1)): 1}) == t1t2
    for mask in (-1, 1 << grassmann2.n_odd):
        with pytest.raises(ValueError):
            grassmann2.element({((), mask): 1})


def test_element_faults_keep_their_messages_and_order(mixed_ring):
    # each term is checked exponent first, then its odd part, in map order
    cases = [
        ({((0, 0), ()): 1}, "bad exponent vector (0, 0) for ring with 1 even generators"),
        ({((-1,), 5): 1}, "bad exponent vector (-1,) for ring with 1 even generators"),
        ({((0,), 4): 1}, "odd mask 4 out of range for 2 odd generators"),
        ({((0,), -1): 1}, "odd mask -1 out of range for 2 odd generators"),
        ({((0,), (1, 1)): 1}, "odd index tuple (1, 1) is not strictly increasing"),
        ({((0,), (1, 0, 5)): 1}, "odd index tuple (1, 0, 5) is not strictly increasing"),
        ({((0,), (0, 2)): 1}, "odd index tuple (0, 2) out of range for 2 odd generators"),
        ({((0,), (-1,)): 1}, "odd index tuple (-1,) out of range for 2 odd generators"),
        ({((1,), (0, 1)): 1, ((0,), (2,)): 1}, "odd index tuple (2,) out of range for 2 odd generators"),
    ]
    for terms, message in cases:
        with pytest.raises(ValueError) as err:
            mixed_ring.element(terms)
        assert str(err.value) == message
    with pytest.raises(ValueError, match=r"^bad exponent vector \(\) for ring with 1 even generators$"):
        mixed_ring.element({((), 9): 1})
    with pytest.raises(TypeError, match="cannot interpret"):
        mixed_ring.element({((0,), 0): 1.5})
    empty = SuperRing([], [])
    with pytest.raises(ValueError, match=r"^bad exponent vector \(0,\) for ring with 0 even generators$"):
        empty.element({((0,), 0): 1})
    assert mixed_ring.element({((2,), (0, 1)): 3, ((0,), 0): 0}) == 3 * mixed_ring.gen("x") ** 2 \
        * mixed_ring.gen("th1") * mixed_ring.gen("th2")


def test_sign_mask_counts_the_bits_above_each_position():
    width = 12
    for mask in range(1 << width):
        indices = [i for i in range(width) if mask >> i & 1]
        signs = sign_mask(mask)
        for p in range(width + 1):
            inversions = sum(1 for i in indices if i > p)
            assert signs >> p & 1 == inversions % 2, (mask, p)


def _to_masks(terms):
    return {(exp, sum(1 << i for i in odd)): c for (exp, odd), c in terms.items()}


@st.composite
def raw_term_maps(draw):
    """Three term maps over one ring with 0-2 even and up to 10 odd
    generators, odd parts of both parities; few terms per map keep shared
    odd indices, and so vanishing products, frequent."""
    n_even = draw(st.integers(0, 2))
    q = draw(st.integers(0, 10))

    def term_map():
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            exp = tuple(draw(st.integers(0, 2)) for _ in range(n_even))
            odd = tuple(sorted(draw(st.sets(st.integers(0, max(q - 1, 0)), max_size=q))))
            terms[(exp, odd)] = draw(small_coeffs())
        return terms

    return term_map(), term_map(), term_map()


@given(raw_term_maps())
def test_bitmask_product_matches_tuple_oracle(maps):
    start, left, right = maps
    expected = dict(start)
    tuple_accumulate_product(expected, left, right)
    dest = _to_masks(start)
    accumulate_product(dest, _to_masks(left), _to_masks(right))
    assert dest == _to_masks(expected)


# past the 4,300 digits at which str() of an int stops
HUGE = 10**4301 + 7


def kernel_coeffs():
    """Gaussian rationals whose two parts have their own denominators, with
    numerators and denominators small or huge; each part is often zero, so
    zero coefficients reach the kernel too."""
    nums = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-4, 4).map(lambda k: k * HUGE + 1))
    dens = st.sampled_from([1, 2, 3, 4, 6, HUGE])
    return st.builds(from_ratios, nums, dens, nums, dens)


@st.composite
def kernel_maps(draw):
    """dest, left and right over one ring shape, and the keys of dest that
    were set to minus the product's coefficient, so that they cancel.  The
    factors may hold zero coefficients; dest, a term map, holds none."""
    n_even = draw(st.integers(0, 2))
    q = draw(st.integers(0, 6))
    keys = st.tuples(st.tuples(*[st.integers(0, 2)] * n_even), st.integers(0, (1 << q) - 1))
    term_map = st.dictionaries(keys, kernel_coeffs(), max_size=5)
    dest = {key: c for key, c in draw(term_map).items() if c}
    factor = st.dictionaries(keys, kernel_coeffs(), min_size=1, max_size=5)
    left, right = draw(factor), draw(factor)
    product = {}
    operator_accumulate_product(product, left, right)
    cancelled = [key for key in sorted(product) if draw(st.booleans())]
    for key in cancelled:
        dest[key] = -product[key]
    return dest, left, right, cancelled


@given(kernel_maps())
def test_fused_product_matches_operator_oracle(maps):
    dest, left, right, cancelled = maps
    expected = dict(dest)
    operator_accumulate_product(expected, left, right)
    accumulate_product(dest, left, right)
    assert dest == expected
    assert not set(cancelled) & set(dest)
    for c in dest.values():
        assert c.den > 0 and gcd(c.re_num, c.im_num, c.den) == 1 and c
