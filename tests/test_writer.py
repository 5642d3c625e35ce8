"""The writer against the dict encoders it replaced (`dict_encode` in oracles.py).

`canonical_dumps` writes each value straight from its fields; the oracle
builds the value's document as dicts and lists, which the dict walk of
`canonical_dumps` then writes.  Both must give the same bytes, and the same
LimitExceeded detail for a part with more digits than reading accepts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dict_encode
from sgq import (
    BlockProfile,
    GaussianRational,
    GrassmannianPoint,
    LimitExceeded,
    NCoordinates,
    Presentation,
    RationalPoint,
    SuperElement,
    SuperMatrix,
    SuperRing,
    SuperShape,
)
from sgq.grassmannian import chart_up
from sgq.serialize import (
    canonical_dumps,
    encode_coeff,
    encode_element,
    encode_grassmann_point,
    encode_matrix,
    encode_ncoords,
    encode_presentation,
    encode_profile,
    encode_rational_point,
    encode_ring,
)

# names JSON escapes as \" and \\, or writes as \uXXXX or as a surrogate pair
_NAMES = ["θ", 'a"b', "a\\b", "\U0001d703", "t1", "t2", "x", "y"]


@st.composite
def _rings(draw, max_even=2, max_odd=3):
    names = draw(st.permutations(_NAMES))
    n_even, n_odd = draw(st.integers(0, max_even)), draw(st.integers(0, max_odd))
    return SuperRing(names[:n_even], names[n_even:n_even + n_odd])


# each part with a denominator of its own, so the triple's den is shared
_PART = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
_COEFFS = st.builds(GaussianRational, _PART, st.one_of(st.just(Fraction(0)), _PART))


def _elements(ring, parity=None):
    """Elements of `ring` with up to 4 terms, of one parity if given, whose
    terms sit in the term map in drawn order, not sorted."""
    key = st.tuples(st.tuples(*[st.integers(0, 3)] * ring.n_even), st.integers(0, (1 << ring.n_odd) - 1))
    return st.dictionaries(key, _COEFFS, max_size=4).map(lambda terms: ring.element(
        {k: c for k, c in terms.items() if parity is None or k[1].bit_count() & 1 == parity}))


@st.composite
def _matrices(draw, ring=None, shape=None):
    ring = draw(_rings()) if ring is None else ring
    if shape is None:
        dims = st.tuples(st.integers(0, 2), st.integers(0, 2))
        shape = SuperShape(draw(dims), draw(dims))
    rows = [[draw(_elements(ring, (shape.row_parity(i) + shape.col_parity(j)) % 2)) for j in range(shape.n_cols)]
            for i in range(shape.n_rows)]
    return SuperMatrix(ring, shape, rows)


_PROFILES = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda mn: st.builds(BlockProfile, st.just(mn[0]), st.just(mn[1]), st.integers(0, mn[0]), st.integers(0, mn[1])))

_FREE = ((2, 1), (2, 4), (3, 1), (3, 4))  # the places of u, eta, xi, v


@st.composite
def _ncoords(draw):
    ring, bp = draw(_rings()), draw(_PROFILES)
    return NCoordinates(bp, *(draw(_matrices(ring, bp.block_shape(i, j))) for i, j in _FREE))


@st.composite
def _presentations(draw):
    total = draw(_rings(max_even=3))
    n_even, n_odd = draw(st.integers(0, total.n_even)), draw(st.integers(0, total.n_odd))
    base = SuperRing(total.even_vars[:n_even], total.odd_vars[:n_odd])
    fiber_even, fiber_odd = total.even_vars[n_even:], total.odd_vars[n_odd:]
    relations_even = draw(st.lists(_elements(total, 0), max_size=len(fiber_even)))
    relations_odd = draw(st.lists(_elements(total, 1), max_size=len(fiber_odd)))
    return Presentation(base, fiber_even, fiber_odd, relations_even, relations_odd)


_VALUES = st.one_of(
    _COEFFS,
    _rings(),
    _rings().flatmap(_elements),
    _matrices(),
    _PROFILES,
    _ncoords(),
    # spans of every profile, (m|n) x (0|0) among them
    _ncoords().map(chart_up),
    _presentations(),
    st.dictionaries(st.sampled_from(_NAMES), _COEFFS, max_size=4).map(RationalPoint),
)

_ENCODERS = {
    GaussianRational: encode_coeff,
    SuperRing: encode_ring,
    SuperElement: encode_element,
    SuperMatrix: encode_matrix,
    BlockProfile: encode_profile,
    NCoordinates: encode_ncoords,
    GrassmannianPoint: encode_grassmann_point,
    Presentation: encode_presentation,
    RationalPoint: encode_rational_point,
}


@settings(max_examples=400)
@given(_VALUES)
def test_writer_matches_the_dict_encoders(value):
    doc = dict_encode(value)
    assert canonical_dumps(value) == canonical_dumps(doc)
    assert canonical_dumps({"ok": True, "result": [value]}) == canonical_dumps({"ok": True, "result": [doc]})
    assert _ENCODERS[type(value)](value) == doc


# 10^4300 has 4,301 digits, one more than reading accepts
_HUGE = 10 ** 4300
_RING = SuperRing(["x"], ["t1", "t2", "t3"])
_ONE, _T12 = _RING.one(), _RING.gen("t1") * _RING.gen("t2")
_BAD = {
    "re": _ONE + _RING.scalar(_HUGE) * _T12,
    "im": _ONE + _RING.scalar(GaussianRational(0, Fraction(1, _HUGE))) * _T12,
    "exp": _ONE + _RING.element({((_HUGE,), 0b11): 1}),
}
_BP = BlockProfile(2, 2, 1, 1)


def _ncoords_with(**bad):
    """(2|2, 1|1) coordinates, each block 1 x 1, with the named blocks' cell bad."""
    cells = {"u": _ONE, "eta": _RING.gen("t1"), "xi": _RING.gen("t2"), "v": _ONE}
    cells.update(bad)
    return NCoordinates(_BP, *(SuperMatrix(_RING, _BP.block_shape(i, j), [[cells[name]]])
                              for name, (i, j) in zip(("u", "eta", "xi", "v"), _FREE)))


def _nestings(kind):
    bad = _BAD[kind]
    odd_bad = bad * _RING.gen("t3")
    yield bad
    yield SuperMatrix(_RING, SuperShape((1, 1), (1, 1)), [[_ONE, _RING.gen("t2")], [_RING.gen("t1"), bad]])
    yield _ncoords_with(v=bad)
    # u and eta both bad: the first in the order u, eta, xi, v is named,
    # though eta is written first
    yield _ncoords_with(u=bad, eta=odd_bad)
    yield _ncoords_with(eta=odd_bad, xi=odd_bad)
    yield chart_up(_ncoords_with(xi=odd_bad))
    yield Presentation(SuperRing([], ["t1"]), ["x"], ["t2", "t3"], [bad], [odd_bad])
    yield Presentation(SuperRing(), ["x"], ["t1", "t2", "t3"], [], [odd_bad])


def _detail(write, value):
    with pytest.raises(LimitExceeded) as err:
        write(value)
    return str(err.value)


@pytest.mark.parametrize("kind", sorted(_BAD))
def test_limit_details_match_the_dict_encoders(kind):
    for value in _nestings(kind):
        detail = _detail(canonical_dumps, value)
        assert detail == _detail(dict_encode, value)
        assert detail.endswith(": 4301 digits, over the 4300 that reading accepts")
        assert _detail(canonical_dumps, {"result": value}) == "result" + detail
        assert _detail(canonical_dumps, {"n": {"result": [value]}}) == "n.result[0]" + detail


@pytest.mark.parametrize("value, locus", [
    ({"x": 1, "y": _HUGE}, ".values[y]"),
    ({"x": 1, "y": Fraction(1, _HUGE)}, ".values[y]"),
    ({"x": GaussianRational(1, Fraction(1, _HUGE))}, ".values[x].im"),
    ({"x": GaussianRational(_HUGE, 1)}, ".values[x].re"),
])
def test_limit_details_of_point_values_match_the_dict_encoders(value, locus):
    point = RationalPoint(value)
    assert _detail(canonical_dumps, point) == _detail(dict_encode, point)
    assert _detail(canonical_dumps, point).startswith(locus + ": 4301 digits")
