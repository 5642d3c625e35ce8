import json

import pytest
from hypothesis import given, strategies as st

from oracles import fraction_parse_coeff, fraction_parse_element, json_canonical_dumps
from sgq import BlockProfile, SchemaError, SuperRing
from sgq.flag import NCoordinates
from sgq.sampling import random_big_cell, random_big_cell_point, random_element, random_ncoords, trial_rng
from sgq.serialize import (
    canonical_dumps,
    encode_element,
    encode_grassmann_point,
    encode_matrix,
    encode_ncoords,
    encode_presentation,
    encode_profile,
    encode_rational_point,
    encode_ring,
    parse_coeff,
    parse_element,
    parse_grassmann_point,
    parse_matrix,
    parse_ncoords,
    parse_presentation,
    parse_profile,
    parse_rational_point,
)
from sgq.smoothness import Presentation, RationalPoint

BP = BlockProfile(2, 2, 1, 1)


def test_element_roundtrip(grassmann4):
    for i in range(5):
        element = random_element(grassmann4, trial_rng(3, "ser", i), max_terms=4)
        assert parse_element(encode_element(element)) == element


def test_element_canonical_bytes(grassmann4):
    element = random_element(grassmann4, trial_rng(3, "bytes", 0), max_terms=4)
    doc = encode_element(element)
    text = canonical_dumps(doc)
    assert canonical_dumps(json.loads(text)) == text


def test_coefficients_travel_as_strings(mixed_ring):
    element = mixed_ring.scalar(2) * mixed_ring.gen("x") + mixed_ring.gen("th1")
    doc = encode_element(element)
    for term in doc["terms"]:
        assert isinstance(term["coeff"]["re"], str)
        assert isinstance(term["coeff"]["im"], str)


def test_element_schema_errors(grassmann2):
    with pytest.raises(SchemaError):
        parse_element({"terms": []})
    with pytest.raises(SchemaError):
        parse_element({"ring": {"even": [], "odd": ["t"]}, "terms": [{"coeff": "x", "exp": [], "odd": []}]})
    bad_odd = {"ring": {"even": [], "odd": ["t"]},
               "terms": [{"coeff": "1", "exp": [], "odd": [2]}]}
    with pytest.raises(SchemaError):
        parse_element(bad_odd)


def _one_term(exp, odd):
    return {"ring": {"even": ["x"], "odd": ["t1", "t2"]},
            "terms": [{"coeff": "1", "exp": exp, "odd": odd}]}


@pytest.mark.parametrize("parse, doc", [
    (parse_element, _one_term([True], [])),
    (parse_element, _one_term([0], [True])),
    (parse_profile, {"m": True, "n": 1, "r": 0, "s": 0}),
    (parse_matrix, {"shape": {"rows": [True, 0], "cols": [1, 0]},
                    "entries": [[_one_term([0], [])]]}),
])
def test_json_booleans_are_not_integers(parse, doc):
    with pytest.raises(SchemaError):
        parse(doc)


def test_matrix_roundtrip(grassmann4):
    matrix = random_big_cell(grassmann4, BP, trial_rng(3, "matrix", 0))
    assert parse_matrix(encode_matrix(matrix)) == matrix


def test_matrix_schema_rejects_bad_pattern(grassmann2):
    doc = {
        "shape": {"rows": [1, 0], "cols": [1, 0]},
        "entries": [[encode_element(grassmann2.gen("t1"))]],
    }
    with pytest.raises(SchemaError):
        parse_matrix(doc)


def test_profile_roundtrip():
    assert parse_profile(encode_profile(BP)) == BP
    with pytest.raises(SchemaError):
        parse_profile({"m": 1, "n": 1, "r": 2, "s": 0})


def test_ncoords_roundtrip(grassmann4):
    coords = random_ncoords(grassmann4, BP, trial_rng(3, "nc", 0))
    parsed = parse_ncoords(encode_ncoords(coords))
    assert parsed == coords
    assert parsed.profile == BP


def test_ncoords_inconsistent_blocks_are_schema_error(grassmann4):
    doc = encode_ncoords(random_ncoords(grassmann4, BP, trial_rng(3, "nc", 1)))
    doc["eta"] = encode_ncoords(random_ncoords(grassmann4, BlockProfile(2, 3, 1, 2), trial_rng(3, "nc", 2)))["eta"]
    with pytest.raises(SchemaError, match="inconsistent block shapes"):
        parse_ncoords(doc)


def test_point_roundtrip(grassmann4):
    point = random_big_cell_point(grassmann4, BP, trial_rng(3, "pt", 0))
    parsed = parse_grassmann_point(encode_grassmann_point(point))
    assert parsed.profile == point.profile and parsed.span == point.span


def test_presentation_roundtrip():
    ring = SuperRing(["x"], ["s"])
    pres = Presentation(SuperRing(), ["x"], ["s"], [ring.gen("x") ** 2 - ring.one()], [])
    parsed = parse_presentation(encode_presentation(pres))
    assert parsed.relations_even == pres.relations_even
    assert parsed.fiber_odd == ("s",)


def test_rational_point_roundtrip():
    point = RationalPoint({"x": 1, "y": -2})
    doc = encode_rational_point(point)
    assert doc["values"]["x"] == "1"
    parsed = parse_rational_point(doc)
    assert parsed.values == point.values


def test_rational_point_accepts_gaussian_objects():
    parsed = parse_rational_point({"values": {"x": {"re": "1/2", "im": "-3"}}})
    value = parsed.values["x"]
    assert str(value.re) == "1/2" and str(value.im) == "-3"


def test_canonical_dump_is_stable(grassmann4):
    matrix = random_big_cell(grassmann4, BP, trial_rng(3, "stable", 0))
    once = canonical_dumps(encode_matrix(matrix))
    again = canonical_dumps(encode_matrix(parse_matrix(json.loads(once))))
    assert once == again


# -- the writer and the parsers against their standard-library oracles -------------

# characters json escapes, or writes as \uXXXX or as a surrogate pair
_TRICKY = st.sampled_from(['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"])
_TEXT = st.text(st.one_of(_TRICKY, st.characters()), max_size=8)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, -2 ** 64),
              st.integers(2 ** 64, 2 ** 200), _TEXT),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=30,
)


@given(_JSON)
def test_writer_matches_json_dumps(doc):
    assert canonical_dumps(doc) == json_canonical_dumps(doc)


@pytest.mark.parametrize("doc", [1.5, (1, 2), {1: "one"}, {"a": [set()]}, b"bytes"])
def test_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        canonical_dumps(doc)


_PIECES = ["-", "+", " ", "\t", ".", "_", "/", "/0", "0", "1", "2", "7", "9", "\u0661", "\u0663", "e", "E",
           "7" * 4301]
_COEFF_TEXT = st.lists(st.sampled_from(_PIECES), max_size=6).map("".join)
_COEFF_DOC = st.one_of(
    _COEFF_TEXT,
    st.fixed_dictionaries({}, optional={"re": st.one_of(_COEFF_TEXT, st.integers()),
                                        "im": st.one_of(_COEFF_TEXT, st.none())}),
    st.integers(),
)


def _outcome(parse, *args):
    """The parsed value as comparable data, or the SchemaError message."""
    try:
        value = parse(*args)
    except SchemaError as exc:
        return "error", str(exc)
    if hasattr(value, "terms"):
        return value.ring, sorted((key, (c.re_num, c.im_num, c.den)) for key, c in value.terms.items())
    return value.re_num, value.im_num, value.den


@given(_COEFF_DOC)
def test_parse_coeff_matches_fraction_oracle(doc):
    assert _outcome(parse_coeff, doc) == _outcome(fraction_parse_coeff, doc)


@pytest.mark.parametrize("doc, message", [
    ({"re": "x"}, "coeff: missing key 'im'"),
    ({"im": "1"}, "coeff: missing key 're'"),
    ({"re": "1/0", "im": "y"}, "coeff: bad rational '1/0'"),
])
def test_parse_coeff_reads_both_keys_first(doc, message):
    with pytest.raises(SchemaError, match=message):
        parse_coeff(doc)
    assert _outcome(parse_coeff, doc) == _outcome(fraction_parse_coeff, doc)


_RINGS = [SuperRing([], ["t1", "t2"]), SuperRing(["x"], ["t1"]), SuperRing()]


@st.composite
def _element_docs(draw):
    """An element document over one of _RINGS with some of its parts broken,
    and the ring the parser is told to expect (or None)."""
    ring = draw(st.sampled_from(_RINGS))
    written = encode_ring(ring)
    ring_doc = draw(st.sampled_from([
        written,
        {**written, "extra": 1},
        {"odd": written["odd"], "even": written["even"]},
        encode_ring(_RINGS[(_RINGS.index(ring) + 1) % len(_RINGS)]),
        {"even": written["even"]},
        {"even": written["even"], "odd": [1]},
        {"even": ["t1"], "odd": ["t1"]},
        [],
    ]))
    small = st.integers(-1, 2)
    term = st.fixed_dictionaries(
        {"coeff": _COEFF_DOC, "exp": st.lists(small, min_size=ring.n_even, max_size=ring.n_even),
         "odd": st.lists(small, max_size=2).map(sorted)},
    )
    terms = draw(st.lists(term, max_size=3))
    if terms and draw(st.booleans()):
        terms.append(dict(terms[0]))
    for k, item in enumerate(terms):
        broken = draw(st.sampled_from([None, "coeff", "exp", "odd", "exp_bool", "not_a_dict"]))
        if broken in ("coeff", "exp", "odd"):
            del item[broken]
        elif broken == "exp_bool":
            item["exp"] = item["exp"] + [True]
        elif broken == "not_a_dict":
            terms[k] = [item]
    doc = draw(st.sampled_from([{"ring": ring_doc, "terms": terms}, {"ring": ring_doc}, {"terms": terms},
                                {"ring": ring_doc, "terms": {}}]))
    return doc, draw(st.sampled_from([None, ring]))


@given(_element_docs())
def test_parse_element_matches_fraction_oracle(case):
    doc, ring = case
    assert _outcome(parse_element, doc, ring) == _outcome(fraction_parse_element, doc, ring)
