import json

import pytest

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
