import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import fraction_parse_coeff, fraction_parse_element, fraction_parse_matrix, json_canonical_dumps
from sgq import BlockProfile, GaussianRational, GrassmannianPoint, LimitExceeded, SchemaError, SuperMatrix, SuperRing
from sgq.flag import NCoordinates
from sgq.sampling import random_big_cell, random_big_cell_point, random_element, random_ncoords, trial_rng
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


# 1/10^4300: a denominator of 4,301 digits, one more than reading accepts
_UNREADABLE = GaussianRational(0, Fraction(1, 10 ** 4300))
_TOO_LONG = ": 4301 digits, over the 4300 that reading accepts"


def test_encoders_name_a_coefficient_too_long_to_read(grassmann4):
    ring = grassmann4
    big = ring.scalar(_UNREADABLE)
    cases = [
        (lambda: encode_coeff(_UNREADABLE), ".im"),
        (lambda: encode_element(ring.one() + big * ring.gen("t1") * ring.gen("t2")), ".terms[1].coeff.im"),
        (lambda: encode_rational_point(RationalPoint({"x": 1, "y": Fraction(1, 10 ** 4300)})), ".values[y]"),
    ]
    coords = random_ncoords(ring, BP, trial_rng(3, "nc", 0))
    v = SuperMatrix(ring, coords.v.shape, [[big]])
    cases.append((lambda: encode_ncoords(NCoordinates(BP, coords.u, coords.eta, coords.xi, v)),
                  ".v.entries[0][0].terms[0].coeff.im"))
    point = random_big_cell_point(ring, BP, trial_rng(3, "pt", 0))
    first = next(j for j, e in enumerate(point.span.entries[1]) if e.terms)
    span = SuperMatrix(ring, point.span.shape, [point.span.entries[0], [e * big for e in point.span.entries[1]],
                                                 *point.span.entries[2:]])
    cases.append((lambda: encode_grassmann_point(GrassmannianPoint(BP, span)), f".span.entries[1][{first}].terms[0].coeff.im"))
    fiber = SuperRing(["x"], ["s"])
    pres = Presentation(SuperRing(), ["x"], ["s"], [fiber.gen("x") - fiber.one()], [fiber.gen("s") * _UNREADABLE])
    cases.append((lambda: encode_presentation(pres), ".relations_odd[0].terms[0].coeff.im"))
    for encode, locus in cases:
        with pytest.raises(LimitExceeded) as err:
            encode()
        assert str(err.value) == locus + _TOO_LONG


def test_a_coefficient_at_the_reading_limit_is_written():
    value = GaussianRational(-(10 ** 4299), Fraction(1, 10 ** 4299))
    assert parse_coeff(encode_coeff(value)) == value


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
    if hasattr(value, "entries"):
        return value.ring, value.shape, [[_element_data(e) for e in row] for row in value.entries]
    if hasattr(value, "terms"):
        return value.ring, _element_data(value)
    return value.re_num, value.im_num, value.den


def _element_data(element):
    return sorted((key, (c.re_num, c.im_num, c.den)) for key, c in element.terms.items())


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
        broken = draw(st.sampled_from([None, None, "coeff", "exp", "odd", "exp_bool", "odd_bool", "not_a_dict",
                                       "exp_length", "odd_order", "odd_repeat", "odd_huge"]))
        if broken in ("coeff", "exp", "odd"):
            del item[broken]
        elif broken == "exp_bool":
            item["exp"] = item["exp"] + [True]
        elif broken == "odd_bool":
            item["odd"] = [True]
        elif broken == "not_a_dict":
            terms[k] = [item]
        elif broken == "exp_length":
            item["exp"] = item["exp"] + [0]
        elif broken == "odd_order":
            item["odd"] = [1, 0]
        elif broken == "odd_repeat":
            item["odd"] = [0, 0]
        elif broken == "odd_huge":
            item["odd"] = [0, 10 ** 30]
    doc = draw(st.sampled_from([{"ring": ring_doc, "terms": terms}, {"ring": ring_doc}, {"terms": terms},
                                {"ring": ring_doc, "terms": {}}]))
    return doc, draw(st.sampled_from([None, ring]))


@given(_element_docs())
def test_parse_element_matches_fraction_oracle(case):
    doc, ring = case
    assert _outcome(parse_element, doc, ring) == _outcome(fraction_parse_element, doc, ring)


_INDEX = st.one_of(st.integers(-1, 3), st.just(10 ** 30), st.just(True))


@st.composite
def _term_lists(draw):
    """A ring and an element document over it whose terms are well formed
    up to their exponent vectors and odd indices, which are mostly valid but
    may be short, long, negative, unsorted, repeated, out of range or not
    integers."""
    ring = draw(st.sampled_from(_RINGS))
    exp = st.one_of(
        st.lists(st.integers(0, 2), min_size=ring.n_even, max_size=ring.n_even),
        st.sampled_from([ring.n_even, ring.n_even + 1, max(ring.n_even - 1, 0)]).flatmap(
            lambda k: st.lists(st.integers(-1, 2), min_size=k, max_size=k)),
    )
    odd = st.one_of(
        st.sets(st.integers(0, ring.n_odd - 1), max_size=ring.n_odd).map(sorted) if ring.n_odd else st.just([]),
        st.lists(_INDEX, max_size=3),
    )
    term = st.fixed_dictionaries({"coeff": st.sampled_from(["0", "1", {"re": "-1/2", "im": "3"}]),
                                  "exp": exp, "odd": odd})
    terms = draw(st.lists(term, max_size=4))
    if terms and draw(st.booleans()):
        terms.append(draw(st.sampled_from(terms)))
    return {"ring": encode_ring(ring), "terms": terms}, ring


@settings(max_examples=300)
@given(_term_lists())
def test_term_walk_matches_two_walk_oracle(case):
    doc, ring = case
    assert _outcome(parse_element, doc, ring) == _outcome(fraction_parse_element, doc, ring)

@st.composite
def _cell_docs(draw, ring, parity):
    """An element document over `ring` whose terms mostly have the given
    parity, with coefficients that may be zero."""
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        odd = set(draw(st.lists(st.integers(0, ring.n_odd - 1), max_size=ring.n_odd))) if ring.n_odd else set()
        if len(odd) % 2 != parity and draw(st.integers(0, 3)):
            if not ring.n_odd:
                continue
            odd ^= {0}
        exp = draw(st.lists(st.integers(0, 2), min_size=ring.n_even, max_size=ring.n_even))
        terms[tuple(exp), tuple(sorted(odd))] = {
            "coeff": draw(st.sampled_from(["0", "1", "-2/3", {"re": "0", "im": "1/2"}])),
            "exp": exp, "odd": sorted(odd)}
    return {"ring": encode_ring(ring), "terms": list(terms.values())}


@st.composite
def _matrix_docs(draw):
    """A matrix document of shape at most (2|2) x (2|2) with some of its parts
    broken, and the ring the parser is told to expect (or None)."""
    ring = draw(st.sampled_from(_RINGS))
    rows, cols = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2)), draw(
        st.lists(st.integers(0, 2), min_size=2, max_size=2))
    entries = [[draw(_cell_docs(ring, (i >= rows[0]) ^ (j >= cols[0]))) for j in range(sum(cols))]
               for i in range(sum(rows))]
    doc = {"shape": {"rows": rows, "cols": cols}, "entries": entries}
    cells = [(i, j) for i in range(len(entries)) for j in range(len(entries[i]))]
    if cells:
        for i, j in draw(st.lists(st.sampled_from(cells), max_size=2)):
            entries[i][j] = draw(_element_docs())[0]
    broken = draw(st.sampled_from([None] * 4 + ["shape", "shape_bool", "entries", "row_count", "row_length",
                                               "row_type"]))
    if broken in ("shape", "entries"):
        del doc[broken]
    elif broken == "shape_bool":
        doc["shape"] = {"rows": [True, rows[1]], "cols": cols}
    elif broken == "row_count":
        entries.append([])
    elif broken in ("row_length", "row_type") and entries:
        entries[-1] = entries[-1][:-1] if broken == "row_length" else {"cells": entries[-1]}
    return doc, draw(st.sampled_from([None, None, ring, _RINGS[(_RINGS.index(ring) + 1) % len(_RINGS)]]))


@given(_matrix_docs())
def test_parse_matrix_matches_three_walk_oracle(case):
    doc, ring = case
    assert _outcome(parse_matrix, doc, ring) == _outcome(fraction_parse_matrix, doc, ring)


def _two_by_two(cells):
    """A (1|1) matrix document over Lambda[t1, t2]: 1 on the diagonal and 0
    off it, with `cells` replacing the term lists of some entries."""
    rows = [[[{"coeff": "1", "exp": [], "odd": []}], []], [[], [{"coeff": "1", "exp": [], "odd": []}]]]
    for (i, j), terms in cells.items():
        rows[i][j] = terms
    ring = {"even": [], "odd": ["t1", "t2"]}
    return {"shape": {"rows": [1, 1], "cols": [1, 1]},
            "entries": [[{"ring": ring, "terms": terms} for terms in row] for row in rows]}


@pytest.mark.parametrize("cells, message", [
    # an element's own faults end its walk: a later entry is never read
    ({(0, 0): [{"coeff": "1", "exp": [], "odd": [0, 5]}], (1, 1): [{"coeff": "x", "exp": [], "odd": []}]},
     "matrix.entries[0][0]: odd index tuple (0, 5) out of range for 2 odd generators"),
    # a parity fault waits for the whole matrix
    ({(0, 1): [{"coeff": "1", "exp": [], "odd": []}], (1, 1): [{"coeff": "1", "odd": []}]},
     "matrix.entries[1][1].terms[0]: missing key 'exp'"),
    ({(0, 1): [{"coeff": "1", "exp": [], "odd": []}]},
     "matrix: entry (0, 1) must be odd: 1"),
    # an exponent or odd-index fault waits for the schema checks of its element
    ({(0, 0): [{"coeff": "1", "exp": [], "odd": [0, 5]}, {"coeff": "x", "exp": [], "odd": []}]},
     "matrix.entries[0][0].terms[1].coeff: bad rational 'x': Invalid literal for Fraction: 'x'"),
    ({(0, 0): [{"coeff": "1", "exp": [0], "odd": []}, {"coeff": "1", "exp": [0], "odd": []}]},
     "matrix.entries[0][0].terms[1]: duplicate monomial"),
    ({(0, 0): [{"coeff": "1", "exp": [], "odd": [1, 0]}, {"coeff": "1", "exp": [-1], "odd": []}]},
     "matrix.entries[0][0]: odd index tuple (1, 0) is not strictly increasing"),
    # no mask is built before the range check
    ({(0, 0): [{"coeff": "1", "exp": [], "odd": [0, 10 ** 30]}]},
     f"matrix.entries[0][0]: odd index tuple (0, {10 ** 30}) out of range for 2 odd generators"),
])
def test_fault_order(cells, message):
    doc = _two_by_two(cells)
    assert _outcome(parse_matrix, doc) == ("error", message) == _outcome(fraction_parse_matrix, doc)


@pytest.mark.parametrize("exp, odd, message", [
    ([-1], [], "bad exponent vector (-1,) for ring with 1 even generators"),
    ([0, 0], [], "bad exponent vector (0, 0) for ring with 1 even generators"),
    ([], [], "bad exponent vector () for ring with 1 even generators"),
    ([0], [0, 0], "odd index tuple (0, 0) is not strictly increasing"),
    ([0], [-1], "odd index tuple (-1,) out of range for 1 odd generators"),
    ([0], [1], "odd index tuple (1,) out of range for 1 odd generators"),
])
def test_misfit_term(exp, odd, message):
    doc = {"ring": {"even": ["x"], "odd": ["t1"]}, "terms": [{"coeff": "1", "exp": exp, "odd": odd}]}
    assert _outcome(parse_element, doc) == ("error", f"element: {message}") == _outcome(fraction_parse_element, doc)

def test_zero_terms_neither_count_for_parity_nor_stay():
    doc = _two_by_two({(0, 1): [{"coeff": "0", "exp": [], "odd": []}, {"coeff": "2", "exp": [], "odd": [1]}]})
    matrix = parse_matrix(doc)
    assert matrix.entries[0][1] == SuperRing([], ["t1", "t2"]).element({((), (1,)): 2})
