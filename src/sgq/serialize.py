"""JSON interchange for all value types.

All coefficients travel as exact strings ("n" or "n/d" in lowest terms);
structural counts (shapes, exponents, odd indices, profiles) are plain
integers.  Emission is canonical — terms sorted by (exponent vector, odd
indices), keys sorted, two-space indent — so equal values always serialize
to identical bytes.  `canonical_dumps` writes those bytes itself, in one
pass: they are the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline, which the standard library would produce through its
pure-Python encoder.

On input, a coefficient in the written form goes straight to integers; any
other string is read by `Fraction`'s grammar, except exponent notation, and
normalized.  Every parser raises `SchemaError` with the locus of the first
check that fails.
"""

from __future__ import annotations

import re
import textwrap
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional

from .algebra import SuperElement, SuperRing
from .errors import ParityPatternViolation, RingMismatch, SchemaError, ShapeMismatch
from .flag import BlockProfile, NCoordinates
from .grassmannian import GrassmannianPoint
from .matrix import SuperMatrix, SuperShape
from .scalars import GaussianRational, from_ratios, ratio_str
from .smoothness import Presentation, RationalPoint


def canonical_dumps(doc) -> str:
    """The canonical text of a document: dicts with str keys, lists, str,
    int, bool and None.  Any other type raises TypeError."""
    parts: List[str] = []
    _write(doc, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _write(value, parts: List[str], newline: str) -> None:
    # newline is "\n" plus the indent of the line that holds value
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(lead)
            parts.append(_quote(key))
            parts.append(": ")
            _write(value[key], parts, inner)
            lead = "," + inner
        parts.append(newline + "}")
    elif kind is list:
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            parts.append(lead)
            _write(item, parts, inner)
            lead = "," + inner
        parts.append(newline + "]")
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _get(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in obj:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


# -- scalars -------------------------------------------------------------------


def _bad_rational(text: str, where: str, reason: str) -> SchemaError:
    # quote a bounded prefix: the input may hold thousands of digits
    shown = repr(text) if len(text) <= 64 else f"{text[:64]!r}... ({len(text)} characters)"
    return SchemaError(f"{where}: bad rational {shown}: {textwrap.shorten(reason, 160)}")


def _fraction_from_str(text: str, where: str) -> Fraction:
    # Fraction accepts exponent notation, and "1e999999999" would build a
    # billion-digit integer; emitted coefficients never carry an exponent
    if "e" in text or "E" in text:
        raise _bad_rational(text, where, "exponent notation is not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction's own message may quote the whole literal; shorten drops it
        raise _bad_rational(text, where, str(exc)) from None


# the form coefficients are written in: ASCII digits, no sign but "-"
_WRITTEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def _ratio_from_str(text: str, where: str):
    """(numerator, denominator > 0) of a coefficient string."""
    written = _WRITTEN(text)
    if written is not None:
        num, den = written.groups()
        try:
            den = int(den) if den else 1
            if den:
                return int(num), den
        except ValueError:
            pass  # over the int digit limit: Fraction reports it below
    value = _fraction_from_str(text, where)
    return value.numerator, value.denominator


def encode_coeff(value: GaussianRational) -> Dict[str, str]:
    return {"re": ratio_str(value.re_num, value.den), "im": ratio_str(value.im_num, value.den)}


def parse_coeff(obj, where="coeff") -> GaussianRational:
    if isinstance(obj, str):
        return from_ratios(*_ratio_from_str(obj, where))
    re_text = _get(obj, "re", str, where)
    im_text = _get(obj, "im", str, where)
    return from_ratios(*_ratio_from_str(re_text, where), *_ratio_from_str(im_text, where))


# -- rings and elements ----------------------------------------------------------


def encode_ring(ring: SuperRing) -> Dict:
    return {"even": list(ring.even_vars), "odd": list(ring.odd_vars)}


def parse_ring(obj, where="ring") -> SuperRing:
    even = _get(obj, "even", list, where)
    odd = _get(obj, "odd", list, where)
    if not all(isinstance(v, str) for v in even + odd):
        raise SchemaError(f"{where}: variable names must be strings")
    try:
        return SuperRing(even, odd)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def encode_element(element: SuperElement) -> Dict:
    terms = []
    for (exp, odd), coeff in element.sorted_terms():
        terms.append({"coeff": encode_coeff(coeff), "exp": list(exp), "odd": list(odd)})
    return {"ring": encode_ring(element.ring), "terms": terms}


def parse_element(obj, ring: SuperRing = None, where="element") -> SuperElement:
    embedded = _get(obj, "ring", dict, where)
    if ring is None:
        ring = parse_ring(embedded, f"{where}.ring")
    elif embedded != encode_ring(ring) and parse_ring(embedded, f"{where}.ring") != ring:
        # the written form of the ring is the ring; anything else is read first
        raise SchemaError(f"{where}: embedded ring differs from the expected ring")
    raw = _get(obj, "terms", list, where)
    terms = {}
    for k, item in enumerate(raw):
        spot = f"{where}.terms[{k}]"
        coeff = parse_coeff(_get(item, "coeff", (dict, str), spot), f"{spot}.coeff")
        exp = _get(item, "exp", list, spot)
        odd = _get(item, "odd", list, spot)
        if not all(_is_int(e) for e in exp):
            raise SchemaError(f"{spot}.exp: must be integers")
        if not all(_is_int(i) for i in odd):
            raise SchemaError(f"{spot}.odd: must be integers")
        key = (tuple(exp), tuple(odd))
        if key in terms:
            raise SchemaError(f"{spot}: duplicate monomial")
        terms[key] = coeff
    try:
        return ring.element(terms)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


# -- matrices ---------------------------------------------------------------------


def encode_matrix(matrix: SuperMatrix) -> Dict:
    return {
        "shape": {"rows": list(matrix.shape.rows), "cols": list(matrix.shape.cols)},
        "entries": [[encode_element(e) for e in row] for row in matrix.entries],
    }


def parse_matrix(obj, ring: SuperRing = None, where="matrix") -> SuperMatrix:
    shape_obj = _get(obj, "shape", dict, where)
    rows = _get(shape_obj, "rows", list, f"{where}.shape")
    cols = _get(shape_obj, "cols", list, f"{where}.shape")
    if not (len(rows) == 2 and len(cols) == 2 and all(_is_int(k) and k >= 0 for k in rows + cols)):
        raise SchemaError(f"{where}.shape: rows and cols must be pairs of nonnegative integers")
    shape = SuperShape((rows[0], rows[1]), (cols[0], cols[1]))
    raw = _get(obj, "entries", list, where)
    if len(raw) != shape.n_rows:
        raise SchemaError(f"{where}: expected {shape.n_rows} entry rows, got {len(raw)}")
    entries: List[List[SuperElement]] = []
    for i, raw_row in enumerate(raw):
        if not (isinstance(raw_row, list) and len(raw_row) == shape.n_cols):
            raise SchemaError(f"{where}.entries[{i}]: expected {shape.n_cols} entries")
        row = []
        for j, cell in enumerate(raw_row):
            element = parse_element(cell, ring, f"{where}.entries[{i}][{j}]")
            if ring is None:
                ring = element.ring
            row.append(element)
        entries.append(row)
    if ring is None:
        raise SchemaError(f"{where}: cannot infer the ring of an empty matrix")
    try:
        return SuperMatrix(ring, shape, entries)
    except (ParityPatternViolation, RingMismatch, ShapeMismatch) as exc:
        raise SchemaError(f"{where}: {exc}") from None


# -- profiles, coordinates, points -------------------------------------------------


def encode_profile(bp: BlockProfile) -> Dict:
    return {"m": bp.m, "n": bp.n, "r": bp.r, "s": bp.s}


def parse_profile(obj, where="profile") -> BlockProfile:
    values = [_get(obj, key, int, where) for key in ("m", "n", "r", "s")]
    try:
        return BlockProfile(*values)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def encode_ncoords(coords: NCoordinates) -> Dict:
    return {
        "u": encode_matrix(coords.u),
        "eta": encode_matrix(coords.eta),
        "xi": encode_matrix(coords.xi),
        "v": encode_matrix(coords.v),
    }


def _peek_ring(obj) -> Optional[SuperRing]:
    """The ring embedded in the first entry of a matrix document, if any."""
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if isinstance(entries, list):
        for row in entries:
            if isinstance(row, list):
                for cell in row:
                    if isinstance(cell, dict) and "ring" in cell:
                        return parse_ring(cell["ring"])
    return None


def parse_ncoords(obj, ring: SuperRing = None, where="ncoords") -> NCoordinates:
    if ring is None:
        # some blocks may be empty (0 x k); take the ring from any filled one
        for key in ("u", "eta", "xi", "v"):
            ring = _peek_ring(_get(obj, key, dict, where))
            if ring is not None:
                break
        else:
            ring = SuperRing()
    u = parse_matrix(_get(obj, "u", dict, where), ring, f"{where}.u")
    eta = parse_matrix(_get(obj, "eta", dict, where), ring, f"{where}.eta")
    xi = parse_matrix(_get(obj, "xi", dict, where), ring, f"{where}.xi")
    v = parse_matrix(_get(obj, "v", dict, where), ring, f"{where}.v")
    m_r, r = u.shape.rows[0], u.shape.cols[0]
    n_s, s = v.shape.rows[1], v.shape.cols[1]
    profile = BlockProfile(m_r + r, n_s + s, r, s)
    try:
        return NCoordinates(profile, u, eta, xi, v)
    except ShapeMismatch as exc:
        raise SchemaError(f"{where}: inconsistent block shapes: {exc}") from None


def encode_grassmann_point(point: GrassmannianPoint) -> Dict:
    return {"profile": encode_profile(point.profile), "span": encode_matrix(point.span)}


def parse_grassmann_point(obj, where="point") -> GrassmannianPoint:
    profile = parse_profile(_get(obj, "profile", dict, where), f"{where}.profile")
    span = parse_matrix(_get(obj, "span", dict, where), None, f"{where}.span")
    # a rank-deficient span is a domain error, not a schema error: let it raise
    try:
        return GrassmannianPoint(profile, span)
    except ShapeMismatch as exc:
        raise SchemaError(f"{where}: {exc}") from None


# -- presentations -------------------------------------------------------------------


def encode_presentation(pres: Presentation) -> Dict:
    return {
        "base": encode_ring(pres.base),
        "fiber": {"even": list(pres.fiber_even), "odd": list(pres.fiber_odd)},
        "relations_even": [encode_element(rel) for rel in pres.relations_even],
        "relations_odd": [encode_element(rel) for rel in pres.relations_odd],
    }


def parse_presentation(obj, where="presentation") -> Presentation:
    base = parse_ring(_get(obj, "base", dict, where), f"{where}.base")
    fiber = parse_ring(_get(obj, "fiber", dict, where), f"{where}.fiber")
    total = SuperRing(base.even_vars + fiber.even_vars, base.odd_vars + fiber.odd_vars)
    rel_even = [
        parse_element(item, total, f"{where}.relations_even[{k}]")
        for k, item in enumerate(_get(obj, "relations_even", list, where))
    ]
    rel_odd = [
        parse_element(item, total, f"{where}.relations_odd[{k}]")
        for k, item in enumerate(_get(obj, "relations_odd", list, where))
    ]
    try:
        return Presentation(base, fiber.even_vars, fiber.odd_vars, rel_even, rel_odd)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def encode_rational_point(pt: RationalPoint) -> Dict:
    values = {}
    for name in sorted(pt.values):
        value = pt.values[name]
        values[name] = ratio_str(value.re_num, value.den) if not value.im_num else encode_coeff(value)
    return {"values": values}


def parse_rational_point(obj, where="point") -> RationalPoint:
    raw = _get(obj, "values", dict, where)
    values = {}
    for name, item in raw.items():
        if not isinstance(name, str):
            raise SchemaError(f"{where}.values: variable names must be strings")
        values[name] = parse_coeff(item, f"{where}.values[{name}]")
    return RationalPoint(values)
