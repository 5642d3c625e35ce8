"""JSON interchange for all value types.

All coefficients travel as exact strings ("n" or "n/d" in lowest terms);
structural counts (shapes, exponents, odd indices, profiles) are plain
integers.  Emission is canonical — terms sorted by (exponent vector, odd
indices), keys sorted, two-space indent — so equal values always serialize
to identical bytes.  `canonical_dumps` writes those bytes itself, in one
pass: they are the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``
plus a newline, which the standard library would produce through its
pure-Python encoder.

On input, each document is read in one walk that checks it and builds the
value.  A coefficient in the written form goes straight to an integer
triple; any other string is read by `Fraction`'s grammar, except exponent
notation, and normalized.  Every parser raises `SchemaError` with the locus
of the first check that fails, in document order, but for two kinds of
fault that wait: an exponent vector or odd index list that does not fit the
ring is reported once its element has passed its schema checks, and an
entry of the wrong parity once the whole matrix has been read.
"""

from __future__ import annotations

import re
import sys
import textwrap
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional

from .algebra import SuperElement, SuperRing, TermKey
from .errors import LimitExceeded, SchemaError, ShapeMismatch
from .flag import BlockProfile, NCoordinates
from .grassmannian import GrassmannianPoint
from .matrix import SuperMatrix, SuperShape
from .scalars import GaussianRational, from_ratios, from_triple, ratio_str
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


class _Fault(Exception):
    """A schema fault at `path`, a locus relative to the value being read.

    The readers below raise it.  A reader that calls a reader for a part of
    its value (a matrix cell, a term, a block) puts the part's place in front
    of the path as the fault passes, and `_parse` puts the caller's locus in
    front of that.  So a locus is formatted only when a check fails.
    """

    def __init__(self, path: str, text: str):
        super().__init__(path, text)
        self.path = path
        self.text = text

    def under(self, prefix: str) -> "_Fault":
        self.path = prefix + self.path
        return self


def _parse(where: str, read, obj, *args):
    """read(obj, *args), with a fault raised as SchemaError at `where`."""
    try:
        return read(obj, *args)
    except _Fault as fault:
        raise SchemaError(f"{where}{fault.path}: {fault.text}") from None


def _get(obj, key, kind, path=""):
    if not isinstance(obj, dict):
        raise _Fault(path, "expected an object")
    if key not in obj:
        raise _Fault(path, f"missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise _Fault(f"{path}.{key}", f"wrong type {type(value).__name__}")
    return value


# -- scalars -------------------------------------------------------------------


def _bad_rational(text: str, path: str, reason: str) -> _Fault:
    # quote a bounded prefix: the input may hold thousands of digits
    shown = repr(text) if len(text) <= 64 else f"{text[:64]!r}... ({len(text)} characters)"
    return _Fault(path, f"bad rational {shown}: {textwrap.shorten(reason, 160)}")


def _fraction(text: str, path: str) -> Fraction:
    # Fraction accepts exponent notation, and "1e999999999" would build a
    # billion-digit integer; emitted coefficients never carry an exponent
    if "e" in text or "E" in text:
        raise _bad_rational(text, path, "exponent notation is not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction's own message may quote the whole literal; shorten drops it
        raise _bad_rational(text, path, str(exc)) from None


# the form coefficients are written in: ASCII digits, no sign but "-"
_WRITTEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def _ratio(text: str, path: str):
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
    value = _fraction(text, path)
    return value.numerator, value.denominator


def _read_coeff(obj, path="") -> GaussianRational:
    if isinstance(obj, str):
        re_text, im_text = obj, "0"
    else:
        # the JSON types go straight through; _get states a fault, or
        # passes a subclass of str
        re_text = obj.get("re") if type(obj) is dict else None
        im_text = obj.get("im") if type(obj) is dict else None
        if type(re_text) is not str or type(im_text) is not str:
            re_text, im_text = _get(obj, "re", str, path), _get(obj, "im", str, path)
    a, d1 = _ratio(re_text, path)
    b, d2 = (0, 1) if im_text == "0" else _ratio(im_text, path)
    return from_triple(a, b, 1) if d1 == d2 == 1 else from_ratios(a, d1, b, d2)


# a string this short parses at any int_max_str_digits, which is 0 or >= 640
_ALWAYS_READABLE = 640


def _check_readable(text: str, path: str) -> None:
    """LimitExceeded at `path` when an integer of the written coefficient `text`
    has more digits than int() reads, so no document holding it could be read."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for digits in text.lstrip("-").split("/"):
        if limit and len(digits) > limit:
            raise LimitExceeded(f"{path}: {len(digits)} digits, over the {limit} that reading accepts")


def encode_coeff(value: GaussianRational) -> Dict[str, str]:
    """The written coefficient.  A part with an integer too long to read back
    raises LimitExceeded with its locus, here ".re" or ".im"; the encoders of
    larger values put the coefficient's place in front of it."""
    re_text, im_text = ratio_str(value.re_num, value.den), ratio_str(value.im_num, value.den)
    if len(re_text) > _ALWAYS_READABLE or len(im_text) > _ALWAYS_READABLE:
        _check_readable(re_text, ".re")
        _check_readable(im_text, ".im")
    return {"re": re_text, "im": im_text}


def parse_coeff(obj, where="coeff") -> GaussianRational:
    return _parse(where, _read_coeff, obj)


# -- rings and elements ----------------------------------------------------------


def encode_ring(ring: SuperRing) -> Dict:
    return {"even": list(ring.even_vars), "odd": list(ring.odd_vars)}


def _check_names(names, path: str) -> None:
    # a name is quoted as written in diagnostics, so a line break in one would split them
    if not all(isinstance(v, str) for v in names):
        raise _Fault(path, "variable names must be strings")
    if not all(v.isprintable() for v in names):
        raise _Fault(path, "variable names must be printable")


def _read_ring(obj, path="") -> SuperRing:
    even = _get(obj, "even", list, path)
    odd = _get(obj, "odd", list, path)
    _check_names(even + odd, path)
    try:
        return SuperRing(even, odd)
    except ValueError as exc:
        raise _Fault(path, str(exc)) from None


def parse_ring(obj, where="ring") -> SuperRing:
    return _parse(where, _read_ring, obj)


# an int below 2**2126 < 10**640 has at most 640 digits
_ALWAYS_READABLE_BITS = 2126


def encode_element(element: SuperElement) -> Dict:
    """The written element.  A coefficient or exponent too long to read back
    raises LimitExceeded with its locus, ".terms[k].coeff.re" or ".terms[k].exp[i]"."""
    terms = []
    try:
        for (exp, odd), coeff in element.sorted_terms():
            try:
                written = encode_coeff(coeff)
            except LimitExceeded as exc:
                raise LimitExceeded(f".coeff{exc}") from None
            if exp and max(exp).bit_length() > _ALWAYS_READABLE_BITS:
                for i, e in enumerate(exp):
                    _check_readable(ratio_str(e, 1), f".exp[{i}]")
            terms.append({"coeff": written, "exp": list(exp), "odd": list(odd)})
    except LimitExceeded as exc:
        raise LimitExceeded(f".terms[{len(terms)}]{exc}") from None
    return {"ring": encode_ring(element.ring), "terms": terms}


def _read_terms(raw: list, ring: SuperRing):
    """The term map of an element's "terms" list, read in one walk, and the
    parities of its nonzero terms (bit p set when one has parity p).

    The odd indices of a term are checked for order and range before any
    shift builds its mask.  A term whose exponent vector or odd indices do
    not fit the ring is held, and the first one is raised only once every
    term has passed its schema checks.
    """
    n_even, n_odd = ring.n_even, ring.n_odd
    terms: Dict[TermKey, GaussianRational] = {}
    misfits = set()  # the written (exp, odd) keys of the held terms
    held = None
    parities = 0
    zeros = False
    for k, item in enumerate(raw):
        try:
            if not isinstance(item, dict):
                raise _Fault("", "expected an object")
            # as in _read_coeff, _get only sees what is not of a JSON type
            coeff = item.get("coeff")
            if type(coeff) is not dict and type(coeff) is not str:
                coeff = _get(item, "coeff", (dict, str))
            coeff = _read_coeff(coeff, ".coeff")
            exp = item.get("exp")
            if type(exp) is not list:
                exp = _get(item, "exp", list)
            odd = item.get("odd")
            if type(odd) is not list:
                odd = _get(item, "odd", list)
            fits = len(exp) == n_even
            for e in exp:
                if type(e) is not int and not _is_int(e):
                    raise _Fault(".exp", "must be integers")
                if e < 0:
                    fits = False
            mask, last = 0, -1
            for i in odd:
                if type(i) is not int and not _is_int(i):
                    raise _Fault(".odd", "must be integers")
                if last < i < n_odd:
                    mask |= 1 << i
                    last = i
                else:
                    fits = False
            if fits:
                key = (tuple(exp), mask)
                if key in terms:
                    raise _Fault("", "duplicate monomial")
                terms[key] = coeff
                if coeff.re_num or coeff.im_num:
                    parities |= 1 << (mask.bit_count() & 1)
                else:
                    zeros = True
            else:
                written = (tuple(exp), tuple(odd))
                if written in misfits:
                    raise _Fault("", "duplicate monomial")
                misfits.add(written)
                if held is None:
                    held = written
        except _Fault as fault:
            raise fault.under(f".terms[{k}]")
    if held is not None:
        exp, odd = held
        if len(exp) != n_even or any(e < 0 for e in exp):
            text = f"bad exponent vector {exp} for ring with {n_even} even generators"
        elif any(odd[k] >= odd[k + 1] for k in range(len(odd) - 1)):
            text = f"odd index tuple {odd} is not strictly increasing"
        else:
            text = f"odd index tuple {odd} out of range for {n_odd} odd generators"
        raise _Fault("", text)
    if zeros:
        terms = {key: coeff for key, coeff in terms.items() if coeff.re_num or coeff.im_num}
    return terms, parities


def _read_element(obj, ring: Optional[SuperRing], form: Optional[Dict]):
    """(element, the parities of its nonzero terms) from an element document.

    Without a ring the embedded one is read.  With one, the embedded ring
    must equal it: `form` is its written form, and any other object is read
    before it is compared.
    """
    embedded = _get(obj, "ring", dict)
    if ring is None:
        ring = _read_ring(embedded, ".ring")
    elif embedded != form and _read_ring(embedded, ".ring") != ring:
        raise _Fault("", "embedded ring differs from the expected ring")
    terms, parities = _read_terms(_get(obj, "terms", list), ring)
    return SuperElement(ring, terms), parities


def parse_element(obj, ring: SuperRing = None, where="element") -> SuperElement:
    return _parse(where, _read_element, obj, ring, None if ring is None else encode_ring(ring))[0]


# -- matrices ---------------------------------------------------------------------


def encode_matrix(matrix: SuperMatrix) -> Dict:
    entries: List[List[Dict]] = []
    try:
        for row in matrix.entries:
            cells: List[Dict] = []
            entries.append(cells)
            for entry in row:
                cells.append(encode_element(entry))
    except LimitExceeded as exc:
        raise LimitExceeded(f".entries[{len(entries) - 1}][{len(cells)}]{exc}") from None
    return {"shape": {"rows": list(matrix.shape.rows), "cols": list(matrix.shape.cols)}, "entries": entries}


def _read_matrix(obj, ring: Optional[SuperRing], form: Optional[Dict]) -> SuperMatrix:
    """A matrix document read in one walk: each entry's parity is taken from
    its masks as it is read, and the first misplaced entry is raised only
    once the whole matrix has passed its other checks."""
    shape_obj = _get(obj, "shape", dict)
    rows = _get(shape_obj, "rows", list, ".shape")
    cols = _get(shape_obj, "cols", list, ".shape")
    if not (len(rows) == 2 and len(cols) == 2 and all(_is_int(k) and k >= 0 for k in rows + cols)):
        raise _Fault(".shape", "rows and cols must be pairs of nonnegative integers")
    shape = SuperShape((rows[0], rows[1]), (cols[0], cols[1]))
    raw = _get(obj, "entries", list)
    n_rows, n_cols = shape.n_rows, shape.n_cols
    if len(raw) != n_rows:
        raise _Fault("", f"expected {n_rows} entry rows, got {len(raw)}")
    entries: List[List[SuperElement]] = []
    misplaced = None
    for i, raw_row in enumerate(raw):
        if not (isinstance(raw_row, list) and len(raw_row) == n_cols):
            raise _Fault(f".entries[{i}]", f"expected {n_cols} entries")
        row_odd = i >= rows[0]
        row = []
        for j, cell in enumerate(raw_row):
            try:
                element, parities = _read_element(cell, ring, form)
            except _Fault as fault:
                raise fault.under(f".entries[{i}][{j}]")
            if ring is None:
                ring, form = element.ring, encode_ring(element.ring)
            # an entry at an even place may hold no odd term, and vice versa
            forced = row_odd ^ (j >= cols[0])
            if parities >> (1 - forced) & 1 and misplaced is None:
                misplaced = (i, j, forced, element)
            row.append(element)
        entries.append(row)
    if ring is None:
        raise _Fault("", "cannot infer the ring of an empty matrix")
    if misplaced is not None:
        i, j, forced, element = misplaced
        raise _Fault("", f"entry ({i}, {j}) must be {'odd' if forced else 'even'}: {element!r}")
    return SuperMatrix._raw(ring, shape, entries)


def parse_matrix(obj, ring: SuperRing = None, where="matrix") -> SuperMatrix:
    return _parse(where, _read_matrix, obj, ring, None if ring is None else encode_ring(ring))


# -- profiles, coordinates, points -------------------------------------------------


def encode_profile(bp: BlockProfile) -> Dict:
    return {"m": bp.m, "n": bp.n, "r": bp.r, "s": bp.s}


def _read_profile(obj, path="") -> BlockProfile:
    values = [_get(obj, key, int, path) for key in ("m", "n", "r", "s")]
    try:
        return BlockProfile(*values)
    except ValueError as exc:
        raise _Fault(path, str(exc)) from None


def parse_profile(obj, where="profile") -> BlockProfile:
    return _parse(where, _read_profile, obj)


_BLOCKS = ("u", "eta", "xi", "v")


def encode_ncoords(coords: NCoordinates) -> Dict:
    doc = {}
    try:
        for name in _BLOCKS:
            doc[name] = encode_matrix(getattr(coords, name))
    except LimitExceeded as exc:
        raise LimitExceeded(f".{name}{exc}") from None
    return doc


def _peek_ring(obj) -> Optional[SuperRing]:
    """The ring embedded in the first filled entry of a matrix document, if any."""
    entries = obj.get("entries")
    if isinstance(entries, list):
        for i, row in enumerate(entries):
            if isinstance(row, list):
                for j, cell in enumerate(row):
                    if isinstance(cell, dict) and "ring" in cell:
                        try:
                            return _read_ring(cell["ring"], ".ring")
                        except _Fault as fault:
                            raise fault.under(f".entries[{i}][{j}]")
    return None


def _read_ncoords(obj, ring: Optional[SuperRing]) -> NCoordinates:
    if ring is None:
        # some blocks may be empty (0 x k); take the ring from any filled one
        for key in _BLOCKS:
            block = _get(obj, key, dict)
            try:
                ring = _peek_ring(block)
            except _Fault as fault:
                raise fault.under(f".{key}")
            if ring is not None:
                break
        else:
            ring = SuperRing()
    form = encode_ring(ring)
    blocks = []
    for key in _BLOCKS:
        block = _get(obj, key, dict)
        try:
            blocks.append(_read_matrix(block, ring, form))
        except _Fault as fault:
            raise fault.under(f".{key}")
    u, eta, xi, v = blocks
    m_r, r = u.shape.rows[0], u.shape.cols[0]
    n_s, s = v.shape.rows[1], v.shape.cols[1]
    profile = BlockProfile(m_r + r, n_s + s, r, s)
    try:
        return NCoordinates(profile, u, eta, xi, v)
    except ShapeMismatch as exc:
        raise _Fault("", f"inconsistent block shapes: {exc}") from None


def parse_ncoords(obj, ring: SuperRing = None, where="ncoords") -> NCoordinates:
    return _parse(where, _read_ncoords, obj, ring)


def encode_grassmann_point(point: GrassmannianPoint) -> Dict:
    try:
        span = encode_matrix(point.span)
    except LimitExceeded as exc:
        raise LimitExceeded(f".span{exc}") from None
    return {"profile": encode_profile(point.profile), "span": span}


def _read_grassmann_point(obj) -> GrassmannianPoint:
    profile = _read_profile(_get(obj, "profile", dict), ".profile")
    span_obj = _get(obj, "span", dict)
    try:
        span = _read_matrix(span_obj, None, None)
    except _Fault as fault:
        raise fault.under(".span")
    # a rank-deficient span is a domain error, not a schema error: let it raise
    try:
        return GrassmannianPoint(profile, span)
    except ShapeMismatch as exc:
        raise _Fault("", str(exc)) from None


def parse_grassmann_point(obj, where="point") -> GrassmannianPoint:
    return _parse(where, _read_grassmann_point, obj)


# -- presentations -------------------------------------------------------------------


def encode_presentation(pres: Presentation) -> Dict:
    doc = {"base": encode_ring(pres.base), "fiber": {"even": list(pres.fiber_even), "odd": list(pres.fiber_odd)}}
    for key, relations in (("relations_even", pres.relations_even), ("relations_odd", pres.relations_odd)):
        doc[key] = []
        try:
            for rel in relations:
                doc[key].append(encode_element(rel))
        except LimitExceeded as exc:
            raise LimitExceeded(f".{key}[{len(doc[key])}]{exc}") from None
    return doc


def _read_presentation(obj) -> Presentation:
    base = _read_ring(_get(obj, "base", dict), ".base")
    fiber = _read_ring(_get(obj, "fiber", dict), ".fiber")
    try:
        total = SuperRing(base.even_vars + fiber.even_vars, base.odd_vars + fiber.odd_vars)
    except ValueError as exc:
        raise _Fault("", str(exc)) from None
    form = encode_ring(total)
    relations = []
    for key in ("relations_even", "relations_odd"):
        relations.append([])
        for k, item in enumerate(_get(obj, key, list)):
            try:
                relations[-1].append(_read_element(item, total, form)[0])
            except _Fault as fault:
                raise fault.under(f".{key}[{k}]")
    try:
        return Presentation(base, fiber.even_vars, fiber.odd_vars, *relations)
    except ValueError as exc:
        raise _Fault("", str(exc)) from None


def parse_presentation(obj, where="presentation") -> Presentation:
    return _parse(where, _read_presentation, obj)


def encode_rational_point(pt: RationalPoint) -> Dict:
    values = {}
    for name in sorted(pt.values):
        value = pt.values[name]
        try:
            if value.im_num:
                values[name] = encode_coeff(value)
            else:
                values[name] = ratio_str(value.re_num, value.den)
                _check_readable(values[name], "")
        except LimitExceeded as exc:
            raise LimitExceeded(f".values[{name}]{exc}") from None
    return {"values": values}


def _read_rational_point(obj) -> RationalPoint:
    values = {}
    for name, item in _get(obj, "values", dict).items():
        _check_names([name], ".values")
        try:
            values[name] = _read_coeff(item)
        except _Fault as fault:
            raise fault.under(f".values[{name}]")
    return RationalPoint(values)


def parse_rational_point(obj, where="point") -> RationalPoint:
    return _parse(where, _read_rational_point, obj)
