"""JSON interchange for all value types.

All coefficients travel as exact strings ("n" or "n/d" in lowest terms);
structural counts (shapes, exponents, odd indices, profiles) are plain
integers.  Emission is canonical — terms sorted by (exponent vector, odd
indices), keys sorted, two-space indent — so equal values always serialize
to identical bytes.  One writer emits them: `canonical_dumps`, from
`sgq.writer`, which writes each value straight from its fields.  Each
`encode_*` function gives the written document as Python objects,
``json.loads(canonical_dumps(value))``.

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

import json
import re
import textwrap
from fractions import Fraction
from typing import Dict, List, Optional

from .algebra import SuperElement, SuperRing, TermKey
from .errors import SchemaError, ShapeMismatch
from .flag import BlockProfile, NCoordinates
from .grassmannian import GrassmannianPoint
from .matrix import SuperMatrix, SuperShape
from .scalars import GaussianRational, from_ratios, from_triple
from .smoothness import Presentation, RationalPoint
from .writer import _ring_text, canonical_dumps


def _document(value):
    return json.loads(canonical_dumps(value))


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


def encode_coeff(value: GaussianRational) -> Dict[str, str]:
    """The written coefficient as Python objects."""
    return _document(value)


def parse_coeff(obj, where="coeff") -> GaussianRational:
    return _parse(where, _read_coeff, obj)


# -- rings and elements ----------------------------------------------------------


def encode_ring(ring: SuperRing) -> Dict:
    """The written ring as Python objects."""
    return _document(ring)


def _ring_form(ring: SuperRing) -> Dict:
    """The written ring as Python objects, built without `canonical_dumps`:
    the readers compare each embedded ring with it."""
    return json.loads(_ring_text(ring.even_vars, ring.odd_vars, 0))


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


def encode_element(element: SuperElement) -> Dict:
    """The written element as Python objects."""
    return _document(element)


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
    return _parse(where, _read_element, obj, ring, None if ring is None else _ring_form(ring))[0]


# -- matrices ---------------------------------------------------------------------


def encode_matrix(matrix: SuperMatrix) -> Dict:
    """The written matrix as Python objects."""
    return _document(matrix)


def _read_matrix(obj, ring: Optional[SuperRing], form: Optional[Dict]) -> SuperMatrix:
    """A matrix document read in one walk: each entry's parity is taken from
    its masks as it is read, and the first misplaced entry is raised only
    once the whole matrix has passed its other checks.  Without a ring, a
    matrix with no cell names none and is read over the empty ring."""
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
                ring, form = element.ring, _ring_form(element.ring)
            # an entry at an even place may hold no odd term, and vice versa
            forced = row_odd ^ (j >= cols[0])
            if parities >> (1 - forced) & 1 and misplaced is None:
                misplaced = (i, j, forced, element)
            row.append(element)
        entries.append(row)
    if ring is None:
        ring = SuperRing()
    if misplaced is not None:
        i, j, forced, element = misplaced
        raise _Fault("", f"entry ({i}, {j}) must be {'odd' if forced else 'even'}: {element!r}")
    return SuperMatrix._raw(ring, shape, entries)


def parse_matrix(obj, ring: SuperRing = None, where="matrix") -> SuperMatrix:
    return _parse(where, _read_matrix, obj, ring, None if ring is None else _ring_form(ring))


# -- profiles, coordinates, points -------------------------------------------------


def encode_profile(bp: BlockProfile) -> Dict:
    """The written profile as Python objects."""
    return _document(bp)


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
    """The written n-coordinates as Python objects."""
    return _document(coords)


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
    form = _ring_form(ring)
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
    """The written point as Python objects."""
    return _document(point)


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
    """The written presentation as Python objects."""
    return _document(pres)


def _read_presentation(obj) -> Presentation:
    base = _read_ring(_get(obj, "base", dict), ".base")
    fiber = _read_ring(_get(obj, "fiber", dict), ".fiber")
    try:
        total = SuperRing(base.even_vars + fiber.even_vars, base.odd_vars + fiber.odd_vars)
    except ValueError as exc:
        raise _Fault("", str(exc)) from None
    form = _ring_form(total)
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
    """The written point as Python objects."""
    return _document(pt)


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
