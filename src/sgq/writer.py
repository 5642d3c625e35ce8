"""The canonical JSON writer.

`canonical_dumps` writes every document sgq emits: the bytes of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, in one pass.
A document holds dicts with str keys, lists, str, int, bool and None, and
at any place in them the sgq values, which are written straight from their
fields: keys in a fixed sorted order, each indent string built once per
depth, a ring's text once for all the cells of a matrix, and each element's
terms sorted once.  No dict is built per element, term or coefficient.
Generator names go through the standard library's ASCII string encoder.

A coefficient or exponent with more digits than reading accepts
(``sys.get_int_max_str_digits()``) is not written: it raises LimitExceeded
with its locus, so no document holding it is produced.  `sgq.serialize`
reads the documents back.
"""

from __future__ import annotations

import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import List, Optional

from .algebra import SuperElement, SuperRing, odd_indices
from .errors import LimitExceeded
from .flag import BlockProfile, NCoordinates
from .grassmannian import GrassmannianPoint
from .matrix import SuperMatrix
from .scalars import STR_SAFE_BITS, STR_SAFE_DIGITS, GaussianRational, ratio_str
from .smoothness import Presentation, RationalPoint


def canonical_dumps(doc) -> str:
    """The canonical text of a document: dicts with str keys, lists, str,
    int, bool and None, and at any place in them the values this module
    writes (`GaussianRational`, `SuperRing`, `SuperElement`, `SuperMatrix`,
    `BlockProfile`, `NCoordinates`, `GrassmannianPoint`, `Presentation`,
    `RationalPoint`).  Any other type raises TypeError.

    A coefficient or exponent with more digits than reading accepts raises
    LimitExceeded with its locus: ".terms[0].coeff.re" for an element, and
    the keys and indices of the value's place in front of it inside a dict
    or list ("result.terms[0].coeff.re").
    """
    parts: List[str] = []
    _write(doc, parts, 0)
    parts.append("\n")
    return "".join(parts)


# "\n" plus the indent of depth d, at index d; CLI documents reach depth 9
_NEWLINES = tuple("\n" + "  " * d for d in range(24))


def _newline(depth: int) -> str:
    return _NEWLINES[depth] if depth < len(_NEWLINES) else "\n" + "  " * depth


def _write(value, parts: List[str], depth: int) -> None:
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is dict:
        if not value:
            parts.append("{}")
            return
        inner = _newline(depth + 1)
        lead = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(lead)
            parts.append(_quote(key))
            parts.append(": ")
            try:
                _write(value[key], parts, depth + 1)
            except LimitExceeded as exc:
                raise LimitExceeded(f"{'.' if depth else ''}{key}{exc}") from None
            lead = "," + inner
        parts.append(_newline(depth) + "}")
    elif kind is list:
        if not value:
            parts.append("[]")
            return
        inner = _newline(depth + 1)
        lead = "[" + inner
        for k, item in enumerate(value):
            parts.append(lead)
            try:
                _write(item, parts, depth + 1)
            except LimitExceeded as exc:
                raise LimitExceeded(f"[{k}]{exc}") from None
            lead = "," + inner
        parts.append(_newline(depth) + "]")
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif value is None:
        parts.append("null")
    else:
        write = _WRITERS.get(kind)
        if write is None:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        write(value, parts, depth)


# -- writing values ----------------------------------------------------------------
#
# Each writer appends the text of one value whose first line sits at `depth`.
# Keys go in their sorted order, so the text is what the dict walk above
# would write for the value's document.


def _check_readable(text: str, path: str) -> None:
    """LimitExceeded at `path` when an integer of the written coefficient `text`
    has more digits than int() reads, so no document holding it could be read."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for digits in text.lstrip("-").split("/"):
        if limit and len(digits) > limit:
            raise LimitExceeded(f"{path}: {len(digits)} digits, over the {limit} that reading accepts")


def _coeff_texts(value: GaussianRational):
    """The written real and imaginary parts; a part too long to read back
    raises LimitExceeded at ".re" or ".im", the real part first."""
    den = value.den
    re_text = ratio_str(value.re_num, den)
    im_text = ratio_str(value.im_num, den) if value.im_num else "0"
    if len(re_text) > STR_SAFE_DIGITS or len(im_text) > STR_SAFE_DIGITS:
        _check_readable(re_text, ".re")
        _check_readable(im_text, ".im")
    return re_text, im_text


def _write_coeff(value: GaussianRational, parts: List[str], depth: int) -> None:
    re_text, im_text = _coeff_texts(value)
    inner = _newline(depth + 1)
    parts.append(f'{{{inner}"im": "{im_text}",{inner}"re": "{re_text}"{_newline(depth)}}}')


def _list_text(items, depth: int) -> str:
    """The text of a list of texts whose opening bracket sits at `depth`."""
    if not items:
        return "[]"
    inner = _newline(depth + 1)
    return "[" + inner + ("," + inner).join(items) + _newline(depth) + "]"


def _ring_text(even_vars, odd_vars, depth: int) -> str:
    inner = _newline(depth + 1)
    even = _list_text([_quote(name) for name in even_vars], depth + 1)
    odd = _list_text([_quote(name) for name in odd_vars], depth + 1)
    return f'{{{inner}"even": {even},{inner}"odd": {odd}{_newline(depth)}}}'


def _write_ring(ring: SuperRing, parts: List[str], depth: int) -> None:
    parts.append(_ring_text(ring.even_vars, ring.odd_vars, depth))


class _Memo(dict):
    """A dict that fills a missing key with fill(key)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Terms:
    """Writes the elements of one ring at one depth.

    The ring's text and the fixed text around each term are built once, and
    the sort key and closing text of each term key once, so every cell of a
    matrix shares them.
    """

    def __init__(self, ring: SuperRing, depth: int):
        n0, n1, n2, n3, n4 = (_newline(depth + k) for k in range(5))
        self.head = f'{{{n1}"ring": {_ring_text(ring.even_vars, ring.odd_vars, depth + 1)},{n1}"terms": '
        self.zero = self.head + "[]" + n0 + "}"
        opening = f'{n2}{{{n3}"coeff": {{{n4}"im": "'
        self.first, self.next = "[" + opening, "," + opening
        self.mid = f'",{n4}"re": "'
        self.close = n1 + "]" + n0 + "}"
        # the sort key (exponents, odd indices) and the text after the
        # coefficient, up to the term's closing brace, of each term key; the
        # fills refer to no _Terms, so none is kept alive by a cycle
        order = self.order = _Memo(lambda key: (key[0], odd_indices(key[1])))
        self.tails = _Memo(lambda key: (
            f'"{n3}}},{n3}"exp": {_list_text([ratio_str(e, 1) for e in key[0]], depth + 3)},'
            f'{n3}"odd": {_list_text([str(i) for i in order[key][1]], depth + 3)}{n2}}}'))

    def write(self, element: SuperElement, parts: List[str]) -> None:
        """Append the element's text.  A coefficient or exponent too long to
        read back raises LimitExceeded at ".terms[k].coeff.re" or
        ".terms[k].exp[i]"."""
        terms = element.terms
        if not terms:
            parts.append(self.zero)
            return
        parts.append(self.head)
        lead, mid, tails = self.first, self.mid, self.tails
        for k, key in enumerate(sorted(terms, key=self.order.__getitem__)):
            try:
                re_text, im_text = _coeff_texts(terms[key])
            except LimitExceeded as exc:
                raise LimitExceeded(f".terms[{k}].coeff{exc}") from None
            exp = key[0]
            if exp and max(exp).bit_length() > STR_SAFE_BITS:
                for i, e in enumerate(exp):
                    _check_readable(ratio_str(e, 1), f".terms[{k}].exp[{i}]")
            parts.append(f"{lead}{im_text}{mid}{re_text}{tails[key]}")
            lead = self.next
        parts.append(self.close)


def _write_element(element: SuperElement, parts: List[str], depth: int) -> None:
    _Terms(element.ring, depth).write(element, parts)


def _write_matrix(matrix: SuperMatrix, parts: List[str], depth: int, terms: Optional[_Terms] = None) -> None:
    """Append the matrix's text; its cells are written by `terms`, which must
    write its ring at depth + 3, or by a new one."""
    n0, n1, n2 = _newline(depth), _newline(depth + 1), _newline(depth + 2)
    parts.append("{" + n1 + '"entries": ')
    if matrix.entries:
        if terms is None:
            terms = _Terms(matrix.ring, depth + 3)
        n3 = _newline(depth + 3)
        row_lead, first_cell, next_cell = "[" + n2, "[" + n3, "," + n3
        for i, row in enumerate(matrix.entries):
            parts.append(row_lead)
            row_lead = "," + n2
            if not row:
                parts.append("[]")
                continue
            lead = first_cell
            for j, entry in enumerate(row):
                parts.append(lead)
                lead = next_cell
                try:
                    terms.write(entry, parts)
                except LimitExceeded as exc:
                    raise LimitExceeded(f".entries[{i}][{j}]{exc}") from None
            parts.append(n2 + "]")
        parts.append(n1 + "]")
    else:
        parts.append("[]")
    shape = matrix.shape
    cols = _list_text([str(k) for k in shape.cols], depth + 2)
    rows = _list_text([str(k) for k in shape.rows], depth + 2)
    parts.append(f',{n1}"shape": {{{n2}"cols": {cols},{n2}"rows": {rows}{n1}}}{n0}}}')


def _write_profile(bp: BlockProfile, parts: List[str], depth: int) -> None:
    n1 = _newline(depth + 1)
    parts.append(f'{{{n1}"m": {bp.m},{n1}"n": {bp.n},{n1}"r": {bp.r},{n1}"s": {bp.s}{_newline(depth)}}}')


# the blocks of n-coordinates in the order they are read and checked, and in
# the sorted order they are written
_BLOCKS = ("u", "eta", "xi", "v")
_SORTED_BLOCKS = tuple(sorted(_BLOCKS))


def _write_ncoords(coords: NCoordinates, parts: List[str], depth: int) -> None:
    """Append the blocks' text.  A block that cannot be written raises with
    the locus of the first such block in the order u, eta, xi, v."""
    n1 = _newline(depth + 1)
    terms = _Terms(coords.ring, depth + 4)
    lead = "{" + n1
    for name in _SORTED_BLOCKS:
        parts.append(f'{lead}"{name}": ')
        lead = "," + n1
        try:
            _write_matrix(getattr(coords, name), parts, depth + 1, terms)
        except LimitExceeded:
            for first in _BLOCKS:
                try:
                    _write_matrix(getattr(coords, first), [], depth + 1, terms)
                except LimitExceeded as exc:
                    raise LimitExceeded(f".{first}{exc}") from None
    parts.append(_newline(depth) + "}")


def _write_grassmann_point(point: GrassmannianPoint, parts: List[str], depth: int) -> None:
    n1 = _newline(depth + 1)
    parts.append("{" + n1 + '"profile": ')
    _write_profile(point.profile, parts, depth + 1)
    parts.append("," + n1 + '"span": ')
    try:
        _write_matrix(point.span, parts, depth + 1)
    except LimitExceeded as exc:
        raise LimitExceeded(f".span{exc}") from None
    parts.append(_newline(depth) + "}")


def _write_presentation(pres: Presentation, parts: List[str], depth: int) -> None:
    n1, n2 = _newline(depth + 1), _newline(depth + 2)
    base = _ring_text(pres.base.even_vars, pres.base.odd_vars, depth + 1)
    fiber = _ring_text(pres.fiber_even, pres.fiber_odd, depth + 1)
    parts.append(f'{{{n1}"base": {base},{n1}"fiber": {fiber}')
    terms = _Terms(pres.total_ring, depth + 2)
    for key, relations in (("relations_even", pres.relations_even), ("relations_odd", pres.relations_odd)):
        parts.append(f',{n1}"{key}": ')
        if not relations:
            parts.append("[]")
            continue
        lead = "[" + n2
        for k, relation in enumerate(relations):
            parts.append(lead)
            lead = "," + n2
            try:
                terms.write(relation, parts)
            except LimitExceeded as exc:
                raise LimitExceeded(f".{key}[{k}]{exc}") from None
        parts.append(n1 + "]")
    parts.append(_newline(depth) + "}")


def _write_rational_point(pt: RationalPoint, parts: List[str], depth: int) -> None:
    """A real value is written as one string, any other as a coefficient."""
    n0, n1, n2 = _newline(depth), _newline(depth + 1), _newline(depth + 2)
    if not pt.values:
        parts.append("{" + n1 + '"values": {}' + n0 + "}")
        return
    parts.append("{" + n1 + '"values": ')
    lead = "{" + n2
    for name in sorted(pt.values):
        value = pt.values[name]
        parts.append(f"{lead}{_quote(name)}: ")
        lead = "," + n2
        try:
            if value.im_num:
                _write_coeff(value, parts, depth + 2)
            else:
                text = ratio_str(value.re_num, value.den)
                if len(text) > STR_SAFE_DIGITS:
                    _check_readable(text, "")
                parts.append(f'"{text}"')
        except LimitExceeded as exc:
            raise LimitExceeded(f".values[{name}]{exc}") from None
    parts.append(n1 + "}" + n0 + "}")


_WRITERS = {
    GaussianRational: _write_coeff,
    SuperRing: _write_ring,
    SuperElement: _write_element,
    SuperMatrix: _write_matrix,
    BlockProfile: _write_profile,
    NCoordinates: _write_ncoords,
    GrassmannianPoint: _write_grassmann_point,
    Presentation: _write_presentation,
    RationalPoint: _write_rational_point,
}
