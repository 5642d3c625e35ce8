"""Replaced algorithms, kept as independent references for the tests.

Each one is the implementation the library used before a faster or simpler
routine took its place; the tests compare the two on the same inputs.
"""

import json
import sys
import textwrap
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import add

from sgq import (
    BlockProfile,
    GaussianRational,
    GrassmannianPoint,
    LimitExceeded,
    SuperElement,
    NCoordinates,
    NotInBigCell,
    NotInvertible,
    Presentation,
    RationalPoint,
    SchemaError,
    SgqError,
    ShapeMismatch,
    SuperMatrix,
    SuperRing,
    SuperShape,
    block_matrix,
    det_even,
    inv_even,
    is_invertible,
    split_blocks,
    standard_parabolic_member,
)
from sgq.algebra import accumulate_product, sign_mask
from sgq.flag import _check_square, coordinates_from_quotient
from sgq.matrix import _det_and_inverse, right_divide


def subset_dp_det(matrix):
    """Determinant of an all-even square matrix by subset dynamic programming.

    Division-free: partial[mask] holds the signed minor on the processed rows
    and the column set `mask`.  O(2^n * n) ring operations.
    """
    n = matrix.n_rows
    ring = matrix.ring
    partial = {0: ring.one()}
    for r in range(n):
        grown = {}
        row = matrix.entries[r]
        for mask, value in partial.items():
            if value.is_zero():
                continue
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    continue
                entry = row[j]
                if entry.is_zero():
                    continue
                # new inversions: previously chosen columns to the right of j
                above = bin(mask >> (j + 1)).count("1")
                term = value * entry
                if above % 2:
                    term = -term
                key = mask | bit
                acc = grown.get(key)
                grown[key] = term if acc is None else acc + term
        partial = grown
        if not partial:
            return ring.zero()
    return partial.get((1 << n) - 1, ring.zero())


def adjugate_inverse(matrix, det):
    """Inverse as adjugate / det, from n^2 cofactor determinants; det a unit."""
    det_inv = det.inv()
    n = matrix.n_rows
    indices = list(range(n))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # adjugate: (j, i) cofactor ends up at (i, j)
            minor = matrix.select([r for r in indices if r != j], [c for c in indices if c != i])
            cof = subset_dp_det(minor)
            if (i + j) % 2:
                cof = -cof
            row.append(cof * det_inv)
        rows.append(row)
    return SuperMatrix(matrix.ring, matrix.shape, rows)


def _parity_blocks(matrix):
    """The four parity blocks A, B, C, D of a square (m|n) matrix."""
    m, n = matrix.shape.rows
    even_rows = list(range(m))
    odd_rows = list(range(m, m + n))
    even_cols = list(range(matrix.shape.cols[0]))
    odd_cols = list(range(matrix.shape.cols[0], matrix.n_cols))
    return (
        matrix.select(even_rows, even_cols),
        matrix.select(even_rows, odd_cols),
        matrix.select(odd_rows, even_cols),
        matrix.select(odd_rows, odd_cols),
    )


def _schur_step(matrix):
    """(C, D^-1, B D^-1, S^-1) for a square matrix [[A, B], [C, D]], where
    S = A - B D^-1 C, each block a SuperMatrix and each product a matrix
    product.  Raises NotInvertible naming the block whose body is singular."""
    if not matrix.shape.is_square:
        raise ShapeMismatch(f"cannot invert non-square shape {matrix.shape}")
    a, b, c, d = _parity_blocks(matrix)
    try:
        d_inv = inv_even(d)
    except NotInvertible as exc:
        raise NotInvertible(f"odd-odd block is singular: {exc}") from None
    b_d_inv = b * d_inv
    try:
        schur_inv = inv_even(a - b_d_inv * c)
    except NotInvertible as exc:
        raise NotInvertible(f"even-even block is singular: {exc}") from None
    return c, d_inv, b_d_inv, schur_inv


def schur_sm_inv(matrix):
    """The inverse of a square supermatrix from the Schur step's blocks, by
    matrix products, negations and differences, joined by block_matrix."""
    c, d_inv, b_d_inv, schur_inv = _schur_step(matrix)
    top_right = -(schur_inv * b_d_inv)
    bottom_left = -(d_inv * c * schur_inv)
    bottom_right = d_inv - bottom_left * b_d_inv
    return block_matrix([[schur_inv, top_right], [bottom_left, bottom_right]])


def schur_right_divide(rhs, matrix):
    """rhs * matrix^-1 as [X1 | X2], X1 = (R1 - R2 D^-1 C) S^-1 and
    X2 = R2 D^-1 - X1 B D^-1, by matrix products and differences."""
    if rhs.shape.cols != matrix.shape.rows:
        raise ShapeMismatch(f"cannot divide shape {rhs.shape} by shape {matrix.shape}")
    c, d_inv, b_d_inv, schur_inv = _schur_step(matrix)
    rows = range(rhs.n_rows)
    split = matrix.shape.rows[0]
    r2_d_inv = rhs.select(rows, range(split, rhs.n_cols)) * d_inv
    x1 = (rhs.select(rows, range(split)) - r2_d_inv * c) * schur_inv
    x2 = r2_d_inv - x1 * b_d_inv
    return SuperMatrix(rhs.ring, SuperShape(rhs.shape.rows, matrix.shape.cols),
                       [left + right for left, right in zip(x1.entries, x2.entries)])


def series_inv(element):
    """The inverse of a unit element by the terminating geometric series,
    summed with element arithmetic: c^-1 * sum_k (-s/c)^k."""
    value = element.body().constant_value()
    if value is None or not value:
        raise NotInvertible(f"body is not a unit: {element.body()!r}")
    ring = element.ring
    c_inv = value.inverse()
    step = SuperElement(ring, {k: -c * c_inv for k, c in element.terms.items() if k[1]})
    result, power = ring.one(), step
    while power.terms:
        result = result + power
        power = power * step
    return SuperElement(ring, {k: c * c_inv for k, c in result.terms.items()})


def schur_berezinian(matrix):
    """det(A - B D^-1 C) * det(D)^-1 with D^-1 formed by Gauss-Jordan (or
    Cayley-Hamilton on a stall) and the Schur complement by two products."""
    if not matrix.shape.is_square:
        raise ShapeMismatch(f"Berezinian of non-square shape {matrix.shape}")
    a, b, c, d = _parity_blocks(matrix)
    det_d, d_inv = _det_and_inverse(d)
    if d_inv is None:
        raise NotInvertible(f"odd-odd block is singular: body determinant {det_d.body()!r}")
    return det_even(a - b * d_inv * c) * det_d.inv()


def merge_odd(left, right):
    """Merge two normal-ordered odd index tuples.

    Returns (sign, merged) where sign is the Koszul sign of the interleaving,
    or None when an index repeats (the product vanishes).
    """
    if not left:
        return 1, right
    if not right:
        return 1, left
    merged = []
    inversions = 0
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # b jumps over the remaining factors of `left`
            inversions += len(left) - i
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    sign = -1 if inversions % 2 else 1
    return sign, tuple(merged)


def tuple_accumulate_product(dest, left, right):
    """Add the term-map product left * right into dest, dropping zeros; the
    keys are (exponent vector, strictly increasing odd index tuple)."""
    for (exp1, odd1), c1 in left.items():
        for (exp2, odd2), c2 in right.items():
            merged = merge_odd(odd1, odd2)
            if merged is None:
                continue
            sign, odd = merged
            exp = tuple(a + b for a, b in zip(exp1, exp2))
            coeff = c1 * c2
            if sign < 0:
                coeff = -coeff
            key = (exp, odd)
            acc = dest.get(key)
            total = coeff if acc is None else acc + coeff
            if total:
                dest[key] = total
            elif acc is not None:
                del dest[key]


def operator_accumulate_product(dest, left, right):
    """Add the term-map product left * right into dest, dropping zeros, with
    the GaussianRational operators: a product, a negation for an odd Koszul
    sign and a sum per term pair."""
    right_items = right.items()
    for (exp1, mask1), c1 in left.items():
        signs = sign_mask(mask1)
        for (exp2, mask2), c2 in right_items:
            if mask1 & mask2:
                continue
            coeff = c1 * c2
            if (signs & mask2).bit_count() & 1:
                coeff = -coeff
            key = (tuple(map(add, exp1, exp2)) if exp1 else exp2, mask1 | mask2)
            acc = dest.get(key)
            total = coeff if acc is None else acc + coeff
            if total:
                dest[key] = total
            elif acc is not None:
                del dest[key]


def kloop_matmul(left, right):
    """left * right for supermatrices of matching gradings, with one
    accumulate_product call per (i, j, k) into the (i, j) term map."""
    rows = []
    for my_row in left.entries:
        row = []
        for j in range(right.n_cols):
            terms = {}
            for k, entry in enumerate(my_row):
                other = right.entries[k][j]
                if entry.terms and other.terms:
                    accumulate_product(terms, entry.terms, other.terms)
            row.append(SuperElement(left.ring, terms))
        rows.append(row)
    return SuperMatrix(left.ring, SuperShape(left.shape.rows, right.shape.cols), rows)


def first_valid_choice_product(span, bp):
    """First (r even rows, s odd rows) choice whose row submatrix has
    invertible body, searching all pairs in lexicographic order."""
    for even_rows in combinations(range(bp.m), bp.r):
        for odd_rows in combinations(range(bp.n), bp.s):
            rows = even_rows + tuple(bp.m + i for i in odd_rows)
            if is_invertible(span.select(list(rows), list(range(span.n_cols)))):
                return rows
    return None


def bracket_normal_form(g, bp):
    """The factorization g = assemble(coords) * p solved block by block.

    Rows 1 and 4 of the sixteen defining equations are direct read-offs; the
    four corner equations of rows 2 and 3 determine (u, eta) and (v, xi)
    through two Schur-type brackets, and the remaining parabolic blocks
    follow by substitution.  Four even inverses: both corners and both
    brackets.
    """
    b = split_blocks(g, bp)
    try:
        g11_inv = inv_even(b[(1, 1)])
        g44_inv = inv_even(b[(4, 4)])
    except NotInvertible:
        raise NotInBigCell(f"corner blocks of g lack invertible body under profile {bp}") from None
    if not is_invertible(g):
        raise NotInvertible("g has singular body")

    # row 2, columns 1 and 4:  u*g11 + eta*gamma41 = g21,  u*gamma14 + eta*g44 = gamma24
    bracket_u = inv_even(b[(1, 1)] - b[(1, 4)] * g44_inv * b[(4, 1)])
    u = (b[(2, 1)] - b[(2, 4)] * g44_inv * b[(4, 1)]) * bracket_u
    eta = (b[(2, 4)] - u * b[(1, 4)]) * g44_inv

    # row 3, columns 4 and 1:  xi*gamma14 + v*g44 = g34,  xi*g11 + v*gamma41 = gamma31
    bracket_v = inv_even(b[(4, 4)] - b[(4, 1)] * g11_inv * b[(1, 4)])
    v = (b[(3, 4)] - b[(3, 1)] * g11_inv * b[(1, 4)]) * bracket_v
    xi = (b[(3, 1)] - v * b[(4, 1)]) * g11_inv

    coords = NCoordinates(bp, u, eta, xi, v)
    z = lambda i, j: SuperMatrix.zeros(g.ring, bp.block_shape(i, j))
    p = block_matrix([
        [b[(1, 1)], b[(1, 2)], b[(1, 3)], b[(1, 4)]],
        [z(2, 1), b[(2, 2)] - u * b[(1, 2)] - eta * b[(4, 2)],
         b[(2, 3)] - u * b[(1, 3)] - eta * b[(4, 3)], z(2, 4)],
        [z(3, 1), b[(3, 2)] - xi * b[(1, 2)] - v * b[(4, 2)],
         b[(3, 3)] - xi * b[(1, 3)] - v * b[(4, 3)], z(3, 4)],
        [b[(4, 1)], b[(4, 2)], b[(4, 3)], b[(4, 4)]],
    ])
    return coords, p


def subtraction_normal_form(g, bp):
    """normal_form with its interior formed as a matrix product and then a
    SuperMatrix subtraction: two more element passes than one seeded product."""
    _check_square(g, bp)
    inner, corner = bp.inner, bp.corner
    try:
        norm = right_divide(g.select(inner, corner), g.select(corner, corner))
    except NotInvertible:
        raise NotInBigCell(f"corner blocks of g lack invertible body under profile {bp}") from None
    interior = g.select(inner, inner) - norm * g.select(corner, inner)
    if not is_invertible(interior):
        raise NotInvertible("g has singular body")
    zero = g.ring.zero()
    rows = [list(row) for row in g.entries]
    for i, row in zip(inner, interior.entries):
        rows[i] = [zero] * g.n_cols
        for j, entry in zip(inner, row):
            rows[i][j] = entry
    return coordinates_from_quotient(norm, bp), SuperMatrix._raw(g.ring, g.shape, rows)


def product_cosets_equal(g1, g2, bp):
    """Whether g1 and g2 share a coset, from every block of g1^-1 g2."""
    _check_square(g1, bp)
    _check_square(g2, bp)
    return standard_parabolic_member(g1.inv() * g2, bp)


# -- the block layout restated in each function, before BlockProfile named it ------


def grid_assemble(coords):
    """The unipotent-complement matrix as a 4 x 4 grid of blocks."""
    bp = coords.profile
    ring = coords.ring
    eye = [SuperMatrix.identity(ring, *bp.block_shape(k, k).rows) for k in range(1, 5)]
    z = lambda i, j: SuperMatrix.zeros(ring, bp.block_shape(i, j))
    grid = [
        [eye[0], z(1, 2), z(1, 3), z(1, 4)],
        [coords.u, eye[1], z(2, 3), coords.eta],
        [coords.xi, z(3, 2), eye[2], coords.v],
        [z(4, 1), z(4, 2), z(4, 3), eye[3]],
    ]
    return block_matrix(grid)


def block_n_member(g, bp):
    """Identity diagonal blocks and zero blocks outside the free ones,
    checked block by block."""
    blocks = split_blocks(g, bp)
    for k in range(1, 5):
        if blocks[(k, k)] != SuperMatrix.identity(g.ring, *bp.block_shape(k, k).rows):
            return False
    fixed_zero = ((1, 2), (1, 3), (1, 4), (2, 3), (3, 2), (4, 1), (4, 2), (4, 3))
    return all(blocks[position].is_zero() for position in fixed_zero)


def block_n_coordinates_of(g, bp):
    """Blocks (2, 1), (2, 4), (3, 1) and (3, 4) of g."""
    blocks = split_blocks(g, bp)
    return NCoordinates(bp, blocks[(2, 1)], blocks[(2, 4)], blocks[(3, 1)], blocks[(3, 4)])


def explicit_standard_point(bp, ring):
    """Identity blocks on row blocks 1 and 4, placed index by index."""
    zero, one = ring.zero(), ring.one()
    rows = [[zero] * (bp.r + bp.s) for _ in range(bp.m + bp.n)]
    for j in range(bp.r):
        rows[j][j] = one
    for j in range(bp.s):
        rows[bp.m + (bp.n - bp.s) + j][bp.r + j] = one
    return GrassmannianPoint(bp, SuperMatrix(ring, SuperShape((bp.m, bp.n), (bp.r, bp.s)), rows))


def block_orbit_map(g, bp):
    """Column blocks 1 and 4 of g."""
    _check_square(g, bp)
    cols = list(bp.block_range(1)) + list(bp.block_range(4))
    return GrassmannianPoint(bp, g.select(list(range(g.n_rows)), cols))


def json_canonical_dumps(doc):
    """The canonical document text as the standard library writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _expect(condition, message):
    if not condition:
        raise SchemaError(message)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _get(obj, key, kind, where):
    _expect(isinstance(obj, dict), f"{where}: expected an object")
    _expect(key in obj, f"{where}: missing key {key!r}")
    value = obj[key]
    _expect(isinstance(value, kind) and not isinstance(value, bool),
            f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def _fraction_from_str(text, where):
    shown = repr(text) if len(text) <= 64 else f"{text[:64]!r}... ({len(text)} characters)"
    _expect("e" not in text and "E" not in text,
            f"{where}: bad rational {shown}: exponent notation is not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad rational {shown}: {textwrap.shorten(str(exc), 160)}") from None


def fraction_parse_coeff(obj, where="coeff"):
    """A coefficient document read through Fraction, whatever its form."""
    if isinstance(obj, str):
        return GaussianRational(_fraction_from_str(obj, where))
    re = _get(obj, "re", str, where)
    im = _get(obj, "im", str, where)
    return GaussianRational(_fraction_from_str(re, where), _fraction_from_str(im, where))


def _parse_ring(obj, where):
    even = _get(obj, "even", list, where)
    odd = _get(obj, "odd", list, where)
    _expect(all(isinstance(v, str) for v in even + odd), f"{where}: variable names must be strings")
    try:
        return SuperRing(even, odd)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def fraction_parse_element(obj, ring=None, where="element"):
    """An element document read in two walks, as the parser did before it
    read each document in one: every term is checked and its coefficient read
    through Fraction, then `SuperRing.element` checks the exponents and odd
    indices and builds the element.  The embedded ring is always parsed
    before it is compared."""
    embedded = _parse_ring(_get(obj, "ring", dict, where), f"{where}.ring")
    if ring is None:
        ring = embedded
    else:
        _expect(embedded == ring, f"{where}: embedded ring differs from the expected ring")
    raw = _get(obj, "terms", list, where)
    terms = {}
    for k, item in enumerate(raw):
        spot = f"{where}.terms[{k}]"
        coeff = fraction_parse_coeff(_get(item, "coeff", (dict, str), spot), f"{spot}.coeff")
        exp = _get(item, "exp", list, spot)
        odd = _get(item, "odd", list, spot)
        _expect(all(_is_int(e) for e in exp), f"{spot}.exp: must be integers")
        _expect(all(_is_int(i) for i in odd), f"{spot}.odd: must be integers")
        key = (tuple(exp), tuple(odd))
        _expect(key not in terms, f"{spot}: duplicate monomial")
        terms[key] = coeff
    try:
        return ring.element(terms)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def fraction_parse_matrix(obj, ring=None, where="matrix"):
    """A matrix document read in three walks: `fraction_parse_element` per
    entry, then the validating `SuperMatrix` constructor checks each entry's
    ring and parity.  A matrix with no cell is read over the empty ring."""
    shape_obj = _get(obj, "shape", dict, where)
    rows = _get(shape_obj, "rows", list, f"{where}.shape")
    cols = _get(shape_obj, "cols", list, f"{where}.shape")
    _expect(len(rows) == 2 and len(cols) == 2 and all(_is_int(k) and k >= 0 for k in rows + cols),
            f"{where}.shape: rows and cols must be pairs of nonnegative integers")
    shape = SuperShape((rows[0], rows[1]), (cols[0], cols[1]))
    raw = _get(obj, "entries", list, where)
    _expect(len(raw) == shape.n_rows, f"{where}: expected {shape.n_rows} entry rows, got {len(raw)}")
    entries = []
    for i, raw_row in enumerate(raw):
        _expect(isinstance(raw_row, list) and len(raw_row) == shape.n_cols,
                f"{where}.entries[{i}]: expected {shape.n_cols} entries")
        row = []
        for j, cell in enumerate(raw_row):
            element = fraction_parse_element(cell, ring, f"{where}.entries[{i}][{j}]")
            ring = element.ring
            row.append(element)
        entries.append(row)
    try:
        return SuperMatrix(SuperRing() if ring is None else ring, shape, entries)
    except SgqError as exc:
        raise SchemaError(f"{where}: {exc}") from None


# -- the samplers before values were built straight from the draws ---------------
#
# Each draw goes through Fraction, ring.element and the validating SuperMatrix
# constructor, and numeric draws are tested with det_even; (I + S) B is a sum
# and a supermatrix product.  The rng calls are the ones `sgq.sampling` makes.


def validating_random_fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def validating_random_scalar(rng, bound):
    im = validating_random_fraction(rng, bound) if rng.random() < 0.25 else 0
    return GaussianRational(validating_random_fraction(rng, bound), im)


def _validating_odd_subset(ring, rng, parity, nonempty):
    q = ring.n_odd
    while True:
        subset = tuple(i for i in range(q) if rng.random() < 0.5)
        if nonempty and not subset:
            continue
        if parity is not None and len(subset) % 2 != parity:
            continue
        return subset


def validating_random_soul(ring, rng, parity=None, max_terms=2, bound=4):
    if ring.n_odd == 0 or (parity == 0 and ring.n_odd < 2):
        return ring.zero()
    terms = {}
    n_terms = 1 if max_terms == 1 or rng.random() < 0.67 else rng.randint(2, max_terms)
    for _ in range(n_terms):
        subset = _validating_odd_subset(ring, rng, parity, True)
        terms[((0,) * ring.n_even, subset)] = validating_random_scalar(rng, bound)
    return ring.element(terms)


def _validating_element_even(ring, rng, bound):
    return ring.scalar(validating_random_scalar(rng, bound)) + validating_random_soul(ring, rng, 0, bound=bound)


def validating_numeric_invertible(ring, rng, size, parity, bound, leading=0, trailing=0):
    shape = SuperShape((size, 0), (size, 0)) if parity == 0 else SuperShape((0, size), (0, size))
    while True:
        rows = [[ring.scalar(validating_random_scalar(rng, bound)) for _ in range(size)] for _ in range(size)]
        matrix = SuperMatrix(ring, shape, rows)
        if not det_even(matrix).is_unit():
            continue
        if leading and not det_even(matrix.select(range(leading), range(leading))).is_unit():
            continue
        if trailing:
            lo = size - trailing
            if not det_even(matrix.select(range(lo, size), range(lo, size))).is_unit():
                continue
        return matrix


def validating_soul_perturbation(ring, rng, m, n, bound, density=0.5):
    shape = SuperShape((m, n), (m, n))
    rows = []
    for i in range(m + n):
        row = []
        for j in range(m + n):
            if rng.random() < density:
                parity = (shape.row_parity(i) + shape.col_parity(j)) % 2
                row.append(validating_random_soul(ring, rng, parity=parity, bound=bound))
            else:
                row.append(ring.zero())
        rows.append(row)
    return SuperMatrix(ring, shape, rows)


def validating_big_cell(ring, bp, rng, bound):
    a0 = validating_numeric_invertible(ring, rng, bp.m, 0, bound, leading=bp.r)
    d0 = validating_numeric_invertible(ring, rng, bp.n, 1, bound, trailing=bp.s)
    zero_tr = SuperMatrix.zeros(ring, SuperShape((bp.m, 0), (0, bp.n)))
    zero_bl = SuperMatrix.zeros(ring, SuperShape((0, bp.n), (bp.m, 0)))
    body = block_matrix([[a0, zero_tr], [zero_bl, d0]])
    eye = SuperMatrix.identity(ring, bp.m, bp.n)
    return (eye + validating_soul_perturbation(ring, rng, bp.m, bp.n, bound)) * body


def validating_parabolic(ring, bp, rng, bound):
    free = {(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3),
            (4, 1), (4, 2), (4, 3), (4, 4)}
    sizes = bp.sizes
    grid = []
    for i in range(1, 5):
        row = []
        for j in range(1, 5):
            rp, cp = bp.block_parity(i), bp.block_parity(j)
            shape = bp.block_shape(i, j)
            if (i, j) not in free:
                row.append(SuperMatrix.zeros(ring, shape))
            elif i == j:
                numeric = validating_numeric_invertible(ring, rng, sizes[i - 1], rp, bound)
                soul = SuperMatrix(ring, shape, [
                    [validating_random_soul(ring, rng, parity=0, bound=bound) for _ in range(sizes[i - 1])]
                    for _ in range(sizes[i - 1])
                ])
                row.append(numeric + soul)
            else:
                parity = (rp + cp) % 2
                entries = [
                    [validating_random_soul(ring, rng, parity=parity, bound=bound) if parity
                     else _validating_element_even(ring, rng, bound)
                     for _ in range(sizes[j - 1])]
                    for _ in range(sizes[i - 1])
                ]
                row.append(SuperMatrix(ring, shape, entries))
        grid.append(row)
    return block_matrix(grid)


def validating_ncoords(ring, bp, rng, bound):
    def fill(i, j):
        shape = bp.block_shape(i, j)
        parity = (bp.block_parity(i) + bp.block_parity(j)) % 2
        entries = [
            [validating_random_soul(ring, rng, parity=parity, bound=bound) if parity
             else _validating_element_even(ring, rng, bound)
             for _ in range(shape.n_cols)]
            for _ in range(shape.n_rows)
        ]
        return SuperMatrix(ring, shape, entries)

    return NCoordinates(bp, fill(2, 1), fill(2, 4), fill(3, 1), fill(3, 4))


# -- the dict encoders before values were written from their fields ---------------


def _ratio_str(num, den):
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def _dict_check_readable(text, path):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for digits in text.lstrip("-").split("/"):
        if limit and len(digits) > limit:
            raise LimitExceeded(f"{path}: {len(digits)} digits, over the {limit} that reading accepts")


def dict_encode_coeff(value):
    re_text, im_text = _ratio_str(value.re_num, value.den), _ratio_str(value.im_num, value.den)
    if len(re_text) > 640 or len(im_text) > 640:
        _dict_check_readable(re_text, ".re")
        _dict_check_readable(im_text, ".im")
    return {"re": re_text, "im": im_text}


def dict_encode_ring(ring):
    return {"even": list(ring.even_vars), "odd": list(ring.odd_vars)}


def dict_encode_element(element):
    terms = []
    try:
        for (exp, odd), coeff in element.sorted_terms():
            try:
                written = dict_encode_coeff(coeff)
            except LimitExceeded as exc:
                raise LimitExceeded(f".coeff{exc}") from None
            if exp and max(exp).bit_length() > 2126:
                for i, e in enumerate(exp):
                    _dict_check_readable(_ratio_str(e, 1), f".exp[{i}]")
            terms.append({"coeff": written, "exp": list(exp), "odd": list(odd)})
    except LimitExceeded as exc:
        raise LimitExceeded(f".terms[{len(terms)}]{exc}") from None
    return {"ring": dict_encode_ring(element.ring), "terms": terms}


def dict_encode_matrix(matrix):
    entries = []
    try:
        for row in matrix.entries:
            cells = []
            entries.append(cells)
            for entry in row:
                cells.append(dict_encode_element(entry))
    except LimitExceeded as exc:
        raise LimitExceeded(f".entries[{len(entries) - 1}][{len(cells)}]{exc}") from None
    return {"shape": {"rows": list(matrix.shape.rows), "cols": list(matrix.shape.cols)}, "entries": entries}


def dict_encode_profile(bp):
    return {"m": bp.m, "n": bp.n, "r": bp.r, "s": bp.s}


def dict_encode_ncoords(coords):
    doc = {}
    try:
        for name in ("u", "eta", "xi", "v"):
            doc[name] = dict_encode_matrix(getattr(coords, name))
    except LimitExceeded as exc:
        raise LimitExceeded(f".{name}{exc}") from None
    return doc


def dict_encode_grassmann_point(point):
    try:
        span = dict_encode_matrix(point.span)
    except LimitExceeded as exc:
        raise LimitExceeded(f".span{exc}") from None
    return {"profile": dict_encode_profile(point.profile), "span": span}


def dict_encode_presentation(pres):
    doc = {"base": dict_encode_ring(pres.base), "fiber": {"even": list(pres.fiber_even), "odd": list(pres.fiber_odd)}}
    for key, relations in (("relations_even", pres.relations_even), ("relations_odd", pres.relations_odd)):
        doc[key] = []
        try:
            for rel in relations:
                doc[key].append(dict_encode_element(rel))
        except LimitExceeded as exc:
            raise LimitExceeded(f".{key}[{len(doc[key])}]{exc}") from None
    return doc


def dict_encode_rational_point(pt):
    values = {}
    for name in sorted(pt.values):
        value = pt.values[name]
        try:
            if value.im_num:
                values[name] = dict_encode_coeff(value)
            else:
                values[name] = _ratio_str(value.re_num, value.den)
                _dict_check_readable(values[name], "")
        except LimitExceeded as exc:
            raise LimitExceeded(f".values[{name}]{exc}") from None
    return {"values": values}


def dict_encode(value):
    """The document of any value `canonical_dumps` writes, built as dicts
    and lists, one per element, term and coefficient."""
    encode = {
        GaussianRational: dict_encode_coeff,
        SuperRing: dict_encode_ring,
        SuperElement: dict_encode_element,
        SuperMatrix: dict_encode_matrix,
        BlockProfile: dict_encode_profile,
        NCoordinates: dict_encode_ncoords,
        GrassmannianPoint: dict_encode_grassmann_point,
        Presentation: dict_encode_presentation,
        RationalPoint: dict_encode_rational_point,
    }[type(value)]
    return encode(value)
