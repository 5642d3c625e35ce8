"""Dense supermatrix products on packed rows (Kronecker substitution).

Each row of the right operand is packed per term key into two integers, the
real and the imaginary numerators of that key's coefficients over one
common denominator of the whole operand, with column j in bits
[jW, (j+1)W).  A left term times a packed row is then two to four big-int
products and one Koszul sign, added per output key, so the column loop of
the product runs in CPython's integer arithmetic (Gustavson's row-wise
product; Harvey, J. Symb. Comp. 44, 2009, for the packing).  The left
operand's numerators are brought to one common denominator per row.

A field holds a signed sum of products of one left and one right
numerator, at most one per left term of the row, each at most twice the
product of the largest magnitudes (a real part is a1 a2 - b1 b2).  W is one
bit more than that bound needs, so after adding 2^(W-1) to every field no
field carries into the next, and each is read back exactly.  Each output
key keeps the bitmask of the columns its packed rows touch and is read back
in those columns only, with one gcd and one coefficient per output term.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import add

from .scalars import from_triple

# packing pays when right rows hold at least this many terms per key on
# average, and the common denominator stays this small (measured on dense
# and sparse operands against matrix._dot)
MIN_TERMS_PER_KEY = 3
MAX_DEN_BITS = 64


def common_den(grid, width: int) -> int:
    """The least common denominator of the first width columns of grid."""
    return lcm(*{c.den for row in grid for terms in row[:width] for c in terms.values()})


def pack(grid, width: int):
    """The first width columns of grid as packed rows when they are larger
    than 2 x 2 and dense enough for packing to pay, else None."""
    if len(grid) <= 2 or width <= 2:
        return None
    n_terms = sum(len(terms) for row in grid for terms in row[:width])
    n_keys = sum(len(set().union(*row[:width])) for row in grid)
    if n_terms < MIN_TERMS_PER_KEY * n_keys:
        return None
    den = common_den(grid, width)
    return PackedRows(grid, width, den) if den.bit_length() <= MAX_DEN_BITS else None


class PackedRows:
    """The first width columns of a grid of term maps as a right operand:
    per row, (exp, mask, [(column, re_num, im_num), ...]) for each key,
    the numerators over den, a common denominator of the columns."""

    __slots__ = ("rows", "width", "den", "largest")

    def __init__(self, grid, width: int, den: int):
        rows = []
        for row in grid:
            keys = {}
            for j, terms in enumerate(row[:width]):
                for key, c in terms.items():
                    scale = den // c.den
                    field = (j, c.re_num * scale, c.im_num * scale)
                    if key in keys:
                        keys[key].append(field)
                    else:
                        keys[key] = [field]
            rows.append([(exp, mask, fields) for (exp, mask), fields in keys.items()])
        nums = [x for row in rows for _, _, fields in row for _, a, b in fields for x in (a, b)]
        self.rows, self.width, self.den = rows, width, den
        self.largest = abs(max(nums, key=abs, default=0))


def gemm(rows, right: PackedRows, seeds=None):
    """The grid of term maps of seeds + L * R, from L's unpacked rows (see
    matrix._left_terms) and R packed; seeds, a grid of term maps, is only
    read."""
    width = right.width
    dens, left_largest, most_terms = [], 0, 0
    for row in rows:
        flat = [t for terms in row for t in terms]
        den = lcm(*{t[5] for t in flat})
        nums = [t[3] * (den // t[5]) for t in flat] + [t[4] * (den // t[5]) for t in flat]
        left_largest = max(left_largest, abs(max(nums, key=abs, default=0)))
        most_terms = max(most_terms, len(flat))
        dens.append(den)
    w = (2 * most_terms * left_largest * right.largest).bit_length() + 1
    shifts = [j * w for j in range(width)]
    packed = []
    for row in right.rows:
        line = []
        for exp, mask, fields in row:
            re = im = cm = 0
            for j, a, b in fields:
                re += a << shifts[j]
                im += b << shifts[j]
                cm |= 1 << j
            line.append((exp, mask, re, im, cm))
        packed.append(line)
    half = 1 << (w - 1)
    bias = sum(half << shift for shift in shifts)
    full = (1 << w) - 1
    out = []
    for i, (row, row_den) in enumerate(zip(rows, dens)):
        acc = {}
        for terms, line in zip(row, packed):
            if not line:
                continue
            for exp1, mask1, signs, a1, b1, d1 in terms:
                if d1 != row_den:
                    scale = row_den // d1
                    a1, b1 = a1 * scale, b1 * scale
                for exp2, mask2, re2, im2, cm in line:
                    if mask1 & mask2:
                        continue
                    if b1:
                        re, im = a1 * re2 - b1 * im2, a1 * im2 + b1 * re2
                    else:
                        re, im = a1 * re2, a1 * im2 if im2 else 0
                    if (signs & mask2).bit_count() & 1:
                        re, im = -re, -im
                    # a ring with no even generators is keyed by the mask alone here
                    key = (tuple(map(add, exp1, exp2)), mask1 | mask2) if exp1 else mask1 | mask2
                    held = acc.get(key)
                    if held is not None:
                        re, im, cm = re + held[0], im + held[1], cm | held[2]
                    acc[key] = (re, im, cm)
        d = row_den * right.den
        result = [dict(seed) for seed in seeds[i]] if seeds is not None else [{} for _ in range(width)]
        for key, (re, im, cm) in acc.items():
            if type(key) is int:
                key = ((), key)
            re += bias
            if im:
                im += bias
            while cm:
                low = cm & -cm
                cm ^= low
                shift = shifts[low.bit_length() - 1]
                a = (re >> shift & full) - half
                b = (im >> shift & full) - half if im else 0
                if not (a or b):
                    continue
                terms = result[low.bit_length() - 1]
                held = terms.get(key)
                if held is None:
                    a_sum, b_sum, d_sum = a, b, d
                else:
                    d0 = held.den
                    g = gcd(d, d0)
                    a_sum = a * (d0 // g) + held.re_num * (d // g)
                    b_sum = b * (d0 // g) + held.im_num * (d // g)
                    d_sum = d // g * d0
                    if not (a_sum or b_sum):
                        del terms[key]
                        continue
                if d_sum != 1:
                    g = gcd(a_sum, b_sum, d_sum)
                    if g != 1:
                        a_sum, b_sum, d_sum = a_sum // g, b_sum // g, d_sum // g
                terms[key] = from_triple(a_sum, b_sum, d_sum)
        out.append(result)
    return out
