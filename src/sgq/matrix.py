"""Parity-patterned matrices over a SuperRing.

Rows and columns are graded: the first block of indices is even, the rest
odd.  An entry at (i, j) must be homogeneous of parity row(i) + col(j), which
is the pattern of even morphisms between free supermodules; under it, matrix
multiplication needs no extra signs.

Determinants and inverses of all-even matrices come from one elimination
with unit pivots: it clears below each pivot for a determinant, and runs
Gauss-Jordan on [M | I] for an inverse, the determinant being the product of
the pivots either way.  When every body is constant the ring is local, a
unit is exactly an element with nonzero body, and a unit pivot exists in
every column of an invertible matrix.  Only when the elimination stalls (a
non-unit determinant, or bodies that involve even generators) does it fall
back to Berkowitz's characteristic polynomial, which is division-free over
the commutative even subring and so valid with zero divisors: it gives the
determinant, and by Cayley-Hamilton the adjugate, the only division being
by the unit determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add
from typing import Callable, List, Sequence, Tuple

from .algebra import SuperElement, SuperRing, accumulate_product, sign_mask
from .errors import NotInvertible, ParityPatternViolation, RingMismatch, ShapeMismatch
from .scalars import from_triple


@dataclass(frozen=True)
class SuperShape:
    """Row and column gradings: (even count, odd count) each."""

    rows: Tuple[int, int]
    cols: Tuple[int, int]

    def __post_init__(self):
        if any(k < 0 for k in self.rows + self.cols):
            raise ValueError(f"negative dimension in shape {self}")

    @property
    def n_rows(self) -> int:
        return self.rows[0] + self.rows[1]

    @property
    def n_cols(self) -> int:
        return self.cols[0] + self.cols[1]

    def row_parity(self, i: int) -> int:
        return 0 if i < self.rows[0] else 1

    def col_parity(self, j: int) -> int:
        return 0 if j < self.cols[0] else 1

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True, slots=True, repr=False)
class SuperMatrix:
    """An immutable matrix of SuperElements satisfying the parity pattern.

    Any nested sequences of entries are accepted and stored as tuples.
    """

    ring: SuperRing
    shape: SuperShape
    entries: Tuple[Tuple[SuperElement, ...], ...]

    def __post_init__(self):
        ring, shape = self.ring, self.shape
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != shape.n_rows or any(len(row) != shape.n_cols for row in rows):
            raise ShapeMismatch(f"entry array does not match shape {shape}")
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if entry.ring != ring:
                    raise RingMismatch(f"entry ({i}, {j}) lives in a different ring")
                forced = (shape.row_parity(i) + shape.col_parity(j)) % 2
                if not entry.has_parity(forced):
                    kind = "even" if forced == 0 else "odd"
                    raise ParityPatternViolation(f"entry ({i}, {j}) must be {kind}: {entry!r}")
        object.__setattr__(self, "entries", rows)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _raw(cls, ring: SuperRing, shape: SuperShape, rows) -> "SuperMatrix":
        """Skip validation for entries that are pattern-valid by construction."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "shape", shape)
        object.__setattr__(obj, "entries", tuple(tuple(row) for row in rows))
        return obj

    @classmethod
    def identity(cls, ring: SuperRing, m: int, n: int) -> "SuperMatrix":
        size = m + n
        one, zero = ring.one(), ring.zero()
        rows = [[one if i == j else zero for j in range(size)] for i in range(size)]
        return cls._raw(ring, SuperShape((m, n), (m, n)), rows)

    @classmethod
    def zeros(cls, ring: SuperRing, shape: SuperShape) -> "SuperMatrix":
        zero = ring.zero()
        rows = [[zero] * shape.n_cols for _ in range(shape.n_rows)]
        return cls._raw(ring, shape, rows)

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key: Tuple[int, int]) -> SuperElement:
        i, j = key
        return self.entries[i][j]

    @property
    def n_rows(self) -> int:
        return self.shape.n_rows

    @property
    def n_cols(self) -> int:
        return self.shape.n_cols

    def select(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "SuperMatrix":
        """Submatrix on sorted global index lists; grading is inherited."""
        rows = sorted(row_indices)
        cols = sorted(col_indices)
        even_rows = sum(1 for i in rows if self.shape.row_parity(i) == 0)
        even_cols = sum(1 for j in cols if self.shape.col_parity(j) == 0)
        shape = SuperShape((even_rows, len(rows) - even_rows), (even_cols, len(cols) - even_cols))
        data = [[self.entries[i][j] for j in cols] for i in rows]
        return SuperMatrix._raw(self.ring, shape, data)

    def map_entries(self, fn: Callable[[SuperElement], SuperElement]) -> "SuperMatrix":
        return SuperMatrix(self.ring, self.shape, [[fn(e) for e in row] for row in self.entries])

    def body(self) -> "SuperMatrix":
        return self.map_entries(lambda e: e.body())

    # -- arithmetic --------------------------------------------------------------

    def _check_ring(self, other: "SuperMatrix") -> None:
        if self.ring != other.ring:
            raise RingMismatch("matrices live in different rings")

    def __add__(self, other: "SuperMatrix") -> "SuperMatrix":
        self._check_ring(other)
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add shapes {self.shape} and {other.shape}")
        rows = [
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ]
        return SuperMatrix._raw(self.ring, self.shape, rows)

    def __sub__(self, other: "SuperMatrix") -> "SuperMatrix":
        return self + (-other)

    def __neg__(self) -> "SuperMatrix":
        return SuperMatrix._raw(self.ring, self.shape, [[-e for e in row] for row in self.entries])

    def __mul__(self, other: "SuperMatrix") -> "SuperMatrix":
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._check_ring(other)
        if self.shape.cols != other.shape.rows:
            raise ShapeMismatch(f"cannot multiply shapes {self.shape} and {other.shape}")
        ring = self.ring
        # each operand is read once: the right one column by column, the left
        # one row by row with each term's sign mask
        columns = [[[(exp, mask, c.re_num, c.im_num, c.den) for (exp, mask), c in row[j].terms.items()]
                    for row in other.entries]
                   for j in range(other.n_cols)]
        rows = []
        for my_row in self.entries:
            left = [[(exp, mask, sign_mask(mask), c.re_num, c.im_num, c.den) for (exp, mask), c in e.terms.items()]
                    for e in my_row]
            rows.append([SuperElement(ring, _dot(left, column)) for column in columns])
        return SuperMatrix._raw(ring, SuperShape(self.shape.rows, other.shape.cols), rows)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"SuperMatrix({self.shape.rows}x{self.shape.cols}: {body})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def inv(self) -> "SuperMatrix":
        return sm_inv(self)


def _dot(left, column):
    """The term map of sum_k left[k] * column[k], from unpacked terms:
    (exp, mask, sign mask, re_num, im_num, den) on the left and
    (exp, mask, re_num, im_num, den) on the right.

    The k-loop adds unreduced triples per key, bringing two denominators
    to their lcm when they differ; each surviving key then takes one gcd and
    one coefficient object.  Keys whose sum is zero are dropped.
    """
    acc = {}
    for left_terms, right_terms in zip(left, column):
        if not right_terms:
            continue
        for exp1, mask1, signs, a1, b1, d1 in left_terms:
            for exp2, mask2, a2, b2, d2 in right_terms:
                if mask1 & mask2:
                    continue
                if b1 or b2:
                    a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
                else:
                    a, b = a1 * a2, 0
                d = d1 * d2
                if (signs & mask2).bit_count() & 1:
                    a, b = -a, -b
                key = (tuple(map(add, exp1, exp2)) if exp1 else exp2, mask1 | mask2)
                held = acc.get(key)
                if held is not None:
                    a0, b0, d0 = held
                    if d0 == d:
                        a, b = a + a0, b + b0
                    else:
                        g = gcd(d, d0)
                        m, m0 = d0 // g, d // g
                        a, b, d = a * m + a0 * m0, b * m + b0 * m0, d * m
                acc[key] = (a, b, d)
    terms = {}
    for key, (a, b, d) in acc.items():
        if a or b:
            if d != 1:
                g = gcd(a, b, d)
                if g != 1:
                    a, b, d = a // g, b // g, d // g
            terms[key] = from_triple(a, b, d)
    return terms


def _require_even_square(matrix: SuperMatrix) -> None:
    if matrix.n_rows != matrix.n_cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    for row in matrix.entries:
        for entry in row:
            if not entry.is_even():
                raise ShapeMismatch(f"det_even requires all-even entries, found {entry!r}")


def _unit_pivot_elimination(rows: List[List[SuperElement]], one: SuperElement):
    """Eliminate the rows of M, or of [M | I] with `one` on the diagonal of I,
    in place, taking as pivot the first remaining unit of each column: the
    det of M (the pivots' product times the swap sign), or None on a stall,
    a column with no unit.  Rows above a pivot are cleared only with the
    augmented half, which then holds the inverse.
    """
    ring = one.ring
    n = len(rows)
    width = len(rows[0]) if rows else 0
    det = one
    swaps = 0
    for col in range(n):
        pick = next((r for r in range(col, n) if rows[r][col].is_unit()), None)
        if pick is None:
            return None
        if pick != col:
            rows[col], rows[pick] = rows[pick], rows[col]
            swaps += 1
        pivot_row = rows[col]
        pivot = pivot_row[col]
        det = pivot if col == 0 else det * pivot
        # columns up to col are never read again, so they are left as they are
        live = [j for j in range(col + 1, width) if pivot_row[j].terms]
        if not live:
            continue
        pivot_inv = pivot.inv()
        for j in live:
            entry = pivot_row[j]
            # the identity one of the augmented half scales to the pivot inverse itself
            pivot_row[j] = pivot_inv if entry is one else entry * pivot_inv
        for r in range(0 if width > n else col + 1, n):
            row = rows[r]
            factor = row[col]
            if r == col or not factor.terms:
                continue
            minus_factor = (-factor).terms
            for j in live:
                terms = dict(row[j].terms)
                accumulate_product(terms, minus_factor, pivot_row[j].terms)
                row[j] = SuperElement(ring, terms)
    return -det if swaps % 2 else det


def _charpoly(matrix: SuperMatrix) -> List[SuperElement]:
    """Coefficients [1, c1, ..., cn] of det(x I - M), division-free (Berkowitz):
    the polynomial of [[A, C], [R, a]] is that of A times the lower Toeplitz
    matrix with first column 1, -a, -R C, -R A C, ..., -R A^(r-1) C."""
    ring = matrix.ring
    poly = [ring.one()]
    for r in range(matrix.n_rows):
        lead = matrix.select(range(r), range(r))
        row = matrix.select([r], range(r))
        column = matrix.select(range(r), [r])
        toeplitz = [ring.one(), -matrix[r, r]]
        for k in range(r):
            if k:
                column = lead * column
            toeplitz.append(-(row * column)[0, 0])
        poly = [sum((toeplitz[i - j] * poly[j] for j in range(min(i, r) + 1)), ring.zero())
                for i in range(r + 2)]
    return poly


def det_even(matrix: SuperMatrix) -> SuperElement:
    """Determinant of a square matrix with entries in the even subring."""
    _require_even_square(matrix)
    det = _unit_pivot_elimination([list(row) for row in matrix.entries], matrix.ring.one())
    if det is None:
        det = _charpoly(matrix)[-1]
        if matrix.n_rows % 2:
            det = -det
    return det


def _det_and_inverse(matrix: SuperMatrix):
    """(det, inverse) of an all-even square matrix; inverse None if det is no unit.

    On a stall, Cayley-Hamilton: M (M^(n-1) + c1 M^(n-2) + ... + c(n-1) I) = -cn I.
    """
    _require_even_square(matrix)
    ring, shape, n = matrix.ring, matrix.shape, matrix.n_rows
    one, zero = ring.one(), ring.zero()
    rows = [list(row) + [one if i == j else zero for j in range(n)]
            for i, row in enumerate(matrix.entries)]
    det = _unit_pivot_elimination(rows, one)
    if det is not None:
        return det, SuperMatrix._raw(ring, shape, [row[n:] for row in rows])
    coeffs = _charpoly(matrix)
    det = -coeffs[n] if n % 2 else coeffs[n]
    if not det.is_unit():
        return det, None
    horner = SuperMatrix.identity(ring, *shape.rows)
    for c in coeffs[1:n]:
        horner = matrix * horner
        horner = SuperMatrix._raw(ring, shape, [[e + c if i == j else e for j, e in enumerate(row)]
                                                for i, row in enumerate(horner.entries)])
    scale = (-coeffs[n]).inv()
    return det, SuperMatrix._raw(ring, shape, [[e * scale for e in row] for row in horner.entries])


def inv_even(matrix: SuperMatrix) -> SuperMatrix:
    """Inverse of an all-even square matrix.

    Works whenever the determinant is a unit, which is exactly when the body
    of the determinant is a nonzero constant.
    """
    det, inverse = _det_and_inverse(matrix)
    if inverse is None:
        raise NotInvertible(f"determinant is not a unit: body {det.body()!r}")
    return inverse


def block_matrix(grid: Sequence[Sequence[SuperMatrix]]) -> SuperMatrix:
    """Concatenate a grid of blocks; row/col parities must stay even-first.

    The checks are per block: its ring, its row grading against the rest of
    its grid row and its column grading against the block above it.  Each
    block holds the parity pattern of its own grading, so the entries then
    hold the pattern of the whole and are not checked one by one.
    """
    if not grid or not grid[0]:
        raise ShapeMismatch("empty block grid")
    ring = grid[0][0].ring
    col_gradings = [block.shape.cols for block in grid[0]]
    row_parities: List[int] = []
    entries: List[List[SuperElement]] = []
    for block_row in grid:
        if any(block.ring != ring for block in block_row):
            raise RingMismatch("blocks of the grid live in different rings")
        if len({block.n_rows for block in block_row}) != 1:
            raise ShapeMismatch("inconsistent block heights in a grid row")
        if len({block.shape.rows for block in block_row}) != 1:
            raise ShapeMismatch("blocks in one grid row disagree on row parity")
        if [block.shape.cols for block in block_row] != col_gradings:
            raise ShapeMismatch("blocks in one grid column disagree on width or column parity")
        even, odd = block_row[0].shape.rows
        row_parities += [0] * even + [1] * odd
        entries += ([e for part in parts for e in part] for parts in zip(*(b.entries for b in block_row)))
    col_parities = [p for even, odd in col_gradings for p in [0] * even + [1] * odd]
    if row_parities != sorted(row_parities) or col_parities != sorted(col_parities):
        raise ShapeMismatch("block grid would interleave even and odd indices")
    shape = SuperShape(
        (row_parities.count(0), row_parities.count(1)),
        (col_parities.count(0), col_parities.count(1)),
    )
    return SuperMatrix._raw(ring, shape, entries)


def _parity_blocks(matrix: SuperMatrix):
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


def is_invertible(matrix: SuperMatrix) -> bool:
    """Body test: both parity-diagonal blocks, and so the block-diagonal
    body, must have unit determinant."""
    return matrix.shape.is_square and det_even(matrix.body()).is_unit()


def independent_rows(rows: Sequence[Sequence]) -> List[int]:
    """The indices of the rows over Q(i) that are no combination of earlier ones, by
    elimination in row order: the first basis of the row space; their count is the rank."""
    basis = []  # (row index, pivot column, row reduced by the earlier basis rows)
    for i, row in enumerate(rows):
        for _, col, pivot_row in basis:
            if row[col]:
                factor = row[col] / pivot_row[col]
                row = [a - factor * b for a, b in zip(row, pivot_row)]
        col = next((j for j, a in enumerate(row) if a), None)
        if col is not None:
            basis.append((i, col, row))
    return [i for i, _, _ in basis]


def _schur_step(matrix: SuperMatrix):
    """(C, D^-1, B D^-1, S^-1) for a square matrix [[A, B], [C, D]], where
    S = A - B D^-1 C is the Schur complement of the odd-odd block D.  Raises
    NotInvertible naming the block whose body is singular."""
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


def sm_inv(matrix: SuperMatrix) -> SuperMatrix:
    """Exact inverse of an invertible square supermatrix via Schur complement."""
    c, d_inv, b_d_inv, schur_inv = _schur_step(matrix)
    top_right = -(schur_inv * b_d_inv)
    bottom_left = -(d_inv * c * schur_inv)
    bottom_right = d_inv - bottom_left * b_d_inv
    return block_matrix([[schur_inv, top_right], [bottom_left, bottom_right]])


def right_divide(rhs: SuperMatrix, matrix: SuperMatrix) -> SuperMatrix:
    """rhs * matrix^-1 without forming the inverse.

    With rhs = [R1 | R2] split like the rows of matrix, the quotient is
    [X1 | X2] with X1 = (R1 - R2 D^-1 C) S^-1 and X2 = R2 D^-1 - X1 B D^-1.
    Raises NotInvertible exactly as sm_inv does.
    """
    if rhs.shape.cols != matrix.shape.rows:
        raise ShapeMismatch(f"cannot divide shape {rhs.shape} by shape {matrix.shape}")
    c, d_inv, b_d_inv, schur_inv = _schur_step(matrix)
    rows = range(rhs.n_rows)
    split = matrix.shape.rows[0]
    r2_d_inv = rhs.select(rows, range(split, rhs.n_cols)) * d_inv
    x1 = (rhs.select(rows, range(split)) - r2_d_inv * c) * schur_inv
    x2 = r2_d_inv - x1 * b_d_inv
    return SuperMatrix._raw(rhs.ring, SuperShape(rhs.shape.rows, matrix.shape.cols),
                            [left + right for left, right in zip(x1.entries, x2.entries)])


def berezinian(matrix: SuperMatrix) -> SuperElement:
    """det(A - B D^-1 C) * det(D)^-1; multiplicative on invertible matrices."""
    if not matrix.shape.is_square:
        raise ShapeMismatch(f"Berezinian of non-square shape {matrix.shape}")
    a, b, c, d = _parity_blocks(matrix)
    det_d, d_inv = _det_and_inverse(d)
    if d_inv is None:
        raise NotInvertible(f"odd-odd block is singular: body determinant {det_d.body()!r}")
    schur = a - b * d_inv * c
    return det_even(schur) * det_d.inv()
