"""Parity-patterned matrices over a SuperRing.

Rows and columns are graded: the first block of indices is even, the rest
odd.  An entry at (i, j) must be homogeneous of parity row(i) + col(j), which
is the pattern of even morphisms between free supermodules; under it, matrix
multiplication needs no extra signs.

Determinants and inverses of all-even matrices come from one elimination
with unit pivots, on its own copies of the entries' term maps, updated in
place: it clears below each pivot for a determinant, and runs Gauss-Jordan
on [M | I] for an inverse, the determinant being the product of the pivots
either way.  The Berezinian is read off the same elimination of
[[D, C], [B, A]].  When every body is constant the ring is local, a unit is
exactly an element with nonzero body, and a unit pivot exists in every
column of an invertible matrix.  Only when the elimination stalls (a
non-unit determinant, or bodies that involve even generators) does it fall
back to Berkowitz's characteristic polynomial, which is division-free over
the commutative even subring and so valid with zero divisors: it gives the
determinant of the block left, and by Cayley-Hamilton the adjugate, the
only division being by the unit determinant.

Inverses and right quotients of supermatrices take one Schur step on the
odd-odd block D, worked on grids of term maps from start to end: each
operand is unpacked once per role, each block product adds into a seed
grid and folds a minus sign into its left operand, so C - A B is one pass,
and only the result is wrapped as elements.  Matrix products run on the
same unpacked products.  A product takes one of two kernels, chosen from its
right operand: term pairs (`_dot`) for sparse operands, packed rows
(`sgq.kronecker`) for dense ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add
from typing import Callable, List, Sequence, Tuple

from .algebra import SuperElement, SuperRing, accumulate_product, inverse_terms, is_unit_terms, sign_mask
from .errors import NotInvertible, ParityPatternViolation, RingMismatch, ShapeMismatch
from .kronecker import PackedRows, gemm as packed_gemm, pack
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
        even_rows, even_cols = shape.rows[0], shape.cols[0]
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if entry.ring is not ring and entry.ring != ring:
                    raise RingMismatch(f"entry ({i}, {j}) lives in a different ring")
                forced = (i >= even_rows) ^ (j >= even_cols)
                for _, odd in entry.terms:
                    if odd.bit_count() & 1 != forced:
                        kind = "odd" if forced else "even"
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
        return SuperMatrix._raw(self.ring, self.shape, [[e.body() for e in row] for row in self.entries])

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
        rows = _gemm(_left_terms(_grid(self)), _right_terms(_grid(other), other.n_cols))
        return _wrap(self.ring, SuperShape(self.shape.rows, other.shape.cols), rows)

    def __repr__(self):
        body = "; ".join("[" + ", ".join(repr(e) for e in row) + "]" for row in self.entries)
        return f"SuperMatrix({self.shape.rows}x{self.shape.cols}: {body})"

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def inv(self) -> "SuperMatrix":
        return sm_inv(self)


def _grid(matrix: SuperMatrix) -> List[List[dict]]:
    """The entries' term maps, shared, not copied."""
    return [[e.terms for e in row] for row in matrix.entries]


def _wrap(ring: SuperRing, shape: SuperShape, grid) -> SuperMatrix:
    """A grid of term maps as a matrix of shape; the maps become the entries'."""
    return SuperMatrix._raw(ring, shape, [[SuperElement(ring, terms) for terms in row] for row in grid])


def _left_terms(grid, negate: bool = False):
    """The rows of a grid of term maps unpacked as left operands: terms
    (exp, mask, sign mask, re_num, im_num, den), negated when asked."""
    sign = -1 if negate else 1
    return [[[(exp, mask, sign_mask(mask), sign * c.re_num, sign * c.im_num, c.den) for (exp, mask), c in terms.items()]
             for terms in row] for row in grid]


def _columns(grid, width: int):
    """The first width columns of a grid of term maps unpacked for `_dot`:
    terms (exp, mask, re_num, im_num, den)."""
    return [[[(exp, mask, c.re_num, c.im_num, c.den) for (exp, mask), c in row[j].items()] for row in grid]
            for j in range(width)]


def _right_terms(grid, width: int):
    """The first width columns of a grid of term maps as a right operand of
    `_gemm`: packed rows when `kronecker.pack` finds them worth it, else
    columns for `_dot`.  The width is passed because a grid with no rows
    cannot show it."""
    return pack(grid, width) or _columns(grid, width)


def _gemm(rows, columns, seeds=None):
    """The grid of term maps of seeds + L * R, from L's unpacked rows and R
    as `_right_terms` gives it; seeds, a grid of term maps, is only read."""
    if isinstance(columns, PackedRows):
        return packed_gemm(rows, columns, seeds)
    if seeds is None:
        return [[_dot(left, column) for column in columns] for left in rows]
    return [[_dot(left, column, seed) for column, seed in zip(columns, seed_row)]
            for left, seed_row in zip(rows, seeds)]


def subtract_product(seed: SuperMatrix, left: SuperMatrix, right: SuperMatrix) -> SuperMatrix:
    """seed - left * right as one seeded product, the sign folded into left;
    the shapes are the caller's to match."""
    rows = _gemm(_left_terms(_grid(left), negate=True), _right_terms(_grid(right), right.n_cols), _grid(seed))
    return _wrap(seed.ring, seed.shape, rows)


def _dot(left, column, seed=None):
    """The term map of seed + sum_k left[k] * column[k], from unpacked terms:
    (exp, mask, sign mask, re_num, im_num, den) on the left and
    (exp, mask, re_num, im_num, den) on the right.

    The accumulator starts from the seed's triples, and the k-loop adds
    unreduced triples per key, bringing two denominators to their lcm when
    they differ; each surviving key then takes one gcd and one coefficient
    object.  Keys whose sum is zero are dropped.
    """
    acc = {key: (c.re_num, c.im_num, c.den) for key, c in seed.items()} if seed else {}
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


def _private_rows(matrix: SuperMatrix) -> List[List[dict]]:
    """A copy of each entry's term map: the elimination updates these in place."""
    return [[dict(e.terms) for e in row] for row in matrix.entries]


def _unit_pivot_elimination(ring: SuperRing, rows: List[List[dict]], stop: int):
    """Eliminate columns 0..stop-1 of rows of private term maps in place,
    taking as pivot the first unit at or below the diagonal of each column;
    each step adds its products into the maps with `accumulate_product`.

    Returns (det, col): col is the first column with no unit left (a stall),
    or stop, and det the term map of the product of the pivots before col
    times the sign of the row swaps.  Rows and columns from col on then hold
    the Schur complement of the pivots taken; for square rows, its
    determinant times det is that of the whole.  Rows above a pivot are
    cleared only when the rows are wider than tall, [M | I], whose right
    half then holds the inverse.
    """
    one = ring.one().terms
    n = len(rows)
    width = len(rows[0]) if rows else 0
    det = one
    swaps = 0
    for col in range(stop):
        pick = next((r for r in range(col, n) if is_unit_terms(rows[r][col])), None)
        if pick is None:
            stop = col
            break
        if pick != col:
            rows[col], rows[pick] = rows[pick], rows[col]
            swaps += 1
        pivot_row = rows[col]
        pivot = pivot_row[col]
        if col == 0:
            det = pivot
        else:
            product = {}
            accumulate_product(product, det, pivot)
            det = product
        # columns up to col are never updated again, so they are left as they are
        live = [j for j in range(col + 1, width) if pivot_row[j]]
        if not live:
            continue
        pivot_inv = inverse_terms(pivot)
        for j in live:
            entry = pivot_row[j]
            if entry == one:
                # an identity one of the augmented half scales to the pivot inverse
                pivot_row[j] = dict(pivot_inv)
            else:
                scaled = {}
                accumulate_product(scaled, entry, pivot_inv)
                pivot_row[j] = scaled
        for r in range(0 if width > n else col + 1, n):
            row = rows[r]
            factor = row[col]
            if r == col or not factor:
                continue
            minus_factor = {key: -c for key, c in factor.items()}
            for j in live:
                accumulate_product(row[j], minus_factor, pivot_row[j])
    if swaps % 2:
        det = {key: -c for key, c in det.items()}
    return det, stop


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
    """Determinant of a square matrix with entries in the even subring: the
    product of the pivots, times Berkowitz's determinant of the block left
    when the elimination stalls."""
    _require_even_square(matrix)
    ring = matrix.ring
    rows = _private_rows(matrix)
    det, col = _unit_pivot_elimination(ring, rows, len(rows))
    det = SuperElement(ring, det)
    k = len(rows) - col
    if not k:
        return det
    trailing = _charpoly(_wrap(ring, SuperShape((k, 0), (k, 0)), [row[col:] for row in rows[col:]]))[k]
    return det * (-trailing if k % 2 else trailing)


def _cayley_hamilton(matrix: SuperMatrix):
    """(det, inverse) of an all-even square matrix from its characteristic
    polynomial, inverse None if det is no unit:
    M (M^(n-1) + c1 M^(n-2) + ... + c(n-1) I) = -cn I."""
    ring, shape, n = matrix.ring, matrix.shape, matrix.n_rows
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


def _det_and_inverse(matrix: SuperMatrix):
    """(det, inverse) of an all-even square matrix; inverse None if det is no
    unit.  Gauss-Jordan on [M | I], or Cayley-Hamilton on a stall."""
    _require_even_square(matrix)
    ring, n = matrix.ring, matrix.n_rows
    one = ring.one().terms
    rows = [row + [dict(one) if i == j else {} for j in range(n)] for i, row in enumerate(_private_rows(matrix))]
    det, col = _unit_pivot_elimination(ring, rows, n)
    if col < n:
        return _cayley_hamilton(matrix)
    inverse = [[SuperElement(ring, terms) for terms in row[n:]] for row in rows]
    return SuperElement(ring, det), SuperMatrix._raw(ring, matrix.shape, inverse)


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
    """(D^-1, B D^-1, S^-1, C) for a square matrix [[A, B], [C, D]], where
    S = A - B D^-1 C is the Schur complement of the odd-odd block D: the
    inverses as grids of term maps, B D^-1 and C as unpacked right operands.
    Raises NotInvertible naming the block whose body is singular."""
    if not matrix.shape.is_square:
        raise ShapeMismatch(f"cannot invert non-square shape {matrix.shape}")
    ring = matrix.ring
    m, n = matrix.shape.rows
    grid = _grid(matrix)
    try:
        d_inv = _grid(inv_even(SuperMatrix._raw(ring, SuperShape((0, n), (0, n)),
                                                [row[m:] for row in matrix.entries[m:]])))
    except NotInvertible as exc:
        raise NotInvertible(f"odd-odd block is singular: {exc}") from None
    b_d_inv = _gemm(_left_terms([row[m:] for row in grid[:m]]), _right_terms(d_inv, n))
    c = _right_terms(grid[m:], m)
    schur = _gemm(_left_terms(b_d_inv, negate=True), c, [row[:m] for row in grid[:m]])
    try:
        s_inv = _grid(inv_even(_wrap(ring, SuperShape((m, 0), (m, 0)), schur)))
    except NotInvertible as exc:
        raise NotInvertible(f"even-even block is singular: {exc}") from None
    return d_inv, _right_terms(b_d_inv, n), s_inv, c


def sm_inv(matrix: SuperMatrix) -> SuperMatrix:
    """Exact inverse of an invertible square supermatrix via Schur complement:
    [[S^-1, -S^-1 B D^-1], [L, D^-1 - L B D^-1]] with L = -D^-1 C S^-1."""
    d_inv, b_d_inv, s_inv, c = _schur_step(matrix)
    m = matrix.shape.rows[0]
    top_right = _gemm(_left_terms(s_inv, negate=True), b_d_inv)
    d_inv_c = _gemm(_left_terms(d_inv), c)
    bottom_left = _gemm(_left_terms(d_inv_c, negate=True), _right_terms(s_inv, m))
    bottom_right = _gemm(_left_terms(bottom_left, negate=True), b_d_inv, d_inv)
    rows = [left + right for left, right in zip(s_inv + bottom_left, top_right + bottom_right)]
    return _wrap(matrix.ring, matrix.shape, rows)


def right_divide(rhs: SuperMatrix, matrix: SuperMatrix) -> SuperMatrix:
    """rhs * matrix^-1 without forming the inverse.

    With rhs = [R1 | R2] split like the rows of matrix, the quotient is
    [X1 | X2] with X1 = (R1 - R2 D^-1 C) S^-1 and X2 = R2 D^-1 - X1 B D^-1.
    Raises NotInvertible exactly as sm_inv does.
    """
    if rhs.shape.cols != matrix.shape.rows:
        raise ShapeMismatch(f"cannot divide shape {rhs.shape} by shape {matrix.shape}")
    d_inv, b_d_inv, s_inv, c = _schur_step(matrix)
    m, n = matrix.shape.rows
    grid = _grid(rhs)
    r2_d_inv = _gemm(_left_terms([row[m:] for row in grid]), _right_terms(d_inv, n))
    reduced = _gemm(_left_terms(r2_d_inv, negate=True), c, [row[:m] for row in grid])
    x1 = _gemm(_left_terms(reduced), _right_terms(s_inv, m))
    x2 = _gemm(_left_terms(x1, negate=True), b_d_inv, r2_d_inv)
    return _wrap(rhs.ring, SuperShape(rhs.shape.rows, matrix.shape.cols),
                 [left + right for left, right in zip(x1, x2)])


def berezinian(matrix: SuperMatrix) -> SuperElement:
    """det(A - B D^-1 C) * det(D)^-1; multiplicative on invertible matrices.

    One elimination of [[D, C], [B, A]], D's rows and columns first: the
    first n pivots come from D's rows, as B's entries are odd and never
    units, and their product with the swap sign of that part is det D.  They
    leave the Schur complement A - B D^-1 C in B's rows, whose determinant
    det_even takes.  When D's part stalls, Cayley-Hamilton on the block T of
    D's rows and columns not yet eliminated decides whether D is invertible,
    and T^-1 finishes the Schur complement.
    """
    if not matrix.shape.is_square:
        raise ShapeMismatch(f"Berezinian of non-square shape {matrix.shape}")
    ring = matrix.ring
    m, n = matrix.shape.rows
    order = [*range(m, m + n), *range(m)]
    rows = [[dict(matrix.entries[i][j].terms) for j in order] for i in order]
    det_d, col = _unit_pivot_elimination(ring, rows, n)
    det_d = SuperElement(ring, det_d)
    schur = _wrap(ring, SuperShape((m, 0), (m, 0)), [row[n:] for row in rows[n:]])
    if col < n:
        k = n - col
        t = _wrap(ring, SuperShape((0, k), (0, k)), [row[col:n] for row in rows[col:n]])
        det_t, t_inv = _cayley_hamilton(t)
        det_d = det_d * det_t
        if t_inv is None:
            raise NotInvertible(f"odd-odd block is singular: body determinant {det_d.body()!r}")
        b = _wrap(ring, SuperShape((m, 0), (0, k)), [row[col:n] for row in rows[n:]])
        c = _wrap(ring, SuperShape((0, k), (m, 0)), [row[n:] for row in rows[col:n]])
        schur = schur - b * t_inv * c
    return det_even(schur) * det_d.inv()
