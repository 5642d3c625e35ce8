from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from sgq import (
    GaussianRational,
    NotInvertible,
    ParityPatternViolation,
    RingMismatch,
    ShapeMismatch,
    SuperMatrix,
    SuperRing,
    SuperShape,
    berezinian,
    block_matrix,
    det_even,
    inv_even,
    is_invertible,
    sm_inv,
)
from sgq.flag import BlockProfile, assemble, normal_form
from sgq.grassmannian import chart_down, orbit_map
from sgq.kronecker import PackedRows, common_den
from sgq.matrix import (
    _charpoly,
    _columns,
    _det_and_inverse,
    _gemm,
    _grid,
    _left_terms,
    _private_rows,
    _right_terms,
    _unit_pivot_elimination,
    _wrap,
    right_divide,
)
from sgq import sampling
from sgq.sampling import random_invertible, random_soul, random_unit, trial_rng

from oracles import (
    adjugate_inverse,
    kloop_matmul,
    schur_berezinian,
    schur_right_divide,
    schur_sm_inv,
    subset_dp_det,
)


def sq(ring, rows):
    return SuperMatrix(ring, SuperShape((1, 1), (1, 1)), rows)


def test_identity_is_pattern_valid(grassmann2):
    eye = SuperMatrix.identity(grassmann2, 1, 1)
    assert eye[0, 0].is_one() and eye[1, 1].is_one()


def test_off_parity_entry_rejected(grassmann2):
    t1 = grassmann2.gen("t1")
    with pytest.raises(ParityPatternViolation) as err:
        sq(grassmann2, [[t1, grassmann2.zero()], [grassmann2.zero(), grassmann2.one()]])
    assert "(0, 0)" in str(err.value)


def test_construction_faults_keep_their_messages_and_order(grassmann2):
    # faults are reported in row-major order, a ring fault before a parity
    # fault of the same entry; an equal ring that is another object passes
    one, zero, t1 = grassmann2.one(), grassmann2.zero(), grassmann2.gen("t1")
    other = SuperRing([], ["s1"]).one()
    twin = SuperRing([], ["t1", "t2"])
    assert twin is not grassmann2
    assert sq(grassmann2, [[twin.one(), zero], [zero, one]])[0, 0] == one
    cases = [
        ([[one, zero]], ShapeMismatch, "entry array does not match shape SuperShape(rows=(1, 1), cols=(1, 1))"),
        ([[one, zero], [zero]], ShapeMismatch,
         "entry array does not match shape SuperShape(rows=(1, 1), cols=(1, 1))"),
        ([[other, t1], [zero, one]], RingMismatch, "entry (0, 0) lives in a different ring"),
        ([[one, one], [other, one]], ParityPatternViolation, "entry (0, 1) must be odd: 1"),
        ([[one, zero], [t1 + one * 0, t1]], ParityPatternViolation, "entry (1, 1) must be even: t1"),
        ([[one, zero], [zero, SuperRing([], ["s1"]).gen("s1")]], RingMismatch,
         "entry (1, 1) lives in a different ring"),
    ]
    for rows, error, message in cases:
        with pytest.raises(error) as err:
            sq(grassmann2, rows)
        assert str(err.value) == message


def test_odd_corners_accepted(grassmann2):
    matrix = sq(grassmann2, [[grassmann2.one(), grassmann2.gen("t1")],
                             [grassmann2.gen("t2"), grassmann2.one()]])
    assert matrix[0, 1] == grassmann2.gen("t1")


def test_product_against_direct_expansion(grassmann2):
    one, t1, t2 = grassmann2.one(), grassmann2.gen("t1"), grassmann2.gen("t2")
    left = sq(grassmann2, [[one, t1], [t2, one]])
    right = sq(grassmann2, [[one, -t1], [-t2, one]])
    expected = sq(grassmann2, [[one - t1 * t2, grassmann2.zero()],
                               [grassmann2.zero(), one + t1 * t2]])
    assert left * right == expected


def test_identity_absorbs(grassmann2):
    eye = SuperMatrix.identity(grassmann2, 1, 1)
    matrix = sq(grassmann2, [[grassmann2.scalar(3), grassmann2.gen("t1")],
                             [grassmann2.gen("t2"), grassmann2.scalar(5)]])
    assert eye * matrix == matrix and matrix * eye == matrix


def test_shape_mismatch(grassmann2):
    tall = SuperMatrix.zeros(grassmann2, SuperShape((2, 0), (1, 0)))
    wide = SuperMatrix.zeros(grassmann2, SuperShape((1, 0), (2, 0)))
    with pytest.raises(ShapeMismatch):
        tall * tall
    assert (tall * wide).shape == SuperShape((2, 0), (2, 0))


def _assert_canonical(matrix):
    """Every stored coefficient is a nonzero canonical triple."""
    for row in matrix.entries:
        for entry in row:
            for c in entry.terms.values():
                assert c.den > 0 and gcd(c.re_num, c.im_num, c.den) == 1 and (c.re_num or c.im_num)


_PRODUCT_RINGS = (SuperRing([], ["t1", "t2", "t3"]), SuperRing(["x"], ["t1", "t2"]))


_SMALL_PARTS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))


@st.composite
def _graded_matrices(draw, ring, rows, cols, part=_SMALL_PARTS):
    """A pattern-valid matrix whose coefficients have independent denominators
    on their real and imaginary parts."""
    shape = SuperShape(rows, cols)
    entries = []
    for i in range(shape.n_rows):
        row = []
        for j in range(shape.n_cols):
            parity = (shape.row_parity(i) + shape.col_parity(j)) % 2
            odd = [s for size in range(parity, ring.n_odd + 1, 2) for s in combinations(range(ring.n_odd), size)]
            terms = {}
            for _ in range(draw(st.integers(0, 3))):
                exp = tuple(draw(st.integers(0, 2)) for _ in ring.even_vars)
                terms[(exp, draw(st.sampled_from(odd)))] = GaussianRational(draw(part), draw(part))
            row.append(ring.element(terms))
        entries.append(row)
    return SuperMatrix(ring, shape, entries)


@st.composite
def _product_operands(draw):
    ring = draw(st.sampled_from(_PRODUCT_RINGS))
    grading = st.tuples(st.integers(0, 2), st.integers(0, 2))
    rows, inner, cols = draw(grading), draw(grading), draw(grading)
    return draw(_graded_matrices(ring, rows, inner)), draw(_graded_matrices(ring, inner, cols))


@settings(deadline=None, max_examples=150)
@given(_product_operands())
@example((SuperMatrix.zeros(_PRODUCT_RINGS[0], SuperShape((2, 1), (0, 0))),
          SuperMatrix.zeros(_PRODUCT_RINGS[0], SuperShape((0, 0), (1, 2)))))
def test_product_matches_kloop_oracle(operands):
    left, right = operands
    product = left * right
    assert product.shape == SuperShape(left.shape.rows, right.shape.cols)
    assert product == kloop_matmul(left, right)
    _assert_canonical(product)


@settings(deadline=None, max_examples=40)
@given(ring=st.sampled_from(_PRODUCT_RINGS), m=st.integers(0, 3), n=st.integers(0, 3), seed=st.integers(0, 10 ** 6))
def test_product_with_inverse_cancels_to_identity(ring, m, n, seed):
    # every off-diagonal sum and every soul on the diagonal cancels to zero
    x = random_invertible(ring, trial_rng(seed, "product", m * 4 + n), m, n)
    x_inv = sm_inv(x)
    for left, right in ((x, x_inv), (x_inv, x)):
        product = left * right
        assert product == SuperMatrix.identity(ring, m, n) == kloop_matmul(left, right)
        assert all(len(e.terms) == (i == j) for i, row in enumerate(product.entries) for j, e in enumerate(row))
        _assert_canonical(product)


def test_product_sums_distinct_denominators(grassmann2):
    # 1/2 + 1/3 + 1/6 = 1, and (1/2 + 1/3 - 5/6) * i/4 = 0, over three denominators
    t12 = grassmann2.gen("t1") * grassmann2.gen("t2")
    half, third, sixth = (grassmann2.scalar(Fraction(1, k)) for k in (2, 3, 6))
    quarter_i = grassmann2.scalar(GaussianRational(0, Fraction(1, 4)))
    one = grassmann2.one()
    left = SuperMatrix(grassmann2, SuperShape((3, 0), (3, 0)), [[half, third, sixth]] * 3)
    right = SuperMatrix(grassmann2, SuperShape((3, 0), (3, 0)),
                        [[one, quarter_i * t12, t12]] * 2 + [[one, quarter_i * t12 * -5, t12]])
    product = left * right
    assert product == kloop_matmul(left, right)
    assert product[0, 0].is_one() and product[0, 1].is_zero() and product[0, 2] == t12
    _assert_canonical(product)


_EMPTY_INNER_SEED = SuperMatrix(_PRODUCT_RINGS[0], SuperShape((2, 1), (1, 2)),
                                [[_PRODUCT_RINGS[0].one()] + [_PRODUCT_RINGS[0].zero()] * 2,
                                 [_PRODUCT_RINGS[0].zero()] * 3,
                                 [_PRODUCT_RINGS[0].gen("t1"), _PRODUCT_RINGS[0].zero(), _PRODUCT_RINGS[0].one()]])


@st.composite
def _gemm_operands(draw):
    ring = draw(st.sampled_from(_PRODUCT_RINGS))
    grading = st.tuples(st.integers(0, 2), st.integers(0, 2))
    rows, inner, cols = draw(grading), draw(grading), draw(grading)
    return (draw(_graded_matrices(ring, rows, inner)), draw(_graded_matrices(ring, inner, cols)),
            draw(_graded_matrices(ring, rows, cols)))


def _fused(left, right, seed=None, negate=False):
    """seed +- left * right through _gemm, wrapped."""
    grid = _gemm(_left_terms(_grid(left), negate), _right_terms(_grid(right), right.n_cols),
                 None if seed is None else _grid(seed))
    return _wrap(left.ring, SuperShape(left.shape.rows, right.shape.cols), grid)


@settings(deadline=None, max_examples=150)
@given(_gemm_operands(), st.booleans(), st.booleans())
@example((SuperMatrix.zeros(_PRODUCT_RINGS[0], SuperShape((2, 1), (0, 0))),
          SuperMatrix.zeros(_PRODUCT_RINGS[0], SuperShape((0, 0), (1, 2))),
          _EMPTY_INNER_SEED), True, True)
def test_seeded_gemm_matches_kloop_oracle(operands, seeded, negate):
    left, right, seed = operands
    kept = [(e.terms, dict(e.terms)) for row in seed.entries for e in row]
    product = kloop_matmul(left, right)
    result = _fused(left, right, seed if seeded else None, negate)
    expected = -product if negate else product
    assert result == (seed + expected if seeded else expected)
    _assert_canonical(result)
    # C - A * B with C = A * B cancels in every entry, storing no zero
    cancelled = _fused(left, right, product, negate=True)
    assert all(not e.terms for row in cancelled.entries for e in row)
    # the seed's term maps are the caller's: read, never written
    assert all(e.terms is terms and e.terms == copy
               for e, (terms, copy) in zip((e for row in seed.entries for e in row), kept))


def _both_kernels(left, right, seed=None, negate=False):
    """seed +- left * right through each kernel of _gemm, called directly."""
    rows = _left_terms(_grid(left), negate)
    grid, width = _grid(right), right.n_cols
    seeds = None if seed is None else _grid(seed)
    shape = SuperShape(left.shape.rows, right.shape.cols)
    return [_wrap(left.ring, shape, _gemm(rows, operand, seeds))
            for operand in (_columns(grid, width), PackedRows(grid, width, common_den(grid, width)))]


# numerators past 2**64 as well as small ones, so fields are wider than a machine word
_WIDE_PARTS = st.builds(Fraction, st.integers(-4, 4) | st.integers(-2 ** 90, 2 ** 90), st.integers(1, 6))


@st.composite
def _kernel_operands(draw):
    ring = draw(st.sampled_from(_PRODUCT_RINGS))
    grading = st.tuples(st.integers(0, 3), st.integers(0, 3))
    rows, inner, cols = draw(grading), draw(grading), draw(grading)
    part = draw(st.sampled_from((_SMALL_PARTS, _WIDE_PARTS)))
    return (draw(_graded_matrices(ring, rows, inner, part)), draw(_graded_matrices(ring, inner, cols, part)),
            draw(_graded_matrices(ring, rows, cols, part)))


@settings(deadline=None, max_examples=200)
@given(_kernel_operands(), st.booleans(), st.booleans())
@example((SuperMatrix.zeros(_PRODUCT_RINGS[1], SuperShape((2, 1), (3, 0))),
          SuperMatrix.zeros(_PRODUCT_RINGS[1], SuperShape((3, 0), (1, 2))),
          SuperMatrix.zeros(_PRODUCT_RINGS[1], SuperShape((2, 1), (1, 2)))), True, True)
@example((SuperMatrix.zeros(_PRODUCT_RINGS[0], SuperShape((2, 1), (0, 0))),
          SuperMatrix.zeros(_PRODUCT_RINGS[0], SuperShape((0, 0), (1, 2))),
          _EMPTY_INNER_SEED), True, False)
def test_both_kernels_match_kloop_oracle(operands, seeded, negate):
    left, right, seed = operands
    product = kloop_matmul(left, right)
    expected = -product if negate else product
    expected = seed + expected if seeded else expected
    for result in _both_kernels(left, right, seed if seeded else None, negate):
        assert result == expected
        _assert_canonical(result)


def test_packed_fields_reach_their_width_bound(grassmann2):
    # each term of a row adds (L + Li)(R - Ri) = 2LR to a real field, so a
    # row of n terms reaches 2nLR, the bound the field width is set from;
    # negated, the fields reach -2nLR
    big, small = 2 ** 70 - 1, 3
    for left_value, right_value in ((big, big), (small, big), (big, small), (1, 1)):
        entry = grassmann2.scalar(GaussianRational(left_value, left_value))
        left = SuperMatrix(grassmann2, SuperShape((3, 0), (3, 0)), [[entry] * 3] * 3)
        entry = grassmann2.scalar(GaussianRational(right_value, -right_value))
        right = SuperMatrix(grassmann2, SuperShape((3, 0), (4, 0)), [[entry] * 4] * 3)
        for negate in (False, True):
            value = grassmann2.scalar(6 * left_value * right_value * (-1 if negate else 1))
            for result in _both_kernels(left, right, negate=negate):
                assert all(e == value for row in result.entries for e in row)


def test_packed_output_keys_take_every_column_they_touch(grassmann2):
    # t1 reaches column 0 from row 0 of the right operand and column 2 from
    # row 1, so its key must be read in both columns
    one, zero, t1 = grassmann2.one(), grassmann2.zero(), grassmann2.gen("t1")
    left = SuperMatrix(grassmann2, SuperShape((1, 0), (2, 0)), [[one, one]])
    right = SuperMatrix(grassmann2, SuperShape((2, 0), (0, 3)), [[t1, zero, zero], [zero, zero, t1]])
    for result in _both_kernels(left, right):
        assert result == kloop_matmul(left, right)
        assert result[0, 0] == result[0, 2] == t1 and result[0, 1].is_zero()


def _full_matrix(ring, m, n, den=1):
    """An (m|n) matrix over Lambda[t1, t2] with every key in every entry:
    a + b t1t2 where even, c t1 + d t2 where odd, over the denominator den."""
    t1, t2 = ring.gen("t1"), ring.gen("t2")
    shape = SuperShape((m, n), (m, n))
    rows = []
    for i in range(m + n):
        row = []
        for j in range(m + n):
            a, b = (GaussianRational(Fraction(i + 2 * j + 1, den)), GaussianRational(Fraction(i - j - 7, den)))
            row.append(t1 * a + t2 * b if shape.row_parity(i) != shape.col_parity(j) else t1 * t2 * b + a)
        rows.append(row)
    return SuperMatrix(ring, shape, rows)


def test_dense_operands_take_packed_rows_and_sparse_ones_take_dot(grassmann2):
    # (3|3) at q = 2 with every key in every entry: 3 terms per key in each row
    dense = _full_matrix(grassmann2, 3, 3)
    assert isinstance(_right_terms(_grid(dense), dense.n_cols), PackedRows)
    # the same with a common denominator over 64 bits, or as a 2 x 2 matrix
    wide = _full_matrix(grassmann2, 3, 3, den=2 ** 64 + 1)
    small = _full_matrix(grassmann2, 1, 1)
    # q = 6: few terms share a key
    sparse_ring = SuperRing([], [f"t{k}" for k in range(1, 7)])
    sparse = random_invertible(sparse_ring, trial_rng(0, "kernel choice", 0), 3, 3)
    for matrix in (wide, small, sparse):
        assert isinstance(_right_terms(_grid(matrix), matrix.n_cols), list)
    for left, right in ((dense, wide), (wide, dense), (sparse, sparse), (small, small)):
        assert left * right == kloop_matmul(left, right)


def test_seeded_gemm_cancels_across_denominators(grassmann2):
    # the product is 1/2 + 1/3 = 5/6 plus (i/12 + i/12) t1t2 = i/6 t1t2; the
    # seed holds both and 1/5 t1t2 besides, so only 1/5 t1t2 is left
    t12 = grassmann2.gen("t1") * grassmann2.gen("t2")
    scalar = lambda re, im=0: grassmann2.scalar(GaussianRational(Fraction(*re), Fraction(*im) if im else 0))
    shape = lambda r, c: SuperShape((r, 0), (c, 0))
    left = SuperMatrix(grassmann2, shape(1, 2), [[scalar((1, 2)), scalar((1, 3))]])
    right = SuperMatrix(grassmann2, shape(2, 1), [[grassmann2.one() + scalar((0, 1), (1, 6)) * t12],
                                                 [grassmann2.one() + scalar((0, 1), (1, 4)) * t12]])
    seed = SuperMatrix(grassmann2, shape(1, 1),
                       [[scalar((5, 6)) + scalar((0, 1), (1, 6)) * t12 + scalar((1, 5)) * t12]])
    result = _fused(left, right, seed, negate=True)
    assert result == seed - kloop_matmul(left, right)
    assert result[0, 0] == scalar((1, 5)) * t12
    _assert_canonical(result)


def test_block_matrix_concatenates(grassmann2):
    one, t1, t2 = grassmann2.one(), grassmann2.gen("t1"), grassmann2.gen("t2")
    a = SuperMatrix(grassmann2, SuperShape((1, 0), (1, 0)), [[one + t1 * t2]])
    b = SuperMatrix(grassmann2, SuperShape((1, 0), (0, 1)), [[t1]])
    c = SuperMatrix(grassmann2, SuperShape((0, 1), (1, 0)), [[t2]])
    d = SuperMatrix(grassmann2, SuperShape((0, 1), (0, 1)), [[-one]])
    assert block_matrix([[a, b], [c, d]]) == sq(grassmann2, [[one + t1 * t2, t1], [t2, -one]])


def _zeros(ring, rows, cols):
    return SuperMatrix.zeros(ring, SuperShape(rows, cols))


def test_block_matrix_faults(grassmann2, mixed_ring):
    z = lambda rows, cols, ring=grassmann2: _zeros(ring, rows, cols)
    with pytest.raises(ShapeMismatch, match="empty"):
        block_matrix([[]])
    with pytest.raises(RingMismatch):
        block_matrix([[z((1, 0), (1, 0)), z((1, 0), (0, 1), mixed_ring)]])
    with pytest.raises(ShapeMismatch, match="heights"):
        block_matrix([[z((1, 0), (1, 0)), z((2, 0), (0, 1))]])
    with pytest.raises(ShapeMismatch, match="row parity"):
        block_matrix([[z((1, 0), (1, 0)), z((0, 1), (0, 1))]])
    with pytest.raises(ShapeMismatch, match="width"):
        block_matrix([[z((1, 0), (1, 0))], [z((0, 1), (2, 0))]])
    with pytest.raises(ShapeMismatch, match="interleave"):
        block_matrix([[z((0, 1), (1, 0))], [z((1, 0), (1, 0))]])
    with pytest.raises(ShapeMismatch, match="interleave"):
        block_matrix([[z((1, 0), (0, 1)), z((1, 0), (1, 0))]])


def test_block_matrix_zero_block_keeps_its_column_grading(grassmann2):
    # a zero entry has both parities, so only the block's own grading can
    # show that its column is odd where the block above has an even one
    top = SuperMatrix.identity(grassmann2, 1, 0)
    with pytest.raises(ShapeMismatch, match="column parity"):
        block_matrix([[top], [_zeros(grassmann2, (0, 1), (0, 1))]])


def test_schur_inverse_matches_expansion(grassmann2):
    one, t1, t2 = grassmann2.one(), grassmann2.gen("t1"), grassmann2.gen("t2")
    matrix = sq(grassmann2, [[one, t1], [t2, one]])
    expected = sq(grassmann2, [[one + t1 * t2, -t1], [-t2, one - t1 * t2]])
    inverse = sm_inv(matrix)
    assert inverse == expected
    eye = SuperMatrix.identity(grassmann2, 1, 1)
    assert matrix * inverse == eye and inverse * matrix == eye


def test_inverse_of_identity(grassmann2):
    eye = SuperMatrix.identity(grassmann2, 2, 1)
    assert sm_inv(eye) == eye


def test_singular_body_reports_block(grassmann2):
    t1t2 = grassmann2.gen("t1") * grassmann2.gen("t2")
    matrix = sq(grassmann2, [[t1t2, grassmann2.zero()], [grassmann2.zero(), grassmann2.one()]])
    with pytest.raises(NotInvertible) as err:
        sm_inv(matrix)
    assert str(err.value) == "even-even block is singular: determinant is not a unit: body 0"
    matrix = sq(grassmann2, [[grassmann2.one(), grassmann2.zero()], [grassmann2.zero(), t1t2]])
    with pytest.raises(NotInvertible) as err:
        sm_inv(matrix)
    assert str(err.value) == "odd-odd block is singular: determinant is not a unit: body 0"


def _random_rows(ring, rng, shape):
    """A pattern-valid matrix of the given shape with random homogeneous entries."""
    rows = [[sampling.random_homogeneous(ring, rng, (shape.row_parity(i) + shape.col_parity(j)) % 2)
             for j in range(shape.n_cols)] for i in range(shape.n_rows)]
    return SuperMatrix(ring, shape, rows)


@pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (1, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("rows", [(0, 0), (1, 0), (0, 1), (2, 1)])
def test_right_divide_matches_product_with_inverse(grassmann4, m, n, rows):
    rng = trial_rng(m * 10 + n, "right_divide", rows[0] * 10 + rows[1])
    matrix = random_invertible(grassmann4, rng, m, n)
    rhs = _random_rows(grassmann4, rng, SuperShape(rows, (m, n)))
    quotient = right_divide(rhs, matrix)
    assert quotient.shape == rhs.shape
    assert quotient == rhs * sm_inv(matrix)
    assert quotient * matrix == rhs


def test_right_divide_reports_the_singular_block(grassmann2):
    t1t2 = grassmann2.gen("t1") * grassmann2.gen("t2")
    one, zero = grassmann2.one(), grassmann2.zero()
    rhs = SuperMatrix.identity(grassmann2, 1, 1)
    with pytest.raises(NotInvertible) as err:
        right_divide(rhs, sq(grassmann2, [[t1t2, zero], [zero, one]]))
    assert str(err.value) == "even-even block is singular: determinant is not a unit: body 0"
    with pytest.raises(NotInvertible) as err:
        right_divide(rhs, sq(grassmann2, [[one, zero], [zero, t1t2]]))
    assert str(err.value) == "odd-odd block is singular: determinant is not a unit: body 0"


def test_right_divide_needs_matching_columns(grassmann2):
    rhs = SuperMatrix.zeros(grassmann2, SuperShape((1, 0), (2, 0)))
    with pytest.raises(ShapeMismatch):
        right_divide(rhs, SuperMatrix.identity(grassmann2, 1, 1))


def test_determinant_division_free_on_zero_divisors():
    # all entries are zero divisors, yet the determinant is well defined
    ring = SuperRing([], [f"t{i}" for i in range(1, 9)])
    pair = lambda i, j: ring.gen(f"t{i}") * ring.gen(f"t{j}")
    matrix = SuperMatrix(ring, SuperShape((2, 0), (2, 0)),
                         [[pair(1, 2), pair(3, 4)], [pair(5, 6), pair(7, 8)]])
    det = det_even(matrix)
    assert det == pair(1, 2) * pair(7, 8) - pair(3, 4) * pair(5, 6)
    assert not det.is_unit()


def test_inv_even_with_polynomial_entries():
    ring = SuperRing(["x"], [])
    x, one = ring.gen("x"), ring.one()
    matrix = SuperMatrix(ring, SuperShape((2, 0), (2, 0)), [[x, x + one], [x - one, x]])
    assert det_even(matrix).is_one()
    # no entry of the first column is a unit: the elimination stalls and
    # Cayley-Hamilton inverts
    assert _stalls(matrix)
    assert matrix * inv_even(matrix) == SuperMatrix.identity(ring, 2, 0)


def test_berezinian_identity(grassmann2):
    assert berezinian(SuperMatrix.identity(grassmann2, 1, 1)).is_one()
    assert berezinian(SuperMatrix.identity(grassmann2, 2, 2)).is_one()


def test_berezinian_diagonal(grassmann2):
    matrix = sq(grassmann2, [[grassmann2.scalar(2), grassmann2.zero()],
                             [grassmann2.zero(), grassmann2.scalar(4)]])
    assert berezinian(matrix) == grassmann2.scalar(Fraction(1, 2))


def test_berezinian_formula_case(grassmann2):
    one, t1, t2 = grassmann2.one(), grassmann2.gen("t1"), grassmann2.gen("t2")
    matrix = sq(grassmann2, [[one, t1], [t2, one]])
    assert berezinian(matrix) == one - t1 * t2


def test_berezinian_requires_invertible_odd_block(grassmann2):
    matrix = sq(grassmann2, [[grassmann2.one(), grassmann2.zero()],
                             [grassmann2.zero(), grassmann2.gen("t1") * grassmann2.gen("t2")]])
    with pytest.raises(NotInvertible) as err:
        berezinian(matrix)
    assert str(err.value) == "odd-odd block is singular: body determinant 0"


def test_berezinian_multiplicative_spot(grassmann4):
    rng = trial_rng(11, "test.ber", 0)
    x = random_invertible(grassmann4, rng, 2, 2)
    y = random_invertible(grassmann4, rng, 2, 2)
    assert berezinian(x * y) == berezinian(x) * berezinian(y)


def test_associativity_spot(grassmann4):
    rng = trial_rng(11, "test.assoc", 0)
    x = random_invertible(grassmann4, rng, 2, 1)
    y = random_invertible(grassmann4, rng, 2, 1)
    z = random_invertible(grassmann4, rng, 2, 1)
    assert (x * y) * z == x * (y * z)


def test_body_commutes_with_product(grassmann4):
    rng = trial_rng(11, "test.body", 0)
    x = random_invertible(grassmann4, rng, 2, 2)
    y = random_invertible(grassmann4, rng, 2, 2)
    assert (x * y).body() == x.body() * y.body()


def test_is_invertible_detects_soul_body(grassmann2):
    t1t2 = grassmann2.gen("t1") * grassmann2.gen("t2")
    good = sq(grassmann2, [[grassmann2.one() + t1t2, grassmann2.gen("t1")],
                           [grassmann2.zero(), grassmann2.one()]])
    assert is_invertible(good)
    bad = sq(grassmann2, [[t1t2, grassmann2.gen("t1")], [grassmann2.zero(), grassmann2.one()]])
    assert not is_invertible(bad)


# -- unit-pivot elimination and its stall fallback against the subset DP and
# -- the cofactor adjugate


def _even_square(ring, rows):
    n = len(rows)
    return SuperMatrix(ring, SuperShape((n, 0), (n, 0)), rows)


def _stalls(matrix):
    return _unit_pivot_elimination(matrix.ring, _private_rows(matrix), matrix.n_rows)[1] < matrix.n_rows


def _check_against_oracles(matrix):
    """det_even and inv_even against the oracles; the determinant."""
    det = det_even(matrix)
    assert det == subset_dp_det(matrix)
    assert _det_and_inverse(matrix)[0] == det
    if det.is_unit():
        inverse = inv_even(matrix)
        assert inverse == adjugate_inverse(matrix, det)
        assert matrix * inverse == SuperMatrix.identity(matrix.ring, matrix.n_rows, 0)
    else:
        with pytest.raises(NotInvertible) as err:
            inv_even(matrix)
        assert str(err.value) == f"determinant is not a unit: body {det.body()!r}"
    return det


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("n", range(7))
def test_elimination_matches_adjugate_and_dp(n, q):
    ring = SuperRing([], [f"t{k}" for k in range(1, q + 1)])
    rng = trial_rng(5, f"test.elim.{q}", n)
    matrix = random_invertible(ring, rng, n, 0, bound=3)
    assert not _stalls(matrix)
    _check_against_oracles(matrix)
    if n >= 2:
        # a zero body at (0, 0) forces a row swap in the first column
        rows = [list(row) for row in matrix.entries]
        rows[0][0] = random_soul(ring, rng, parity=0)
        _check_against_oracles(_even_square(ring, rows[::-1]))
        _check_against_oracles(_even_square(ring, rows))


def test_elimination_sign_after_one_row_swap(grassmann4):
    # body [[0, 1], [1, 0]]: one swap, so the determinant's body is -1
    soul = lambda i: random_soul(grassmann4, trial_rng(5, "test.swap1", i), parity=0)
    one = grassmann4.one()
    matrix = _even_square(grassmann4, [[soul(0), one + soul(1)], [one + soul(2), soul(3)]])
    assert not matrix[0, 0].is_unit()
    det = _check_against_oracles(matrix)
    assert det.body() == -one


def test_elimination_sign_after_two_row_swaps(grassmann4):
    # body of a 3-cycle: column 0 swaps rows 0 and 2, column 1 swaps rows 1
    # and 2, and the even permutation leaves the determinant's body at +1
    one = grassmann4.one()
    rng = trial_rng(5, "test.swap2", 0)
    body = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    matrix = _even_square(grassmann4, [[(one if b else grassmann4.zero()) + random_soul(grassmann4, rng, parity=0)
                                        for b in row] for row in body])
    det = _check_against_oracles(matrix)
    assert det.body() == one


def test_elimination_stalls_on_singular_body(grassmann4):
    rng = trial_rng(5, "test.stall", 0)
    one = grassmann4.one()
    rows = [[one + random_soul(grassmann4, rng, parity=0) for _ in range(3)] for _ in range(3)]
    matrix = _even_square(grassmann4, rows)
    assert _stalls(matrix)
    with pytest.raises(NotInvertible) as err:
        inv_even(matrix)
    assert str(err.value) == "determinant is not a unit: body 0"


@pytest.mark.parametrize("n", range(1, 7))
def test_stall_on_singular_constant_body(grassmann4, n):
    # the last row repeats the body of the first plus souls (n = 1: a soul):
    # the body is singular, so the elimination stalls and the determinant
    # is nilpotent
    rng = trial_rng(5, "test.stall.singular", n)
    rows = [list(row) for row in random_invertible(grassmann4, rng, n, 0, bound=3).entries]
    rows[-1] = [(e.body() if n > 1 else grassmann4.zero()) + random_soul(grassmann4, rng, parity=0)
                for e in rows[0]]
    matrix = _even_square(grassmann4, rows)
    assert _stalls(matrix)
    assert not _check_against_oracles(matrix).is_unit()


POLY = SuperRing(["x"], ["t1", "t2", "t3"])


def _stalling_polynomial_matrix(n, lead, seed):
    """blockdiag(lead, units) times a unit upper triangular matrix with
    polynomial entries: column 0 is lead's, the determinant is det(lead)
    times units."""
    rng = trial_rng(5, "test.stall.poly", seed)
    x, one, zero = POLY.gen("x"), POLY.one(), POLY.zero()
    k = len(lead)

    def poly():
        return (POLY.scalar(sampling.random_scalar(rng, 3)) * x + POLY.scalar(sampling.random_scalar(rng, 3))
                + random_soul(POLY, rng, parity=0))

    diagonal = [[lead[i][j] if i < k and j < k else random_unit(POLY, rng) if i == j else zero
                 for j in range(n)] for i in range(n)]
    upper = [[one if i == j else poly() if j > i else zero for j in range(n)] for i in range(n)]
    return _even_square(POLY, diagonal) * _even_square(POLY, upper)


@pytest.mark.parametrize("n", range(2, 7))
def test_stall_on_polynomial_body_with_unit_det(n):
    x, one = POLY.gen("x"), POLY.one()
    matrix = _stalling_polynomial_matrix(n, [[x, x + one], [x - one, x]], n)
    assert _stalls(matrix)
    assert _check_against_oracles(matrix).is_unit()


@pytest.mark.parametrize("n", range(1, 7))
def test_stall_on_polynomial_body_with_non_unit_det(n):
    x, one = POLY.gen("x"), POLY.one()
    # [[x, 1], [1, x]] has a unit pivot in column 0, and the stall comes one
    # column later; det x^2 - 1
    lead = [[x]] if n == 1 else [[x, one], [one, x]]
    matrix = _stalling_polynomial_matrix(n, lead, 10 + n)
    assert _stalls(matrix)
    assert not _check_against_oracles(matrix).is_unit()


def test_charpoly_against_sympy():
    sympy = pytest.importorskip("sympy")
    ring = SuperRing(["x"], [])
    x, lam = sympy.Symbol("x"), sympy.Symbol("lam")
    rng = trial_rng(5, "test.charpoly", 0)
    for n in range(5):
        rows = [[sum((ring.scalar(sampling.random_scalar(rng, 3)) * ring.gen("x") ** k for k in range(2)),
                     ring.zero()) for _ in range(n)] for _ in range(n)]
        matrix = _even_square(ring, rows)
        expected = sympy.Matrix(n, n, [_to_sympy(e, x) for row in rows for e in row]).charpoly(lam).all_coeffs()
        assert len(expected) == n + 1
        for ours, theirs in zip(_charpoly(matrix), expected):
            assert sympy.expand(_to_sympy(ours, x) - theirs) == 0


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 4)])
def test_berezinian_through_even_block(grassmann4, m, n):
    # Deligne-Morgan: Ber = det(A) * det(D - C A^-1 B)^-1 for invertible A
    x = random_invertible(grassmann4, trial_rng(5, "test.ber.a", 10 * m + n), m, n, bound=3)
    a = x.select(range(m), range(m))
    b = x.select(range(m), range(m, m + n))
    c = x.select(range(m, m + n), range(m))
    d = x.select(range(m, m + n), range(m, m + n))
    assert berezinian(x) == det_even(a) * det_even(d - c * inv_even(a) * b).inv()


_BER_RINGS = (SuperRing([], ["t1", "t2", "t3"]), POLY)


def _ber_case(ring, m, n, kind, seed):
    """A random invertible (m|n) matrix, edited by kind: "swap" takes the
    bodies off the leading entries of A and D, so both parts of the
    elimination start with a row swap; "singular_a" and "singular_d" give the
    last row of A or D the body of its first (a soul alone at size 1);
    "poly" gives A and D, where of size 2 or more, a body whose leading 2 x 2
    block is [[x, x + 1], [x - 1, x]], of determinant 1 but with no unit in
    its first column; "poly_late" puts that block one index into D alone, of
    size 3 or more, after a unit."""
    rng = trial_rng(seed, f"test.ber.{kind}", 16 * m + n)
    rows = [list(row) for row in random_invertible(ring, rng, m, n, bound=3).entries]
    if kind == "swap":
        for k in [0] * bool(m) + [m] * bool(n):
            rows[k][k] = rows[k][k].soul()
    for part, lo, size in (("singular_a", 0, m), ("singular_d", m, n)):
        if kind == part and size:
            last = lo + size - 1
            for j in range(lo, lo + size):
                rows[last][j] = (rows[lo][j].body() if size > 1 else ring.zero()) + random_soul(ring, rng, parity=0)
    matrix = SuperMatrix(ring, SuperShape((m, n), (m, n)), rows)
    if kind in ("poly", "poly_late"):
        # the body of mixer * matrix * body^-1 is the mixer
        x, one = ring.gen("x"), ring.one()
        eye = SuperMatrix.identity(ring, m, n)
        mixer = [list(row) for row in eye.entries]
        for lo, size in ((0, m), (m, n)) if kind == "poly" else ((m + 1, n - 1),):
            if size >= 2:
                mixer[lo][lo], mixer[lo][lo + 1] = x, x + one
                mixer[lo + 1][lo], mixer[lo + 1][lo + 1] = x - one, x
        matrix = SuperMatrix(ring, eye.shape, mixer) * matrix * sm_inv(matrix.body())
    return matrix


_CASE_KINDS = st.sampled_from(["plain", "swap", "singular_a", "singular_d", "poly", "poly_late"])


@settings(deadline=None, max_examples=80)
@given(ring=st.sampled_from(_BER_RINGS), m=st.integers(0, 3), n=st.integers(0, 3),
       kind=_CASE_KINDS, seed=st.integers(0, 10 ** 6))
@example(ring=_BER_RINGS[0], m=0, n=0, kind="plain", seed=0)
@example(ring=_BER_RINGS[0], m=3, n=0, kind="swap", seed=0)
@example(ring=_BER_RINGS[0], m=0, n=3, kind="swap", seed=0)
@example(ring=_BER_RINGS[0], m=3, n=3, kind="swap", seed=1)
@example(ring=_BER_RINGS[0], m=3, n=2, kind="singular_a", seed=2)
@example(ring=_BER_RINGS[0], m=2, n=3, kind="singular_d", seed=3)
@example(ring=POLY, m=2, n=2, kind="poly", seed=4)
@example(ring=POLY, m=2, n=1, kind="poly", seed=5)
@example(ring=POLY, m=2, n=2, kind="singular_d", seed=6)
@example(ring=POLY, m=1, n=3, kind="poly_late", seed=8)
def test_berezinian_matches_schur_oracle(ring, m, n, kind, seed):
    matrix = _ber_case(ring, m, n, kind if not kind.startswith("poly") or ring is POLY else "plain", seed)
    try:
        expected = schur_berezinian(matrix)
    except NotInvertible as exc:
        with pytest.raises(NotInvertible) as err:
            berezinian(matrix)
        assert str(err.value) == str(exc)
        assert not subset_dp_det(matrix.select(range(m, m + n), range(m, m + n))).is_unit()
        return
    ber = berezinian(matrix)
    assert ber == expected
    # and against determinants that share no code with the elimination
    a, b = matrix.select(range(m), range(m)), matrix.select(range(m), range(m, m + n))
    c, d = matrix.select(range(m, m + n), range(m)), matrix.select(range(m, m + n), range(m, m + n))
    det_d = subset_dp_det(d)
    assert ber == subset_dp_det(a - b * adjugate_inverse(d, det_d) * c) * det_d.inv()


@pytest.mark.parametrize("m, n, kind, seed, outcome", [
    (3, 3, "swap", 1, "unit"), (3, 0, "swap", 0, "unit"), (0, 3, "swap", 0, "unit"),
    (3, 2, "singular_a", 2, "non-unit"), (2, 3, "singular_d", 3, "raises"),
])
def test_berezinian_oracle_examples_reach_their_paths(m, n, kind, seed, outcome):
    # the explicit examples above: both parts of the elimination start with a
    # row swap, a singular A body gives a nilpotent Ber, a singular D body
    # raises
    matrix = _ber_case(_BER_RINGS[0], m, n, kind, seed)
    if kind == "swap":
        assert all(not matrix[k, k].is_unit() for k in [0] * bool(m) + [m] * bool(n))
    if outcome == "raises":
        with pytest.raises(NotInvertible) as err:
            berezinian(matrix)
        assert str(err.value) == "odd-odd block is singular: body determinant 0"
    else:
        assert berezinian(matrix).is_unit() == (outcome == "unit")


@pytest.mark.parametrize("m, n, kind, stall", [
    (2, 2, "poly", 0), (2, 1, "poly", None), (2, 0, "poly", None), (0, 2, "poly", 0),
    (2, 3, "poly_late", 1), (0, 3, "poly_late", 1),
])
def test_berezinian_stalls_on_polynomial_bodies(m, n, kind, stall):
    # the elimination of D's columns stalls at column `stall`, or that of the
    # Schur complement's (stall None); the fallback still gives the oracle's
    # value
    matrix = _ber_case(POLY, m, n, kind, 7)
    order = [*range(m, m + n), *range(m)]
    rows = [[dict(matrix[i, j].terms) for j in order] for i in order]
    _, col = _unit_pivot_elimination(POLY, rows, n)
    if stall is None:
        assert col == n
        assert _unit_pivot_elimination(POLY, [row[n:] for row in rows[n:]], m)[1] < m
    else:
        assert col == stall
    assert berezinian(matrix) == schur_berezinian(matrix)


@settings(deadline=None, max_examples=80)
@given(ring=st.sampled_from(_BER_RINGS), m=st.integers(0, 3), n=st.integers(0, 3),
       rows=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       kind=_CASE_KINDS, seed=st.integers(0, 10 ** 6))
@example(ring=_BER_RINGS[0], m=0, n=0, rows=(0, 0), kind="plain", seed=0)
@example(ring=_BER_RINGS[0], m=0, n=0, rows=(1, 2), kind="plain", seed=0)
@example(ring=_BER_RINGS[0], m=0, n=3, rows=(2, 1), kind="swap", seed=0)
@example(ring=_BER_RINGS[0], m=3, n=0, rows=(0, 0), kind="swap", seed=0)
@example(ring=_BER_RINGS[0], m=3, n=2, rows=(1, 1), kind="singular_a", seed=2)
@example(ring=_BER_RINGS[0], m=2, n=3, rows=(1, 1), kind="singular_d", seed=3)
@example(ring=POLY, m=2, n=2, rows=(2, 2), kind="poly", seed=4)
@example(ring=POLY, m=1, n=3, rows=(0, 1), kind="poly_late", seed=8)
def test_schur_step_matches_element_oracle(ring, m, n, rows, kind, seed):
    # sm_inv and right_divide on term-map grids against the same Schur step
    # run with matrix products, negations and differences of elements
    matrix = _ber_case(ring, m, n, kind if not kind.startswith("poly") or ring is POLY else "plain", seed)
    rhs = _random_rows(ring, trial_rng(seed, "test.schur.rhs", 16 * m + n), SuperShape(rows, (m, n)))
    try:
        expected = schur_sm_inv(matrix)
    except NotInvertible as exc:
        with pytest.raises(NotInvertible) as err:
            sm_inv(matrix)
        assert str(err.value) == str(exc)
        with pytest.raises(NotInvertible) as err:
            right_divide(rhs, matrix)
        assert str(err.value) == str(exc)
        return
    inverse = sm_inv(matrix)
    assert inverse.shape == matrix.shape and inverse == expected
    _assert_canonical(inverse)
    quotient = right_divide(rhs, matrix)
    assert quotient.shape == rhs.shape and quotient == schur_right_divide(rhs, matrix)
    _assert_canonical(quotient)


@pytest.mark.parametrize("ring, m, n, kind, seed, outcome", [
    (_BER_RINGS[0], 3, 2, "singular_a", 2, "even-even block is singular: determinant is not a unit: body 0"),
    (_BER_RINGS[0], 2, 3, "singular_d", 3, "odd-odd block is singular: determinant is not a unit: body 0"),
    (POLY, 2, 2, "poly", 4, "stall"),
])
def test_schur_oracle_examples_reach_their_paths(ring, m, n, kind, seed, outcome):
    # the explicit examples above: a singular A or D body raises naming its
    # block, and polynomial bodies stall both even inverses into Cayley-Hamilton
    matrix = _ber_case(ring, m, n, kind, seed)
    if outcome == "stall":
        a, b = matrix.select(range(m), range(m)), matrix.select(range(m), range(m, m + n))
        c, d = matrix.select(range(m, m + n), range(m)), matrix.select(range(m, m + n), range(m, m + n))
        assert _stalls(d) and _stalls(a - b * inv_even(d) * c)
        assert matrix * sm_inv(matrix) == SuperMatrix.identity(ring, m, n)
    else:
        with pytest.raises(NotInvertible) as err:
            sm_inv(matrix)
        assert str(err.value) == outcome


@pytest.mark.parametrize("rows, cols, rhs_cols", [
    ((1, 1), (2, 0), (1, 1)), ((2, 0), (1, 1), (2, 0)), ((0, 1), (1, 0), (0, 1)), ((0, 0), (0, 1), (0, 0)),
    ((1, 1), (1, 1), (2, 0)), ((1, 1), (1, 1), (1, 2)),
])
def test_schur_step_refuses_shapes_like_the_oracle(grassmann2, rows, cols, rhs_cols):
    matrix = SuperMatrix.zeros(grassmann2, SuperShape(rows, cols))
    rhs = SuperMatrix.zeros(grassmann2, SuperShape((1, 1), rhs_cols))
    cases = [(lambda: right_divide(rhs, matrix), lambda: schur_right_divide(rhs, matrix))]
    if rows != cols:
        cases.append((lambda: sm_inv(matrix), lambda: schur_sm_inv(matrix)))
    for ours, oracle in cases:
        with pytest.raises(ShapeMismatch) as expected:
            oracle()
        with pytest.raises(ShapeMismatch) as err:
            ours()
        assert str(err.value) == str(expected.value)


def _aliased_matrix(ring, m, n, seed):
    """An invertible (m|n) matrix whose entries share objects: one `one` on
    the diagonal, one even soul on every even cell above it, and random
    entries below it, so that every elimination updates cells that hold a
    shared element."""
    rng = trial_rng(seed, "test.alias", 16 * m + n)
    one = ring.one()
    even_soul = random_soul(ring, rng, parity=0) + random_soul(ring, rng, parity=0)
    shape = SuperShape((m, n), (m, n))
    rows = []
    for i in range(m + n):
        row = []
        for j in range(m + n):
            odd = shape.row_parity(i) != shape.col_parity(j)
            if i == j:
                row.append(one)
            elif odd:
                row.append(random_soul(ring, rng, parity=1))
            elif i < j:
                row.append(even_soul)
            else:
                row.append(ring.scalar(sampling.random_nonzero_scalar(rng, 3)) + even_soul)
        rows.append(row)
    return SuperMatrix(ring, shape, rows)


def test_operations_leave_input_term_maps_alone(grassmann4):
    x = _aliased_matrix(grassmann4, 3, 2, 0)
    rhs = _aliased_matrix(grassmann4, 3, 2, 1)
    a = x.select(range(3), range(3))
    singular = SuperMatrix(grassmann4, a.shape, [a.entries[0], a.entries[0], a.entries[2]])
    inputs = (x, rhs, a, singular)
    before = [[(e.terms, dict(e.terms), hash(e)) for row in matrix.entries for e in row] for matrix in inputs]
    ber = berezinian(x)
    assert berezinian(x * x) == ber * ber
    assert x * sm_inv(x) == SuperMatrix.identity(grassmann4, 3, 2)
    assert right_divide(rhs, x) == rhs * sm_inv(x)
    assert x * rhs == kloop_matmul(x, rhs)
    for bp in (BlockProfile(3, 2, 1, 1), BlockProfile(3, 2, 2, 0)):
        coords, parabolic = normal_form(x, bp)
        assert assemble(coords) * parabolic == x
        assert chart_down(orbit_map(x, bp)) == coords
    assert a * inv_even(a) == SuperMatrix.identity(grassmann4, 3, 0)
    assert det_even(a) == subset_dp_det(a)
    assert det_even(singular) == subset_dp_det(singular)
    with pytest.raises(NotInvertible):
        inv_even(singular)
    for matrix, kept in zip(inputs, before):
        for e, (terms, copy, hashed) in zip((e for row in matrix.entries for e in row), kept):
            assert e.terms is terms and e.terms == copy and hash(e) == hashed
    assert x[0, 0] is x[1, 1] and x[0, 0].is_one()


def test_inv_even_rejects_odd_entries(grassmann2):
    t1, one = grassmann2.gen("t1"), grassmann2.one()
    # a pattern-valid (1|1) matrix whose off-diagonal entries are odd
    with pytest.raises(ShapeMismatch) as err:
        inv_even(sq(grassmann2, [[one, t1], [grassmann2.zero(), one]]))
    assert str(err.value) == "det_even requires all-even entries, found t1"


def test_sympy_oracle_over_polynomial_bodies():
    sympy = pytest.importorskip("sympy")
    ring = SuperRing(["x"], [])
    x = sympy.Symbol("x")
    rng = trial_rng(5, "test.sympy", 0)

    def to_sympy(element):
        return _to_sympy(element, x)

    def matrix_to_sympy(matrix):
        return sympy.Matrix([[to_sympy(e) for e in row] for row in matrix.entries])

    def poly(degree):
        return sum((ring.scalar(sampling.random_scalar(rng, 3)) * ring.gen("x") ** k
                    for k in range(degree + 1)), ring.zero())

    stalls = 0
    for n in range(1, 4):
        for _ in range(4):
            # unimodular: unitriangular times triangular with a constant
            # diagonal, off-diagonal entries linear in x; rotating the rows
            # moves a linear entry to the top of the first column
            lower = [[poly(1) if j < i else ring.one() if j == i else ring.zero() for j in range(n)]
                     for i in range(n)]
            upper = [[poly(1) if j > i else ring.scalar(sampling.random_nonzero_scalar(rng, 3)) if j == i
                      else ring.zero() for j in range(n)] for i in range(n)]
            unimodular = _even_square(ring, lower) * _even_square(ring, upper)
            unimodular = _even_square(ring, unimodular.entries[1:] + unimodular.entries[:1])
            general = _even_square(ring, [[poly(2) for _ in range(n)] for _ in range(n)])
            for matrix in (unimodular, general):
                expected = matrix_to_sympy(matrix).det(method="berkowitz")
                assert sympy.expand(to_sympy(det_even(matrix)) - expected) == 0
            stalls += _stalls(unimodular)
            difference = matrix_to_sympy(inv_even(unimodular)) - matrix_to_sympy(unimodular).inv()
            assert difference.applyfunc(sympy.cancel) == sympy.zeros(n, n)
    assert stalls > 0


def _to_sympy(element, x):
    """An element of Q(i)[x] as a sympy expression in the symbol x."""
    import sympy

    return sum((sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator)) * x ** exp[0]
               for (exp, _), c in element.terms.items())
