import pytest
from hypothesis import example, given, settings, strategies as st

from sgq import (
    BlockProfile,
    NCoordinates,
    NotInBigCell,
    NotInvertible,
    ShapeMismatch,
    SuperMatrix,
    SuperRing,
    SuperShape,
    assemble,
    cosets_equal,
    in_big_cell,
    is_invertible,
    n_coordinates_of,
    n_member,
    normal_form,
    split_blocks,
    orbit_map,
    standard_parabolic_member,
    standard_point,
)
from sgq.flag import FREE_BLOCKS
from sgq.sampling import random_big_cell, random_ncoords, random_parabolic, trial_rng

from oracles import (
    block_n_coordinates_of,
    block_n_member,
    block_orbit_map,
    bracket_normal_form,
    explicit_standard_point,
    grid_assemble,
    product_cosets_equal,
    subtraction_normal_form,
)

BP_SMALL = BlockProfile(1, 1, 1, 0)
BP_FULL = BlockProfile(2, 2, 1, 1)


def small_g(ring):
    return SuperMatrix(ring, SuperShape((1, 1), (1, 1)),
                       [[ring.one(), ring.gen("t1")], [ring.gen("t2"), ring.one()]])


def test_profile_split_sizes():
    assert BlockProfile(3, 2, 2, 1).sizes == (2, 1, 1, 1)
    assert list(BlockProfile(3, 2, 2, 1).block_range(4)) == [4]
    with pytest.raises(ValueError):
        BlockProfile(1, 1, 2, 0)


def test_split_blocks_covers_matrix(grassmann4):
    g = random_big_cell(grassmann4, BP_FULL, trial_rng(1, "split", 0))
    blocks = split_blocks(g, BP_FULL)
    assert len(blocks) == 16
    assert blocks[(1, 1)][0, 0] == g[0, 0]
    assert blocks[(4, 4)][0, 0] == g[3, 3]


def test_identity_memberships(grassmann4):
    eye = SuperMatrix.identity(grassmann4, 2, 2)
    assert standard_parabolic_member(eye, BP_FULL)
    assert n_member(eye, BP_FULL)
    assert in_big_cell(eye, BP_FULL)


def test_unipotent_is_not_parabolic(grassmann2):
    ring = grassmann2
    bp = BlockProfile(2, 0, 1, 0)
    coords = NCoordinates(
        bp,
        SuperMatrix(ring, SuperShape((1, 0), (1, 0)), [[ring.one()]]),
        SuperMatrix.zeros(ring, SuperShape((1, 0), (0, 0))),
        SuperMatrix.zeros(ring, SuperShape((0, 0), (1, 0))),
        SuperMatrix.zeros(ring, SuperShape((0, 0), (0, 0))),
    )
    member = assemble(coords)
    assert n_member(member, bp)
    assert not standard_parabolic_member(member, bp)


def test_parabolic_pattern_accepts_free_blocks(grassmann4):
    p = random_parabolic(grassmann4, BP_FULL, trial_rng(1, "parabolic", 0))
    assert standard_parabolic_member(p, BP_FULL)
    blocks = split_blocks(p, BP_FULL)
    for position in ((2, 1), (3, 1), (2, 4), (3, 4)):
        assert blocks[position].is_zero()


def test_parabolic_with_nonzero_row4_interior(grassmann4):
    # (4,2) and (4,3) are free positions of the stabilizer
    ring = grassmann4
    rows = [list(r) for r in SuperMatrix.identity(ring, 2, 2).entries]
    rows[3][1] = ring.gen("t1")
    rows[3][2] = ring.scalar(7)
    g = SuperMatrix(ring, BP_FULL.square_shape, rows)
    assert standard_parabolic_member(g, BP_FULL)
    # and membership survives multiplication
    p2 = random_parabolic(ring, BP_FULL, trial_rng(1, "closure", 0))
    assert standard_parabolic_member(g * p2, BP_FULL)


def test_big_cell_detection(grassmann2):
    ring = grassmann2
    g = small_g(ring)
    assert in_big_cell(g, BP_SMALL)
    rows = [[ring.zero(), ring.gen("t1")], [ring.gen("t2"), ring.one()]]
    assert not in_big_cell(SuperMatrix(ring, SuperShape((1, 1), (1, 1)), rows), BP_SMALL)


@pytest.mark.parametrize("dead, expected", [(None, True), (0, False), (1, True), (2, True), (3, False)])
def test_big_cell_reads_only_the_corner_blocks(grassmann4, dead, expected):
    # under (2, 2 | 1, 1) blocks 1 and 4 are indices 0 and 3; a diagonal
    # entry with zero body elsewhere makes g singular but keeps the corners
    ring = grassmann4
    rows = [list(row) for row in SuperMatrix.identity(ring, 2, 2).entries]
    if dead is not None:
        rows[dead][dead] = ring.gen("t1") * ring.gen("t2")
    assert in_big_cell(SuperMatrix(ring, SuperShape((2, 2), (2, 2)), rows), BP_FULL) is expected


def test_nilpotent_perturbation_stays_in_cell(grassmann4):
    rng = trial_rng(1, "cell", 0)
    g = random_big_cell(grassmann4, BP_FULL, rng)
    assert in_big_cell(g, BP_FULL)


def test_normal_form_identity(grassmann4):
    eye = SuperMatrix.identity(grassmann4, 2, 2)
    coords, p = normal_form(eye, BP_FULL)
    assert coords.is_zero() and p == eye


def test_normal_form_spec_case(grassmann2):
    ring = grassmann2
    coords, p = normal_form(small_g(ring), BP_SMALL)
    assert coords.xi[0, 0] == ring.gen("t2")
    assert p[0, 0].is_one() and p[0, 1] == ring.gen("t1")
    assert p[1, 0].is_zero()
    assert p[1, 1] == ring.one() - ring.gen("t2") * ring.gen("t1")
    assert assemble(coords) * p == small_g(ring)


def test_normal_form_of_unipotent_is_itself(grassmann4):
    coords = random_ncoords(grassmann4, BP_FULL, trial_rng(1, "nf", 3))
    solved, p = normal_form(assemble(coords), BP_FULL)
    assert solved == coords
    assert p == SuperMatrix.identity(grassmann4, 2, 2)


def test_normal_form_outside_cell_raises(grassmann2):
    ring = grassmann2
    rows = [[ring.zero(), ring.gen("t1")], [ring.gen("t2"), ring.one()]]
    with pytest.raises(NotInBigCell, match="corner blocks of g lack invertible body"):
        normal_form(SuperMatrix(ring, SuperShape((1, 1), (1, 1)), rows), BP_SMALL)


def test_normal_form_singular_g_with_invertible_corners(grassmann2):
    # under (2, 0 | 1, 0) the corners are [1] and empty: both invertible, g is not
    one = grassmann2.one()
    g = SuperMatrix(grassmann2, SuperShape((2, 0), (2, 0)), [[one, one], [one, one]])
    with pytest.raises(NotInvertible, match="^g has singular body$"):
        normal_form(g, BlockProfile(2, 0, 1, 0))


def _with_copied_row(g, target, source, scale):
    """g with the body of row `target` replaced by `scale` times that of row
    `source` (of the same parity) plus what remains of its own."""
    rows = [list(row) for row in g.entries]
    rows[target] = [e.soul() + scale * s.body() for e, s in zip(rows[target], rows[source])]
    return SuperMatrix(g.ring, g.shape, rows)


@pytest.mark.parametrize("profile", [(2, 2, 1, 1), (3, 2, 2, 1), (2, 2, 0, 1)])
def test_normal_form_raises_not_invertible_exactly_for_singular_body(grassmann4, profile):
    # the first row of block 2 or 3 copies the body of another row of its
    # parity: g leaves the corners intact and has a singular body
    bp = BlockProfile(*profile)
    g = random_big_cell(grassmann4, bp, trial_rng(1, "interior", sum(profile)))
    cases = [g]
    for block, other in ((2, (0, 1)), (3, (bp.m + bp.n - 1, bp.m))):
        if len(bp.block_range(block)):
            target = bp.block_range(block)[0]
            cases.append(_with_copied_row(g, target, next(i for i in other if i != target), 1))
    assert [is_invertible(c) for c in cases] == [True] + [False] * (len(cases) - 1)
    for matrix in cases:
        assert in_big_cell(matrix, bp)
        if is_invertible(matrix):
            normal_form(matrix, bp)
        else:
            with pytest.raises(NotInvertible, match="^g has singular body$"):
                normal_form(matrix, bp)


def test_normal_form_singular_body_over_polynomial_ring(mixed_ring):
    # row 1 (block 2) gets x times row 0's body: singular; or its own body
    # plus x times row 0's: a unit determinant with polynomial entries
    g = random_big_cell(mixed_ring, BP_FULL, trial_rng(1, "interior_mixed", 0))
    x = mixed_ring.gen("x")
    singular = _with_copied_row(g, 1, 0, x)
    rows = [list(row) for row in g.entries]
    rows[1] = [e + x * s.body() for e, s in zip(rows[1], rows[0])]
    sheared = SuperMatrix(mixed_ring, g.shape, rows)
    assert not is_invertible(singular) and is_invertible(sheared)
    with pytest.raises(NotInvertible, match="^g has singular body$"):
        normal_form(singular, BP_FULL)
    coords, p = normal_form(sheared, BP_FULL)
    assert assemble(coords) * p == sheared


def test_normal_form_shape_guard(grassmann4):
    eye = SuperMatrix.identity(grassmann4, 2, 2)
    with pytest.raises(ShapeMismatch):
        normal_form(eye, BlockProfile(3, 1, 1, 1))


def test_right_p_invariance_spot(grassmann4):
    rng = trial_rng(1, "inv", 2)
    g = random_big_cell(grassmann4, BP_FULL, rng)
    p_member = random_parabolic(grassmann4, BP_FULL, rng)
    assert normal_form(g * p_member, BP_FULL)[0] == normal_form(g, BP_FULL)[0]


def test_degenerate_profiles(grassmann4):
    ring = grassmann4
    for bp in (BlockProfile(2, 1, 0, 0), BlockProfile(2, 1, 2, 1), BlockProfile(1, 2, 1, 2)):
        rng = trial_rng(1, f"degenerate{bp}", 0)
        g = random_big_cell(ring, bp, rng)
        coords, p = normal_form(g, bp)
        assert assemble(coords) * p == g
        assert standard_parabolic_member(p, bp)


def test_cosets_equal_reflexive_and_invariant(grassmann4):
    rng = trial_rng(1, "coset", 1)
    g = random_big_cell(grassmann4, BP_FULL, rng)
    assert cosets_equal(g, g, BP_FULL)
    p_member = random_parabolic(grassmann4, BP_FULL, rng)
    assert cosets_equal(g, g * p_member, BP_FULL)


ORACLE_PROFILES = [(2, 2, 1, 1), (3, 2, 2, 1), (2, 2, 0, 1), (2, 2, 1, 0),
                   (2, 2, 2, 2), (2, 2, 0, 0), (3, 0, 1, 0), (0, 3, 0, 1)]


def _solve(solver, g, bp):
    """The factorization, or the type and message of the error it ends in."""
    try:
        return solver(g, bp)
    except (NotInBigCell, NotInvertible) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("profile", ORACLE_PROFILES)
@pytest.mark.parametrize("index", range(3))
def test_normal_form_matches_bracket_oracle(grassmann4, profile, index):
    bp = BlockProfile(*profile)
    g = random_big_cell(grassmann4, bp, trial_rng(index, "oracle", sum(profile)))
    coords, p = normal_form(g, bp)
    assert (coords, p) == bracket_normal_form(g, bp) == subtraction_normal_form(g, bp)
    assert standard_parabolic_member(p, bp)
    assert assemble(coords) * p == g


@pytest.mark.parametrize("profile", ORACLE_PROFILES)
def test_normal_form_errors_match_bracket_oracle(grassmann4, profile):
    bp = BlockProfile(*profile)
    g = random_big_cell(grassmann4, bp, trial_rng(1, "oracle_errors", sum(profile)))
    broken = []
    # the first row of a corner block loses its body on that block's columns
    for k in (1, 4):
        block = bp.block_range(k)
        if len(block):
            rows = [list(row) for row in g.entries]
            rows[block[0]] = [e.soul() if j in block else e for j, e in enumerate(rows[block[0]])]
            broken.append(SuperMatrix(g.ring, g.shape, rows))
    # the first row of block 2 repeats row 0 on the even columns: g is
    # singular, the corners are intact
    if 0 < bp.r < bp.m:
        rows = [list(row) for row in g.entries]
        rows[bp.r][:bp.m] = rows[0][:bp.m]
        broken.append(SuperMatrix(g.ring, g.shape, rows))
    for matrix in broken:
        outcome = _solve(normal_form, matrix, bp)
        assert outcome == _solve(bracket_normal_form, matrix, bp) == _solve(subtraction_normal_form, matrix, bp)
        assert outcome[0] in (NotInBigCell, NotInvertible)


def _coset_test(test, g1, g2, bp):
    """The verdict, or the type and message of the error it ends in."""
    try:
        return test(g1, g2, bp)
    except (ShapeMismatch, NotInvertible) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("profile", ORACLE_PROFILES)
def test_cosets_equal_matches_full_product_oracle(grassmann4, profile):
    bp = BlockProfile(*profile)
    rng = trial_rng(1, "coset_oracle", sum(profile))
    g = random_big_cell(grassmann4, bp, rng)
    other = random_big_cell(grassmann4, bp, rng)
    same = g * random_parabolic(grassmann4, bp, rng)
    singular = SuperMatrix.zeros(grassmann4, bp.square_shape)
    wrong = SuperMatrix.identity(grassmann4, bp.m + 1, bp.n)
    pairs = [(g, same), (g, other), (singular, g), (g, wrong), (wrong, g), (singular, wrong)]
    outcomes = [_coset_test(cosets_equal, g1, g2, bp) for g1, g2 in pairs]
    assert outcomes == [_coset_test(product_cosets_equal, g1, g2, bp) for g1, g2 in pairs]
    assert outcomes[0] is True
    assert [o[0] for o in outcomes[2:]] == [NotInvertible, ShapeMismatch, ShapeMismatch, ShapeMismatch]


def test_cosets_distinct_normal_forms(grassmann4):
    ring = grassmann4
    eye = SuperMatrix.identity(ring, 2, 2)
    coords = NCoordinates.zero(ring, BP_FULL)
    rows = [list(r) for r in assemble(coords).entries]
    rows[2][0] = ring.gen("t1")  # xi position
    shifted = SuperMatrix(ring, BP_FULL.square_shape, rows)
    assert not cosets_equal(eye, shifted, BP_FULL)


def test_n_coordinates_roundtrip(grassmann4):
    coords = random_ncoords(grassmann4, BP_FULL, trial_rng(1, "roundtrip", 5))
    assert n_coordinates_of(assemble(coords), BP_FULL) == coords


@st.composite
def _layout_cases(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    bp = BlockProfile(m, n, draw(st.integers(0, m)), draw(st.integers(0, n)))
    n_even, q = draw(st.integers(0, 1)), draw(st.integers(0, 3))
    return bp, SuperRing(["x"][:n_even], [f"t{k}" for k in range(1, q + 1)]), draw(st.integers(0, 2 ** 16))


@settings(deadline=None, max_examples=60)
@given(case=_layout_cases())
@example(case=(BlockProfile(2, 2, 0, 2), SuperRing([], ["t1"]), 0))
@example(case=(BlockProfile(0, 0, 0, 0), SuperRing([], []), 1))
def test_unchecked_builds_equal_the_validating_constructors(case):
    # random_ncoords, coordinates_from_quotient and SuperMatrix.body build
    # their values without the constructors' checks
    bp, ring, seed = case
    g = random_big_cell(ring, bp, trial_rng(seed, "unchecked", 0))
    for coords in (random_ncoords(ring, bp, trial_rng(seed, "unchecked", 1)), n_coordinates_of(g, bp)):
        checked = NCoordinates(bp, coords.u, coords.eta, coords.xi, coords.v)
        assert checked == coords and hash(checked) == hash(coords)
    body = SuperMatrix(ring, g.shape, [[e.body() for e in row] for row in g.entries])
    assert g.body() == body and hash(g.body()) == hash(body)


def _one_changed(g, i, j):
    """g with a nonzero element of the entry's parity added at (i, j)."""
    ring = g.ring
    rows = [list(row) for row in g.entries]
    odd = g.shape.row_parity(i) ^ g.shape.col_parity(j)
    rows[i][j] = rows[i][j] + (ring.gen(ring.odd_vars[0]) if odd else ring.one())
    return SuperMatrix(ring, g.shape, rows)


@settings(deadline=None, max_examples=200)
@given(case=_layout_cases())
@example(case=(BlockProfile(3, 3, 0, 2), SuperRing([], ["t1", "t2"]), 0))
@example(case=(BlockProfile(3, 3, 2, 0), SuperRing(["x"], ["t1"]), 1))
@example(case=(BlockProfile(3, 3, 3, 3), SuperRing([], ["t1", "t2", "t3"]), 2))
@example(case=(BlockProfile(0, 3, 0, 1), SuperRing([], ["t1"]), 3))
@example(case=(BlockProfile(3, 0, 1, 0), SuperRing(["x"], []), 4))
@example(case=(BlockProfile(3, 3, 1, 2), SuperRing([], ["t1", "t2"]), 5))
def test_layout_matches_the_block_oracles(case):
    bp, ring, seed = case
    size = bp.m + bp.n
    assert sorted(bp.corner + bp.inner) == list(range(size))
    point = standard_point(bp, ring)
    assert point.span == explicit_standard_point(bp, ring).span
    eye = SuperMatrix.identity(ring, bp.r, bp.s)
    assert point.span.select(bp.corner, range(bp.r + bp.s)) == eye

    coords = random_ncoords(ring, bp, trial_rng(seed, "layout", 0))
    member = assemble(coords)
    assert member == grid_assemble(coords)
    assert n_coordinates_of(member, bp) == coords
    g = random_big_cell(ring, bp, trial_rng(seed, "layout", 1))
    assert n_coordinates_of(g, bp) == block_n_coordinates_of(g, bp)
    assert orbit_map(g, bp).span == block_orbit_map(g, bp).span
    assert n_member(member, bp) and block_n_member(member, bp)
    assert n_member(g, bp) == block_n_member(g, bp)

    # one changed entry: a member stays one only if it lies in a free block
    block_of = {i: k for k in range(1, 5) for i in bp.block_range(k)}
    kinds = {"diagonal": [], "zero": [], "free": []}
    for i in range(size):
        for j in range(size):
            if ring.n_odd == 0 and (i >= bp.m) != (j >= bp.m):
                continue  # no odd element to add
            pair = (block_of[i], block_of[j])
            kind = "diagonal" if pair[0] == pair[1] else "free" if pair in FREE_BLOCKS.values() else "zero"
            kinds[kind].append((i, j))
    for kind, places in kinds.items():
        if not places:
            continue
        i, j = places[seed % len(places)]
        changed = _one_changed(member, i, j)
        assert n_member(changed, bp) == block_n_member(changed, bp) == (kind == "free"), (kind, i, j)
