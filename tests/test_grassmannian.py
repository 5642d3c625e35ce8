import pytest
from hypothesis import example, given, settings, strategies as st

from sgq import (
    BlockProfile,
    GrassmannianPoint,
    NCoordinates,
    NotInBigCell,
    RankDeficient,
    ShapeMismatch,
    SuperMatrix,
    SuperRing,
    SuperShape,
    act,
    chart_down,
    chart_up,
    cosets_equal,
    n_member,
    normal_form,
    orbit_map,
    points_equal,
    standard_parabolic_member,
    standard_point,
)
from sgq.sampling import (
    random_big_cell,
    random_big_cell_point,
    random_invertible,
    random_mixed_invertible,
    random_ncoords,
    random_parabolic,
    trial_rng,
)
from sgq.grassmannian import _first_valid_choice

from oracles import first_valid_choice_product

BP = BlockProfile(2, 2, 1, 1)
BP_SMALL = BlockProfile(1, 1, 1, 0)


def test_standard_point_small(grassmann2):
    span = standard_point(BP_SMALL, grassmann2).span
    assert span[0, 0].is_one() and span[1, 0].is_zero()


def test_standard_point_full(grassmann4):
    span = standard_point(BP, grassmann4).span
    ones = [(i, j) for i in range(4) for j in range(2) if span[i, j].is_one()]
    assert ones == [(0, 0), (3, 1)]  # row block 1 and row block 4


def test_standard_point_self_equal(grassmann4):
    assert points_equal(standard_point(BP, grassmann4), standard_point(BP, grassmann4))


def test_rank_deficient_span_rejected(grassmann2):
    span = SuperMatrix.zeros(grassmann2, SuperShape((1, 1), (1, 0)))
    with pytest.raises(RankDeficient, match="^no choice of r even and s odd rows has invertible body$"):
        GrassmannianPoint(BP_SMALL, span)


def test_right_gl_action_invisible(grassmann4):
    rng = trial_rng(2, "frame", 0)
    point = random_big_cell_point(grassmann4, BP, rng)
    h = random_invertible(grassmann4, rng, BP.r, BP.s)
    assert points_equal(point, GrassmannianPoint(BP, point.span * h))


def test_points_differ_in_free_block(grassmann2):
    ring = grassmann2
    std = standard_point(BP_SMALL, ring)
    span = SuperMatrix(ring, SuperShape((1, 1), (1, 0)), [[ring.one()], [ring.gen("t1")]])
    assert not points_equal(std, GrassmannianPoint(BP_SMALL, span))


def test_act_identity(grassmann4):
    point = random_big_cell_point(grassmann4, BP, trial_rng(2, "act", 0))
    eye = SuperMatrix.identity(grassmann4, 2, 2)
    assert act(eye, point).span == point.span


def test_act_compatibility_spot(grassmann4):
    rng = trial_rng(2, "compat", 0)
    g1 = random_invertible(grassmann4, rng, 2, 2)
    g2 = random_invertible(grassmann4, rng, 2, 2)
    point = random_big_cell_point(grassmann4, BP, rng)
    assert act(g1 * g2, point).span == act(g1, act(g2, point)).span


def test_act_shape_guard(grassmann4):
    point = standard_point(BP, grassmann4)
    with pytest.raises(ShapeMismatch):
        act(SuperMatrix.identity(grassmann4, 1, 1), point)


def test_parabolic_fixes_standard_point(grassmann4):
    rng = trial_rng(2, "stab", 0)
    std = standard_point(BP, grassmann4)
    p_member = random_parabolic(grassmann4, BP, rng)
    assert points_equal(act(p_member, std), std)


def test_stabilizer_identity_mixed(grassmann4):
    std = standard_point(BP, grassmann4)
    for i in range(12):
        g = random_mixed_invertible(grassmann4, BP, trial_rng(2, "mixed", i), i)
        assert points_equal(act(g, std), std) == standard_parabolic_member(g, BP)


def test_orbit_map_matches_action(grassmann4):
    rng = trial_rng(2, "orbit", 0)
    g = random_invertible(grassmann4, rng, 2, 2)
    assert orbit_map(g, BP).span == act(g, standard_point(BP, grassmann4)).span


def test_orbit_of_identity(grassmann4):
    eye = SuperMatrix.identity(grassmann4, 2, 2)
    assert points_equal(orbit_map(eye, BP), standard_point(BP, grassmann4))


def test_orbit_coset_equivalence_spot(grassmann4):
    for i in range(8):
        rng = trial_rng(2, "orbitcoset", i)
        g1 = random_big_cell(grassmann4, BP, rng)
        if i % 2:
            g2 = g1 * random_parabolic(grassmann4, BP, rng)
        else:
            g2 = random_big_cell(grassmann4, BP, rng)
        assert cosets_equal(g1, g2, BP) == points_equal(orbit_map(g1, BP), orbit_map(g2, BP))


def test_chart_up_zero_is_standard(grassmann4):
    zero = NCoordinates.zero(grassmann4, BP)
    assert points_equal(chart_up(zero), standard_point(BP, grassmann4))
    assert chart_down(standard_point(BP, grassmann4)) == zero


def test_chart_up_spec_case(grassmann2):
    ring = grassmann2
    coords = NCoordinates(
        BP_SMALL,
        SuperMatrix.zeros(ring, SuperShape((0, 0), (1, 0))),
        SuperMatrix.zeros(ring, SuperShape((0, 0), (0, 0))),
        SuperMatrix(ring, SuperShape((0, 1), (1, 0)), [[ring.gen("t2")]]),
        SuperMatrix.zeros(ring, SuperShape((0, 1), (0, 0))),
    )
    span = chart_up(coords).span
    assert span[0, 0].is_one() and span[1, 0] == ring.gen("t2")
    assert chart_down(chart_up(coords)) == coords


def test_chart_roundtrips(grassmann4):
    for i in range(6):
        rng = trial_rng(2, "chart", i)
        coords = random_ncoords(grassmann4, BP, rng)
        assert chart_down(chart_up(coords)) == coords
        point = random_big_cell_point(grassmann4, BP, rng)
        assert points_equal(chart_up(chart_down(point)), point)


def test_soul_column_is_rank_deficient(grassmann2):
    ring = grassmann2
    # the single candidate frame row has zero body, so the span has no frame
    soul_span = SuperMatrix(ring, SuperShape((1, 1), (1, 0)), [[ring.zero()], [ring.gen("t2")]])
    with pytest.raises(RankDeficient):
        GrassmannianPoint(BP_SMALL, soul_span)


def test_chart_down_rejects_off_cell_point(grassmann4):
    ring = grassmann4
    bp = BlockProfile(2, 0, 1, 0)
    # span (e2): full rank on the second even row, not on the first
    span = SuperMatrix(ring, SuperShape((2, 0), (1, 0)), [[ring.zero()], [ring.one()]])
    point = GrassmannianPoint(bp, span)
    with pytest.raises(NotInBigCell, match=r"^the \(block 1, block 4\) row submatrix has singular body$"):
        chart_down(point)
    # neither point is framed by the rows that frame the other
    std = standard_point(bp, ring)
    assert not points_equal(std, point) and not points_equal(point, std)


def test_distinct_coordinates_give_distinct_points(grassmann4):
    c1 = random_ncoords(grassmann4, BP, trial_rng(2, "inj", 0))
    c2 = random_ncoords(grassmann4, BP, trial_rng(2, "inj", 1))
    assert c1 != c2
    assert not points_equal(chart_up(c1), chart_up(c2))


@pytest.mark.parametrize("dead, copied, expected", [
    ((), (), (0, 1, 4, 5)),
    ((0, 4), (), (1, 2, 5, 6)),
    ((), (1, 5), (0, 2, 4, 6)),
    ((0, 4), (2,), (1, 3, 5, 6)),
    ((0, 1), (3,), None),
    ((4, 5), (), None),
])
def test_first_valid_choice_matches_product_search(grassmann4, dead, copied, expected):
    # (4|3) span on columns 0, 1 (even) and 5, 6 (odd); a dead row has zero
    # body, and a copied row's body repeats the row above it, so the first
    # valid even and odd subsets come late or not at all
    bp = BlockProfile(4, 3, 2, 2)
    g = random_invertible(grassmann4, trial_rng(2, "rows", len(dead) + 3 * len(copied)), 4, 3)
    span = g.select(range(7), [0, 1, 5, 6])
    rows = [list(row) for row in span.entries]
    for i in dead:
        rows[i] = [e.soul() for e in rows[i]]
    for i in copied:
        rows[i] = [above.body() + e.soul() for above, e in zip(rows[i - 1], rows[i])]
    span = SuperMatrix(grassmann4, span.shape, rows)
    assert _first_valid_choice(span, bp) == first_valid_choice_product(span, bp) == expected


@settings(deadline=None, max_examples=60)
@given(m=st.integers(1, 5), n=st.integers(0, 4), r=st.integers(0, 5), s=st.integers(0, 4),
       q=st.integers(0, 3), even=st.booleans(), seed=st.integers(0, 2 ** 16),
       dead=st.sets(st.integers(0, 8), max_size=3), copied=st.sets(st.integers(1, 8), max_size=3))
@example(m=2, n=1, r=1, s=1, q=2, even=False, seed=0, dead={0, 1}, copied=set())
@example(m=3, n=2, r=2, s=1, q=1, even=False, seed=0, dead=set(), copied={1, 2, 4})
@example(m=3, n=2, r=2, s=2, q=3, even=True, seed=0, dead={3}, copied={2})
def test_first_valid_choice_matches_product_search_on_random_spans(m, n, r, s, q, even, seed, dead, copied):
    # as above, on any profile up to (5|4): dead rows lose their body, copied
    # rows take the body of the row above when it has the same parity
    bp = BlockProfile(m, n, min(r, m), min(s, n))
    ring = SuperRing(["x"] if even else [], [f"t{k}" for k in range(1, q + 1)])
    g = random_invertible(ring, trial_rng(seed, "frames", m + n), m, n)
    span = g.select(range(m + n), list(range(bp.r)) + list(range(m, m + bp.s)))
    rows = [list(row) for row in span.entries]
    for i in sorted(copied):
        if i < m + n and i != m:
            rows[i] = [above.body() + e.soul() for above, e in zip(rows[i - 1], rows[i])]
    for i in dead:
        if i < m + n:
            rows[i] = [e.soul() for e in rows[i]]
    span = SuperMatrix(ring, span.shape, rows)
    assert _first_valid_choice(span, bp) == first_valid_choice_product(span, bp)


def test_polynomial_bodies_frame_by_unit_minors(mixed_ring):
    # over an even generator the row sets with unit minor are no matroid: of
    # the rows [x] and [1] only the second frames, and [[x, x+1], [x-1, x]]
    # has determinant 1 though none of its entries is a unit
    x, one = mixed_ring.gen("x"), mixed_ring.one()
    cases = [
        (BlockProfile(2, 0, 1, 0), [[x], [one]], (1,)),
        (BlockProfile(2, 0, 2, 0), [[x, x + one], [x - one, x]], (0, 1)),
        (BlockProfile(3, 0, 2, 0), [[x, one], [x, x + one], [x - one, x]], (1, 2)),
    ]
    for bp, rows, expected in cases:
        span = SuperMatrix(mixed_ring, SuperShape((bp.m, 0), (bp.r, 0)), rows)
        assert _first_valid_choice(span, bp) == first_valid_choice_product(span, bp) == expected
        assert GrassmannianPoint(bp, span).frame == expected


def test_late_frame_needs_no_body_test(grassmann4, monkeypatch):
    # the first m - r rows are nilpotent, so the frame is the last of the
    # C(14, 7) = 3432 row subsets; without even generators one elimination finds it
    def no_body_test(matrix):
        raise AssertionError("frame search ran a body test")

    monkeypatch.setattr("sgq.grassmannian.is_invertible", no_body_test)
    ring = grassmann4
    m, r = 14, 7
    t12 = ring.gen("t1") * ring.gen("t2")
    rows = [[t12 * (i + j + 1) for j in range(r)] for i in range(m - r)]
    rows += [[ring.one() if i == j else t12 for j in range(r)] for i in range(r)]
    span = SuperMatrix(ring, SuperShape((m, 0), (r, 0)), rows)
    assert GrassmannianPoint(BlockProfile(m, 0, r, 0), span).frame == tuple(range(m - r, m))
