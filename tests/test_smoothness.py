from fractions import Fraction
from itertools import combinations

import pytest

from sgq import (
    GaussianRational,
    NotAPoint,
    ParityViolation,
    Presentation,
    RationalPoint,
    SuperRing,
    UnassignedVariable,
    general_linear_presentation,
    is_etale_at,
    is_smooth_at,
    jacobian,
    rank_at_point,
)
from sgq.matrix import independent_rows
from sgq.sampling import random_nonzero_scalar, random_scalar, trial_rng

EMPTY = SuperRing()


def circle_like():
    ring = SuperRing(["x"], ["xi1", "xi2"])
    f = ring.gen("x") ** 2 - ring.one() + ring.gen("xi1") * ring.gen("xi2")
    return Presentation(EMPTY, ["x"], ["xi1", "xi2"], [f], [])


def test_jacobian_of_empty_presentation():
    pres = Presentation(EMPTY, ["x", "y"], ["s"], [], [])
    assert jacobian(pres) == []
    assert rank_at_point(pres, RationalPoint({"x": 0, "y": 0})) == (0, 0)


def test_jacobian_single_even_relation():
    ring = SuperRing(["x"], [])
    pres = Presentation(EMPTY, ["x"], [], [ring.gen("x") ** 2 - ring.one()], [])
    assert jacobian(pres) == [[2 * ring.gen("x")]]


def test_jacobian_left_derivatives():
    pres = circle_like()
    ring = pres.total_ring
    row = jacobian(pres)[0]
    assert row[0] == 2 * ring.gen("x")
    assert row[1] == ring.gen("xi2")
    assert row[2] == -ring.gen("xi1")


def test_rank_at_regular_point():
    ring = SuperRing(["x"], [])
    pres = Presentation(EMPTY, ["x"], [], [ring.gen("x") ** 2 - ring.one()], [])
    assert rank_at_point(pres, RationalPoint({"x": 1})) == (1, 0)


def test_rank_at_critical_point():
    ring = SuperRing(["x"], [])
    pres = Presentation(EMPTY, ["x"], [], [ring.gen("x") ** 2], [])
    assert rank_at_point(pres, RationalPoint({"x": 0})) == (0, 0)


def test_not_a_point():
    ring = SuperRing(["x"], [])
    pres = Presentation(EMPTY, ["x"], [], [ring.gen("x") ** 2 - ring.one()], [])
    with pytest.raises(NotAPoint):
        rank_at_point(pres, RationalPoint({"x": 2}))


def test_free_presentation_smooth_everywhere():
    pres = Presentation(EMPTY, ["x", "y"], ["s1", "s2", "s3"], [], [])
    verdict = is_smooth_at(pres, RationalPoint({"x": 7, "y": Fraction(-1, 3)}))
    assert verdict.smooth and verdict.relative_dimension == (2, 3)


def test_nilpotent_correction_does_not_change_verdict():
    verdict = is_smooth_at(circle_like(), RationalPoint({"x": 1}))
    assert verdict.smooth
    assert verdict.relative_dimension == (0, 2)


def test_cusp_not_smooth():
    ring = SuperRing(["x"], [])
    pres = Presentation(EMPTY, ["x"], [], [ring.gen("x") ** 2], [])
    verdict = is_smooth_at(pres, RationalPoint({"x": 0}))
    assert not verdict.smooth and verdict.relative_dimension is None


def test_etale_detection():
    ring = SuperRing(["x"], [])
    pres = Presentation(EMPTY, ["x"], [], [ring.gen("x") ** 2 - ring.one()], [])
    assert is_etale_at(pres, RationalPoint({"x": 1}))
    assert is_etale_at(pres, RationalPoint({"x": -1}))


def test_extra_odd_variable_blocks_etale():
    ring = SuperRing(["x"], ["s"])
    pres = Presentation(EMPTY, ["x"], ["s"], [ring.gen("x") ** 2 - ring.one()], [])
    verdict = is_smooth_at(pres, RationalPoint({"x": 1}))
    assert verdict.smooth and verdict.relative_dimension == (0, 1)
    assert not is_etale_at(pres, RationalPoint({"x": 1}))


def test_free_presentation_with_generators_not_etale():
    pres = Presentation(EMPTY, ["x"], [], [], [])
    assert not is_etale_at(pres, RationalPoint({"x": 0}))


def test_relation_parity_checked():
    ring = SuperRing(["x"], ["s"])
    with pytest.raises(ParityViolation):
        Presentation(EMPTY, ["x"], ["s"], [ring.gen("s")], [])


def test_relation_count_bound():
    ring = SuperRing(["x"], [])
    with pytest.raises(ValueError):
        Presentation(EMPTY, ["x"], [], [ring.gen("x"), ring.gen("x") ** 2], [])


def test_base_variables_as_constants():
    base = SuperRing(["t"], [])
    total = SuperRing(["t", "x"], [])
    relation = total.gen("t") * (total.gen("x") - total.one())
    pres = Presentation(base, ["x"], [], [relation], [])
    # with t assigned the Jacobian entry t is a number
    assert rank_at_point(pres, RationalPoint({"x": 1, "t": 2})) == (1, 0)
    # the relation vanishes at x = 1 for formal t, but the rank needs a value
    with pytest.raises(UnassignedVariable):
        rank_at_point(pres, RationalPoint({"x": 1}))
    # an unassigned base variable surviving in a relation is not a point
    pres2 = Presentation(base, ["x"], [], [total.gen("t") - total.gen("x")], [])
    with pytest.raises(NotAPoint):
        rank_at_point(pres2, RationalPoint({"x": 1}))


def test_unassigned_variable_names_global_entry_of_odd_block():
    base = SuperRing(["c"], [])
    total = SuperRing(["c", "x"], ["s"])
    pres = Presentation(base, ["x"], ["s"], [total.gen("x") - total.one()], [total.gen("c") * total.gen("s")])
    # the odd block's only entry, d(c*s)/ds = c, sits at global row 1, column 1
    with pytest.raises(UnassignedVariable, match=r"^Jacobian entry \(1, 1\) does not reduce to a number: c;"):
        rank_at_point(pres, RationalPoint({"x": 1}))


def test_odd_relations_contribute_odd_rank():
    ring = SuperRing(["x"], ["s1", "s2"])
    phi = ring.gen("s1") + ring.gen("x") * ring.gen("s2")
    pres = Presentation(EMPTY, ["x"], ["s1", "s2"], [], [phi])
    verdict = is_smooth_at(pres, RationalPoint({"x": 5}))
    assert verdict.smooth and verdict.relative_dimension == (1, 1)


def test_gaussian_rational_point():
    ring = SuperRing(["x"], [])
    pres = Presentation(EMPTY, ["x"], [], [ring.gen("x") ** 2 + ring.one()], [])
    point = RationalPoint({"x": GaussianRational(0, 1)})
    assert is_etale_at(pres, point)


def test_general_linear_presentations():
    for m, n in ((1, 1), (2, 1), (2, 2)):
        pres, identity = general_linear_presentation(m, n)
        verdict = is_smooth_at(pres, identity)
        assert verdict.smooth
        assert verdict.relative_dimension == (m * m + n * n, 2 * m * n)


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = trial_rng(3, "test.rank", 0)

    def to_sympy(c):
        return (sympy.Rational(c.re.numerator, c.re.denominator)
                + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))

    def rank(rows):
        return sympy.Matrix([[to_sympy(c) for c in row] for row in rows]).rank() if rows else 0

    def combination(rows):
        weights = [random_nonzero_scalar(rng, 3) for _ in rows]
        return [sum((w * row[k] for w, row in zip(weights, rows)), GaussianRational(0))
                for k in range(len(rows[0]))]

    deficient = 0
    for n_rows in range(1, 7):
        for n_cols in range(1, 9):
            # the first `independent` rows are random, the others repeat or
            # combine them, in shuffled order
            independent = rng.randint(1, n_rows)
            dependent = [[random_scalar(rng, 3) for _ in range(n_cols)] for _ in range(independent)]
            base = list(dependent)
            while len(dependent) < n_rows:
                if rng.random() < 0.3:
                    dependent.append(list(rng.choice(base)))
                else:
                    dependent.append(combination(rng.sample(base, rng.randint(1, len(base)))))
            rng.shuffle(dependent)
            full = [[random_scalar(rng, 3) for _ in range(n_cols)] for _ in range(n_rows)]
            zero = [[GaussianRational(0)] * n_cols for _ in range(n_rows)]
            for rows in (full, dependent, zero):
                kept = independent_rows(rows)
                assert len(kept) == rank(rows), rows
                if n_rows <= 4 and n_cols <= 4:
                    # the kept rows are the first row subset, in combinations order, of full rank
                    first = next(chosen for chosen in combinations(range(n_rows), len(kept))
                                 if rank([rows[i] for i in chosen]) == len(kept))
                    assert kept == list(first), rows
            deficient += len(independent_rows(dependent)) < min(n_rows, n_cols)
    assert deficient >= 10
