"""The samplers against the ones they replaced (tests/oracles.py): the same
seed gives equal values and leaves the generator in the same state."""

from random import Random

from hypothesis import example, given, settings, strategies as st

from oracles import (
    validating_big_cell,
    validating_ncoords,
    validating_numeric_invertible,
    validating_parabolic,
    validating_random_scalar,
    validating_random_soul,
    validating_soul_perturbation,
)
from sgq import BlockProfile, SuperRing
from sgq import sampling


def _ring(n_even, q):
    return SuperRing(["x"][:n_even], [f"t{i + 1}" for i in range(q)])


def _both(seed, old, new):
    """Draw with old and new from two generators seeded alike; both must
    leave their generator in the same state."""
    rng_old, rng_new = Random(seed), Random(seed)
    expected, value = old(rng_old), new(rng_new)
    assert rng_new.getstate() == rng_old.getstate()
    return expected, value


@st.composite
def _profiles(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return BlockProfile(m, n, draw(st.integers(0, m)), draw(st.integers(0, n)))


_SEEDS = st.integers(0, 2 ** 32)
_BOUNDS = st.integers(1, 4)


@settings(deadline=None, max_examples=120)
@given(n_even=st.integers(0, 1), q=st.integers(0, 5), bound=_BOUNDS, seed=_SEEDS,
       parity=st.sampled_from([None, 0, 1]), max_terms=st.integers(1, 3))
def test_scalars_and_souls_match_the_validating_samplers(n_even, q, bound, seed, parity, max_terms):
    expected, value = _both(seed, lambda rng: [validating_random_scalar(rng, bound) for _ in range(6)],
                            lambda rng: [sampling.random_scalar(rng, bound) for _ in range(6)])
    # equality compares the triples, so these are canonical too
    assert value == expected
    ring = _ring(n_even, q)
    expected, value = _both(seed, lambda rng: validating_random_soul(ring, rng, parity, max_terms, bound),
                            lambda rng: sampling.random_soul(ring, rng, parity, max_terms, bound))
    assert value == expected
    assert all(value.terms.values())


@settings(deadline=None, max_examples=120)
@given(size=st.integers(0, 4), corner=st.integers(0, 4), side=st.sampled_from(["leading", "trailing"]),
       bound=_BOUNDS, seed=_SEEDS)
@example(size=2, corner=1, side="leading", bound=1, seed=3)
@example(size=3, corner=3, side="trailing", bound=1, seed=4)
def test_numeric_invertible_matches_the_determinant_tests(size, corner, side, bound, seed):
    ring = SuperRing([], ["t1"])
    corners = {side: min(corner, size)}
    expected, value = _both(seed, lambda rng: validating_numeric_invertible(ring, rng, size, 0, bound, **corners),
                            lambda rng: sampling._random_numeric_invertible(rng, size, bound, **corners))
    assert [[ring.scalar(c) for c in row] for row in value] == [list(row) for row in expected.entries]


@settings(deadline=None, max_examples=60)
@given(bp=_profiles(), q=st.integers(0, 5), bound=_BOUNDS, seed=_SEEDS)
@example(bp=BlockProfile(2, 2, 0, 0), q=4, bound=4, seed=1)
@example(bp=BlockProfile(2, 2, 2, 2), q=3, bound=2, seed=2)
@example(bp=BlockProfile(0, 2, 0, 1), q=2, bound=3, seed=3)
@example(bp=BlockProfile(3, 0, 1, 0), q=5, bound=1, seed=4)
@example(bp=BlockProfile(1, 1, 1, 0), q=0, bound=4, seed=5)
def test_matrix_samplers_match_the_validating_samplers(bp, q, bound, seed):
    ring = _ring(0, q)
    expected, value = _both(seed, lambda rng: validating_soul_perturbation(ring, rng, bp.m, bp.n, bound),
                            lambda rng: sampling._soul_perturbation(ring, rng, bp.m, bp.n, bound))
    assert value == expected
    for old, new in ((validating_big_cell, sampling.random_big_cell),
                     (validating_parabolic, sampling.random_parabolic),
                     (validating_ncoords, sampling.random_ncoords)):
        expected, value = _both(seed, lambda rng: old(ring, bp, rng, bound), lambda rng: new(ring, bp, rng, bound))
        assert value == expected, new.__name__
