"""Seeded random generation of elements, matrices, and profile data.

Coefficients are uniform small rationals with numerator and denominator
bounded by `coeff_bound`; souls get bounded term counts.  Invertible matrices
are built as (I + soul perturbation) times a numeric invertible body, which
keeps bodies numeric and invertibility certain.  Every generator takes an
explicit random.Random, and `trial_rng` derives an independent state from
(seed, label, trial index), so trials can run in any order or in parallel
and still reproduce bit-identically.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Optional

from .algebra import SuperElement, SuperRing
from .flag import BlockProfile, NCoordinates, assemble
from .grassmannian import GrassmannianPoint, chart_up
from .matrix import SuperMatrix, SuperShape, block_matrix, det_even, is_invertible
from .scalars import GaussianRational

DEFAULT_COEFF_BOUND = 4


def trial_rng(seed: int, label: str, index: int) -> Random:
    # string seeding hashes with sha512: stable across runs and platforms
    return Random(f"{seed}:{label}:{index}")


def random_fraction(rng: Random, bound: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_scalar(rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> GaussianRational:
    im = random_fraction(rng, bound) if rng.random() < 0.25 else 0
    return GaussianRational(random_fraction(rng, bound), im)


def random_nonzero_scalar(rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> GaussianRational:
    while True:
        value = random_scalar(rng, bound)
        if value:
            return value


def _random_exp(ring: SuperRing, rng: Random):
    return tuple(rng.choice((0, 0, 1, 2)) for _ in range(ring.n_even))


def _random_odd_subset(ring: SuperRing, rng: Random, parity: Optional[int], nonempty: bool):
    q = ring.n_odd
    while True:
        subset = tuple(i for i in range(q) if rng.random() < 0.5)
        if nonempty and not subset:
            continue
        if parity is not None and len(subset) % 2 != parity:
            continue
        return subset


def random_element(ring: SuperRing, rng: Random, max_terms: int = 3,
                   bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    """An arbitrary (usually inhomogeneous) element."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (_random_exp(ring, rng), _random_odd_subset(ring, rng, None, False))
        terms[key] = random_scalar(rng, bound)
    return ring.element(terms)


def random_homogeneous(ring: SuperRing, rng: Random, parity: int, max_terms: int = 3,
                       bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    if parity == 1 and ring.n_odd == 0:
        return ring.zero()
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (_random_exp(ring, rng), _random_odd_subset(ring, rng, parity, parity == 1))
        terms[key] = random_scalar(rng, bound)
    return ring.element(terms)


def random_soul(ring: SuperRing, rng: Random, parity: Optional[int] = None, max_terms: int = 2,
                bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    """Body-free element; optionally homogeneous of the given parity."""
    if ring.n_odd == 0 or (parity == 0 and ring.n_odd < 2):
        return ring.zero()
    terms = {}
    n_terms = 1 if max_terms == 1 or rng.random() < 0.67 else rng.randint(2, max_terms)
    for _ in range(n_terms):
        # nonempty even-parity subsets automatically have size >= 2
        subset = _random_odd_subset(ring, rng, parity, True)
        terms[((0,) * ring.n_even, subset)] = random_scalar(rng, bound)
    return ring.element(terms)


def random_unit(ring: SuperRing, rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    return ring.scalar(random_nonzero_scalar(rng, bound)) + random_soul(ring, rng, parity=0, bound=bound)


def _random_numeric_invertible(ring: SuperRing, rng: Random, size: int, parity: int,
                               bound: int, leading: int = 0, trailing: int = 0) -> SuperMatrix:
    """Numeric matrix with nonzero determinant; optionally the leading or
    trailing principal minor of the given size must be nonzero too."""
    shape = SuperShape((size, 0), (size, 0)) if parity == 0 else SuperShape((0, size), (0, size))
    while True:
        rows = [[ring.scalar(random_scalar(rng, bound)) for _ in range(size)] for _ in range(size)]
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


def _soul_perturbation(ring: SuperRing, rng: Random, m: int, n: int, bound: int,
                       density: float = 0.5) -> SuperMatrix:
    shape = SuperShape((m, n), (m, n))
    rows = []
    for i in range(m + n):
        row = []
        for j in range(m + n):
            if rng.random() < density:
                parity = (shape.row_parity(i) + shape.col_parity(j)) % 2
                row.append(random_soul(ring, rng, parity=parity, bound=bound))
            else:
                row.append(ring.zero())
        rows.append(row)
    return SuperMatrix(ring, shape, rows)


def random_invertible(ring: SuperRing, rng: Random, m: int, n: int,
                      bound: int = DEFAULT_COEFF_BOUND) -> SuperMatrix:
    """(I + soul) * block-diagonal numeric invertible body; with r = s = 0,
    random_big_cell constrains no corner minor."""
    return random_big_cell(ring, BlockProfile(m, n, 0, 0), rng, bound)


def random_big_cell(ring: SuperRing, bp: BlockProfile, rng: Random,
                    bound: int = DEFAULT_COEFF_BOUND) -> SuperMatrix:
    """Invertible matrix whose (1,1) and (4,4) corner bodies are invertible."""
    a0 = _random_numeric_invertible(ring, rng, bp.m, 0, bound, leading=bp.r)
    d0 = _random_numeric_invertible(ring, rng, bp.n, 1, bound, trailing=bp.s)
    zero_tr = SuperMatrix.zeros(ring, SuperShape((bp.m, 0), (0, bp.n)))
    zero_bl = SuperMatrix.zeros(ring, SuperShape((0, bp.n), (bp.m, 0)))
    body = block_matrix([[a0, zero_tr], [zero_bl, d0]])
    eye = SuperMatrix.identity(ring, bp.m, bp.n)
    return (eye + _soul_perturbation(ring, rng, bp.m, bp.n, bound)) * body


def random_parabolic(ring: SuperRing, bp: BlockProfile, rng: Random,
                     bound: int = DEFAULT_COEFF_BOUND) -> SuperMatrix:
    """Random invertible member of the standard parabolic."""
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
                numeric = _random_numeric_invertible(ring, rng, sizes[i - 1], rp, bound)
                soul = SuperMatrix(ring, shape, [
                    [random_soul(ring, rng, parity=0, bound=bound) for _ in range(sizes[i - 1])]
                    for _ in range(sizes[i - 1])
                ])
                row.append(numeric + soul)
            else:
                parity = (rp + cp) % 2
                entries = [
                    [random_soul(ring, rng, parity=parity, bound=bound) if parity
                     else random_element_even(ring, rng, bound)
                     for _ in range(sizes[j - 1])]
                    for _ in range(sizes[i - 1])
                ]
                row.append(SuperMatrix(ring, shape, entries))
        grid.append(row)
    return block_matrix(grid)


def random_element_even(ring: SuperRing, rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    return ring.scalar(random_scalar(rng, bound)) + random_soul(ring, rng, parity=0, bound=bound)


def random_ncoords(ring: SuperRing, bp: BlockProfile, rng: Random,
                   bound: int = DEFAULT_COEFF_BOUND) -> NCoordinates:
    def fill(i, j):
        shape = bp.block_shape(i, j)
        parity = (bp.block_parity(i) + bp.block_parity(j)) % 2
        entries = [
            [random_soul(ring, rng, parity=parity, bound=bound) if parity
             else random_element_even(ring, rng, bound)
             for _ in range(shape.n_cols)]
            for _ in range(shape.n_rows)
        ]
        return SuperMatrix(ring, shape, entries)

    return NCoordinates(bp, fill(2, 1), fill(2, 4), fill(3, 1), fill(3, 4))


def random_big_cell_point(ring: SuperRing, bp: BlockProfile, rng: Random,
                          bound: int = DEFAULT_COEFF_BOUND) -> GrassmannianPoint:
    return chart_up(random_ncoords(ring, bp, rng, bound))


def random_mixed_invertible(ring: SuperRing, bp: BlockProfile, rng: Random, index: int,
                            bound: int = DEFAULT_COEFF_BOUND) -> SuperMatrix:
    """Cycle parabolic / generic / unipotent samples so membership tests see
    both outcomes."""
    kind = index % 3
    if kind == 0:
        return random_parabolic(ring, bp, rng, bound)
    if kind == 1:
        return random_invertible(ring, rng, bp.m, bp.n, bound)
    return assemble(random_ncoords(ring, bp, rng, bound))
