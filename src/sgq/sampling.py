"""Seeded random generation of elements, matrices, and profile data.

Coefficients are uniform small rationals with numerator and denominator
bounded by `coeff_bound`; souls get bounded term counts.  Invertible matrices
are built as (I + soul perturbation) times a numeric invertible body, which
keeps bodies numeric and invertibility certain.  Every generator takes an
explicit random.Random, and `trial_rng` derives an independent state from
(seed, label, trial index), so trials can run in any order or in parallel
and still reproduce bit-identically.

The draw order is fixed: each generator makes the same `rng` calls in the
same order, so a seed names one value for good.  Values are built directly
from the drawn numbers: coefficients as canonical triples, odd monomials as
masks, elements and matrices without the validating constructors, whose
checks hold by construction here (nonzero coefficients, homogeneous souls,
the parity pattern).  Numeric draws are tested for invertibility by one
elimination over Q(i) each, and (I + S) B is formed entry by entry, B being
numeric and block diagonal.
"""

from __future__ import annotations

from random import Random
from typing import List, Optional, Tuple

from .algebra import SuperElement, SuperRing
from .flag import FREE_BLOCKS, BlockProfile, NCoordinates, assemble
from .grassmannian import GrassmannianPoint, chart_up
from .matrix import SuperMatrix, SuperShape, independent_rows
from .scalars import GaussianRational, from_ratios

DEFAULT_COEFF_BOUND = 4


def trial_rng(seed: int, label: str, index: int) -> Random:
    # string seeding hashes with sha512: stable across runs and platforms
    return Random(f"{seed}:{label}:{index}")


def random_fraction(rng: Random, bound: int) -> Tuple[int, int]:
    """(numerator, denominator) of a random rational, not reduced: every
    coefficient bound is drawn here."""
    return rng.randint(-bound, bound), rng.randint(1, bound)


def random_scalar(rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> GaussianRational:
    b, d2 = random_fraction(rng, bound) if rng.random() < 0.25 else (0, 1)
    a, d1 = random_fraction(rng, bound)
    return from_ratios(a, d1, b, d2)


def random_nonzero_scalar(rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> GaussianRational:
    while True:
        value = random_scalar(rng, bound)
        if value:
            return value


def _random_exp(ring: SuperRing, rng: Random):
    return tuple(rng.choice((0, 0, 1, 2)) for _ in range(ring.n_even))


def _random_odd_mask(ring: SuperRing, rng: Random, parity: Optional[int], nonempty: bool) -> int:
    random = rng.random
    bits = [1 << i for i in range(ring.n_odd)]
    while True:
        mask = 0
        for bit in bits:
            if random() < 0.5:
                mask |= bit
        if nonempty and not mask:
            continue
        if parity is not None and mask.bit_count() & 1 != parity:
            continue
        return mask


def _nonzero(ring: SuperRing, terms) -> SuperElement:
    return SuperElement(ring, {key: c for key, c in terms.items() if c})


def _plus_constant(ring: SuperRing, value: GaussianRational, soul: SuperElement) -> SuperElement:
    """value + soul, for a soul without a body term."""
    if not value:
        return soul
    return SuperElement(ring, {((0,) * ring.n_even, 0): value, **soul.terms})


def random_element(ring: SuperRing, rng: Random, max_terms: int = 3,
                   bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    """An arbitrary (usually inhomogeneous) element."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (_random_exp(ring, rng), _random_odd_mask(ring, rng, None, False))
        terms[key] = random_scalar(rng, bound)
    return _nonzero(ring, terms)


def random_homogeneous(ring: SuperRing, rng: Random, parity: int, max_terms: int = 3,
                       bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    if parity == 1 and ring.n_odd == 0:
        return ring.zero()
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (_random_exp(ring, rng), _random_odd_mask(ring, rng, parity, parity == 1))
        terms[key] = random_scalar(rng, bound)
    return _nonzero(ring, terms)


def random_soul(ring: SuperRing, rng: Random, parity: Optional[int] = None, max_terms: int = 2,
                bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    """Body-free element; optionally homogeneous of the given parity."""
    if ring.n_odd == 0 or (parity == 0 and ring.n_odd < 2):
        return ring.zero()
    exp = (0,) * ring.n_even
    terms = {}
    n_terms = 1 if max_terms == 1 or rng.random() < 0.67 else rng.randint(2, max_terms)
    for _ in range(n_terms):
        # nonempty even-parity masks automatically have two bits or more
        mask = _random_odd_mask(ring, rng, parity, True)
        terms[(exp, mask)] = random_scalar(rng, bound)
    return _nonzero(ring, terms)


def random_unit(ring: SuperRing, rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    value = random_nonzero_scalar(rng, bound)
    return _plus_constant(ring, value, random_soul(ring, rng, parity=0, bound=bound))


def random_element_even(ring: SuperRing, rng: Random, bound: int = DEFAULT_COEFF_BOUND) -> SuperElement:
    value = random_scalar(rng, bound)
    return _plus_constant(ring, value, random_soul(ring, rng, parity=0, bound=bound))


def _full_rank(rows) -> bool:
    return len(independent_rows(rows)) == len(rows)


def _random_numeric_invertible(rng: Random, size: int, bound: int,
                               leading: int = 0, trailing: int = 0) -> List[List[GaussianRational]]:
    """The rows over Q(i) of a matrix with nonzero determinant; optionally the
    leading or trailing principal minor of the given size is nonzero too."""
    lo = size - trailing
    while True:
        rows = [[random_scalar(rng, bound) for _ in range(size)] for _ in range(size)]
        if leading and not _full_rank([row[:leading] for row in rows[:leading]]):
            continue
        if trailing and not _full_rank([row[lo:] for row in rows[lo:]]):
            continue
        if _full_rank(rows):
            return rows


def _soul_perturbation(ring: SuperRing, rng: Random, m: int, n: int, bound: int,
                       density: float = 0.5) -> SuperMatrix:
    zero = ring.zero()
    rows = []
    for i in range(m + n):
        odd_row = i >= m
        rows.append([random_soul(ring, rng, parity=odd_row ^ (j >= m), bound=bound)
                     if rng.random() < density else zero
                     for j in range(m + n)])
    return SuperMatrix._raw(ring, SuperShape((m, n), (m, n)), rows)


def random_invertible(ring: SuperRing, rng: Random, m: int, n: int,
                      bound: int = DEFAULT_COEFF_BOUND) -> SuperMatrix:
    """(I + soul) * block-diagonal numeric invertible body; with r = s = 0,
    random_big_cell constrains no corner minor."""
    return random_big_cell(ring, BlockProfile(m, n, 0, 0), rng, bound)


def random_big_cell(ring: SuperRing, bp: BlockProfile, rng: Random,
                    bound: int = DEFAULT_COEFF_BOUND) -> SuperMatrix:
    """Invertible matrix whose (1,1) and (4,4) corner bodies are invertible:
    (I + S) B for a soul perturbation S and the numeric body B = diag(A0, D0)."""
    m = bp.m
    a0 = _random_numeric_invertible(rng, m, bound, leading=bp.r)
    d0 = _random_numeric_invertible(rng, bp.n, bound, trailing=bp.s)
    soul = _soul_perturbation(ring, rng, m, bp.n, bound).entries
    body_key = ((0,) * ring.n_even, 0)
    rows = []
    for i, soul_row in enumerate(soul):
        row = []
        # entry (i, j) is B[i][j] when i lies in j's block, plus S[i][k] B[k][j]
        # over the k of j's block; S has no body, so no term meets B[i][j]
        for block, lo in ((a0, 0), (d0, m)):
            size = len(block)
            inside = lo <= i < lo + size
            for j in range(size):
                value = block[i - lo][j] if inside else None
                terms = {body_key: value} if value else {}
                for k in range(size):
                    scale = block[k][j]
                    if not scale:
                        continue
                    for key, c in soul_row[lo + k].terms.items():
                        held = terms.get(key)
                        total = c * scale if held is None else held + c * scale
                        if total:
                            terms[key] = total
                        elif held is not None:
                            del terms[key]
                row.append(SuperElement(ring, terms))
        rows.append(row)
    return SuperMatrix._raw(ring, bp.square_shape, rows)


def random_parabolic(ring: SuperRing, bp: BlockProfile, rng: Random,
                     bound: int = DEFAULT_COEFF_BOUND) -> SuperMatrix:
    """Random invertible member of the standard parabolic, drawn block by
    block; it vanishes on the free blocks of N."""
    zero = ring.zero()
    size = bp.m + bp.n
    rows = [[zero] * size for _ in range(size)]
    for i in range(1, 5):
        for j in range(1, 5):
            if (i, j) in FREE_BLOCKS.values():
                continue
            cols = bp.block_range(j)
            if i == j:
                numeric = _random_numeric_invertible(rng, len(cols), bound)
                for row, values in zip(bp.block_range(i), numeric):
                    for col, value in zip(cols, values):
                        rows[row][col] = _plus_constant(ring, value, random_soul(ring, rng, parity=0, bound=bound))
                continue
            odd = (bp.block_parity(i) + bp.block_parity(j)) % 2
            for row in bp.block_range(i):
                for col in cols:
                    rows[row][col] = (random_soul(ring, rng, parity=1, bound=bound) if odd
                                      else random_element_even(ring, rng, bound))
    return SuperMatrix._raw(ring, bp.square_shape, rows)


def random_ncoords(ring: SuperRing, bp: BlockProfile, rng: Random,
                   bound: int = DEFAULT_COEFF_BOUND) -> NCoordinates:
    def fill(i, j):
        shape = bp.block_shape(i, j)
        odd = (bp.block_parity(i) + bp.block_parity(j)) % 2
        entries = [
            [random_soul(ring, rng, parity=1, bound=bound) if odd
             else random_element_even(ring, rng, bound)
             for _ in range(shape.n_cols)]
            for _ in range(shape.n_rows)
        ]
        return SuperMatrix._raw(ring, shape, entries)

    return NCoordinates(bp, *(fill(i, j) for i, j in FREE_BLOCKS.values()))


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
