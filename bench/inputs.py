"""Seeded benchmark inputs, built through sgq's public constructors only.

Nothing here calls ``sgq.sampling`` or any sgq determinant, inverse or
factorization, so a change to those layers leaves the inputs unchanged.
Every matrix is a product of factors whose answers are known by
construction:

* ``superlinalg``: x = L * diag(A0, D0) * U with block-unipotent L, U and
  A0, D0 each a product of a lower and an upper triangular factor, so
  Ber(x) = det(A0) / det(D0) is a product of the triangular diagonals.
* ``coset``: g = N * P with N in the unipotent complement and P in the
  standard parabolic, so the unique normal form of g is (N, P) itself and
  the big-cell corners of g are the triangular products P11 and P44.
* ``smooth``: relations whose Jacobian at the identity point has known
  pivots, so the ranks and the verdict follow from the construction.

A draw is a function of (seed, workload, index) alone.
"""

from __future__ import annotations

from itertools import permutations
from random import Random

from sgq import GaussianRational, Presentation, RationalPoint, SuperMatrix, SuperRing, SuperShape


def op_rng(seed: int, workload: str, index: int) -> Random:
    # string seeding hashes with sha512: stable across runs and platforms
    return Random(f"sgqbench:{seed}:{workload}:{index}")


class Draw:
    """Random ring elements with integer Gaussian coefficients in [-bound, bound]."""

    def __init__(self, ring: SuperRing, rng: Random, bound: int):
        self.ring = ring
        self.rng = rng
        self.bound = bound

    def coeff(self, nonzero: bool = False) -> GaussianRational:
        while True:
            re = self.rng.randint(-self.bound, self.bound)
            im = self.rng.randint(-self.bound, self.bound) if self.rng.random() < 0.25 else 0
            if re or im or not nonzero:
                return GaussianRational(re, im)

    def soul(self, parity: int, max_terms: int = 2):
        """Sum of 1..max_terms odd monomials of the given parity (no body)."""
        q = self.ring.n_odd
        terms = {}
        for _ in range(self.rng.randint(1, max_terms)):
            size = self.rng.choice([k for k in range(1, q + 1) if k % 2 == parity])
            odd = tuple(sorted(self.rng.sample(range(q), size)))
            terms[((0,) * self.ring.n_even, odd)] = self.coeff(nonzero=True)
        return self.ring.element(terms)

    def entry(self, parity: int, body=None):
        """An odd soul, or a body plus an even soul."""
        if parity:
            return self.soul(1)
        value = self.coeff() if body is None else GaussianRational(body)
        return self.ring.scalar(value) + self.soul(0)

    def unit_body(self) -> int:
        return self.rng.choice((-3, -2, -1, 1, 2, 3))

    def block(self, rows: int, cols: int, parity: int):
        return [[self.entry(parity) for _ in range(cols)] for _ in range(rows)]

    def triangular(self, size: int, lower: bool):
        """Triangular even block with unit bodies on the diagonal; returns
        the rows and the diagonal entries."""
        rows, diagonal = [], []
        for i in range(size):
            row = []
            for j in range(size):
                if i == j:
                    diagonal.append(self.entry(0, body=self.unit_body()))
                    row.append(diagonal[-1])
                elif (j < i) == lower:
                    row.append(self.entry(0))
                else:
                    row.append(self.ring.zero())
            rows.append(row)
        return rows, diagonal


def grassmann_ring(q: int) -> SuperRing:
    return SuperRing([], [f"t{k + 1}" for k in range(q)])


def _square(ring: SuperRing, grid, sizes, parities) -> SuperMatrix:
    """Assemble a square matrix from a dict of blocks {(i, j): rows}; absent
    blocks are zero.  Block k has sizes[k] indices of parity parities[k]."""
    rows = []
    for i, height in enumerate(sizes):
        for local in range(height):
            row = []
            for j, width in enumerate(sizes):
                block = grid.get((i, j))
                row.extend(block[local] if block else [ring.zero()] * width)
            rows.append(row)
    m = sum(s for s, p in zip(sizes, parities) if p == 0)
    n = sum(sizes) - m
    return SuperMatrix(ring, SuperShape((m, n), (m, n)), rows)


def _identity_rows(ring: SuperRing, size: int):
    return [[ring.one() if i == j else ring.zero() for j in range(size)] for i in range(size)]


def _product(elements, ring: SuperRing):
    total = ring.one()
    for e in elements:
        total = total * e
    return total


def _triangular_product(draw: Draw, size: int, even: bool):
    """L * U as a (size|0) or (0|size) matrix, with det = product of diagonals."""
    ring = draw.ring
    shape = SuperShape((size, 0), (size, 0)) if even else SuperShape((0, size), (0, size))
    lower, d1 = draw.triangular(size, lower=True)
    upper, d2 = draw.triangular(size, lower=False)
    product = SuperMatrix(ring, shape, lower) * SuperMatrix(ring, shape, upper)
    return product.entries, _product(d1 + d2, ring)


def superlinalg_input(seed: int, index: int, m: int, n: int, q: int, bound: int):
    """Dense invertible (m|n) matrix x and its Berezinian, known from the factors."""
    ring = grassmann_ring(q)
    draw = Draw(ring, op_rng(seed, "superlinalg", index), bound)
    a0, det_a = _triangular_product(draw, m, even=True)
    d0, det_d = _triangular_product(draw, n, even=False)
    sizes, parities = (m, n), (0, 1)
    low = _square(ring, {(0, 0): _identity_rows(ring, m), (1, 0): draw.block(n, m, 1),
                         (1, 1): _identity_rows(ring, n)}, sizes, parities)
    diag = _square(ring, {(0, 0): a0, (1, 1): d0}, sizes, parities)
    up = _square(ring, {(0, 0): _identity_rows(ring, m), (0, 1): draw.block(m, n, 1),
                        (1, 1): _identity_rows(ring, n)}, sizes, parities)
    x = low * diag * up
    return x, det_a * det_d.inv()


def coset_input(seed: int, index: int, profile, q: int, bound: int):
    """g = N * P for a profile (m, n, r, s); returns g, the blocks (u, eta,
    xi, v) of N as row lists, and P."""
    m, n, r, s = profile
    ring = grassmann_ring(q)
    draw = Draw(ring, op_rng(seed, "coset", index), bound)
    sizes = (r, m - r, n - s, s)
    parities = (0, 0, 1, 1)
    coords = {
        "u": draw.block(sizes[1], sizes[0], 0),
        "eta": draw.block(sizes[1], sizes[3], 1),
        "xi": draw.block(sizes[2], sizes[0], 1),
        "v": draw.block(sizes[2], sizes[3], 0),
    }
    n_grid = {(k, k): _identity_rows(ring, sizes[k]) for k in range(4)}
    n_grid.update({(1, 0): coords["u"], (1, 3): coords["eta"], (2, 0): coords["xi"], (2, 3): coords["v"]})
    p_grid = {}
    for i in range(4):
        for j in range(4):
            if (i, j) in ((1, 0), (2, 0), (1, 3), (2, 3)):
                continue  # the four blocks every parabolic member has zero
            if i == j:
                p_grid[(i, j)], _ = _triangular_product(draw, sizes[i], even=parities[i] == 0)
            else:
                p_grid[(i, j)] = draw.block(sizes[i], sizes[j], (parities[i] + parities[j]) % 2)
    n_mat = _square(ring, n_grid, sizes, parities)
    p_mat = _square(ring, p_grid, sizes, parities)
    return n_mat * p_mat, coords, p_mat


def _det3(ring: SuperRing, name: str):
    """Leibniz determinant of the 3x3 generic matrix with entries name{i}{j}."""
    total = ring.zero()
    for perm in permutations(range(3)):
        sign = -1 if sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3)) % 2 else 1
        term = ring.scalar(sign)
        for i, j in enumerate(perm):
            term = term * ring.gen(f"{name}{i}{j}")
        total = total + term
    return total


def smooth_input(seed: int, index: int, n_even_rel: int, n_odd_rel: int, bound: int, repeat_every: int):
    """A GL(3|3)-type presentation with extra relations, the identity point,
    and the verdict (smooth, even rank, odd rank, relative dimension) known
    from the construction."""
    even = [f"a{i}{j}" for i in range(3) for j in range(3)]
    even += [f"d{i}{j}" for i in range(3) for j in range(3)] + ["t"]
    odd = [f"b{i}{j}" for i in range(3) for j in range(3)] + [f"c{i}{j}" for i in range(3) for j in range(3)]
    ring = SuperRing(even, odd)
    rng = op_rng(seed, "smooth", index)
    draw = Draw(ring, rng, bound)
    point = {name: 1 if name == "t" or (name[0] in "ad" and name[1] == name[2]) else 0 for name in even}

    def shifted(name):
        return ring.gen(name) - ring.scalar(point[name])

    def quadratic():
        # vanishes to second order at the point
        if rng.random() < 0.5:
            x, y = rng.sample(even, 2)
            return ring.scalar(draw.coeff(nonzero=True)) * shifted(x) * shifted(y)
        x, y = rng.sample(odd, 2)
        return ring.scalar(draw.coeff(nonzero=True)) * ring.gen(x) * ring.gen(y)

    def linear(pivot, others):
        # nonzero coefficient on the pivot; the other term avoids every pivot
        return (ring.scalar(draw.coeff(nonzero=True)) * ring.gen(pivot)
                + ring.scalar(draw.coeff()) * ring.gen(rng.choice(others)))

    # gradient of t*det(A)*det(D) - 1 at the point touches t and the diagonals only
    off_diagonal = [name for name in even if point[name] == 0]
    rng.shuffle(off_diagonal)
    pivots, others = off_diagonal[:n_even_rel], off_diagonal[n_even_rel:]
    rel_even = [ring.gen("t") * _det3(ring, "a") * _det3(ring, "d") - ring.one()]
    rel_even += [linear(p, others) + quadratic() for p in pivots]

    odd_order = list(odd)
    rng.shuffle(odd_order)
    odd_pivots, odd_others = odd_order[:n_odd_rel], odd_order[n_odd_rel:]
    rel_odd = []
    for p in odd_pivots:
        # an even factor that vanishes at the point times an odd generator
        rel = linear(p, odd_others) + shifted(rng.choice(even)) * ring.gen(rng.choice(odd))
        rel_odd.append(rel)

    repeated = index % repeat_every == repeat_every - 1
    if repeated:
        rel_even[-1] = rel_even[1]
    pres = Presentation(SuperRing(), even, odd, rel_even, rel_odd)
    even_rank = len(rel_even) - 1 if repeated else len(rel_even)
    expected = {
        "smooth": not repeated,
        "even_rank": even_rank,
        "odd_rank": len(rel_odd),
        "relative_dimension": None if repeated else (len(even) - len(rel_even), len(odd) - len(rel_odd)),
    }
    return pres, RationalPoint(point), expected

