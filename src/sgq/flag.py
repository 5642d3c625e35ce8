"""Block parabolic, unipotent complement, big cell, and coset normal form.

A profile (m, n | r, s) splits the rows and columns of a square (m|n) matrix
into four blocks of sizes (r, m-r, n-s, s), numbered 1..4 in that order.  The
standard subspace is spanned by blocks 1 and 4, the first r even and the last
s odd basis directions: `BlockProfile.corner` holds their indices and
`BlockProfile.inner` those of blocks 2 and 3, and everything below derives
from these two.  The stabilizer P of the subspace consists of the invertible
matrices that vanish on rows `inner` of columns `corner`.  The complement N
is the identity but for the free blocks u, eta, xi, v there, in the
positions of `FREE_BLOCKS`.  On the big cell (corner blocks with invertible
body) every g factors uniquely as g = assemble(coords) * p with p in P; the
factorization is one right division of g's row blocks 2 and 3 by its corner,
solved from the defining system, not taken from any quoted closed form, and
the solved values are the reference the closed forms are checked against
(see closed_form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .algebra import SuperRing
from .errors import NotInBigCell, NotInvertible, ShapeMismatch
from .matrix import SuperMatrix, SuperShape, is_invertible, right_divide


@dataclass(frozen=True)
class BlockProfile:
    """Total dimension m|n and subspace dimension r|s."""

    m: int
    n: int
    r: int
    s: int

    def __post_init__(self):
        if not (0 <= self.r <= self.m and 0 <= self.s <= self.n):
            raise ValueError(f"need 0 <= r <= m and 0 <= s <= n, got {self}")

    @property
    def sizes(self) -> Tuple[int, int, int, int]:
        return (self.r, self.m - self.r, self.n - self.s, self.s)

    def block_range(self, k: int) -> range:
        """Global row/column indices of block k (1-based, in split order)."""
        starts = [0, self.r, self.m, self.m + self.n - self.s]
        sizes = self.sizes
        return range(starts[k - 1], starts[k - 1] + sizes[k - 1])

    def block_parity(self, k: int) -> int:
        return 0 if k <= 2 else 1

    def block_shape(self, i: int, j: int) -> SuperShape:
        """The shape of block (i, j): blocks 1 and 2 are even, 3 and 4 odd."""
        sizes = self.sizes
        rows = (sizes[i - 1], 0) if self.block_parity(i) == 0 else (0, sizes[i - 1])
        cols = (sizes[j - 1], 0) if self.block_parity(j) == 0 else (0, sizes[j - 1])
        return SuperShape(rows, cols)

    @property
    def square_shape(self) -> SuperShape:
        return SuperShape((self.m, self.n), (self.m, self.n))

    @property
    def corner(self) -> Tuple[int, ...]:
        """The indices of blocks 1 and 4, the directions of the standard subspace."""
        return (*self.block_range(1), *self.block_range(4))

    @property
    def inner(self) -> Tuple[int, ...]:
        """The indices of blocks 2 and 3, the other directions."""
        return (*self.block_range(2), *self.block_range(3))


def _check_square(g: SuperMatrix, bp: BlockProfile) -> None:
    if g.shape != bp.square_shape:
        raise ShapeMismatch(f"matrix shape {g.shape} does not match profile {bp}")


def split_blocks(g: SuperMatrix, bp: BlockProfile) -> Dict[Tuple[int, int], SuperMatrix]:
    """The sixteen blocks of g under the profile's four-way split."""
    _check_square(g, bp)
    return {(i, j): g.select(bp.block_range(i), bp.block_range(j)) for i in range(1, 5) for j in range(1, 5)}


# the free blocks of N, by field name, at their (row block, column block):
# rows `inner` of columns `corner`, the blocks where P vanishes
FREE_BLOCKS = {"u": (2, 1), "eta": (2, 4), "xi": (3, 1), "v": (3, 4)}


@dataclass(frozen=True, slots=True, repr=False)
class NCoordinates:
    """The free blocks u, eta, xi, v of a unipotent-complement element."""

    profile: BlockProfile
    u: SuperMatrix
    eta: SuperMatrix
    xi: SuperMatrix
    v: SuperMatrix

    def __post_init__(self):
        for name, (i, j) in FREE_BLOCKS.items():
            block = getattr(self, name)
            expected = self.profile.block_shape(i, j)
            if block.shape != expected:
                raise ShapeMismatch(f"block {name} has shape {block.shape}, expected {expected}")
            if block.ring != self.u.ring:
                raise ShapeMismatch(f"block {name} lives in a different ring")

    @property
    def ring(self) -> SuperRing:
        return self.u.ring

    @classmethod
    def zero(cls, ring: SuperRing, profile: BlockProfile) -> "NCoordinates":
        return cls(profile, *(SuperMatrix.zeros(ring, profile.block_shape(i, j))
                              for i, j in FREE_BLOCKS.values()))

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.eta.is_zero() and self.xi.is_zero() and self.v.is_zero()

    def __repr__(self):
        return f"NCoordinates(u={self.u!r}, eta={self.eta!r}, xi={self.xi!r}, v={self.v!r})"


def assemble(coords: NCoordinates) -> SuperMatrix:
    """The unipotent-complement matrix with the given free blocks: the
    identity with the quotient [u eta; xi v] at rows `inner` and columns
    `corner`, the inverse of `coordinates_from_quotient`."""
    bp = coords.profile
    rows = [list(row) for row in SuperMatrix.identity(coords.ring, bp.m, bp.n).entries]
    quotient = zip(coords.u.entries + coords.xi.entries, coords.eta.entries + coords.v.entries)
    for i, (even, odd) in zip(bp.inner, quotient):
        for j, entry in zip(bp.corner, even + odd):
            rows[i][j] = entry
    return SuperMatrix._raw(coords.ring, bp.square_shape, rows)


def n_coordinates_of(g: SuperMatrix, bp: BlockProfile) -> NCoordinates:
    """Read the four free N-position blocks off any profile-shaped matrix."""
    _check_square(g, bp)
    return coordinates_from_quotient(g.select(bp.inner, bp.corner), bp)


def standard_parabolic_member(g: SuperMatrix, bp: BlockProfile) -> bool:
    """True iff g stabilizes the standard subspace: four zero blocks."""
    _check_square(g, bp)
    return g.select(bp.inner, bp.corner).is_zero()


def n_member(g: SuperMatrix, bp: BlockProfile) -> bool:
    """Whether g is the identity outside its free N-position blocks."""
    return g == assemble(n_coordinates_of(g, bp))


def in_big_cell(g: SuperMatrix, bp: BlockProfile) -> bool:
    """True iff the (1,1) and (4,4) corner blocks have invertible body."""
    _check_square(g, bp)
    return is_invertible(g.select(bp.corner, bp.corner))


def coordinates_from_quotient(norm: SuperMatrix, bp: BlockProfile) -> NCoordinates:
    """The big-cell coordinates held by a quotient of row blocks 2 and 3 by
    row blocks 1 and 4, on column blocks 1 and 4: its row block 2 is
    [u eta] and its row block 3 is [xi v]."""
    even_cols = range(bp.r)
    odd_cols = range(bp.r, bp.r + bp.s)
    block2 = range(bp.m - bp.r)
    block3 = range(bp.m - bp.r, norm.n_rows)
    return NCoordinates(
        bp,
        norm.select(block2, even_cols),
        norm.select(block2, odd_cols),
        norm.select(block3, even_cols),
        norm.select(block3, odd_cols),
    )


def normal_form(g: SuperMatrix, bp: BlockProfile) -> Tuple[NCoordinates, SuperMatrix]:
    """The unique factorization g = assemble(coords) * p with p parabolic.

    Row blocks 1 and 4 of n are those of the identity, so p shares them with
    g, and on column blocks 1 and 4, where p vanishes in row blocks 2 and 3,
    the system reads g[(2, 3), (1, 4)] = [u eta; xi v] * g[(1, 4), (1, 4)].
    One right division by the corner solves it; the corner's two even inverses
    are the big-cell test.  Since n^-1 = assemble(-coords), row blocks 2 and 3
    of p are g's minus [u eta; xi v] times g's row blocks 1 and 4: an interior
    in column blocks 2 and 3 whose body det times the corner's is g's.
    """
    _check_square(g, bp)
    inner, corner = bp.inner, bp.corner
    try:
        norm = right_divide(g.select(inner, corner), g.select(corner, corner))
    except NotInvertible:
        raise NotInBigCell(f"corner blocks of g lack invertible body under profile {bp}") from None
    # columns 1 and 4 of p vanish on these rows; columns 2 and 3 are g's less n's part
    interior = g.select(inner, inner) - norm * g.select(corner, inner)
    if not is_invertible(interior):
        raise NotInvertible("g has singular body")
    zero = g.ring.zero()
    rows = [list(row) for row in g.entries]
    for i, row in zip(inner, interior.entries):
        rows[i] = [zero] * g.n_cols
        for j, entry in zip(inner, row):
            rows[i][j] = entry
    return coordinates_from_quotient(norm, bp), SuperMatrix._raw(g.ring, g.shape, rows)


def cosets_equal(g1: SuperMatrix, g2: SuperMatrix, bp: BlockProfile) -> bool:
    """Whether g1 and g2 represent the same left coset of the parabolic:
    whether g1^-1 g2 vanishes on row blocks 2 and 3 of column blocks 1 and
    4, the only entries that are multiplied out."""
    _check_square(g1, bp)
    _check_square(g2, bp)
    every = range(bp.m + bp.n)
    return (g1.inv().select(bp.inner, every) * g2.select(every, bp.corner)).is_zero()
