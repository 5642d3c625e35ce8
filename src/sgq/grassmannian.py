"""Points of the r|s Grassmannian of an m|n space, as framed spans.

A point is an (m|n) x (r|s) span matrix of full rank, considered up to right
multiplication by invertible (r|s) matrices; equality is decided by
normalizing both spans on a shared choice of r even and s odd rows.  The
chart over the big cell identifies span matrices that normalize to identity
blocks on row blocks 1 and 4 with the free blocks u, eta, xi, v of the
unipotent complement.

Convention: the odd columns of the standard point select the last s odd
basis directions, matching the four-block split of the profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Tuple

from .algebra import SuperRing
from .errors import NotInBigCell, NotInvertible, RankDeficient, RingMismatch, ShapeMismatch
from .flag import BlockProfile, NCoordinates, assemble, coordinates_from_quotient
from .matrix import SuperMatrix, SuperShape, independent_rows, is_invertible, right_divide


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class GrassmannianPoint:
    """A full-rank framed span over a profile.

    Equality is identity; `points_equal` decides whether two spans are the
    same point.  `frame` holds the first r even and s odd rows whose body is
    invertible, found once at construction.
    """

    profile: BlockProfile
    span: SuperMatrix
    frame: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        profile, span = self.profile, self.span
        expected = SuperShape((profile.m, profile.n), (profile.r, profile.s))
        if span.shape != expected:
            raise ShapeMismatch(f"span shape {span.shape} does not match profile {profile}")
        frame = _first_valid_choice(span, profile)
        if frame is None:
            raise RankDeficient("no choice of r even and s odd rows has invertible body")
        object.__setattr__(self, "frame", frame)

    @property
    def ring(self) -> SuperRing:
        return self.span.ring

    def __repr__(self):
        return f"GrassmannianPoint({self.profile}, {self.span!r})"


def _first_valid_choice(span: SuperMatrix, bp: BlockProfile) -> Optional[Tuple[int, ...]]:
    """The lexicographically first r even and s odd rows with invertible body,
    or None; that body is block diagonal, so the two parts are chosen apart."""
    even = _first_frame(span, range(bp.m), range(bp.r))
    odd = _first_frame(span, range(bp.m, bp.m + bp.n), range(bp.r, bp.r + bp.s))
    return None if even is None or odd is None else even + odd


def _first_frame(span: SuperMatrix, rows: range, cols: range) -> Optional[Tuple[int, ...]]:
    """The first len(cols) of `rows` with invertible body on `cols`.  Constant
    bodies make these the bases of a linear matroid, found by greedy elimination;
    with even generators only the subset search is right: of the rows [x] and [1]
    only (1,) frames, and [[x, x+1], [x-1, x]] is unimodular with no unit entry."""
    if span.ring.n_even:
        return next((c for c in combinations(rows, len(cols)) if is_invertible(span.select(c, cols))), None)
    kept = independent_rows([[span[i, j].body().constant_value() for j in cols] for i in rows])
    return tuple(rows[k] for k in kept) if len(kept) == len(cols) else None


def _normalize_on(span: SuperMatrix, rows: Tuple[int, ...]) -> SuperMatrix:
    """The rows of the span outside `rows`, right-divided by the frame
    submatrix on `rows`; the frame rows themselves would become the identity,
    so they are not computed.  Raises NotInvertible for a singular frame."""
    cols = range(span.n_cols)
    others = [i for i in range(span.n_rows) if i not in rows]
    return right_divide(span.select(others, cols), span.select(rows, cols))


def standard_point(bp: BlockProfile, ring: SuperRing) -> GrassmannianPoint:
    """The image of the identity: identity rows at `corner`, zero elsewhere."""
    return orbit_map(SuperMatrix.identity(ring, bp.m, bp.n), bp)


def points_equal(p1: GrassmannianPoint, p2: GrassmannianPoint) -> bool:
    """Whether the spans differ by a right invertible (r|s) factor.

    Both spans normalized on the frame of p1 carry identity frame rows, so
    comparing the rows outside the frame decides equality.
    """
    if p1.profile != p2.profile:
        raise ShapeMismatch(f"profiles differ: {p1.profile} vs {p2.profile}")
    if p1.ring != p2.ring:
        raise RingMismatch("points live over different rings")
    try:
        norm2 = _normalize_on(p2.span, p1.frame)
    except NotInvertible:  # the rows that frame p1 do not frame p2
        return False
    return _normalize_on(p1.span, p1.frame) == norm2


def act(g: SuperMatrix, point: GrassmannianPoint) -> GrassmannianPoint:
    """Left action of an invertible (m|n) matrix on a point."""
    bp = point.profile
    if g.shape != bp.square_shape:
        raise ShapeMismatch(f"acting matrix shape {g.shape} does not match profile {bp}")
    return GrassmannianPoint(bp, g * point.span)


def orbit_map(g: SuperMatrix, bp: BlockProfile) -> GrassmannianPoint:
    """The image of the standard point: columns `corner` of g."""
    if g.shape != bp.square_shape:
        raise ShapeMismatch(f"matrix shape {g.shape} does not match profile {bp}")
    return GrassmannianPoint(bp, g.select(range(g.n_rows), bp.corner))


def chart_up(coords: NCoordinates) -> GrassmannianPoint:
    """The big-cell point with the given unipotent coordinates."""
    return orbit_map(assemble(coords), coords.profile)


def chart_down(point: GrassmannianPoint) -> NCoordinates:
    """Unipotent coordinates of a big-cell point.

    Normalizes the span on rows `corner`; the remaining rows, `inner` in
    order, carry u, eta, xi, v as in `normal_form`.
    """
    bp = point.profile
    try:
        norm = _normalize_on(point.span, bp.corner)
    except NotInvertible:
        raise NotInBigCell("the (block 1, block 4) row submatrix has singular body") from None
    return coordinates_from_quotient(norm, bp)
