"""Presentations of affine superschemes and the Jacobian rank test.

A presentation adjoins fiber variables (p even, q odd) to a base ring and
imposes homogeneous relations, r' even and s' odd.  At a rational point (odd
variables zero, even fiber variables assigned exact values) the Jacobian is
block diagonal, its off-diagonal entries being odd, so one substitution per
point checks the relations and evaluates only the two diagonal blocks.  The
verdict is smooth when both have full row rank, with relative dimension
(p - r' | q - s'), and etale when that dimension is 0|0.  Rank is computed
by exact Gaussian elimination over Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .algebra import SuperElement, SuperHom, SuperRing
from .errors import NotAPoint, ParityViolation, UnassignedVariable
from .matrix import SuperMatrix, SuperShape, det_even, independent_rows
from .scalars import GaussianRational


@dataclass(frozen=True, slots=True, eq=False)
class Presentation:
    """Generators and relations over a base ring.

    Sequences of names and relations are stored as tuples; `total_ring` is
    the base ring with the fiber variables adjoined.
    """

    base: SuperRing
    fiber_even: Tuple[str, ...]
    fiber_odd: Tuple[str, ...]
    relations_even: Tuple[SuperElement, ...] = ()
    relations_odd: Tuple[SuperElement, ...] = ()
    total_ring: SuperRing = field(init=False)

    def __post_init__(self):
        base = self.base
        fiber_even, fiber_odd = tuple(self.fiber_even), tuple(self.fiber_odd)
        total = SuperRing(base.even_vars + fiber_even, base.odd_vars + fiber_odd)
        rel_even = tuple(self.relations_even)
        rel_odd = tuple(self.relations_odd)
        for parity, rels in ((0, rel_even), (1, rel_odd)):
            for k, rel in enumerate(rels):
                if rel.ring != total:
                    raise ValueError(f"relation {k} does not live over base + fiber generators")
                if not rel.has_parity(parity):
                    kind = "even" if parity == 0 else "odd"
                    raise ParityViolation(f"{kind} relation {k} is not {kind}: {rel!r}")
        if len(rel_even) > len(fiber_even) or len(rel_odd) > len(fiber_odd):
            raise ValueError(
                f"relation counts ({len(rel_even)}|{len(rel_odd)}) exceed fiber variable "
                f"counts ({len(fiber_even)}|{len(fiber_odd)}); the rank test cannot reach them"
            )
        object.__setattr__(self, "fiber_even", fiber_even)
        object.__setattr__(self, "fiber_odd", fiber_odd)
        object.__setattr__(self, "relations_even", rel_even)
        object.__setattr__(self, "relations_odd", rel_odd)
        object.__setattr__(self, "total_ring", total)


@dataclass(frozen=True, slots=True, eq=False)
class RationalPoint:
    """Exact values for even variables; odd variables are implicitly zero.

    The values are coerced to Gaussian rationals in a dict of the point's own.
    """

    values: Dict[str, GaussianRational]

    def __post_init__(self):
        object.__setattr__(
            self, "values", {name: GaussianRational.coerce(v) for name, v in self.values.items()}
        )


@dataclass(frozen=True)
class SmoothnessVerdict:
    smooth: bool
    even_rank: int
    odd_rank: int
    relative_dimension: Optional[Tuple[int, int]]


def _substitution(pres: Presentation, pt: RationalPoint) -> SuperHom:
    """The point as a substitution: assigned evens to values, odds to zero,
    unassigned even base variables kept as formal constants."""
    total = pres.total_ring
    residual_evens = tuple(v for v in total.even_vars if v not in pt.values)
    residual = SuperRing(residual_evens, ())
    images: Dict[str, SuperElement] = {}
    for name in total.even_vars:
        if name in pt.values:
            images[name] = residual.scalar(pt.values[name])
        else:
            images[name] = residual.gen(name)
    for name in total.odd_vars:
        images[name] = residual.zero()
    return SuperHom(total, residual, images)


def jacobian(pres: Presentation) -> List[List[SuperElement]]:
    """Partial derivatives of all relations by all fiber variables.

    Rows: even relations then odd ones; columns: even fiber variables then
    odd ones.  Base variables are constants and get no column.
    """
    rows = list(pres.relations_even) + list(pres.relations_odd)
    cols = list(pres.fiber_even) + list(pres.fiber_odd)
    return [[rel.derivative(var) for var in cols] for rel in rows]


def rank_at_point(pres: Presentation, pt: RationalPoint) -> Tuple[int, int]:
    """Ranks of the two diagonal Jacobian blocks at the point."""
    at_point = _substitution(pres, pt)
    for label, rels in (("even", pres.relations_even), ("odd", pres.relations_odd)):
        for k, rel in enumerate(rels):
            reduced = at_point(rel)
            if not reduced.is_zero():
                raise NotAPoint(f"{label} relation {k} does not vanish at the point: {reduced!r}")
    # the off-diagonal blocks are odd and vanish at the point: only the two
    # diagonal blocks are differentiated; (i, j) is the entry's place in the
    # whole Jacobian
    n_even_rel, n_even_var = len(pres.relations_even), len(pres.fiber_even)
    ranks = []
    for rels, variables, i0, j0 in ((pres.relations_even, pres.fiber_even, 0, 0),
                                    (pres.relations_odd, pres.fiber_odd, n_even_rel, n_even_var)):
        evaluated: List[List[GaussianRational]] = []
        for i, rel in enumerate(rels, i0):
            values = []
            for j, var in enumerate(variables, j0):
                reduced = at_point(rel.derivative(var))
                value = reduced.constant_value()
                if value is None:
                    raise UnassignedVariable(
                        f"Jacobian entry ({i}, {j}) does not reduce to a number: {reduced!r}; "
                        "assign the base variables it mentions"
                    )
                values.append(value)
            evaluated.append(values)
        ranks.append(len(independent_rows(evaluated)))
    return ranks[0], ranks[1]


def is_smooth_at(pres: Presentation, pt: RationalPoint) -> SmoothnessVerdict:
    even_rank, odd_rank = rank_at_point(pres, pt)
    smooth = even_rank == len(pres.relations_even) and odd_rank == len(pres.relations_odd)
    rel_dim = None
    if smooth:
        rel_dim = (
            len(pres.fiber_even) - len(pres.relations_even),
            len(pres.fiber_odd) - len(pres.relations_odd),
        )
    return SmoothnessVerdict(smooth, even_rank, odd_rank, rel_dim)


def is_etale_at(pres: Presentation, pt: RationalPoint) -> bool:
    verdict = is_smooth_at(pres, pt)
    return verdict.smooth and verdict.relative_dimension == (0, 0)


def general_linear_presentation(m: int, n: int) -> Tuple[Presentation, RationalPoint]:
    """The invertible (m|n) matrices as an affine superscheme.

    Entries are free variables in the parity pattern; an extra even variable
    t enforces invertibility through t * det(even-even) * det(odd-odd) = 1.
    Returns the presentation and the identity point.
    """
    even_names = [f"a{i}{j}" for i in range(m) for j in range(m)]
    even_names += [f"d{i}{j}" for i in range(n) for j in range(n)]
    even_names.append("t")
    odd_names = [f"b{i}{j}" for i in range(m) for j in range(n)]
    odd_names += [f"c{i}{j}" for i in range(n) for j in range(m)]
    ring = SuperRing(tuple(even_names), tuple(odd_names))
    a_block = SuperMatrix(
        ring, SuperShape((m, 0), (m, 0)),
        [[ring.gen(f"a{i}{j}") for j in range(m)] for i in range(m)],
    )
    d_block = SuperMatrix(
        ring, SuperShape((0, n), (0, n)),
        [[ring.gen(f"d{i}{j}") for j in range(n)] for i in range(n)],
    )
    relation = ring.gen("t") * det_even(a_block) * det_even(d_block) - ring.one()
    pres = Presentation(SuperRing(), even_names, odd_names, [relation], [])
    values = {name: 0 for name in even_names}
    for i in range(m):
        values[f"a{i}{i}"] = 1
    for i in range(n):
        values[f"d{i}{i}"] = 1
    values["t"] = 1
    return pres, RationalPoint(values)
