"""Closed-form cross-checks for the coset factorization solver.

The factorization g = assemble(coords) * p admits closed-form expressions
for its output blocks in terms of the input blocks.  This module evaluates a
fixed list of candidate expressions — the direct read-off line plus the
commonly quoted one-term corrections for the interior blocks and the solved
forms of u, eta, xi, v — against the solver (`flag.normal_form`, one right
division by the corner) on a concrete matrix, and emits a machine-readable
report saying which candidates reproduce the solver exactly and what the
residual is when one does not.  The solved u and v are bracket formulas the
solver does not use, so they check it independently.

Variants that drop a correction term are included on purpose: their recorded
residuals document that the solver's extra terms are required.  The solver is
the reference throughout; the report never adjusts it to fit a candidate.
"""

from __future__ import annotations

from typing import Dict, List

from .algebra import SuperRing
from .flag import BlockProfile, normal_form, split_blocks
from .matrix import SuperMatrix

# block coordinates of the 8 odd positions under the (2,2,1,1) split
_ODD_POSITIONS = ((1, 3), (1, 4), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1), (4, 2))
_EVEN_POSITIONS = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 3), (3, 4), (4, 3), (4, 4))
_EVEN_BODIES = (2, 3, 5, 7, 11, 13, 17, 19)


def generic_instance():
    """A big-cell matrix for profile (2,2,1,1) with one free odd generator
    per odd entry and distinct unit bodies on the even entries.

    Every block is 1x1, so the block formulas can be compared term by term
    with nothing collapsing by accident.
    """
    bp = BlockProfile(2, 2, 1, 1)
    ring = SuperRing([], [f"o{i}{j}" for (i, j) in _ODD_POSITIONS])
    entries = {}
    for (i, j), body in zip(_EVEN_POSITIONS, _EVEN_BODIES):
        entries[(i, j)] = ring.scalar(body)
    for i, j in _ODD_POSITIONS:
        entries[(i, j)] = ring.gen(f"o{i}{j}")
    rows = []
    for i in range(1, 5):
        rows.append([entries[(i, j)] for j in range(1, 5)])
    return ring, bp, SuperMatrix(ring, bp.square_shape, rows)


def _scalar(block: SuperMatrix):
    """The single entry of a 1x1 block."""
    return block[0, 0]


def solution_line_report(g: SuperMatrix, bp: BlockProfile) -> Dict:
    """Evaluate the candidate closed forms against the solver on g.

    Only 1x1-block profiles are supported; the candidates are written as
    scalar expressions and sidestep left/right inverse placement.
    """
    if bp.sizes != (1, 1, 1, 1):
        raise ValueError("solution_line_report requires a profile with four size-1 blocks")
    coords, p = normal_form(g, bp)
    gb = {key: _scalar(block) for key, block in split_blocks(g, bp).items()}
    pb = {key: _scalar(block) for key, block in split_blocks(p, bp).items()}
    u = _scalar(coords.u)
    eta = _scalar(coords.eta)
    xi = _scalar(coords.xi)
    v = _scalar(coords.v)
    g11_inv = gb[(1, 1)].inv()
    g44_inv = gb[(4, 4)].inv()

    candidates: List[Dict] = []

    def compare(line, target, formula, solver_value, candidate_value, extra=False):
        residual = solver_value - candidate_value
        entry = {
            "line": line,
            "target": target,
            "formula": formula,
            "matches": residual.is_zero(),
        }
        if extra:
            entry["extra_readoff"] = True
        if not residual.is_zero():
            entry["residual"] = repr(residual)
        candidates.append(entry)

    # line 1: direct read-offs
    compare(1, "a11", "g11", pb[(1, 1)], gb[(1, 1)])
    compare(1, "a12", "g12", pb[(1, 2)], gb[(1, 2)])
    compare(1, "alpha13", "gamma13", pb[(1, 3)], gb[(1, 3)])
    compare(1, "alpha14", "gamma14", pb[(1, 4)], gb[(1, 4)])
    compare(1, "alpha41", "gamma41", pb[(4, 1)], gb[(4, 1)])
    compare(1, "a44", "g44", pb[(4, 4)], gb[(4, 4)])
    # the same read-off extends across row 4; recorded for completeness
    compare(1, "alpha42", "gamma42", pb[(4, 2)], gb[(4, 2)], extra=True)
    compare(1, "a43", "g43", pb[(4, 3)], gb[(4, 3)], extra=True)

    # line 2: interior blocks quoted with a single correction term
    compare(2, "a22", "g22 - u*g12", pb[(2, 2)], gb[(2, 2)] - u * gb[(1, 2)])
    compare(2, "alpha23", "gamma23 - u*gamma13", pb[(2, 3)], gb[(2, 3)] - u * gb[(1, 3)])
    compare(2, "alpha32", "gamma32 - xi*g12", pb[(3, 2)], gb[(3, 2)] - xi * gb[(1, 2)])
    compare(2, "a33", "g33 - xi*gamma13", pb[(3, 3)], gb[(3, 3)] - xi * gb[(1, 3)])

    # line 3: the two quoted eta expressions (the second repeats the
    # left-hand side; it is compared as written, and its v-for-u variant is
    # recorded because that variant reproduces the solver's xi)
    compare(3, "eta", "(gamma24 - u*gamma14)*g44^-1", eta, (gb[(2, 4)] - u * gb[(1, 4)]) * g44_inv)
    compare(3, "eta", "(gamma31 - u*gamma41)*g11^-1", eta, (gb[(3, 1)] - u * gb[(4, 1)]) * g11_inv)
    compare(3, "xi", "(gamma31 - v*gamma41)*g11^-1", xi, (gb[(3, 1)] - v * gb[(4, 1)]) * g11_inv, extra=True)

    # lines 4 and 5: the solved corner unknowns
    bracket_u = (gb[(1, 1)] - gb[(1, 4)] * g44_inv * gb[(4, 1)]).inv()
    compare(4, "u", "(g21 - gamma24*g44^-1*gamma41)*(g11 - gamma14*g44^-1*gamma41)^-1",
            u, (gb[(2, 1)] - gb[(2, 4)] * g44_inv * gb[(4, 1)]) * bracket_u)
    bracket_v = (gb[(4, 4)] - gb[(4, 1)] * g11_inv * gb[(1, 4)]).inv()
    compare(5, "v", "(g34 - gamma31*g11^-1*gamma14)*(g44 - gamma41*g11^-1*gamma14)^-1",
            v, (gb[(3, 4)] - gb[(3, 1)] * g11_inv * gb[(1, 4)]) * bracket_v)

    quoted = [c for c in candidates if not c.get("extra_readoff")]
    first_line = [c for c in quoted if c["line"] == 1]
    return {
        "profile": {"m": bp.m, "n": bp.n, "r": bp.r, "s": bp.s},
        "lines": candidates,
        "first_line_matches": all(c["matches"] for c in first_line),
        "mismatched_targets": sorted({c["target"] for c in quoted if not c["matches"]}),
        "conventions": [
            "blocks are indexed by the (r, m-r, n-s, s) split; entry names follow block positions,"
            " so the (2,4) odd block is gamma24 and the (4,3) even block is g43",
            "the subspace fixed by the parabolic spans the first r even and the last s odd"
            " basis directions",
            "parabolic membership constrains only blocks (2,1), (3,1), (2,4), (3,4);"
            " row-4 interior blocks are free and read off verbatim (see extra_readoff lines)",
        ],
    }
