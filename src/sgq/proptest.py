"""Deterministic property-test harness.

Each suite is a list of named single-trial checks.  A check draws its data
from a Random derived from (seed, property name, trial index), runs one
instance of the law, and returns None on success or a JSON-able
counterexample.  Reports are therefore byte-identical for identical
(suite, trials, seed, size) regardless of execution order.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .algebra import SuperHom, SuperRing
from .errors import NotInvertible, UnknownSuite
from .flag import BlockProfile, assemble, cosets_equal, in_big_cell, n_member, normal_form, standard_parabolic_member
from .grassmannian import act, chart_down, chart_up, orbit_map, points_equal, standard_point
from .matrix import SuperMatrix, berezinian
from .sampling import (
    random_big_cell,
    random_big_cell_point,
    random_element,
    random_homogeneous,
    random_invertible,
    random_mixed_invertible,
    random_ncoords,
    random_nonzero_scalar,
    random_parabolic,
    random_soul,
    random_unit,
    trial_rng,
)
from .smoothness import Presentation, RationalPoint, general_linear_presentation, is_smooth_at, jacobian, rank_at_point


def _grassmann_ring(size) -> SuperRing:
    return SuperRing([], [f"t{i+1}" for i in range(size["q"])])


def _profile(size) -> BlockProfile:
    return BlockProfile(size["m"], size["n"], size["r"], size["s"])


# -- kernel laws ---------------------------------------------------------------


def check_supercommutativity(rng, size):
    ring = _grassmann_ring(size)
    pa, pb = rng.randint(0, 1), rng.randint(0, 1)
    a = random_homogeneous(ring, rng, pa, bound=size["coeff_bound"])
    b = random_homogeneous(ring, rng, pb, bound=size["coeff_bound"])
    lhs = a * b
    rhs = b * a if pa * pb == 0 else -(b * a)
    if lhs != rhs:
        return {"a": repr(a), "b": repr(b), "ab": repr(lhs), "signed_ba": repr(rhs)}
    return None


def check_soul_nilpotency(rng, size):
    ring = _grassmann_ring(size)
    a = random_soul(ring, rng, parity=None, max_terms=3, bound=size["coeff_bound"])
    power = a ** (ring.n_odd + 1)
    if not power.is_zero():
        return {"a": repr(a), "power": repr(power)}
    return None


def check_body_multiplicative(rng, size):
    ring = _grassmann_ring(size)
    a = random_element(ring, rng, bound=size["coeff_bound"])
    b = random_element(ring, rng, bound=size["coeff_bound"])
    if (a * b).body() != a.body() * b.body():
        return {"a": repr(a), "b": repr(b)}
    return None


def check_inversion_exact(rng, size):
    ring = _grassmann_ring(size)
    u = random_unit(ring, rng, bound=size["coeff_bound"])
    if not (u * u.inv()).is_one():
        return {"u": repr(u), "u_inv": repr(u.inv())}
    return None


def check_substitution_morphism(rng, size):
    source = SuperRing(["z"], ["w1", "w2"])
    target = _grassmann_ring(size)
    if target.n_odd < 1:
        return None
    images = {
        "z": random_homogeneous(target, rng, 0, bound=size["coeff_bound"]),
        "w1": random_homogeneous(target, rng, 1, bound=size["coeff_bound"]),
        "w2": random_homogeneous(target, rng, 1, bound=size["coeff_bound"]),
    }
    hom = SuperHom(source, target, images)
    a = random_element(source, rng, bound=size["coeff_bound"])
    b = random_element(source, rng, bound=size["coeff_bound"])
    if hom(a * b) != hom(a) * hom(b) or hom(a + b) != hom(a) + hom(b) or not hom(source.one()).is_one():
        return {"a": repr(a), "b": repr(b), "images": {k: repr(v) for k, v in images.items()}}
    return None


def check_graded_leibniz(rng, size):
    ring = _grassmann_ring(size)
    if ring.n_odd == 0:
        return None
    pa = rng.randint(0, 1)
    a = random_homogeneous(ring, rng, pa, bound=size["coeff_bound"])
    b = random_element(ring, rng, bound=size["coeff_bound"])
    var = rng.choice(ring.odd_vars)
    lhs = (a * b).derivative(var)
    signed = a * b.derivative(var)
    if pa % 2:
        signed = -signed
    rhs = a.derivative(var) * b + signed
    if lhs != rhs:
        return {"a": repr(a), "b": repr(b), "var": var}
    return None


def check_odd_second_derivative(rng, size):
    ring = _grassmann_ring(size)
    if ring.n_odd == 0:
        return None
    a = random_element(ring, rng, bound=size["coeff_bound"])
    var = rng.choice(ring.odd_vars)
    if not a.derivative(var).derivative(var).is_zero():
        return {"a": repr(a), "var": var}
    return None


# -- matrix laws ----------------------------------------------------------------


def check_pattern_closure(rng, size):
    ring = _grassmann_ring(size)
    m, n = size["m"], size["n"]
    x = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    y = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    product = x * y  # constructor validates the parity pattern
    shape = product.shape
    for i in range(shape.n_rows):
        for j in range(shape.n_cols):
            if not product[i, j].has_parity((shape.row_parity(i) + shape.col_parity(j)) % 2):
                return {"entry": [i, j], "value": repr(product[i, j])}
    return None


def check_associativity(rng, size):
    ring = _grassmann_ring(size)
    m, n = size["m"], size["n"]
    x = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    y = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    z = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    if (x * y) * z != x * (y * z):
        return {"x": repr(x), "y": repr(y), "z": repr(z)}
    return None


def check_identity_unit(rng, size):
    ring = _grassmann_ring(size)
    m, n = size["m"], size["n"]
    x = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    eye = SuperMatrix.identity(ring, m, n)
    if eye * x != x or x * eye != x:
        return {"x": repr(x)}
    return None


def check_two_sided_inverse(rng, size):
    ring = _grassmann_ring(size)
    m, n = size["m"], size["n"]
    x = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    x_inv = x.inv()
    eye = SuperMatrix.identity(ring, m, n)
    if x * x_inv != eye or x_inv * x != eye:
        return {"x": repr(x)}
    return None


def check_ber_multiplicative(rng, size):
    ring = _grassmann_ring(size)
    m, n = size["m"], size["n"]
    x = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    y = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    if berezinian(x * y) != berezinian(x) * berezinian(y):
        return {"x": repr(x), "y": repr(y)}
    return None


def check_ber_identity(rng, size):
    ring = _grassmann_ring(size)
    if not berezinian(SuperMatrix.identity(ring, size["m"], size["n"])).is_one():
        return {"note": "Ber(I) != 1"}
    return None


def check_ber_unit_iff_invertible(rng, size):
    ring = _grassmann_ring(size)
    m, n = size["m"], size["n"]
    x = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    if not berezinian(x).is_unit():
        return {"x": repr(x), "note": "invertible matrix with non-unit Berezinian"}
    if m >= 1:
        # kill the even-even body: D stays invertible, the matrix does not
        rows = [list(row) for row in x.entries]
        for i in range(m):
            for j in range(m):
                rows[i][j] = rows[i][j].soul()
        degenerate = SuperMatrix(ring, x.shape, rows)
        try:
            ber = berezinian(degenerate)
        except NotInvertible:
            return None
        if ber.is_unit():
            return {"x": repr(degenerate), "note": "non-invertible matrix with unit Berezinian"}
    return None


def check_body_commutes(rng, size):
    ring = _grassmann_ring(size)
    m, n = size["m"], size["n"]
    x = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    y = random_invertible(ring, rng, m, n, bound=size["coeff_bound"])
    if (x * y).body() != x.body() * y.body():
        return {"x": repr(x), "y": repr(y)}
    return None


# -- factorization laws ------------------------------------------------------------


def check_exact_factorization(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    g = random_big_cell(ring, bp, rng, bound=size["coeff_bound"])
    coords, p = normal_form(g, bp)
    if assemble(coords) * p != g:
        return {"g": repr(g), "note": "assemble(n)*p != g"}
    if not standard_parabolic_member(p, bp):
        return {"g": repr(g), "note": "p not parabolic"}
    return None


def check_right_p_invariance(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    g = random_big_cell(ring, bp, rng, bound=size["coeff_bound"])
    p_member = random_parabolic(ring, bp, rng, bound=size["coeff_bound"])
    moved = g * p_member
    if not in_big_cell(moved, bp):
        return {"g": repr(g), "note": "g*p left the big cell"}
    if normal_form(moved, bp)[0] != normal_form(g, bp)[0]:
        return {"g": repr(g), "p": repr(p_member)}
    return None


def check_idempotence(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    coords = random_ncoords(ring, bp, rng, bound=size["coeff_bound"])
    solved, p = normal_form(assemble(coords), bp)
    if solved != coords or p != SuperMatrix.identity(ring, bp.m, bp.n):
        return {"coords": repr(coords)}
    return None


def check_p_cap_n_trivial(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    coords = random_ncoords(ring, bp, rng, bound=size["coeff_bound"])
    member = assemble(coords)
    if standard_parabolic_member(member, bp) != coords.is_zero():
        return {"coords": repr(coords)}
    p_member = random_parabolic(ring, bp, rng, bound=size["coeff_bound"])
    eye = SuperMatrix.identity(ring, bp.m, bp.n)
    if n_member(p_member, bp) != (p_member == eye):
        return {"p": repr(p_member)}
    return None


def check_coset_vs_coordinates(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    bound = size["coeff_bound"]
    g1 = random_big_cell(ring, bp, rng, bound)
    g2 = g1 * random_parabolic(ring, bp, rng, bound) if rng.random() < 0.5 else random_big_cell(ring, bp, rng, bound)
    same_coset = cosets_equal(g1, g2, bp)
    same_coords = normal_form(g1, bp)[0] == normal_form(g2, bp)[0]
    if same_coset != same_coords:
        return {"g1": repr(g1), "g2": repr(g2), "cosets_equal": same_coset}
    return None


# -- chart laws -------------------------------------------------------------------


def check_chart_down_up(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    coords = random_ncoords(ring, bp, rng, bound=size["coeff_bound"])
    if chart_down(chart_up(coords)) != coords:
        return {"coords": repr(coords)}
    return None


def check_chart_up_down(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    point = random_big_cell_point(ring, bp, rng, bound=size["coeff_bound"])
    if not points_equal(chart_up(chart_down(point)), point):
        return {"span": repr(point.span)}
    return None


def check_chart_lands_big_cell(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    point = chart_up(random_ncoords(ring, bp, rng, bound=size["coeff_bound"]))
    chart_down(point)  # raises NotInBigCell on failure
    return None


# -- action laws ------------------------------------------------------------------


def check_identity_action(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    point = random_big_cell_point(ring, bp, rng, bound=size["coeff_bound"])
    eye = SuperMatrix.identity(ring, bp.m, bp.n)
    if act(eye, point).span != point.span:
        return {"span": repr(point.span)}
    return None


def check_action_compatibility(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    g1 = random_invertible(ring, rng, bp.m, bp.n, bound=size["coeff_bound"])
    g2 = random_invertible(ring, rng, bp.m, bp.n, bound=size["coeff_bound"])
    point = random_big_cell_point(ring, bp, rng, bound=size["coeff_bound"])
    if act(g1 * g2, point).span != act(g1, act(g2, point)).span:
        return {"g1": repr(g1), "g2": repr(g2), "span": repr(point.span)}
    return None


def check_stabilizer_identity(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    g = random_mixed_invertible(ring, bp, rng, rng.randint(0, 2), bound=size["coeff_bound"])
    std = standard_point(bp, ring)
    fixes = points_equal(act(g, std), std)
    member = standard_parabolic_member(g, bp)
    if fixes != member:
        return {"g": repr(g), "fixes_point": fixes, "parabolic_member": member}
    return None


def check_orbit_definition(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    g = random_invertible(ring, rng, bp.m, bp.n, bound=size["coeff_bound"])
    if orbit_map(g, bp).span != act(g, standard_point(bp, ring)).span:
        return {"g": repr(g)}
    return None


def check_orbit_coset_equivalence(rng, size):
    ring = _grassmann_ring(size)
    bp = _profile(size)
    bound = size["coeff_bound"]
    g1 = random_big_cell(ring, bp, rng, bound)
    g2 = g1 * random_parabolic(ring, bp, rng, bound) if rng.random() < 0.5 else random_big_cell(ring, bp, rng, bound)
    lhs = cosets_equal(g1, g2, bp)
    rhs = points_equal(orbit_map(g1, bp), orbit_map(g2, bp))
    if lhs != rhs:
        return {"g1": repr(g1), "g2": repr(g2), "cosets_equal": lhs, "points_equal": rhs}
    return None


# -- smoothness laws -----------------------------------------------------------------


def _random_vanishing_presentation(rng, size):
    """A presentation with a known rational point (built to vanish there)."""
    p_vars = rng.randint(1, 3)
    q_vars = rng.randint(0, 2)
    fiber_even = [f"x{k}" for k in range(p_vars)]
    fiber_odd = [f"s{k}" for k in range(q_vars)]
    ring = SuperRing(fiber_even, fiber_odd)
    point_values = {name: random_nonzero_scalar(rng, 3) for name in fiber_even}
    shifted = [ring.gen(name) - ring.scalar(point_values[name]) for name in fiber_even]
    n_even_rel = rng.randint(0, p_vars)
    n_odd_rel = rng.randint(0, q_vars)
    relations_even = []
    for _ in range(n_even_rel):
        rel = ring.zero()
        for sh in shifted:
            rel = rel + ring.scalar(random_nonzero_scalar(rng, 3)) * sh
        if q_vars >= 2 and rng.random() < 0.5:
            rel = rel + ring.gen(fiber_odd[0]) * ring.gen(fiber_odd[1])
        relations_even.append(rel)
    relations_odd = []
    for k in range(n_odd_rel):
        rel = ring.gen(fiber_odd[k]) * ring.scalar(random_nonzero_scalar(rng, 3))
        if rng.random() < 0.5:
            rel = rel + shifted[0] * ring.gen(fiber_odd[(k + 1) % q_vars])
        relations_odd.append(rel)
    pres = Presentation(SuperRing(), fiber_even, fiber_odd, relations_even, relations_odd)
    return pres, RationalPoint(point_values)


def check_block_diagonal_jacobian(rng, size):
    pres, pt = _random_vanishing_presentation(rng, size)
    n_even_rel = len(pres.relations_even)
    n_even_var = len(pres.fiber_even)
    jac = jacobian(pres)
    for i, row in enumerate(jac):
        for j, entry in enumerate(row):
            if (i < n_even_rel) != (j < n_even_var):
                # off-diagonal entry is odd: all terms die with the odd vars
                if not all(odd for (_, odd) in entry.terms):
                    return {"entry": [i, j], "value": repr(entry)}
    rank_at_point(pres, pt)  # the point is built to vanish, so this must not raise
    return None


def check_row_operation_invariance(rng, size):
    pres, pt = _random_vanishing_presentation(rng, size)
    if len(pres.relations_even) < 2:
        return None
    before = is_smooth_at(pres, pt)
    scale = random_nonzero_scalar(rng, 3)
    ring = pres.total_ring
    mixed = list(pres.relations_even)
    mixed[0] = mixed[0] + ring.scalar(scale) * mixed[1]
    modified = Presentation(pres.base, pres.fiber_even, pres.fiber_odd, mixed, pres.relations_odd)
    after = is_smooth_at(modified, pt)
    if before != after:
        return {"before": repr(before), "after": repr(after)}
    return None


def check_free_extension_dimensions(rng, size):
    """Adjoining k|l free variables to an etale presentation yields a smooth
    one of relative dimension k|l."""
    base_vars = rng.randint(1, 2)
    extra_even = rng.randint(0, 2)
    extra_odd = rng.randint(0, 2)
    fiber_even = [f"x{k}" for k in range(base_vars + extra_even)]
    fiber_odd = [f"s{k}" for k in range(1 + extra_odd)]
    ring = SuperRing(fiber_even, fiber_odd)
    values = {name: random_nonzero_scalar(rng, 3) for name in fiber_even}
    relations_even = []
    for k in range(base_vars):
        rel = ring.gen(fiber_even[k]) - ring.scalar(values[fiber_even[k]])
        if rng.random() < 0.5:
            rel = rel + (ring.gen(fiber_even[0]) - ring.scalar(values[fiber_even[0]])) ** 2
        relations_even.append(rel)
    relations_odd = [ring.gen(fiber_odd[0]) * ring.scalar(random_nonzero_scalar(rng, 3))]
    pres = Presentation(SuperRing(), fiber_even, fiber_odd, relations_even, relations_odd)
    verdict = is_smooth_at(pres, RationalPoint(values))
    if not verdict.smooth or verdict.relative_dimension != (extra_even, extra_odd):
        return {"verdict": repr(verdict), "expected": [extra_even, extra_odd]}
    return None


def check_gl_smooth(rng, size):
    m = min(size["m"], 2)
    n = min(size["n"], 2)
    pres, pt = general_linear_presentation(m, n)
    verdict = is_smooth_at(pres, pt)
    if not verdict.smooth or verdict.relative_dimension != (m * m + n * n, 2 * m * n):
        return {"m": m, "n": n, "verdict": repr(verdict)}
    return None


SUITES: Dict[str, List] = {
    "kernel": [
        ("supercommutativity", check_supercommutativity),
        ("soul_nilpotency", check_soul_nilpotency),
        ("body_multiplicative", check_body_multiplicative),
        ("inversion_exact", check_inversion_exact),
        ("substitution_morphism", check_substitution_morphism),
        ("graded_leibniz", check_graded_leibniz),
        ("odd_second_derivative", check_odd_second_derivative),
    ],
    "matrix": [
        ("pattern_closure", check_pattern_closure),
        ("associativity", check_associativity),
        ("identity_unit", check_identity_unit),
        ("two_sided_inverse", check_two_sided_inverse),
        ("ber_multiplicative", check_ber_multiplicative),
        ("ber_identity", check_ber_identity),
        ("ber_unit_iff_invertible", check_ber_unit_iff_invertible),
        ("body_commutes", check_body_commutes),
    ],
    "factorization": [
        ("exact_factorization", check_exact_factorization),
        ("right_p_invariance", check_right_p_invariance),
        ("idempotence", check_idempotence),
        ("p_cap_n_trivial", check_p_cap_n_trivial),
        ("coset_vs_coordinates", check_coset_vs_coordinates),
    ],
    "chart": [
        ("chart_down_up", check_chart_down_up),
        ("chart_up_down", check_chart_up_down),
        ("chart_lands_big_cell", check_chart_lands_big_cell),
    ],
    "action": [
        ("identity_action", check_identity_action),
        ("action_compatibility", check_action_compatibility),
        ("stabilizer_identity", check_stabilizer_identity),
        ("orbit_definition", check_orbit_definition),
        ("orbit_coset_equivalence", check_orbit_coset_equivalence),
    ],
    "smoothness": [
        ("block_diagonal_jacobian", check_block_diagonal_jacobian),
        ("row_operation_invariance", check_row_operation_invariance),
        ("free_extension_dimensions", check_free_extension_dimensions),
        ("gl_smooth", check_gl_smooth),
    ],
}

DEFAULT_SIZE = {"m": 2, "n": 2, "r": 1, "s": 1, "q": 4, "coeff_bound": 4}


def run_suite(suite: str, trials: int, seed: int, size: Optional[Dict[str, int]] = None) -> Dict:
    """Run every property of the suite; deterministic in all arguments."""
    if suite != "all" and suite not in SUITES:
        known = sorted(SUITES) + ["all"]
        raise UnknownSuite(f"unknown suite {suite!r}; choose one of {known}")
    size = dict(DEFAULT_SIZE, **(size or {}))
    names = sorted(SUITES) if suite == "all" else [suite]
    properties = []
    all_passed = True
    for suite_name in names:
        for prop_name, check in SUITES[suite_name]:
            failures = 0
            first = None
            for index in range(trials):
                rng = trial_rng(seed, f"{suite_name}.{prop_name}", index)
                counterexample = check(rng, size)
                if counterexample is not None:
                    failures += 1
                    if first is None:
                        first = {"trial": index, **counterexample}
            properties.append({
                "name": f"{suite_name}.{prop_name}",
                "trials": trials,
                "failures": failures,
                "first_counterexample": first,
            })
            all_passed = all_passed and failures == 0
    return {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "size": {k: size[k] for k in sorted(size)},
        "properties": properties,
        "passed": all_passed,
    }
