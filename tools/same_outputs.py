"""Write the proptest reports and CLI documents of one checkout, for byte comparison.

    python3 tools/same_outputs.py CHECKOUT OUT_DIR

A command-line script, not a module: it reads its arguments and puts the
checkout's `src/` and `bench/` first on the import path at start-up.

Run it once on each of two checkouts, then compare with `diff -r -x _work`.
It covers `run_suite("all", 3, seed)` for seeds 0-3 at the default size and
at (3, 2 | 2, 1), q = 5, and for seeds 0-1 at (3, 0 | 3, 0), q = 2,
(1, 2 | 0, 2), q = 1, (2, 2 | 0, 0), q = 0 and (2, 1 | 2, 0), q = 3, where
the samplers meet empty parts and corner minors of size 0 and full size,
and the `factor`, `orbit`, `chart-up`, `chart-down`,
`coset-eq`, `minv`, `ber` and `smooth` commands on inputs from the
checkout's `bench/inputs.py`, including inputs that end in `NotInBigCell`,
`NotInvertible`, `NotAPoint`, `UnassignedVariable`, `ShapeMismatch` and
schema errors.  The coset profiles include ones with empty blocks (r = 0,
s = 0, r = m, s = n, m = 0, n = 0), so the right division by the corner
meets empty even or odd parts; each `factor` result's `n` goes on to
`chart-up`, and that point to `chart-down`, its `p` to `ber`, and each
`minv` result of g to `ber`.  At (12, 0 | 6, 0), `orbit`
and `chart-down` meet a span framed only by the last of its 924 row
subsets, and `orbit` one whose body has rank 5 < r.  The `coset-eq` runs compare g with g*p, with
another coset, with a singular g1 and with matrices of the wrong shape.
The `minv` and `ber` inputs also cover the row swaps and the stall of the
even-block elimination, a stall inside the Schur complement (a singular
even-even body beside a unit D), over a ring with an even generator a stall whose
determinant is still a unit, a (2|2) matrix whose Gaussian coefficients
have distinct denominators, and a dense (4|4) matrix over q = 4 odd and one
even generator whose souls carry powers of it, with such coefficients.  Further `ber` runs read coefficients outside
the written form (signs, spaces, decimals, underscores, leading zeros,
non-ASCII digits, zero and negative denominators, 5,000 digits) and
embedded rings that differ from the written one, and documents that hold
two faults each, which pin the one reported.  The writer meets generator
names that JSON escapes (`minv`, `ber`, `orbit` and `chart-down`), zero
elements in an all-zero row (`factor`, `orbit`, `chart-down`; `minv` and
`ber` of a singular matrix) and even exponents of 2 and 3.  `minv` and
`ber` also read matrices with no cell: the (0|0) matrix and a (2|0) x (0|0)
one.  Each `cli_*.txt` file holds the exit status, stderr and output
document of one invocation.
"""

import contextlib
import io
from fractions import Fraction
from itertools import combinations
import json
import os
import sys

ROOT, OUT = sys.argv[1], sys.argv[2]
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import inputs  # noqa: E402
from sgq import (  # noqa: E402
    GaussianRational, Presentation, RationalPoint, SuperMatrix, SuperRing, SuperShape, run_suite, serialize,
)
from sgq.cli import main  # noqa: E402

WORK = os.path.join(OUT, "_work")
SEED = 7


def put(name, text):
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        handle.write(text)


def write_input(name, doc):
    path = os.path.join(WORK, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize.canonical_dumps(doc))
    return path


def cli(tag, *argv):
    """Run one command; record its exit status, stderr and document."""
    out = os.path.join(WORK, f"{tag}.out.json")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--out", out])
    doc = ""
    if os.path.exists(out):
        with open(out, encoding="utf-8") as handle:
            doc = handle.read()
    put(f"cli_{tag}.txt", f"exit {code}\nstderr {err.getvalue()!r}\n{doc}\n")
    return doc


def edited(matrix, cells):
    """A copy of matrix with the entry at each (i, j) replaced by fn(old entry, rows)."""
    rows = [list(row) for row in matrix.entries]
    for (i, j), fn in cells.items():
        rows[i][j] = fn(rows[i][j], rows)
    return SuperMatrix(matrix.ring, matrix.shape, rows)


def proptest_reports():
    for label, size in (("default", None), ("m3n2r2s1q5", {"m": 3, "n": 2, "r": 2, "s": 1, "q": 5})):
        for seed in range(4):
            put(f"proptest_{label}_{seed}.json", serialize.canonical_dumps(run_suite("all", 3, seed, size)))
    # the samplers' edge paths: empty odd or even parts, no odd generators,
    # and corner minors of size 0 and of full size
    for m, n, r, s, q in ((3, 0, 3, 0, 2), (1, 2, 0, 2, 1), (2, 2, 0, 0, 0), (2, 1, 2, 0, 3)):
        size = {"m": m, "n": n, "r": r, "s": s, "q": q}
        for seed in range(2):
            put(f"proptest_m{m}n{n}r{r}s{s}q{q}_{seed}.json",
                serialize.canonical_dumps(run_suite("all", 3, seed, size)))


def coset_commands():
    # the last six profiles leave one or more of the four blocks empty
    profiles = (((2, 2, 1, 1), 3, 6), ((3, 2, 2, 1), 3, 3), ((4, 4, 2, 2), 6, 2),
                ((2, 2, 0, 1), 3, 2), ((2, 2, 1, 0), 3, 2), ((2, 2, 2, 2), 3, 2),
                ((2, 2, 0, 0), 3, 2), ((3, 0, 1, 0), 3, 2), ((0, 3, 0, 1), 3, 2))
    for profile, q, count in profiles:
        m, n, r, s = profile
        # the first diagonal index of a corner block, if either is nonempty
        k = 0 if r else m + n - s if s else None
        prof = ",".join(map(str, profile))
        for index in range(count):
            g, _, _ = inputs.coset_input(SEED, index, profile, q, 3)
            cases = {
                "ok": g,
                # a corner diagonal entry loses its body: not in the big cell
                "corner": edited(g, {(k, k): lambda e, rows: e.soul()}) if k is not None else None,
                # the first row of block 2 repeats row 0 on the even columns:
                # g is singular, the corners are intact
                "singular": (edited(g, {(r, j): lambda e, rows, j=j: rows[0][j] for j in range(m)})
                             if 0 < r < m else None),
            }
            for kind, matrix in cases.items():
                if matrix is None:
                    continue
                tag = f"{prof}_{index}_{kind}"
                path = write_input(f"{tag}.g.json", serialize.encode_matrix(matrix))
                factor = json.loads(cli(f"factor_{tag}", "factor", "--in", path, "--profile", prof))
                if factor["ok"]:
                    # factor's p -> ber, and its n -> chart-up -> chart-down
                    cli(f"ber_p_{tag}", "ber", "--in", write_input(f"{tag}.p.json", factor["p"]))
                    coords = write_input(f"{tag}.n.json", factor["n"])
                    up = json.loads(cli(f"chart-up_{tag}", "chart-up", "--in", coords, "--profile", prof))
                    if up["ok"]:
                        point = write_input(f"{tag}.up.json", up["result"])
                        cli(f"chart-down_up_{tag}", "chart-down", "--in", point, "--profile", prof)
                orbit = json.loads(cli(f"orbit_{tag}", "orbit", "--in", path, "--profile", prof))
                if orbit["ok"]:
                    point = write_input(f"{tag}.point.json", orbit["result"])
                    cli(f"chart-down_{tag}", "chart-down", "--in", point, "--profile", prof)
                inverse = json.loads(cli(f"minv_{tag}", "minv", "--in", path))
                if inverse["ok"]:
                    cli(f"ber_minv_{tag}", "ber", "--in", write_input(f"{tag}.minv.json", inverse["result"]))
    cli("factor_no_profile", "factor", "--in", path)
    ring = SuperRing([], ["t1", "t2"])
    one = ring.one()
    g = SuperMatrix(ring, SuperShape((2, 0), (2, 0)), [[one, one], [one, one]])
    cli("factor_2,0,1,0_singular", "factor", "--in", write_input("g2010.json", serialize.encode_matrix(g)),
        "--profile", "2,0,1,0")


def late_frame_commands():
    # profile (12, 0 | 6, 0), g = [[S, I], [I, 0]] with nilpotent S: the span
    # [[S], [I]] is framed only by its last six rows, the last of the 924 row
    # subsets, so chart-down ends in NotInBigCell; with a copied identity row
    # the span body has rank 5 < r and orbit ends in RankDeficient
    ring = SuperRing([], ["t1", "t2", "t3", "t4"])
    t12, t34 = ring.gen("t1") * ring.gen("t2"), ring.gen("t3") * ring.gen("t4")
    one, zero = ring.one(), ring.zero()
    nilpotent = [[(i + 2 * j + 1) % 5 * t12 + (2 * i + j) % 3 * t34 for j in range(6)] for i in range(6)]
    eye = [[one if i == j else zero for j in range(6)] for i in range(6)]
    for kind, lower in (("late", eye), ("rank5", eye[:5] + [eye[4]])):
        rows = [s + e for s, e in zip(nilpotent, eye)] + [row + [zero] * 6 for row in lower]
        g = SuperMatrix(ring, SuperShape((12, 0), (12, 0)), rows)
        tag = f"12,0,6,0_{kind}"
        path = write_input(f"{tag}.g.json", serialize.encode_matrix(g))
        orbit = json.loads(cli(f"orbit_{tag}", "orbit", "--in", path, "--profile", "12,0,6,0"))
        if orbit["ok"]:
            point = write_input(f"{tag}.point.json", orbit["result"])
            cli(f"chart-down_{tag}", "chart-down", "--in", point, "--profile", "12,0,6,0")


def coset_eq_commands():
    for profile in ((2, 2, 1, 1), (3, 2, 2, 1), (2, 2, 0, 1)):
        m, n, r, s = profile
        prof = ",".join(map(str, profile))
        g, _, _ = inputs.coset_input(SEED, 0, profile, 3, 3)
        other, _, p = inputs.coset_input(SEED, 1, profile, 3, 3)
        wider, _, _ = inputs.coset_input(SEED, 0, (m + 1, n, r, s), 3, 3)
        pairs = {"same": (g, g * p), "different": (g, other), "shape_g1": (wider, g), "shape_g2": (g, wider)}
        if 0 < r < m:
            # the first row of block 2 repeats row 0 on the even columns
            pairs["singular"] = (edited(g, {(r, j): lambda e, rows, j=j: rows[0][j] for j in range(m)}), g)
        for kind, (g1, g2) in pairs.items():
            tag = f"{prof}_{kind}"
            path1 = write_input(f"coset_eq_{tag}.g1.json", serialize.encode_matrix(g1))
            path2 = write_input(f"coset_eq_{tag}.g2.json", serialize.encode_matrix(g2))
            cli(f"coset-eq_{tag}", "coset-eq", "--in", path1, "--in2", path2, "--profile", prof)


def gaussian_commands():
    # every coefficient has its own denominators on both parts, so the
    # products' sums meet unequal denominators
    ring = SuperRing([], ["t1", "t2", "t3"])
    monomials = {0: [(), (0, 1), (0, 2), (1, 2)], 1: [(0,), (1,), (2,), (0, 1, 2)]}
    shape = SuperShape((2, 2), (2, 2))
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            parity = (shape.row_parity(i) + shape.col_parity(j)) % 2
            terms = {}
            for k, odd in enumerate(monomials[parity]):
                c = 4 * i + j + 5 * k + 1
                terms[((), odd)] = GaussianRational(Fraction(c if i == j else 1, c + 1), Fraction(k - 2, 2 * c + 1))
            row.append(ring.element(terms))
        rows.append(row)
    path = write_input("gaussian.x.json", serialize.encode_matrix(SuperMatrix(ring, shape, rows)))
    cli("minv_gaussian", "minv", "--in", path)
    cli("ber_gaussian", "ber", "--in", path)


def dense_gaussian_commands():
    # (4|4), q = 4, over a ring with one even generator: every entry is
    # dense in its parity, its souls carry powers of x, and each coefficient
    # has its own denominators on both parts; the bodies are constant with a
    # dominant diagonal, so the matrix is invertible
    ring = SuperRing(["x"], ["t1", "t2", "t3", "t4"])
    masks = {p: [odd for size in range(p, 5, 2) for odd in combinations(range(4), size)] for p in (0, 1)}
    shape = SuperShape((4, 4), (4, 4))
    rows = []
    for i in range(8):
        row = []
        for j in range(8):
            parity = (shape.row_parity(i) + shape.col_parity(j)) % 2
            terms = {}
            for k, odd in enumerate(masks[parity]):
                c = 8 * i + j + 3 * k + 1
                re = Fraction(c + 40 if i == j and not odd else (-1) ** k * (c % 7 + 1), c % 5 + 2)
                terms[((k % 3 if odd else 0,), odd)] = GaussianRational(re, Fraction(k - 3, 2 * c + 3))
            row.append(ring.element(terms))
        rows.append(row)
    path = write_input("dense44.x.json", serialize.encode_matrix(SuperMatrix(ring, shape, rows)))
    cli("minv_dense44_gaussian", "minv", "--in", path)
    cli("ber_dense44_gaussian", "ber", "--in", path)


def superlinalg_commands():
    for m, n, q, count in ((2, 2, 2, 3), (3, 2, 2, 3), (2, 3, 3, 3), (5, 5, 2, 1)):
        for index in range(count):
            x, _ = inputs.superlinalg_input(SEED, index, m, n, q, 3)
            soul = lambda e, rows: e.soul()
            cases = {
                "ok": x,
                "dead_a": edited(x, {(i, j): soul for i in range(m) for j in range(m)}),
                "dead_d": edited(x, {(i, j): soul for i in range(m, m + n) for j in range(m, m + n)}),
                # zero leading bodies of A and D: eliminating D and the Schur
                # complement (whose body is A's) starts with a row swap
                "swap": edited(x, {(0, 0): soul, (m, m): soul}),
                # the last row of D repeats its first: D's body is singular
                # but not zero, so its elimination stalls part way
                "singular_d": edited(x, {(m + n - 1, j): lambda e, rows, j=j: rows[m][j]
                                         for j in range(m, m + n)}),
                # the last row of A repeats its first while D is a unit: the
                # Schur complement's body is singular, so the Berezinian's
                # elimination stalls inside the Schur part
                "singular_a": edited(x, {(m - 1, j): lambda e, rows, j=j: rows[0][j] for j in range(m)}),
            }
            for kind, matrix in cases.items():
                tag = f"{m}{n}{q}_{index}_{kind}"
                path = write_input(f"{tag}.x.json", serialize.encode_matrix(matrix))
                cli(f"minv_{tag}", "minv", "--in", path)
                cli(f"ber_{tag}", "ber", "--in", path)


def stall_commands():
    # blocks with polynomial bodies: [[x, x+1], [x-1, x]] has determinant 1
    # but no unit in its first column, [[x, 1], [1, x]] has determinant x^2 - 1
    ring = SuperRing(["x"], ["t1", "t2"])
    x, one, zero, t1, t2 = ring.gen("x"), ring.one(), ring.zero(), ring.gen("t1"), ring.gen("t2")
    unimodular = [[x + t1 * t2, x + one], [x - one, x]]
    singular = [[x, one], [one, x - t1 * t2]]
    odd_right = [[t1, x * t2], [zero, t2]]
    odd_left = [[t2, zero], [x * t1, t1 + t2]]
    cases = {
        "unit": (unimodular, [[x, x + one], [x - one, x + t1 * t2]]),
        "singular_a": (singular, unimodular),
        "singular_d": (unimodular, singular),
    }
    for kind, (a, d) in cases.items():
        rows = [a[0] + odd_right[0], a[1] + odd_right[1], odd_left[0] + d[0], odd_left[1] + d[1]]
        matrix = SuperMatrix(ring, SuperShape((2, 2), (2, 2)), rows)
        path = write_input(f"poly_{kind}.x.json", serialize.encode_matrix(matrix))
        cli(f"minv_poly_{kind}", "minv", "--in", path)
        cli(f"ber_poly_{kind}", "ber", "--in", path)


def coefficient_commands():
    empty = {"even": [], "odd": []}

    def cell(coeff, ring=empty):
        return {"ring": ring, "terms": [{"coeff": coeff, "exp": [], "odd": []}]}

    def ber(tag, *rows):
        doc = {"shape": {"rows": [len(rows), 0], "cols": [len(rows), 0]}, "entries": list(rows)}
        cli(f"ber_{tag}", "ber", "--in", write_input(f"{tag}.json", doc))

    coeffs = ["+1", " 2 ", "0.5", "1_000", "2/4", "-0", "007", "\u0661", "1/0", "1/-2", "7" * 5000,
              {"re": "1/3", "im": "-2/4"}]
    for k, coeff in enumerate(coeffs):
        ber(f"coeff_{k}", [cell(coeff)])
    # after the first cell the ring is known: a ring object that is not its
    # written form is read and compared
    ber("ring_extra_key", [cell("1"), cell("2", {**empty, "note": "x"})], [cell("0"), cell("3")])
    ber("ring_differs", [cell("1"), cell("2", {"even": [], "odd": ["t"]})], [cell("0"), cell("3")])


def empty_commands():
    # matrices with no cell name no ring: the (0|0) matrix, and a (2|0) x
    # (0|0) one, which is not square
    for tag, shape in (("empty00", SuperShape((0, 0), (0, 0))), ("empty20", SuperShape((2, 0), (0, 0)))):
        path = write_input(f"{tag}.x.json", serialize.encode_matrix(SuperMatrix.zeros(SuperRing(), shape)))
        cli(f"minv_{tag}", "minv", "--in", path)
        cli(f"ber_{tag}", "ber", "--in", path)


def fault_order_commands():
    # each document holds two faults; the one reported is the first in
    # document order, except that an exponent or odd-index fault waits for
    # the schema checks of its element and a parity fault for the whole matrix
    ring = {"even": [], "odd": ["t1", "t2"]}

    def term(odd, coeff="1", exp=()):
        return {"coeff": coeff, "exp": list(exp), "odd": list(odd)}

    def ber(tag, cells):
        # a (1|1) matrix with entries 1 on the diagonal and 0 off it, but for `cells`
        rows = [[[term([])], []], [[], [term([])]]]
        for (i, j), terms in cells.items():
            rows[i][j] = terms
        doc = {"shape": {"rows": [1, 1], "cols": [1, 1]},
               "entries": [[{"ring": ring, "terms": terms} for terms in row] for row in rows]}
        cli(f"ber_{tag}", "ber", "--in", write_input(f"{tag}.json", doc))

    ber("odd_range_then_coeff", {(0, 0): [term([0, 5])], (1, 1): [term([], "x")]})
    ber("parity_then_schema", {(0, 1): [term([])], (1, 1): [{"coeff": "1", "odd": []}]})
    ber("odd_range_then_coeff_in_element", {(0, 0): [term([0, 5]), term([], "x")]})
    ber("exp_length_then_duplicate", {(0, 0): [term([], exp=[0]), term([], exp=[0])]})
    ber("odd_index_huge", {(0, 0): [term([0, 10 ** 30])]})


def smooth_commands():
    def smooth(tag, pres, values):
        cli(f"smooth_{tag}", "smooth",
            "--in", write_input(f"{tag}.pres.json", serialize.encode_presentation(pres)),
            "--in2", write_input(f"{tag}.point.json", serialize.encode_rational_point(RationalPoint(values))))

    for index in range(6):
        pres, pt, _ = inputs.smooth_input(SEED, index, 2, 1, 3, 2)
        smooth(f"{index}", pres, pt.values)
        smooth(f"{index}_moved", pres, {**pt.values, "t": 2})
        smooth(f"{index}_partial", pres, {k: v for k, v in pt.values.items() if k != "a01"})

    base = SuperRing(["c", "e"], [])
    total = SuperRing(["c", "e", "x", "y"], ["s", "w"])
    gen = total.gen
    cases = {
        "odd_block": ([gen("x") - total.one()], [gen("c") * gen("s") + gen("w")]),
        "even_block": ([gen("e") * (gen("y") - total.one())], [gen("s")]),
        "base_in_relation": ([gen("c") - gen("x")], []),
    }
    for name, (rel_even, rel_odd) in cases.items():
        pres = Presentation(base, ["x", "y"], ["s", "w"], rel_even, rel_odd)
        smooth(f"{name}_fiber", pres, {"x": 1, "y": 1})
        smooth(f"{name}_all", pres, {"x": 1, "y": 1, "c": 2, "e": 3})
        cli(f"smooth_{name}_no_point", "smooth", "--in", os.path.join(WORK, f"{name}_all.pres.json"))


def writer_commands():
    # the writer's edge cases: generator names that JSON escapes, zero
    # elements and all-zero rows, and even exponents of 2 and more
    g, _, _ = inputs.coset_input(SEED, 0, (2, 2, 1, 1), 4, 3)
    ring = SuperRing([], ["\u03b8", 'a"b', "a\\b", "\U0001d703"])
    g = SuperMatrix(ring, g.shape, [[ring.element(e.terms) for e in row] for row in g.entries])
    path = write_input("escaped.g.json", serialize.encode_matrix(g))
    cli("minv_escaped", "minv", "--in", path)
    cli("ber_escaped", "ber", "--in", path)
    orbit = json.loads(cli("orbit_escaped", "orbit", "--in", path, "--profile", "2,2,1,1"))
    point = write_input("escaped.point.json", orbit["result"])
    cli("chart-down_escaped", "chart-down", "--in", point, "--profile", "2,2,1,1")

    # g = N whose u block has an all-zero row: factor, orbit and chart-down
    # write it back; a g with an all-zero row is singular
    ring = SuperRing([], ["t1", "t2"])
    one, zero, t12 = ring.one(), ring.zero(), ring.gen("t1") * ring.gen("t2")
    rows = [[one, zero, zero, zero], [zero, one, zero, zero], [t12, zero, one, zero], [zero, zero, zero, one]]
    g = SuperMatrix(ring, SuperShape((3, 1), (3, 1)), rows)
    path = write_input("zero_row.g.json", serialize.encode_matrix(g))
    cli("factor_zero_row", "factor", "--in", path, "--profile", "3,1,1,0")
    orbit = json.loads(cli("orbit_zero_row", "orbit", "--in", path, "--profile", "3,1,1,0"))
    point = write_input("zero_row.point.json", orbit["result"])
    cli("chart-down_zero_row", "chart-down", "--in", point, "--profile", "3,1,1,0")
    singular = write_input("zero_row.x.json", serialize.encode_matrix(
        SuperMatrix(ring, g.shape, [rows[0], [zero] * 4, rows[2], rows[3]])))
    cli("minv_zero_row", "minv", "--in", singular)
    cli("ber_zero_row", "ber", "--in", singular)

    # results whose terms carry x^2 y^3
    ring = SuperRing(["x", "y"], ["t1", "t2"])
    x, y, t1, t2, one, zero = (ring.gen("x"), ring.gen("y"), ring.gen("t1"), ring.gen("t2"),
                               ring.one(), ring.zero())
    even = SuperMatrix(ring, SuperShape((2, 0), (2, 0)), [[one, x * x * y * y * y + t1 * t2], [zero, one]])
    cli("minv_powers", "minv", "--in", write_input("powers.x.json", serialize.encode_matrix(even)))
    mixed = SuperMatrix(ring, SuperShape((1, 1), (1, 1)), [[one, x * x * t1], [y * y * y * t2, one]])
    cli("ber_powers", "ber", "--in", write_input("powers.y.json", serialize.encode_matrix(mixed)))


if __name__ == "__main__":
    os.makedirs(WORK, exist_ok=True)
    proptest_reports()
    coset_commands()
    late_frame_commands()
    coset_eq_commands()
    superlinalg_commands()
    gaussian_commands()
    dense_gaussian_commands()
    stall_commands()
    coefficient_commands()
    empty_commands()
    fault_order_commands()
    smooth_commands()
    writer_commands()
    print(len(os.listdir(OUT)) - 1, "documents in", OUT)
