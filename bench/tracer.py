"""Outside-in span tracer for the benchmark's traced run.

``Tracer.install`` wraps chosen sgq functions and methods from the outside:
each target is looked up once, then replaced at every sgq module attribute
and class attribute bound to that same object (found by identity), so a
name imported into several modules is traced wherever it is called from.
The proptest check functions, which ``run_suite`` reaches through its
``SUITES`` table, are wrapped in that table.  ``uninstall`` restores every
binding.  The untraced run never calls ``install``.

A span is (id, parent id, op id, name, start, end, self seconds); spans stay
in memory and ``write_spans`` writes them out at the end.  The scalar
methods are too hot to record one span per call: they only count calls, add
their time to the enclosing span's children, and track the largest
coefficient bit length.  A target that no longer exists is reported as
missing, and every metric that depends on it is left out instead of reading
zero.

Metric definitions (totals over the traced batch; times are raw wall
seconds under tracing, so compare them within a run, not with op times):

* ``<x>_calls``: calls to the target;
* ``<x>_s``: inclusive time, counting only spans with no enclosing span of
  the same group, so nested calls are never counted twice;
* ``<layer>.self_s``: time inside the layer's spans minus their children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

_clock = time.perf_counter

# (span name, module, attribute path).  The span's layer is the part of its
# name before the first dot.  Per-term helpers (merge_odd, parse_coeff,
# random_scalar, ...) stay unwrapped: the trace marks layer boundaries, not
# the inner term loops.
SPAN_TARGETS = [
    ("algebra.accumulate_product", "algebra", "accumulate_product"),
    ("algebra.SuperElement.__mul__", "algebra", "SuperElement.__mul__"),
    ("algebra.SuperElement.inv", "algebra", "SuperElement.inv"),
    ("algebra.SuperHom.__init__", "algebra", "SuperHom.__init__"),
    ("algebra.SuperHom.__call__", "algebra", "SuperHom.__call__"),
    ("matrix.det_even", "matrix", "det_even"),
    ("matrix.inv_even", "matrix", "inv_even"),
    ("matrix.SuperMatrix.__mul__", "matrix", "SuperMatrix.__mul__"),
    ("matrix.sm_inv", "matrix", "sm_inv"),
    ("matrix.berezinian", "matrix", "berezinian"),
    ("matrix.is_invertible", "matrix", "is_invertible"),
    ("flag.normal_form", "flag", "normal_form"),
    ("flag.split_blocks", "flag", "split_blocks"),
    ("flag.in_big_cell", "flag", "in_big_cell"),
    ("flag.assemble", "flag", "assemble"),
    ("flag.cosets_equal", "flag", "cosets_equal"),
    ("flag.n_coordinates_of", "flag", "n_coordinates_of"),
    ("flag.n_member", "flag", "n_member"),
    ("flag.standard_parabolic_member", "flag", "standard_parabolic_member"),
    ("grassmannian.GrassmannianPoint.__init__", "grassmannian", "GrassmannianPoint.__init__"),
    ("grassmannian.chart_down", "grassmannian", "chart_down"),
    ("grassmannian.chart_up", "grassmannian", "chart_up"),
    ("grassmannian.orbit_map", "grassmannian", "orbit_map"),
    ("grassmannian.act", "grassmannian", "act"),
    ("grassmannian.points_equal", "grassmannian", "points_equal"),
    ("grassmannian.standard_point", "grassmannian", "standard_point"),
    ("smoothness.is_smooth_at", "smoothness", "is_smooth_at"),
    ("smoothness.is_etale_at", "smoothness", "is_etale_at"),
    ("smoothness.rank_at_point", "smoothness", "rank_at_point"),
    ("smoothness.jacobian", "smoothness", "jacobian"),
    ("smoothness.general_linear_presentation", "smoothness", "general_linear_presentation"),
    ("cli.main", "cli", "main"),
    ("proptest.run_suite", "proptest", "run_suite"),
]
PARSE = ["parse_element", "parse_matrix", "parse_profile", "parse_ncoords", "parse_grassmann_point",
         "parse_presentation", "parse_rational_point"]
EMIT = ["encode_element", "encode_matrix", "encode_profile", "encode_ncoords", "encode_grassmann_point",
        "encode_presentation", "encode_rational_point", "canonical_dumps"]
SAMPLING = ["trial_rng", "random_nonzero_scalar", "random_element", "random_homogeneous", "random_soul",
            "random_unit", "random_invertible", "random_big_cell", "random_parabolic", "random_element_even",
            "random_ncoords", "random_big_cell_point", "random_mixed_invertible"]
SPAN_TARGETS += [(f"serialize.{f}", "serialize", f) for f in PARSE + EMIT]
SPAN_TARGETS += [(f"sampling.{f}", "sampling", f) for f in SAMPLING]

SCALAR_TARGETS = [
    ("scalars.mul", "scalars", "GaussianRational.__mul__"),
    ("scalars.add", "scalars", "GaussianRational.__add__"),
]
SUITES = ["kernel", "matrix", "factorization", "chart", "action", "smoothness"]


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _resolve(root, path: str):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


# -- observers: counts taken where the work happens ---------------------------


def _observe_product(tracer, parent, args, result):
    dest, left, right = args
    tracer.counts["algebra.term_pairs"] += len(left) * len(right)
    size = max(len(dest), len(left), len(right))
    if size > tracer.maxima["algebra.terms"]:
        tracer.maxima["algebra.terms"] = size


def _observe_det(tracer, parent, args, result):
    n = args[0].n_rows
    if n > tracer.maxima["matrix.det_even_n"]:
        tracer.maxima["matrix.det_even_n"] = n


def _observe_invertible(tracer, parent, args, result):
    if _layer(parent) == "grassmannian":
        tracer.counts["grassmannian.row_tests"] += 1
        tracer.counts["grassmannian.row_hits"] += bool(result)


def _observe_hom_build(tracer, parent, args, result):
    if _layer(parent) == "smoothness":
        tracer.counts["smoothness.hom_builds"] += 1


def _observe_dumps(tracer, parent, args, result):
    tracer.counts["serialize.out_bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "algebra.accumulate_product": _observe_product,
    "matrix.det_even": _observe_det,
    "matrix.is_invertible": _observe_invertible,
    "algebra.SuperHom.__init__": _observe_hom_build,
    "serialize.canonical_dumps": _observe_dumps,
}


class Tracer:
    def __init__(self):
        self.spans = []        # (id, parent id, op id, name, start, end, self seconds)
        self.stack = []        # open frames: [id, name, child seconds]
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = Counter()
        self.scalar_s = 0.0
        self.in_scalar = False
        self.active = False
        self.op = -1
        self.next_id = 0
        self.missing = []
        self._bindings = []    # (owner, attribute or index, original) to restore
        self._index = None     # span id -> (parent id, name), built once for the metrics

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, observe=None):
        stack, spans, calls = self.stack, self.spans, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = self.next_id
            self.next_id += 1
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                spans.append((sid, parent[0] if parent else -1, self.op, name, start, end, duration - frame[2]))
                calls[name] += 1
            if observe is not None:
                observe(self, parent[1] if parent else "", args, result)
            return result

        return wrapper

    def _scalar(self, name, fn):
        stack, calls = self.stack, self.calls

        def wrapper(a, b):
            if not self.active or self.in_scalar:
                return fn(a, b)
            self.in_scalar = True
            start = _clock()
            try:
                result = fn(a, b)
            finally:
                duration = _clock() - start
                self.in_scalar = False
            calls[name] += 1
            self.scalar_s += duration
            if stack:
                stack[-1][2] += duration
            re, im = result.re, result.im
            bits = max(re.numerator.bit_length(), re.denominator.bit_length(),
                       im.numerator.bit_length(), im.denominator.bit_length())
            if bits > self.maxima["scalars.coeff_bits"]:
                self.maxima["scalars.coeff_bits"] = bits
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the imported ``sgq`` modules."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "sgq" or name.startswith("sgq.")]
        classes = {id(v): v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("sgq")}
        owners = modules + list(classes.values())
        for name, module, path in SPAN_TARGETS:
            self._rebind(owners, name, module, path,
                         lambda fn, n=name: self._span(n, fn, OBSERVERS.get(n)))
        for name, module, path in SCALAR_TARGETS:
            self._rebind(owners, name, module, path, lambda fn, n=name: self._scalar(n, fn))
        table = getattr(sys.modules.get("sgq.proptest"), "SUITES", None)
        for suite in SUITES:
            if not isinstance(table, dict) or suite not in table:
                self.missing.append(f"proptest.SUITES[{suite!r}]")
                continue
            entries = table[suite]
            for k, (prop, check) in enumerate(entries):
                self._bindings.append((entries, k, (prop, check)))
                entries[k] = (prop, self._span(f"proptest.{suite}.{prop}", check))

    def _rebind(self, owners, name, module, path, make_wrapper):
        try:
            original = _resolve(sys.modules[f"sgq.{module}"], path)
        except (KeyError, AttributeError):
            self.missing.append(name)
            return
        wrapper = make_wrapper(original)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._bindings.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._bindings):
            if isinstance(key, int):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._bindings.clear()

    # -- results -------------------------------------------------------------

    def begin(self, op: int) -> None:
        self.op = op
        self.active = True

    def end(self) -> None:
        self.active = False

    def inclusive(self, names, outer=None) -> float:
        """Time in spans named in ``names`` that have no ancestor named in
        ``outer`` (default: ``names`` itself)."""
        outer = set(outer or names)
        names = set(names)
        if self._index is None:
            self._index = {s[0]: (s[1], s[3]) for s in self.spans}
        index = self._index
        total = 0.0
        for sid, parent, _, name, start, end, _ in self.spans:
            if name not in names:
                continue
            while parent != -1 and index[parent][1] not in outer:
                parent = index[parent][0]
            if parent == -1:
                total += end - start
        return total

    def self_time(self, layer: str) -> float:
        return sum((s[6] for s in self.spans if _layer(s[3]) == layer), 0.0)

    def metrics(self, overhead_ratio: float):
        """Every per-layer metric as {name: (value, unit)}, and the sorted
        list of metrics left out because a target they need is missing."""
        calls, counts, maxima = self.calls, self.counts, self.maxima
        parse = [f"serialize.{f}" for f in PARSE]
        emit = [f"serialize.{f}" for f in EMIT]
        sampling = [f"sampling.{f}" for f in SAMPLING]
        product = ["algebra.accumulate_product", "algebra.SuperElement.__mul__"]
        tests = counts["grassmannian.row_tests"]
        table = [
            ("scalars.mul_calls", "count", ["scalars.mul"], lambda: calls["scalars.mul"]),
            ("scalars.add_calls", "count", ["scalars.add"], lambda: calls["scalars.add"]),
            ("scalars.self_s", "s", ["scalars.mul", "scalars.add"], lambda: self.scalar_s),
            ("scalars.coeff_max_bits", "bits", ["scalars.mul", "scalars.add"],
             lambda: maxima["scalars.coeff_bits"]),
            ("algebra.product_calls", "count", product[:1], lambda: calls["algebra.accumulate_product"]),
            ("algebra.term_pairs", "count", product[:1], lambda: counts["algebra.term_pairs"]),
            ("algebra.product_s", "s", product, lambda: self.inclusive(product)),
            ("algebra.max_terms", "count", product[:1], lambda: maxima["algebra.terms"]),
            ("algebra.inv_calls", "count", ["algebra.SuperElement.inv"],
             lambda: calls["algebra.SuperElement.inv"]),
            ("algebra.hom_calls", "count", ["algebra.SuperHom.__call__"],
             lambda: calls["algebra.SuperHom.__call__"]),
            ("algebra.hom_s", "s", ["algebra.SuperHom.__call__"],
             lambda: self.inclusive(["algebra.SuperHom.__call__"])),
            ("matrix.det_even_calls", "count", ["matrix.det_even"], lambda: calls["matrix.det_even"]),
            # det_even inside inv_even is inv_even's time, so the two never overlap
            ("matrix.det_even_s", "s", ["matrix.det_even", "matrix.inv_even"],
             lambda: self.inclusive(["matrix.det_even"], ["matrix.det_even", "matrix.inv_even"])),
            ("matrix.det_even_max_n", "count", ["matrix.det_even"], lambda: maxima["matrix.det_even_n"]),
            ("matrix.inv_even_calls", "count", ["matrix.inv_even"], lambda: calls["matrix.inv_even"]),
            ("matrix.inv_even_s", "s", ["matrix.inv_even"], lambda: self.inclusive(["matrix.inv_even"])),
            ("matrix.matmul_calls", "count", ["matrix.SuperMatrix.__mul__"],
             lambda: calls["matrix.SuperMatrix.__mul__"]),
            ("matrix.matmul_s", "s", ["matrix.SuperMatrix.__mul__"],
             lambda: self.inclusive(["matrix.SuperMatrix.__mul__"])),
            ("matrix.sm_inv_s", "s", ["matrix.sm_inv"], lambda: self.inclusive(["matrix.sm_inv"])),
            ("matrix.berezinian_s", "s", ["matrix.berezinian"], lambda: self.inclusive(["matrix.berezinian"])),
            ("flag.normal_form_s", "s", ["flag.normal_form"], lambda: self.inclusive(["flag.normal_form"])),
            ("flag.self_s", "s", ["flag.normal_form"], lambda: self.self_time("flag")),
            ("flag.split_blocks_calls", "count", ["flag.split_blocks"], lambda: calls["flag.split_blocks"]),
            ("flag.big_cell_tests", "count", ["flag.in_big_cell"], lambda: calls["flag.in_big_cell"]),
            ("grassmannian.chart_down_s", "s", ["grassmannian.chart_down"],
             lambda: self.inclusive(["grassmannian.chart_down"])),
            ("grassmannian.point_s", "s", ["grassmannian.GrassmannianPoint.__init__"],
             lambda: self.inclusive(["grassmannian.GrassmannianPoint.__init__"])),
            ("grassmannian.row_tests", "count", ["matrix.is_invertible"], lambda: tests),
            # no row tests at all reads 0, not a hit ratio
            ("grassmannian.row_hit_ratio", "ratio", ["matrix.is_invertible"],
             lambda: counts["grassmannian.row_hits"] / tests if tests else 0.0),
            ("smoothness.verdict_s", "s", ["smoothness.is_smooth_at"],
             lambda: self.inclusive(["smoothness.is_smooth_at"])),
            ("smoothness.jacobian_s", "s", ["smoothness.jacobian"],
             lambda: self.inclusive(["smoothness.jacobian"])),
            ("smoothness.self_s", "s", ["smoothness.is_smooth_at"], lambda: self.self_time("smoothness")),
            ("smoothness.hom_builds", "count", ["algebra.SuperHom.__init__"],
             lambda: counts["smoothness.hom_builds"]),
            ("serialize.parse_s", "s", parse, lambda: self.inclusive(parse)),
            ("serialize.emit_s", "s", emit, lambda: self.inclusive(emit)),
            ("serialize.out_bytes", "bytes", ["serialize.canonical_dumps"],
             lambda: counts["serialize.out_bytes"]),
            ("cli.self_s", "s", ["cli.main"], lambda: self.self_time("cli")),
            ("sampling.s", "s", sampling, lambda: self.inclusive(sampling)),
        ]
        for suite in SUITES:
            names = [n for n in set(s[3] for s in self.spans) if n.startswith(f"proptest.{suite}.")]
            table.append((f"proptest.{suite}_s", "s", [f"proptest.SUITES[{suite!r}]"],
                          lambda names=names: self.inclusive(names)))
        table.append(("trace.overhead_ratio", "ratio", [], lambda: overhead_ratio))
        missing_targets = set(self.missing)
        values, missing = {}, []
        for name, unit, needs, compute in table:
            if missing_targets.intersection(needs):
                missing.append(name)
            else:
                values[name] = (compute(), unit)
        return values, sorted(missing)

    def write_spans(self, path: str) -> None:
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,op,name,start_s,end_s,self_s\n")
            for sid, parent, op, name, start, end, own in sorted(self.spans, key=lambda s: s[4]):
                handle.write(f"{sid},{parent},{op},{name},{start - origin:.9f},{end - origin:.9f},{own:.9f}\n")
