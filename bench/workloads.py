"""The four benchmark workloads.

Each workload has the same small interface, used by run.py:

* ``make(seed, index)`` builds the input of one op (untimed);
* ``run(inp)`` is the op itself (timed);
* ``check(inp, out)`` returns None when the output matches the answer known
  from how the input was built, or a one-line reason (untimed);
* ``finish()`` runs any end-of-run check and returns the same.

Glue inside an op that is not sgq's work runs under ``self.untimed()``;
run.py takes its time out of the op's latency.

Every op gets a distinct input, so a result cache can never hit.  Ops call
sgq through module attributes (``sgq.berezinian``, ``cli.main``), never
through names bound here, so the traced run sees every call.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import sgq
from sgq import SuperMatrix, assemble, cli, serialize

import inputs


class Workload:
    """What the workloads share: the glue timer and an empty end-of-run check."""

    untimed_s = 0.0

    @contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start

    def finish(self):
        return None


class Coset(Workload):
    """sgq factor, sgq orbit, then sgq chart-down on orbit's result, each
    through sgq.cli.main in this process."""

    def __init__(self, cfg, workdir):
        self.profile = tuple(cfg["profile"])
        self.q = cfg["q"]
        self.bound = cfg["coeff_bound"]
        self.profile_arg = ",".join(map(str, self.profile))
        self.paths = {k: os.path.join(workdir, f"{k}.json")
                      for k in ("g", "factor", "orbit", "point", "chart")}

    def make(self, seed, index):
        g, coords, p = inputs.coset_input(seed, index, self.profile, self.q, self.bound)
        with open(self.paths["g"], "w", encoding="utf-8") as handle:
            handle.write(serialize.canonical_dumps(serialize.encode_matrix(g)))
        return g, coords, p

    def run(self, inp):
        paths, prof = self.paths, self.profile_arg
        codes = [cli.main(["factor", "--in", paths["g"], "--profile", prof, "--out", paths["factor"]])]
        codes.append(cli.main(["orbit", "--in", paths["g"], "--profile", prof, "--out", paths["orbit"]]))
        with self.untimed():
            with open(paths["orbit"], encoding="utf-8") as handle:
                point = json.load(handle)["result"]
            with open(paths["point"], "w", encoding="utf-8") as handle:
                json.dump(point, handle)
        codes.append(cli.main(["chart-down", "--in", paths["point"], "--profile", prof,
                               "--out", paths["chart"]]))
        return codes

    def check(self, inp, codes):
        g, coords, p = inp
        if codes != [0, 0, 0]:
            return f"exit codes {codes}"
        with open(self.paths["factor"], encoding="utf-8") as handle:
            factor = json.load(handle)
        with open(self.paths["chart"], encoding="utf-8") as handle:
            chart = json.load(handle)
        n_coords = serialize.parse_ncoords(factor["n"])
        parabolic = serialize.parse_matrix(factor["p"])
        if assemble(n_coords) * parabolic != g:
            return "assemble(n) * p != g"
        if serialize.parse_ncoords(chart["result"]) != n_coords:
            return "chart-down coordinates differ from factor's n"
        built = {name: getattr(n_coords, name).entries for name in coords}
        if any(built[name] != tuple(map(tuple, rows)) for name, rows in coords.items()) or parabolic != p:
            return "normal form differs from the factors g was built from"
        return None


class Superlinalg(Workload):
    """berezinian(x), then sm_inv(x), on a dense invertible (m|n) matrix."""

    def __init__(self, cfg, workdir):
        self.shape = (cfg["m"], cfg["n"])
        self.q = cfg["q"]
        self.bound = cfg["coeff_bound"]

    def make(self, seed, index):
        return inputs.superlinalg_input(seed, index, *self.shape, self.q, self.bound)

    def run(self, inp):
        x, _ = inp
        return sgq.berezinian(x), sgq.sm_inv(x)

    def check(self, inp, out):
        x, expected_ber = inp
        ber, x_inv = out
        eye = SuperMatrix.identity(x.ring, *self.shape)
        if x * x_inv != eye or x_inv * x != eye:
            return "x * x^-1 or x^-1 * x is not the identity"
        if ber != expected_ber:
            return "Berezinian differs from det(A0) / det(D0) of the factors"
        return None


class Smooth(Workload):
    """is_smooth_at on a GL(3|3)-type presentation at the identity point."""

    def __init__(self, cfg, workdir):
        self.cfg = cfg

    def make(self, seed, index):
        c = self.cfg
        return inputs.smooth_input(seed, index, c["extra_even_relations"], c["odd_relations"],
                                   c["coeff_bound"], c["repeat_every"])

    def run(self, inp):
        pres, point, _ = inp
        return sgq.is_smooth_at(pres, point)

    def check(self, inp, verdict):
        expected = inp[2]
        got = {
            "smooth": verdict.smooth,
            "even_rank": verdict.even_rank,
            "odd_rank": verdict.odd_rank,
            "relative_dimension": verdict.relative_dimension,
        }
        return None if got == expected else f"verdict {got} != constructed {expected}"


class Proptest(Workload):
    """run_suite over every suite at the default size, one seed per op."""

    def __init__(self, cfg, workdir):
        self.suite = cfg["suite"]
        self.trials = cfg["trials"]
        self.first = None

    def make(self, seed, index):
        # seeds of different runs stay disjoint for the first million ops
        return seed * 1_000_000 + index

    def run(self, suite_seed):
        return sgq.run_suite(self.suite, self.trials, suite_seed)

    def check(self, suite_seed, report):
        if self.first is None:
            self.first = (suite_seed, json.dumps(report, sort_keys=True))
        if report.get("passed") is not True:
            failing = [p["name"] for p in report.get("properties", []) if p.get("failures")]
            return f"suite seed {suite_seed} failed: {failing}"
        return None

    def finish(self):
        """Re-running the first seed must give byte-identical canonical JSON."""
        if self.first is None:
            return None
        suite_seed, text = self.first
        if json.dumps(self.run(suite_seed), sort_keys=True) != text:
            return f"re-running suite seed {suite_seed} gave a different report"
        return None


WORKLOADS = {
    "coset": Coset,
    "superlinalg": Superlinalg,
    "smooth": Smooth,
    "proptest": Proptest,
}
