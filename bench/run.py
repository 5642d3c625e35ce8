#!/usr/bin/env python3
"""The sgq benchmark: one workload per process, one caller, closed loop.

Run from the root of a checkout:

    python3 bench/run.py --workload coset --seed 1 --seconds 18 --trace 0

The benchmark imports sgq from this checkout's ``src/`` (never from an
installed copy) and exits with status 2 when it is not there.  Workloads,
their input sizes and the reason each exists are in ``workloads.json``.

A run sets up ``setup_repeats`` times (a fresh import of sgq, one warm-up
input, one warm-up op and its check), then times ops one after another,
each on a distinct input built just before it, until both ``--seconds`` of
wall op time and ``min_ops`` ops are reached.  Input building and output checks
run outside the timed region.

Times are rescaled to a reference machine speed.  On a shared 2-vCPU
virtual machine CPU speed was seen to drift by up to 2x within seconds, and
sgq ops slow down with it.  ``calibrate()`` runs a fixed
standard-library job shaped like sgq's product kernel right before and
right after every timed op and set-up; each time is multiplied by
``CALIBRATION_REFERENCE_S`` over the mean of its two calibrations.  The
lines before the JSON print the raw wall values beside the rescaled ones.

``--trace 0`` reports the end-to-end metrics:

* ``ops_per_s``: ops that passed their check per second of op time;
* ``op_p50_ms``, ``op_p90_ms``: median and 90th percentile op latency;
* ``setup_s``: median time of one set-up;
* ``peak_rss_mb``: peak resident set size of the process;
* ``ok_ratio``: ops that passed their check over ops attempted, i.e.
  1 - fail_ratio (a metric that is never 0 while the program works).

``--trace 1`` runs a fixed batch of ``trace_ops`` ops untraced, imports sgq
afresh, runs the same batch under the tracer (see tracer.py) and reports the
per-layer metrics, with ``trace.overhead_ratio`` = traced op time / untraced
op time.  Its spans go to ``.bench_run/<workload>.spans.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
# warm-up inputs come from this seed, so set-up time does not depend on --seed
WARMUP_SEED = -1
# Times are reported as if one calibrate() call took this long.
CALIBRATION_REFERENCE_S = 0.002

clock = time.perf_counter

_LEFT = {((i % 3, i % 2), (i,)): Fraction(i + 1, 3) for i in range(8)}
_RIGHT = {((j % 2, j % 3), (j + 8,)): Fraction(j - 3, 5) for j in range(8)}


def calibrate():
    """Seconds taken by a fixed job shaped like sgq's term-map product
    (exponent and odd-index tuple keys, Fraction coefficients) that uses the
    standard library only, so no change to sgq can change it.  The cyclic
    collector is paused so it cannot run here over sgq's heap."""
    enabled = gc.isenabled()
    gc.disable()
    start = clock()
    for _ in range(12):
        dest = {}
        for (exp1, odd1), c1 in _LEFT.items():
            for (exp2, odd2), c2 in _RIGHT.items():
                key = (tuple(a + b for a, b in zip(exp1, exp2)), odd1 + odd2)
                value = c1 * c2
                acc = dest.get(key)
                dest[key] = value if acc is None else acc + value
    elapsed = clock() - start
    if enabled:
        gc.enable()
    return elapsed


def timed(fn, excluded=lambda: 0.0):
    """(result, raw seconds, seconds at the reference speed) of fn(), less
    the excluded() seconds it spent in glue that is not the program's work."""
    before = calibrate()
    start = clock()
    result = fn()
    raw = clock() - start - excluded()
    speed = (before + calibrate()) / 2
    return result, raw, raw * CALIBRATION_REFERENCE_S / speed


def load_config():
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)


def fresh_import():
    """Import sgq anew from src/, with the benchmark modules bound to it."""
    for name in list(sys.modules):
        if name == "sgq" or name.startswith("sgq.") or name in ("inputs", "workloads"):
            del sys.modules[name]
    module = importlib.import_module("workloads")
    origin = os.path.abspath(sys.modules["sgq"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(f"sgq was imported from {origin}, not from {SRC}")
    return module


def run_op(workload, inp):
    """The op's output, or the traceback when it raises: an op that raises
    is a failed op and the run goes on."""
    try:
        return workload.run(inp), None
    except Exception:
        return None, traceback.format_exc(limit=4)


def run_ops(workload, seed, keep_going, tracer=None):
    """Run ops on inputs 0, 1, ... while keep_going(ops done, raw op seconds
    so far) holds.  Returns the raw and the rescaled latencies and the
    failure reasons."""
    raw, scaled, failures = [], [], []
    while keep_going(len(raw), sum(raw)):
        index = len(raw)
        inp = workload.make(seed, index)
        if tracer is not None:
            tracer.begin(index)
        workload.untimed_s = 0.0
        (out, problem), seconds, rescaled = timed(lambda: run_op(workload, inp), lambda: workload.untimed_s)
        if tracer is not None:
            tracer.end()
        if problem is None:
            try:
                problem = workload.check(inp, out)
            except Exception:  # a check that raises is a failed op too
                problem = traceback.format_exc(limit=4)
        if problem is not None:
            failures.append(f"op {index}: {problem}")
        raw.append(seconds)
        scaled.append(rescaled)
    return raw, scaled, failures


def set_up(name, cfg, workdir, index):
    """One set-up: import sgq, build a warm-up input, run and check one op."""
    module = fresh_import()
    workload = module.WORKLOADS[name](cfg, workdir)
    inp = workload.make(WARMUP_SEED, index)
    return module, workload.check(inp, workload.run(inp))


def _latency_metrics(latencies, failed):
    return {
        "ops_per_s": (len(latencies) - failed) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
    }


def measure(name, config, seed, seconds, trace, workdir):
    """Returns (problems, attempted, failed, {metric: (value, unit)}, notes)."""
    cfg = config["workloads"][name]
    problems, setups_raw, setups = [], [], []
    for k in range(config["setup_repeats"]):
        (module, problem), raw, rescaled = timed(lambda: set_up(name, cfg, workdir, k))
        setups_raw.append(raw)
        setups.append(rescaled)
        if problem is not None:
            problems.append(f"warm-up {k}: {problem}")
    workload = module.WORKLOADS[name](cfg, workdir)
    notes = []

    if not trace:
        min_ops = config["min_ops"]
        raw, scaled, failures = run_ops(
            workload, seed, lambda done, spent: spent < seconds or done < min_ops)
        attempted, failed = len(raw), len(failures)
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        metrics = {k: (v, units[k]) for k, v in _latency_metrics(scaled, failed).items()}
        metrics.update({
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        })
        wall = dict(_latency_metrics(raw, failed), setup_s=statistics.median(setups_raw))
        notes.append(f"samples {attempted} ops, {sum(raw):.3f} s of raw op time")
        notes.append("raw wall: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    else:
        from tracer import Tracer

        count = cfg["trace_ops"]
        _, untraced, failures = run_ops(workload, seed, lambda done, spent: done < count)
        # a fresh import, so nothing the untraced batch left behind is reused
        workload = fresh_import().WORKLOADS[name](cfg, workdir)
        tracer = Tracer()
        tracer.install()
        try:
            _, traced, traced_failures = run_ops(workload, seed, lambda done, spent: done < count, tracer)
        finally:
            tracer.uninstall()
        failures += traced_failures
        attempted, failed = len(untraced) + len(traced), len(failures)
        metrics, missing = tracer.metrics(sum(traced) / sum(untraced))
        if missing:
            notes.append("missing (target no longer exists): " + ", ".join(missing))
        spans_path = os.path.join(RUN_DIR, f"{name}.spans.csv")
        tracer.write_spans(spans_path)
        notes.append(f"traced batch {count} ops; {len(tracer.spans)} spans in {os.path.relpath(spans_path, ROOT)}")

    problem = workload.finish()
    if problem is not None:
        problems.append(f"finish: {problem}")
    problems += failures
    notes.append(f"fail_ratio {failed / attempted} ({failed}/{attempted})")
    return problems, attempted, failed, metrics, notes


def main(argv=None):
    config = load_config()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(config["workloads"]))
    parser.add_argument("--seed", type=int, default=config["default_seed"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sgq", "__init__.py")):
        sys.stderr.write(f"bench: no sgq package at {os.path.join(SRC, 'sgq')}; run from a full checkout\n")
        return 2
    sys.path[:0] = [SRC, BENCH]
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=RUN_DIR)
    try:
        problems, attempted, failed, metrics, notes = measure(
            args.workload, config, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for note in notes:
        print(note)
    for problem in problems:
        sys.stderr.write(problem + "\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
