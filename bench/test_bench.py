"""Self-test of the benchmark at tiny sizes: python3 -m pytest bench -q"""

import copy
import json
import os
import sys

import pytest

import run
import tracer

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

TINY = {
    "coset": {"profile": [2, 2, 1, 1], "q": 2},
    "superlinalg": {"m": 2, "n": 2},
    "smooth": {"extra_even_relations": 2, "odd_relations": 1, "repeat_every": 2},
    "proptest": {},
}


@pytest.fixture
def bench(monkeypatch, capsys):
    """Run the benchmark in this process at tiny sizes; returns the parsed
    last line of its output."""
    config = run.load_config()
    config.update(setup_repeats=1, min_ops=3)
    for name, sizes in TINY.items():
        config["workloads"][name].update(sizes, trace_ops=2)
    monkeypatch.setattr(run, "load_config", lambda: copy.deepcopy(config))
    monkeypatch.setattr(sys, "path", [run.SRC, run.BENCH] + sys.path)

    def go(workload, trace, seed=3):
        assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    return go


def _wrapped_bindings():
    """Every sgq module or class attribute that is still a tracer wrapper."""
    found = []
    for name, module in sys.modules.items():
        if name != "sgq" and not name.startswith("sgq."):
            continue
        owners = [module] + [v for v in vars(module).values()
                             if isinstance(v, type) and v.__module__.startswith("sgq")]
        found += [f"{name}.{attr}" for owner in owners for attr, value in vars(owner).items()
                  if getattr(getattr(value, "__code__", None), "co_filename", None) == tracer.__file__]
    return found


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_with_its_unit(bench, workload):
    assert {w["name"] for w in CONTRACT["workloads"]} == set(TINY)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in CONTRACT[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        # the untraced run patches nothing, and the traced run restores everything
        assert _wrapped_bindings() == []


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_exactly(bench, workload):
    first, second = bench(workload, 1), bench(workload, 1)
    counts = [m["name"] for m in CONTRACT["per_layer"] if m["unit"] in ("count", "bits", "bytes")]
    assert counts
    assert [first["metrics"][c]["value"] for c in counts] == [second["metrics"][c]["value"] for c in counts]


def test_corrupted_inverse_fails_its_check(bench, monkeypatch):
    fresh_import = run.fresh_import
    calls = []

    def corrupting_import():
        module = fresh_import()
        cls = module.WORKLOADS["superlinalg"]
        honest = cls.run

        def corrupt_second_call(self, inp):
            ber, x_inv = honest(self, inp)
            calls.append(1)
            if len(calls) == 2:  # the first timed op; call 1 is the warm-up
                entry = x_inv[0, 0]
                key, coeff = next(iter(entry.terms.items()))
                rows = [list(row) for row in x_inv.entries]
                rows[0][0] = entry.ring.element({**entry.terms, key: coeff + 1})
                x_inv = type(x_inv)(x_inv.ring, x_inv.shape, rows)
            return ber, x_inv

        cls.run = corrupt_second_call
        return module

    monkeypatch.setattr(run, "fresh_import", corrupting_import)
    result = bench("superlinalg", 0)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_missing_target_is_reported_not_zero(bench, monkeypatch):
    targets = [(n, m, "inv_even_renamed" if n == "matrix.inv_even" else p) for n, m, p in tracer.SPAN_TARGETS]
    monkeypatch.setattr(tracer, "SPAN_TARGETS", targets)
    result = bench("superlinalg", 1)
    for name in ("matrix.inv_even_calls", "matrix.inv_even_s", "matrix.det_even_s"):
        assert name not in result["metrics"]
    assert result["metrics"]["matrix.det_even_calls"]["value"] > 0
