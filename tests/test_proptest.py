import json

import pytest

from sgq import UnknownSuite, run_suite, sampling
from sgq.proptest import SUITES


def test_unknown_suite_rejected():
    with pytest.raises(UnknownSuite):
        run_suite("bogus", 1, 0)


def test_zero_trials_pass():
    report = run_suite("chart", 0, 0)
    assert report["passed"]
    assert all(p["failures"] == 0 and p["first_counterexample"] is None for p in report["properties"])


def test_every_suite_passes_briefly():
    for suite in SUITES:
        report = run_suite(suite, 5, 17, {"m": 2, "n": 1, "r": 1, "s": 1, "q": 3})
        assert report["passed"], f"{suite}: {report['properties']}"


def test_all_suite_covers_everything():
    report = run_suite("all", 1, 5)
    names = {p["name"] for p in report["properties"]}
    expected = {f"{suite}.{prop}" for suite, props in SUITES.items() for prop, _ in props}
    assert names == expected


def test_reports_are_deterministic_and_serializable():
    first = run_suite("action", 8, 123, {"m": 2, "n": 2, "r": 1, "s": 1, "q": 4})
    second = run_suite("action", 8, 123, {"m": 2, "n": 2, "r": 1, "s": 1, "q": 4})
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_seed_changes_nothing_structural_but_is_recorded():
    report = run_suite("kernel", 3, 999)
    assert report["seed"] == 999 and report["trials"] == 3
    assert report["size"]["q"] == 4


def test_coeff_bound_reaches_every_sampler(monkeypatch):
    bounds = []
    real = sampling.random_fraction

    def spy(rng, bound):
        bounds.append(bound)
        return real(rng, bound)

    monkeypatch.setattr(sampling, "random_fraction", spy)
    for suite in ("kernel", "matrix", "factorization", "chart", "action"):
        run_suite(suite, 2, 0, {"coeff_bound": 2})
    assert bounds and set(bounds) == {2}
