"""The verdict of benchmarks/perf_ab.py, the same-machine A/B gate."""

import importlib.util
import os
import sys

import pytest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
]


@pytest.fixture
def perf_ab(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perf_ab", os.path.join(REPO, "benchmarks", "perf_ab.py")
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's annotations through sys.modules.
    monkeypatch.setitem(sys.modules, "perf_ab", module)
    spec.loader.exec_module(module)
    return module


def _runs(workload="figures-cold", wall=10.0, ops=2.0, correct=True,
          failed=0, attempted=20):
    return [
        {"workload": workload, "seed": seed, "correct": correct,
         "attempted": attempted, "failed": failed,
         "metrics": {"wall_s": {"value": wall, "unit": "s"},
                     "ops_per_s": {"value": ops, "unit": "1/s"}}}
        for seed in (1, 2, 3)
    ]


def test_within_bound_passes(perf_ab):
    rows, failures = perf_ab.verdict(_runs(), _runs(wall=12.0, ops=1.6),
                                     METRICS)
    assert failures == []
    assert [(r.metric, r.ok) for r in rows] == [
        ("wall_s", True), ("ops_per_s", True)]
    assert rows[0].delta == pytest.approx(0.2)


def test_lower_is_better_metric_over_bound_fails(perf_ab):
    rows, failures = perf_ab.verdict(_runs(), _runs(wall=13.0), METRICS)
    [failure] = failures
    assert "figures-cold" in failure and "wall_s" in failure
    assert not rows[0].ok and rows[1].ok


def test_higher_is_better_metric_under_bound_fails(perf_ab):
    _, failures = perf_ab.verdict(_runs(), _runs(ops=1.4), METRICS)
    [failure] = failures
    assert "figures-cold" in failure and "ops_per_s" in failure


def test_faster_passes(perf_ab):
    rows, failures = perf_ab.verdict(_runs(), _runs(wall=2.0, ops=10.0),
                                     METRICS)
    assert failures == []
    assert all(r.ok for r in rows)


def test_incorrect_head_run_fails(perf_ab):
    _, failures = perf_ab.verdict(_runs(), _runs(correct=False), METRICS)
    assert len(failures) == 3
    assert all("not correct" in f for f in failures)


def test_more_failed_ops_than_base_fails(perf_ab):
    base = _runs(failed=1)
    head = _runs(failed=1)
    head[1]["failed"] = 2
    _, failures = perf_ab.verdict(base, head, METRICS)
    [failure] = failures
    assert "seed 2" in failure and "2/20" in failure


def test_medians_are_per_workload(perf_ab):
    base = _runs() + _runs(workload="compile-sweep", wall=1.0)
    head = _runs() + _runs(workload="compile-sweep", wall=2.0)
    rows, failures = perf_ab.verdict(base, head, METRICS)
    assert [(r.workload, r.metric) for r in rows if not r.ok] == [
        ("compile-sweep", "wall_s")]
    assert len(failures) == 1 and "compile-sweep wall_s" in failures[0]
