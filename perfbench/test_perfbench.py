"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.harness import JobFailure, RunRecord  # noqa: E402


# -- percentiles and the tail ------------------------------------------------

def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 90) == 90
    assert common.percentile(values, 100) == 100
    assert common.percentile([7.0], 50) == 7.0


@pytest.mark.parametrize("n,expected", [
    (10, None), (11, None), (39, None), (40, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (20000, 99.9),
])
def test_tail_leaves_ten_samples_beyond(n, expected):
    q = common.tail_percentile(n)
    assert q == expected
    if q is not None:
        rank = -(-q * n // 100)  # ceil
        assert n - rank >= common.TAIL_MIN_BEYOND


def test_tail_value_and_absence():
    assert common.tail([1.0] * 10) is None
    q, value = common.tail([float(i) for i in range(1, 201)])
    assert (q, value) == (95.0, 190.0)


def test_in_run_probe_samples_while_running():
    import time

    probe = common.InRunProbe()
    probe.EVERY_S = 0.01
    probe.start()
    time.sleep(0.2)           # the main thread is busy or idle alike
    probe.stop()
    taken = len(probe.samples)
    assert taken >= 5
    time.sleep(0.05)          # stopped: no more samples
    assert len(probe.samples) == taken
    assert probe.summary()["samples"] == taken
    # The factor scales a time measured at this host's speed to the
    # reference speed: it is the reference loop over the median loop.
    probe.samples = [2 * probe.REF_ROUND_S] * 3
    assert probe.speed_factor() == pytest.approx(0.5)


# -- self time -----------------------------------------------------------------

def _span(id, name, parent, start, end, **attrs):
    return tracing.Span(id, name, parent, 0, start, end, attrs=attrs)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, "outer", None, 0.0, 10.0),
        _span(2, "a", 1, 1.0, 3.0),
        _span(3, "b", 1, 2.0, 4.0),     # overlaps a: union counts once
        _span(4, "c", 1, 6.0, 7.0),
        _span(5, "leaf", 4, 6.2, 6.5),  # grandchild: c's, not outer's
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[4] == pytest.approx(1.0 - 0.3)
    assert own[5] == pytest.approx(0.3)
    totals = tracing.layer_totals(spans)
    assert totals["outer"].self_s == pytest.approx(6.0)


def test_tracer_records_nesting_and_restores():
    class Layer:
        def top(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["top"]
    tracer = tracing.Tracer()
    tracer.wrap_method(Layer, "top", "top")
    tracer.wrap_method(Layer, "inner", "inner",
                       note=lambda args, result: {"value": result})
    tracer.start()
    assert Layer().top() == 2
    tracer.stop()
    assert Layer.__dict__["top"] is original
    top, = [s for s in tracer.spans if s.name == "top"]
    inner, = [s for s in tracer.spans if s.name == "inner"]
    assert inner.parent == top.id and inner.attrs == {"value": 1}
    Layer().top()
    assert len(tracer.spans) == 2


# -- per-SM instruction accounting ---------------------------------------------

def _record(cycles, instructions_per_sm, num_sms=15):
    return {"cycles": cycles, "instructions_issued": instructions_per_sm * num_sms,
            "num_sms": num_sms, "acquire_attempts": 4, "acquire_successes": 3,
            "stall_memory": 9, "stall_acquire": 2}


def test_sim_accounting_counts_only_simulated_sms():
    records = [_record(1000, 1800), _record(500, 700)]
    spans = [
        _span(1, "sim.sm_run", None, 0, 1, cycles=1000, instructions=1800),
        _span(2, "sim.sm_run", None, 1, 2, cycles=500, instructions=700),
    ]
    assert run.span_accounting_error(spans, records) is None
    metrics = run.layer_metrics(spans, [])
    assert metrics["sim.instructions"] == 2500   # not 15x that
    assert metrics["sim.instr_per_host_s"] / metrics["sim.cycles_per_host_s"] \
        <= 2  # 2 schedulers x 1 issue each on GTX480
    # Counting every SM's instructions is caught.
    spans[1].attrs["instructions"] = 700 * 15
    assert "instructions" in run.span_accounting_error(spans, records)
    counts = workloads.sim_counts(records)
    assert counts["sim.acquire_success_ratio"] == 0.75


# -- output checks -------------------------------------------------------------

@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    wl = workloads.FiguresCold(HERE.parent, tmp_path_factory.mktemp("b"), 1, 20)
    wl.universe = workloads.figure_universe()
    return wl


def _first(expected, has_record):
    return next(label for label, e in expected["jobs"].items()
                if ("record" in e) == has_record)


def test_expected_table_matches_the_figure_universe(figures):
    assert set(figures.universe) == set(figures.expected["jobs"])
    failing = sorted(l for l, e in figures.expected["jobs"].items()
                     if "error" in e)
    assert failing == [
        "BFS/GTX480/regmutex(extended_set_size=4)",
        "ParticleFilter/GTX480/regmutex(extended_set_size=2)",
        "SAD/GTX480/regmutex(extended_set_size=4)",
        "SAD/GTX480/regmutex(extended_set_size=6)",
    ]


def test_perturbed_record_is_a_failed_op(figures):
    label = _first(figures.expected, True)
    job = figures.universe[label]
    record = RunRecord(**figures.expected["jobs"][label]["record"])
    ok = figures._check(label, job, record, 1.0, workloads.PassResult())
    assert not ok.failed and ok.mismatch is None
    bad = dataclasses.replace(record, cycles=record.cycles + 1)
    op = figures._check(label, job, bad, 1.0, workloads.PassResult())
    assert op.failed and "cycles" in op.mismatch


def test_known_failure_is_failed_but_correct(figures):
    from repro.compiler.compaction import CompactionError

    label = _first(figures.expected, False)
    job = figures.universe[label]
    op = figures._check(label, job, CompactionError("x"), 0.1,
                        workloads.PassResult())
    assert op.failed and op.mismatch is None
    # However the orchestrator reports the failure, it is a failure.
    op = figures._check(label, job, JobFailure("x", kind="runtime-error"),
                        0.1, workloads.PassResult())
    assert op.failed and op.mismatch is None
    op = figures._check(label, job, RuntimeError("x"), 0.1,
                        workloads.PassResult())
    assert op.failed and op.mismatch
    # A job expected to succeed that fails is a mismatch.
    ok_label = _first(figures.expected, True)
    op = figures._check(ok_label, figures.universe[ok_label],
                        JobFailure("x"), 0.1, workloads.PassResult())
    assert op.failed and op.mismatch


def test_served_record_is_checked(tmp_path):
    svc = workloads.ServiceWarm(HERE.parent, tmp_path, 1, 20)
    name = "fig7"
    jobs = svc.expected["figures"][name]["jobs"]
    apps = (jobs[0][0],)
    entries = []
    for i, (app, label) in enumerate(jobs):
        if app not in apps:
            continue
        entries.append({"job_id": i, "label": label, "status": "done",
                        "dedup": "store",
                        "record": dict(svc.expected["jobs"][label]["record"])})
    response = SimpleNamespace(jobs=entries)
    assert svc._check(name, apps, response, 0.01) == workloads.OpResult(0.01)
    entries[0]["record"]["stall_memory"] += 1
    op = svc._check(name, apps, response, 0.01)
    assert op.failed and "stall_memory" in op.mismatch


def test_compile_sweep_output_is_checked(tmp_path):
    wl = workloads.CompileSweep(HERE.parent, tmp_path, 1, 2)
    name = "SRAD_v03"
    wl.prepare_inputs([name])
    assert wl.run_ops([name]).mismatches == []
    rows = wl.expected[name]["GTX480"]
    rows[0] = rows[0][:-1] + ["0" * 12]
    assert wl.run_ops([name]).mismatches


# -- plans ---------------------------------------------------------------------

def test_plans_are_seeded_and_balanced(figures, tmp_path):
    assert figures.plan() == figures.plan()
    other = workloads.FiguresCold(HERE.parent, tmp_path, 2, 20).plan()
    ops = figures.plan()
    assert ops != other
    # The same median-sized successful jobs for every seed, in seeded
    # order, plus exactly one known-failing job.
    failing = [l for l in ops if "error" in figures.expected["jobs"][l]]
    assert len(failing) == 1
    assert sorted(set(ops) - set(failing)) == sorted(
        l for l in other if "error" not in figures.expected["jobs"][l])

    sweep = workloads.CompileSweep(HERE.parent, tmp_path, 5, 20).plan()
    other = workloads.CompileSweep(HERE.parent, tmp_path, 6, 20).plan()
    assert sorted(sweep) == sorted(other) and sweep != other
    assert set(sweep) == set(workloads.CompileSweep(
        HERE.parent, tmp_path, 5, 20).expected)


def test_benchmark_json_declares_exactly_the_computed_metrics():
    computed = (set(run.layer_metrics([], [])) | set(workloads.sim_counts([]))
                | set(workloads.service_counts({})) | {"trace.overhead_s"})
    assert computed == set(run.declared_metrics("per_layer"))
    assert list(run.declared_metrics("end_to_end")) == [
        "setup_s", "wall_s", "ops_per_s", "op_latency_p50_s", "peak_rss_mb"]


# -- processes -------------------------------------------------------------------

def test_orphans_are_adopted_and_reaped():
    """A grandchild orphaned by its parent's exit is reparented to the
    benchmark and waited for; none is left, not even as a zombie.  Runs
    in a child interpreter so this test process stays as it was."""
    import subprocess

    script = (
        "import os, subprocess, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import common\n"
        "if not common.become_subreaper():\n"
        "    print('unsupported'); sys.exit(0)\n"
        "subprocess.run(['sh', '-c', 'sleep 0.3 & exit 0'], check=True)\n"
        "orphans = [p for p, s, pp, g in common._proc_stats()\n"
        "           if pp == os.getpid()]\n"
        "common.stop_children()\n"
        "left = [p for p, s, pp, g in common._proc_stats()\n"
        "        if pp == os.getpid()]\n"
        "print(len(orphans), len(left))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, str(HERE)],
                         capture_output=True, text=True, check=True).stdout
    if out.strip() == "unsupported":
        pytest.skip("no child subreaper on this platform")
    assert out.split() == ["1", "0"]
