"""Orchestrator integration tests: real simulations on a small config.

The config below is sized so each job simulates in well under a second
while still exercising multi-SM launch, the memory system, and the
RegMutex issue logic.
"""

from __future__ import annotations

import pytest

from repro.arch.config import fermi_like
from repro.baselines.owf import OwfTechnique
from repro.harness import experiments as E
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    JobFailure,
    JobResults,
    JobSpec,
    TechniqueSpec,
    execute_job,
    materialize_job,
)

CFG = fermi_like(
    name="orch-test",
    num_sms=2,
    max_warps_per_sm=16,
    max_ctas_per_sm=4,
    max_threads_per_sm=512,
    registers_per_sm=8192,
    dram_latency=60,
    l1_hit_latency=8,
)
APPS = ("Gaussian", "MergeSort")


def _specs():
    # fig8 re-requests Gaussian's full-RF baseline, which fig7 already
    # declares — exercises cross-spec dedup.
    return [E.fig7_spec(APPS, CFG), E.fig8_spec(("Gaussian",), CFG)]


def _runner(**kw):
    return ExperimentRunner(target_ctas_per_sm=4, **kw)


class TestDeterminism:
    def test_parallel_rows_bit_identical_to_serial(self):
        serial = Orchestrator(_runner(), workers=1)
        parallel = Orchestrator(_runner(), workers=4)
        rows_serial = serial.run_specs(_specs())
        rows_parallel = parallel.run_specs(_specs())
        # Row dataclasses are frozen and compare by value, so equality
        # here means every RunRecord-derived field matches bit-for-bit.
        assert rows_serial == rows_parallel
        assert set(rows_serial) == {"fig7", "fig8"}
        assert len(rows_serial["fig7"]) == len(APPS)

    def test_pool_records_match_direct_runner_run(self):
        job = JobSpec("Gaussian", CFG, TechniqueSpec.of("baseline"))
        rm = JobSpec("Gaussian", CFG,
                     TechniqueSpec.of("regmutex", extended_set_size=4))
        outcomes = Orchestrator(_runner(), workers=2).run_jobs([job, rm])

        direct = _runner()
        for spec in (job, rm):
            kernel, technique, _ = materialize_job(spec)
            record = direct.run(kernel, spec.config, technique)
            assert outcomes[spec] == record
            assert isinstance(outcomes[spec], RunRecord)

    def test_orchestrated_rows_match_rows_from_execute_job(self):
        spec = E.fig7_spec(("Gaussian",), CFG)
        runner = _runner()
        plain = spec.build_rows(JobResults(
            {job: execute_job(job, runner) for job in spec.unique_jobs()}
        ))
        orchestrated = Orchestrator(_runner(), workers=2).run_specs(
            [spec]
        )[spec.name]
        assert plain == orchestrated

    def test_inline_run_executes_in_declared_order(self):
        spec = E.fig7_spec(("Gaussian",), CFG)
        orch = Orchestrator(_runner(), workers=1)
        (row,) = orch.run_specs([spec])[spec.name]
        assert [t.label for t in orch.telemetry.timings] == [
            job.label for job in spec.jobs
        ]
        assert [t.label.split("/")[-1] for t in orch.telemetry.timings] == [
            "baseline", "regmutex(extended_set_size=4)",
        ]


class TestDedupAndTelemetry:
    def test_cross_spec_dedup_and_hit_miss_counts(self):
        runner = _runner()
        orch = Orchestrator(runner, workers=4)
        orch.run_specs(_specs())

        declared = sum(len(s.jobs) for s in _specs())   # 4 + 3
        unique = len({j for s in _specs() for j in s.jobs})
        assert declared == 7 and unique == 6

        t = orch.telemetry
        assert t.jobs_total == unique
        assert t.cache_hits == 0
        assert t.cache_misses == unique
        assert t.failures == 0
        assert t.wall_seconds > 0
        assert t.sim_seconds > 0
        assert 0.0 < t.utilization() <= 1.0
        assert runner.cache_misses == unique

        # Same suite again through the same runner: pure cache replay.
        again = Orchestrator(runner, workers=4)
        again.run_specs(_specs())
        assert again.telemetry.cache_hits == unique
        assert again.telemetry.cache_misses == 0

    def test_repeated_jobs_run_once(self):
        base = JobSpec("Gaussian", CFG, TechniqueSpec.of("baseline"))
        spec = ExperimentSpec("x", (base, base), lambda r: len(r))
        orch = Orchestrator(_runner(), workers=1)
        assert orch.run_specs([spec]) == {"x": 1}
        assert orch.telemetry.jobs_total == 1

    def test_timing_names_the_issue_loop_that_ran(self):
        """Each computed job's timing names its issue loop; a recalled
        one names none, and the record never carries it."""
        import dataclasses

        import repro.sim.sm as sm_mod

        columnar = "scan" if sm_mod.native_module() is None else "native"
        scan_cfg = dataclasses.replace(CFG, name="orch-scan",
                                       issue_engine="scan")
        jobs = [JobSpec("Gaussian", cfg, TechniqueSpec.of("baseline"))
                for cfg in (dataclasses.replace(CFG, issue_engine="columnar"),
                            scan_cfg)]
        runner = _runner()
        orch = Orchestrator(runner, workers=1)
        results = orch.run_jobs(jobs)
        assert [t.loop for t in orch.telemetry.timings] == [columnar, "scan"]
        assert all("loop" not in dataclasses.asdict(results[j]) for j in jobs)
        again = Orchestrator(runner, workers=1)
        again.run_jobs(jobs)
        assert [t.loop for t in again.telemetry.timings] == [None, None]

    def test_slowest_ranks_by_duration(self):
        orch = Orchestrator(_runner(), workers=1)
        orch.run_specs([E.fig7_spec(("Gaussian",), CFG)])
        top = orch.telemetry.slowest(2)
        assert len(top) == 2
        assert top[0].seconds >= top[1].seconds


class TestCacheMerge:
    def test_pool_results_persist_for_fresh_runner(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        spec = E.fig7_spec(("Gaussian",), CFG)

        first = Orchestrator(_runner(cache_path=cache), workers=2)
        rows_first = first.run_specs([spec])[spec.name]

        fresh = Orchestrator(_runner(cache_path=cache), workers=2)
        rows_fresh = fresh.run_specs([spec])[spec.name]
        assert rows_fresh == rows_first
        assert fresh.telemetry.cache_misses == 0
        assert fresh.telemetry.cache_hits == len(spec.jobs)

    def test_direct_owf_run_stores_the_figure_jobs_record(self):
        """``runner.run(kernel, config, OwfTechnique())`` stores under
        the OWF figure job's key, so it must compute that job's
        owner-warp-first schedule: a later figure job reads it back."""

        class NoOwnerFirst(OwfTechnique):
            def make_sm_state(self, kernel, config, stats):
                state = super().make_sm_state(kernel, config, stats)
                state.scheduler_priority = None
                return state

        job = JobSpec("SRAD", CFG, TechniqueSpec.of("owf"))
        fresh = Orchestrator(_runner(), workers=1).run_jobs([job])[job]
        kernel, _, _ = materialize_job(job)
        # On SRAD the owner-warp-first pick moves the cycle count, so a
        # run without it cannot pass for the figure job.
        plain, _ = _runner().simulate(kernel, CFG, NoOwnerFirst())
        assert plain.cycles != fresh.cycles

        runner = _runner()
        assert runner.run(kernel, CFG, OwfTechnique()) == fresh
        orch = Orchestrator(runner, workers=1)
        assert orch.run_jobs([job])[job] == fresh
        assert orch.telemetry.cache_hits == 1


class TestFailureTolerance:
    def test_unplaceable_job_becomes_failure(self):
        # One CTA of LavaMD needs more registers than this SM has.
        tiny = fermi_like(name="tiny-rf", registers_per_sm=256,
                          num_sms=1, max_warps_per_sm=16,
                          max_ctas_per_sm=4, max_threads_per_sm=512)
        job = JobSpec("LavaMD", tiny, TechniqueSpec.of("baseline"))
        orch = Orchestrator(_runner(), workers=1)
        outcomes = orch.run_jobs([job])
        assert isinstance(outcomes[job], JobFailure)
        assert orch.telemetry.failures == 1

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            Orchestrator(_runner(), workers=0)
