"""``ExperimentRunner.job_key``: the one key path of both front ends.

A job's key must be the key ``key_for`` gives the job's built kernel
(every v6 store record stays reachable), and a warm front end must
stop building and printing kernels once each app's text is memoized.
"""

from __future__ import annotations

import dataclasses

import repro.workloads.suite as suite
from repro.harness.experiments import FIGURE_SPECS, figure_spec
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import (
    JobSpec,
    TechniqueSpec,
    materialize_job,
    ordered_unique_jobs,
)


def figure_jobs(name: str | None = None) -> tuple[JobSpec, ...]:
    names = [name] if name else list(FIGURE_SPECS)
    return ordered_unique_jobs(
        job for n in names for job in figure_spec(n).jobs
    )


def placeholder_record(job: JobSpec) -> RunRecord:
    """A stand-in record: these tests read keys, never numbers."""
    return RunRecord(
        kernel_name=job.app, config_name=job.config.name,
        technique=str(job.technique), cycles=1, ctas_total=1,
        ctas_per_sm_resident=1, cycles_per_cta=1.0,
        theoretical_occupancy=1.0, acquire_attempts=0,
        acquire_successes=0, release_count=0, instructions_issued=1,
        stall_acquire=0, stall_memory=0,
    )


def fill_store(runner: ExperimentRunner, jobs) -> None:
    """Install a record for every job under its ``key_for`` key."""
    for job in jobs:
        kernel, technique, _ = materialize_job(job)
        runner.install(runner.key_for(kernel, job.config, technique),
                       placeholder_record(job))


class TestKeyIdentity:
    def test_job_key_equals_key_for_on_every_figure_job(self):
        runners = (
            ExperimentRunner(),
            ExperimentRunner(seed=11, target_ctas_per_sm=6),
        )
        jobs = figure_jobs()
        assert jobs
        for job in jobs:
            kernel, technique, _ = materialize_job(job)
            for runner in runners:
                assert runner.job_key(job) == runner.key_for(
                    kernel, job.config, technique
                ), job.label
        # The two runners' keys differ (seed and grid target are keyed).
        job = jobs[0]
        assert runners[0].job_key(job) != runners[1].job_key(job)

    def test_memo_is_keyed_by_the_app_spec_value(self, monkeypatch):
        job = figure_jobs("fig7")[0]
        runner = ExperimentRunner()
        before = runner.job_key(job)
        spec = suite.get_app(job.app)
        monkeypatch.setitem(suite.APPLICATIONS, job.app,
                            dataclasses.replace(spec, seed=spec.seed + 1))
        after = runner.job_key(job)
        assert after != before
        kernel, technique, _ = materialize_job(job)
        assert after == runner.key_for(kernel, job.config, technique)

    def test_equal_configs_that_print_differently_keep_their_keys(self):
        """``1 == 1.0``, yet the fingerprint prints each as given: the
        config memo must not hand one config the other's key."""
        job = JobSpec("Gaussian", figure_jobs("fig7")[0].config,
                      TechniqueSpec("baseline"))
        as_int = JobSpec(job.app, dataclasses.replace(job.config,
                                                      l1_hit_rate=1),
                         job.technique)
        as_float = JobSpec(job.app, dataclasses.replace(job.config,
                                                        l1_hit_rate=1.0),
                           job.technique)
        assert as_int.config == as_float.config
        runner = ExperimentRunner()
        keys = [runner.job_key(as_int), runner.job_key(as_float)]
        for spec, key in zip((as_int, as_float), keys):
            kernel, technique, _ = materialize_job(spec)
            assert key == runner.key_for(kernel, spec.config, technique)
        assert keys[0] != keys[1]


class TestWarmPath:
    def test_warm_orchestrator_builds_no_kernel(self, generate_calls):
        jobs = figure_jobs("fig7")
        runner = ExperimentRunner()
        fill_store(runner, jobs)
        generate_calls.clear()

        orch = Orchestrator(runner, workers=1)
        first = orch.run_jobs(jobs)
        assert all(isinstance(r, RunRecord) for r in first.values())
        assert len(generate_calls) == len({job.app for job in jobs})
        generate_calls.clear()

        assert orch.run_jobs(jobs) == first
        assert generate_calls == []
        assert runner.cache_misses == 0
        assert runner.cache_hits == 2 * len(jobs)
