"""Orchestrator failure regimes: retry, attribution, timeout, propagation."""

import pytest

from repro.arch.config import fermi_like
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.spec import JobFailure, JobSpec, TechniqueSpec

CFG = fermi_like(
    name="failure-test", num_sms=1, max_warps_per_sm=16, max_ctas_per_sm=4,
    max_threads_per_sm=512, registers_per_sm=8192,
    dram_latency=60, l1_hit_latency=8,
)

# Too few registers for any app kernel: placement deterministically fails.
UNPLACEABLE_CFG = fermi_like(
    name="unplaceable", num_sms=1, max_warps_per_sm=16, max_ctas_per_sm=4,
    max_threads_per_sm=512, registers_per_sm=64,
    dram_latency=60, l1_hit_latency=8,
)


def _job(technique: TechniqueSpec, config=CFG, app="Gaussian") -> JobSpec:
    return JobSpec(app=app, config=config, technique=technique)


def _orchestrator(**kwargs) -> Orchestrator:
    runner = ExperimentRunner(target_ctas_per_sm=2, seed=7)
    return Orchestrator(runner, **kwargs)


class TestFailurePropagation:
    def test_placement_failure_becomes_typed_job_failure(self):
        job = _job(TechniqueSpec.of("baseline"), config=UNPLACEABLE_CFG)
        orch = _orchestrator(workers=1)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "placement"
        assert outcome.attempts == 1
        assert "does not fit" in outcome.message

    def test_one_failure_does_not_sink_the_batch(self):
        bad = _job(TechniqueSpec.of("baseline"), config=UNPLACEABLE_CFG)
        good = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=1)
        outcomes = orch.run_jobs([bad, good])
        assert isinstance(outcomes[bad], JobFailure)
        assert isinstance(outcomes[good], RunRecord)

    def test_failure_kind_reaches_telemetry(self):
        job = _job(TechniqueSpec.of("baseline"), config=UNPLACEABLE_CFG)
        orch = _orchestrator(workers=1)
        orch.run_jobs([job])
        assert orch.telemetry.failures == 1
        assert orch.telemetry.failures_by_kind() == {"placement": 1}


# SAD at a forced |Es| = 4 is one of Figure 10's sweep points the
# compiler cannot compact: it raises CompactionError (a ValueError, not
# a SimulationError) before any simulation starts.
UNCOMPACTABLE = TechniqueSpec.of("regmutex", extended_set_size=4)


class TestNonSimulationJobErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_compaction_error_is_a_job_failure_and_batch_flushes(
        self, tmp_path, workers
    ):
        """One uncompactable job in a batch comes back as a typed
        JobFailure, and the good job's record still reaches the store
        through the end-of-batch flush and telemetry."""
        bad = _job(UNCOMPACTABLE, app="SAD")
        good = _job(TechniqueSpec.of("baseline"))
        cache = tmp_path / "cache.json"
        runner = ExperimentRunner(target_ctas_per_sm=2, seed=7,
                                  cache_path=str(cache))
        orch = Orchestrator(runner, workers=workers)
        outcomes = orch.run_jobs([bad, good])

        assert isinstance(outcomes[bad], JobFailure)
        assert outcomes[bad].kind == "job-error"
        assert outcomes[bad].message.startswith("CompactionError: ")
        assert isinstance(outcomes[good], RunRecord)
        assert orch.telemetry.failures_by_kind() == {"job-error": 1}
        assert orch.telemetry.wall_seconds > 0  # the session was closed

        fresh = ExperimentRunner(target_ctas_per_sm=2, seed=7,
                                 cache_path=str(cache))
        assert Orchestrator(fresh).run_jobs([good])[good] == outcomes[good]
        assert fresh.cache_hits == 1 and fresh.cache_misses == 0


@pytest.mark.faults
class TestWorkerCrashRetry:
    def test_transient_crash_is_retried_and_batch_completes(self, tmp_path):
        marker = str(tmp_path / "crash.marker")
        crash = _job(TechniqueSpec.of(
            "faulty-worker", mode="worker-crash", marker_path=marker
        ))
        bystander = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=2, max_retries=2, retry_backoff=0.01)
        outcomes = orch.run_jobs([crash, bystander])
        # First dispatch dies (marker written), retry runs clean.
        assert isinstance(outcomes[crash], RunRecord)
        assert isinstance(outcomes[bystander], RunRecord)
        assert orch.telemetry.retries >= 1

    def test_deterministic_sim_error_is_not_retried(self):
        job = _job(TechniqueSpec.of("faulty-worker", mode="sim-error"))
        orch = _orchestrator(workers=2, max_retries=2, retry_backoff=0.01)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "simulation-error"
        assert outcome.attempts == 1  # exactly one dispatch

    def test_sim_error_in_inline_mode_matches_pool_mode(self):
        job = _job(TechniqueSpec.of("faulty-worker", mode="sim-error"))
        orch = _orchestrator(workers=1)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "simulation-error"


@pytest.mark.faults
class TestJobTimeout:
    def test_hung_worker_times_out(self):
        job = _job(TechniqueSpec.of(
            "faulty-worker", mode="worker-sleep", delay_seconds=5.0
        ))
        orch = _orchestrator(workers=2, job_timeout=0.5, max_retries=0)
        outcome = orch.run_jobs([job])[job]
        assert isinstance(outcome, JobFailure)
        assert outcome.kind == "timeout"
        assert orch.telemetry.failures_by_kind() == {"timeout": 1}

    def test_per_job_timeout_overrides_session_default(self):
        """A per-job timeout must cut one job's budget without touching
        its siblings: the hung job fails typed while the sibling on the
        same pool round completes normally."""
        hung = _job(TechniqueSpec.of(
            "faulty-worker", mode="worker-sleep", delay_seconds=8.0
        ))
        sibling = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=2, job_timeout=120.0, max_retries=0)
        outcomes = orch.run_jobs([hung, sibling], timeouts={hung: 0.5})
        assert isinstance(outcomes[hung], JobFailure)
        assert outcomes[hung].kind == "timeout"
        assert isinstance(outcomes[sibling], RunRecord)
        assert orch.telemetry.failures_by_kind() == {"timeout": 1}

    def test_nonpositive_per_job_timeout_rejected(self):
        job = _job(TechniqueSpec.of("baseline"))
        orch = _orchestrator(workers=2)
        with pytest.raises(ValueError, match="timeout"):
            orch.run_jobs([job], timeouts={job: 0.0})


class TestValidation:
    def test_bad_job_timeout_rejected(self):
        with pytest.raises(ValueError, match="job_timeout"):
            _orchestrator(workers=1, job_timeout=0.0)

    def test_bad_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            _orchestrator(workers=1, max_retries=-1)
