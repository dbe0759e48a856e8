"""End-to-end fault campaign: every injected fault must be caught.

These tests are the executable form of the acceptance criterion: no
injected deadlock-class fault may run past ``DETECTION_DEADLINE_CYCLES``
or surface as anything but a structured, attributed error.
"""

import pytest

from repro.faults.campaign import (
    DETECTION_DEADLINE_CYCLES,
    campaign_table,
    detection_rate,
    run_campaign,
)

pytestmark = pytest.mark.faults


@pytest.fixture(scope="module")
def sim_outcomes():
    """Simulator + cache layers only: fast, no worker processes."""
    return run_campaign(seed=2018, include_harness=False)


class TestSimAndCacheLayers:
    def test_nothing_escapes(self, sim_outcomes):
        escaped = [o for o in sim_outcomes if o.escaped]
        assert not escaped, campaign_table(sim_outcomes)

    def test_covers_sim_and_cache_scenarios(self, sim_outcomes):
        # 4 simulator + 2 checkpoint + 3 cache-damage + 1 cache-concurrency
        assert len(sim_outcomes) == 10
        assert {o.layer for o in sim_outcomes} == {
            "srp", "compiler", "checkpoint", "cache",
        }

    def test_deadlocks_caught_well_before_deadline(self, sim_outcomes):
        for outcome in sim_outcomes:
            if outcome.layer in ("srp", "compiler"):
                assert outcome.cycles is not None, outcome
                assert outcome.cycles < DETECTION_DEADLINE_CYCLES, outcome

    def test_each_detector_earns_its_keep(self, sim_outcomes):
        detectors = {o.scenario: o.detector for o in sim_outcomes}
        # Parked waiters with no timers: provable deadlock, immediate.
        assert detectors["lost-release/wakeup"] == "deadlock-check"
        # Eager re-polling always has a timer pending: only the
        # progress watchdog can call this livelock.
        assert detectors["lost-release/eager"] == "watchdog"
        assert detectors["unbalanced-acquire/barrier"] == "deadlock-check"
        assert detectors["srp-bit-flip/sanitizer"] == "sanitizer"
        # Damaged checkpoints are classified and discarded, never
        # silently resumed; the journal/lock protocol survives
        # concurrent writers.
        assert detectors["checkpoint-truncate/fallback"] == "checkpoint-validation"
        assert detectors["checkpoint-corrupt/fallback"] == "checkpoint-validation"
        assert detectors["cache-concurrent-writer/stress"] == "journal-lock"

    def test_campaign_is_deterministic(self, sim_outcomes):
        assert run_campaign(seed=2018, include_harness=False) == sim_outcomes

    def test_table_reports_full_detection(self, sim_outcomes):
        table = campaign_table(sim_outcomes)
        assert "ESCAPED" not in table
        assert "detection rate 100%" in table
        assert detection_rate(sim_outcomes) == 1.0


class TestFullCampaign:
    def test_harness_faults_absorbed_or_attributed(self):
        outcomes = run_campaign(seed=2018, include_harness=True, workers=2)
        assert len(outcomes) == 13
        escaped = [o for o in outcomes if o.escaped]
        assert not escaped, campaign_table(outcomes)
        harness = {o.scenario: o for o in outcomes if o.layer == "harness"}
        assert harness["worker-crash/retry"].detector == "retry"
        assert harness["sim-error/no-retry"].detector == "failure-taxonomy"
        assert harness["worker-hang/timeout"].detector == "job-timeout"


class TestKillMidRun:
    def test_sigkilled_worker_resumes_bit_identically(self):
        """The crash-safety acceptance probe: a worker SIGKILLed at a
        deterministic cycle is retried, the retry resumes from the
        surviving checkpoint, and the final record is bit-identical to
        an undisturbed run."""
        outcomes = run_campaign(
            seed=2018, include_harness=True, workers=2,
            include_kill_mid_run=True,
        )
        assert len(outcomes) == 16
        # Two orchestrator variants: the default columnar path (native
        # when built) and the scan reference stepper (whose checkpoints
        # are stamped and must resume under the same engine).
        by_scenario = {o.scenario: o for o in outcomes}
        for scenario in ("kill-mid-run/resume", "kill-mid-run-scan/resume"):
            kill = by_scenario[scenario]
            assert kill.detected, kill.detail
            assert kill.detector == "checkpoint-resume"
            assert kill.cycles is not None and kill.cycles > 0  # resume cycle
            assert "bit-identical" in kill.detail
        # The daemon twin: the same SIGKILL absorbed by the service's
        # pool-recycle + retry path instead of the orchestrator's.
        daemon = next(o for o in outcomes if o.layer == "service")
        assert daemon.scenario == "daemon-kill-worker/resume"
        assert daemon.detected, daemon.detail
        assert daemon.detector == "daemon-retry+resume"
        assert daemon.cycles is not None and daemon.cycles > 0
