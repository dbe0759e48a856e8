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
        # 4 simulator + 3 cache-damage + 1 cache-concurrency
        assert len(sim_outcomes) == 8
        assert {o.layer for o in sim_outcomes} == {"srp", "compiler", "cache"}

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
        # The store's append/lock protocol survives concurrent writers.
        assert detectors["cache-concurrent-writer/stress"] == "journal-lock"
        # Store damage is quarantined line by line.
        assert detectors["cache-truncate/reload"] == "torn-tail-quarantine"
        assert detectors["cache-garbage/reload"] == "line-quarantine"
        assert detectors["cache-poison-entry/reload"] == "checksum-quarantine"

    def test_truncated_store_keeps_the_lines_before_the_cut(self, sim_outcomes):
        [truncate] = [o for o in sim_outcomes
                      if o.scenario == "cache-truncate/reload"]
        assert "1/3 intact line(s) kept" in truncate.detail

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
        assert len(outcomes) == 11
        escaped = [o for o in outcomes if o.escaped]
        assert not escaped, campaign_table(outcomes)
        harness = {o.scenario: o for o in outcomes if o.layer == "harness"}
        assert harness["worker-crash/retry"].detector == "retry"
        assert harness["sim-error/no-retry"].detector == "failure-taxonomy"
        assert harness["worker-hang/timeout"].detector == "job-timeout"


class TestKillMidRun:
    def test_sigkilled_worker_is_recomputed_bit_identically(self):
        """The crash-safety acceptance probe: a worker SIGKILLed at a
        deterministic cycle is retried, the retry recomputes the job
        from cycle 0, and its record is bit-identical to an
        undisturbed run."""
        outcomes = run_campaign(
            seed=2018, include_harness=True, workers=2,
            include_kill_mid_run=True,
        )
        assert len(outcomes) == 13
        by_scenario = {o.scenario: o for o in outcomes}
        kill = by_scenario["kill-mid-run/recompute"]
        assert kill.detected, kill.detail
        assert kill.detector == "retry-recompute"
        assert "bit-identical" in kill.detail
        # The daemon twin: the same SIGKILL absorbed by the service's
        # pool-recycle + retry path instead of the orchestrator's.
        daemon = next(o for o in outcomes if o.layer == "service")
        assert daemon.scenario == "daemon-kill-worker/recompute"
        assert daemon.detected, daemon.detail
        assert daemon.detector == "daemon-retry-recompute"
