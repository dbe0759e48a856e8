"""End-to-end fault campaign: every injected fault must be caught.

These tests are the executable form of the acceptance criterion: no
injected deadlock-class fault may run past ``DETECTION_DEADLINE_CYCLES``
or surface as anything but a structured, attributed error.  With the
sanitizer armed (the ``+sanitizer`` rows and the SRP bit flip), every
simulator fault must be caught by a *typed* detector with provenance:
the SRP corruptions by the sanitizer's structural check, the
schedule-level unbalanced acquire by the deadlock machinery (its
structures stay self-consistent — correctly not the sanitizer's catch).
"""

import pytest

from repro.check.sanitizer import SanitizerViolation
from repro.compiler.verification import verify_regmutex_safety
from repro.errors import SanitizerError, SimulationDeadlockError
from repro.faults.campaign import (
    DETECTION_DEADLINE_CYCLES,
    _classify,
    _probe_kernel,
    campaign_table,
    detection_rate,
    run_campaign,
)

pytestmark = pytest.mark.faults

# The simulator scenarios run with the sanitizer armed.
SANITIZED = (
    "lost-release/wakeup+sanitizer",
    "lost-release/eager+sanitizer",
    "unbalanced-acquire/barrier+sanitizer",
    "srp-bit-flip/sanitizer",
)


@pytest.fixture(scope="module")
def sim_outcomes():
    """Simulator + cache layers only: fast, no worker processes."""
    return run_campaign(seed=2018, include_harness=False)


class TestSimAndCacheLayers:
    def test_nothing_escapes(self, sim_outcomes):
        escaped = [o for o in sim_outcomes if o.escaped]
        assert not escaped, campaign_table(sim_outcomes)

    def test_covers_sim_and_cache_scenarios(self, sim_outcomes):
        # 3 plain + 4 sanitized simulator + 3 cache-damage
        # + 1 cache-concurrency
        assert len(sim_outcomes) == 11
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
        # Armed, the sanitizer sees the lost release's SRP corruption
        # first; the unbalanced acquire stays the deadlock check's.
        assert detectors["lost-release/wakeup+sanitizer"] == "sanitizer"
        assert detectors["lost-release/eager+sanitizer"] == "sanitizer"
        assert (detectors["unbalanced-acquire/barrier+sanitizer"]
                == "deadlock-check")
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


class TestSanitizedScenarios:
    def test_all_sim_faults_detected(self, sim_outcomes):
        by_name = {o.scenario: o for o in sim_outcomes}
        for scenario in SANITIZED:
            outcome = by_name[scenario]
            assert outcome.detected, f"{scenario}: {outcome.detail}"
            assert outcome.detector, scenario

    def test_srp_corruptions_caught_by_sanitizer(self, sim_outcomes):
        by_name = {o.scenario: o for o in sim_outcomes}
        for scenario in (
            "lost-release/wakeup+sanitizer", "lost-release/eager+sanitizer",
            "srp-bit-flip/sanitizer",
        ):
            outcome = by_name[scenario]
            assert outcome.detector == "sanitizer", outcome.detail
            assert "cycle" in outcome.detail  # provenance made it through

    def test_self_consistent_fault_left_to_deadlock_detectors(
        self, sim_outcomes
    ):
        outcome = next(o for o in sim_outcomes
                       if o.scenario == "unbalanced-acquire/barrier+sanitizer")
        assert outcome.detector in ("deadlock-check", "watchdog")

    def test_detection_is_fast(self, sim_outcomes):
        """The sanitizer catches corruption within cycles of injection,
        not after a watchdog window."""
        for outcome in sim_outcomes:
            if outcome.detector == "sanitizer":
                assert outcome.cycles is not None and outcome.cycles < 1000


class TestProbeKernel:
    def test_probe_is_contract_clean(self):
        """The sanitizer's probe must be sanitizer-silent when healthy:
        no extended register touched outside the acquire region."""
        kernel = _probe_kernel(contract_clean=True)
        result = verify_regmutex_safety(kernel, kernel.metadata.base_set_size)
        assert result.ok, result.violations


class TestClassification:
    def test_sanitizer_error_classified_with_provenance(self):
        violation = SanitizerViolation(
            "structural-invariant", "boom", cycle=29, warp_id=3, pc=7
        )
        detector, detail = _classify(
            SanitizerError("sanitizer: boom", violations=(violation,))
        )
        assert detector == "sanitizer"
        assert "cycle 29" in detail and "warp 3" in detail

    def test_deadlock_classified(self):
        detector, _ = _classify(SimulationDeadlockError("SM 0 deadlocked"))
        assert detector == "deadlock-check"
        detector, _ = _classify(
            SimulationDeadlockError("watchdog: no progress")
        )
        assert detector == "watchdog"


@pytest.fixture(scope="module")
def full_outcomes():
    """Every layer, the harness's worker processes included."""
    return run_campaign(seed=2018, include_harness=True, workers=2)


class TestFullCampaign:
    def test_every_fault_caught_and_classified(self, full_outcomes):
        assert len(full_outcomes) == 14
        for outcome in full_outcomes:
            assert outcome.detected, f"{outcome.scenario}: {outcome.detail}"
            assert outcome.detector, outcome.scenario

    def test_harness_faults_absorbed_or_attributed(self, full_outcomes):
        outcomes = full_outcomes
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
        assert len(outcomes) == 16
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
