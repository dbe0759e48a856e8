"""The PR-2 fault campaign re-run with the sanitizer armed.

Every simulator-layer fault must now be caught by a *typed* detector
with provenance: the SRP corruptions by the sanitizer's structural
check (previously they needed ``debug_invariants`` or had to grind into
the deadlock detectors), the schedule-level unbalanced acquire by the
deadlock machinery (its structures stay self-consistent — correctly
not the sanitizer's catch).
"""

import pytest

from repro.check.adversarial import run_adversarial_campaign
from repro.compiler.verification import verify_regmutex_safety
from repro.errors import (
    InvariantViolationError,
    SanitizerError,
    SimulationDeadlockError,
)
from repro.check.sanitizer import SanitizerViolation
from repro.faults.campaign import _classify, _probe_kernel, _sim_scenarios


class TestProbeKernel:
    def test_probe_is_contract_clean(self):
        """The adversarial probe must be sanitizer-silent when healthy:
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

    def test_invariant_error_classified(self):
        detector, _ = _classify(InvariantViolationError("cycle 5: bad"))
        assert detector == "invariant-checker"

    def test_deadlock_classified(self):
        detector, _ = _classify(SimulationDeadlockError("SM 0 deadlocked"))
        assert detector == "deadlock-check"
        detector, _ = _classify(
            SimulationDeadlockError("watchdog: no progress")
        )
        assert detector == "watchdog"


class TestSanitizedScenarios:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return _sim_scenarios(seed=2018, sanitizer=True)

    def test_all_sim_faults_detected(self, outcomes):
        assert len(outcomes) == 4
        for outcome in outcomes:
            assert outcome.detected, f"{outcome.scenario}: {outcome.detail}"
            assert outcome.detector, outcome.scenario

    def test_srp_corruptions_caught_by_sanitizer(self, outcomes):
        by_name = {o.scenario: o for o in outcomes}
        for scenario in (
            "lost-release/wakeup", "lost-release/eager",
            "srp-bit-flip/sanitizer",
        ):
            outcome = by_name[scenario]
            assert outcome.detector == "sanitizer", outcome.detail
            assert "cycle" in outcome.detail  # provenance made it through

    def test_self_consistent_fault_left_to_deadlock_detectors(self, outcomes):
        outcome = next(
            o for o in outcomes if o.scenario == "unbalanced-acquire/barrier"
        )
        assert outcome.detector in ("deadlock-check", "watchdog")

    def test_detection_is_fast(self, outcomes):
        """The sanitizer catches corruption within cycles of injection,
        not after a watchdog window."""
        for outcome in outcomes:
            if outcome.detector == "sanitizer":
                assert outcome.cycles is not None and outcome.cycles < 1000


class TestFullCampaign:
    def test_ten_of_ten_caught_and_classified(self):
        outcomes = run_adversarial_campaign(seed=2018, workers=2)
        assert len(outcomes) == 10
        for outcome in outcomes:
            assert outcome.detected, f"{outcome.scenario}: {outcome.detail}"
            assert outcome.detector, outcome.scenario
