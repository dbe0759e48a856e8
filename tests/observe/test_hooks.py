"""Observer hook tests against real simulator runs.

The two invariants the subsystem promises live here:

* **neutrality** — attaching an observer changes nothing about the
  simulation (bit-identical ``SmStats``);
* **stall consistency** — on either issue engine, the final probe
  sample's cumulative counters equal the run's ``SmStats`` exactly,
  stall category by category.
"""

from dataclasses import asdict, replace

import pytest

from repro.observe import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    CTA_LAUNCH,
    CTA_RETIRE,
    ISSUE,
    RELEASE,
    SECTION_ACQUIRE,
    SECTION_RELEASE,
    WARP_FINISH,
    SmObserver,
)


class TestEventEmission:
    def test_issue_events_cover_every_instruction(self, run_sm,
                                                  regmutex_kernel):
        obs, stats, _ = run_sm(regmutex_kernel())
        issues = obs.log.of_kind(ISSUE)
        assert len(issues) == 2 * 16  # 2 warps x 16 instructions
        assert len(issues) == stats.instructions_issued
        assert all(e.detail for e in issues)  # opcode label attached

    def test_acquire_release_and_finish(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel())
        assert len(obs.log.of_kind(ACQUIRE_OK)) == 2
        assert len(obs.log.of_kind(RELEASE)) == 2
        assert len(obs.log.of_kind(WARP_FINISH)) == 2
        assert not obs.log.of_kind(ACQUIRE_BLOCKED)  # 2 sections, 2 warps

    def test_contention_emits_blocked_events(self, run_sm, regmutex_kernel):
        obs, stats, _ = run_sm(regmutex_kernel(), sections=1)
        blocked = obs.log.of_kind(ACQUIRE_BLOCKED)
        assert blocked
        assert stats.acquire_attempts > stats.acquire_successes

    def test_cta_lifecycle_events(self, run_sm, regmutex_kernel):
        # The initial fill (2 resident CTAs) happens in the SM
        # constructor, before any observer exists; only replacement
        # launches are observable — every retire is.
        obs, _, _ = run_sm(regmutex_kernel(), total_ctas=3)
        launches = obs.log.of_kind(CTA_LAUNCH)
        assert [e.value for e in launches] == [2]
        assert len(obs.log.of_kind(CTA_RETIRE)) == 3

    def test_srp_section_transitions(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel())
        acquires = obs.log.of_kind(SECTION_ACQUIRE)
        releases = obs.log.of_kind(SECTION_RELEASE)
        assert len(acquires) == len(releases) == 2
        assert all(0 <= e.value < 2 for e in acquires)  # section index

    def test_events_cycle_ordered(self, run_sm, regmutex_kernel):
        obs, _, _ = run_sm(regmutex_kernel(), sections=1, total_ctas=2)
        cycles = [e.cycle for e in obs.log]
        assert cycles == sorted(cycles)


class TestStallConsistency:
    def test_final_sample_matches_sm_stats(self, run_sm, regmutex_kernel,
                                           config):
        """The probes' cumulative counters, sampled on the run's last
        cycle, reconstruct the SmStats issue and stall breakdown
        exactly on both issue engines."""
        fields = ("instructions_issued", "idle_scheduler_cycles",
                  "stall_memory", "stall_scoreboard", "stall_barrier",
                  "stall_acquire")
        for engine in ("scan", "columnar"):
            obs, stats, sm = run_sm(
                regmutex_kernel(), sections=1, total_ctas=4,
                config=replace(config, issue_engine=engine),
            )
            samples = obs.samples
            assert samples.cycle[-1] == sm.cycle == stats.cycles
            for name in fields:
                assert getattr(samples, name)[-1] == getattr(stats, name), (
                    engine, name,
                )
            # The workload is contended enough to make the test
            # non-vacuous.
            assert stats.stall_memory > 0
            assert stats.stall_acquire > 0


class TestNeutrality:
    def test_observed_run_is_bit_identical(self, run_sm, regmutex_kernel):
        _, plain, plain_sm = run_sm(regmutex_kernel(), sections=1,
                                    total_ctas=4, observe=False)
        obs, observed, observed_sm = run_sm(regmutex_kernel(), sections=1,
                                            total_ctas=4)
        assert observed_sm.cycle == plain_sm.cycle
        assert asdict(observed) == asdict(plain)
        assert len(obs.log) > 0  # the observer actually observed


class TestObserverLifecycle:
    def test_attach_twice_rejected(self, run_sm, regmutex_kernel,
                                   config):
        from repro.regmutex.issue_logic import RegMutexSmState
        from repro.sim.rand import DeterministicRng
        from repro.sim.sm import StreamingMultiprocessor
        from repro.sim.stats import SmStats

        kernel = regmutex_kernel()
        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel,
            technique_state=RegMutexSmState(kernel, config, stats,
                                            num_sections=2),
            ctas_resident_limit=2, total_ctas=1,
            rng=DeterministicRng(1), stats=stats,
        )
        SmObserver().attach(sm)
        with pytest.raises(ValueError, match="already has an observer"):
            SmObserver().attach(sm)

    def test_final_sample_lands_on_last_cycle(self, run_sm,
                                              regmutex_kernel):
        obs, _, sm = run_sm(regmutex_kernel(), stride=1000)
        assert obs.samples.cycle[-1] == sm.cycle


class TestDelegation:
    def test_wrapper_preserves_technique_behaviour(self, run_sm,
                                                   regmutex_kernel):
        obs, stats, sm = run_sm(regmutex_kernel())
        # The observed SM's installed state is the wrapper; its queries
        # answer from the wrapped RegMutex state.
        assert sm.technique.srp_view() == sm.technique.inner.srp_view()
        assert sm.technique.debug_snapshot() == \
            sm.technique.inner.debug_snapshot()
