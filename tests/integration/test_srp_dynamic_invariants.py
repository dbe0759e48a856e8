"""Dynamic SRP invariants observed through the event log on a real
compiled application kernel: concurrent holders never exceed the section
count, and every acquire-release pairing is consistent per warp."""

import pytest

from repro.arch.config import fermi_like
from repro.observe import ACQUIRE_BLOCKED, ACQUIRE_OK, RELEASE, SmObserver
from repro.regmutex.issue_logic import RegMutexSmState, RegMutexTechnique
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.workloads.suite import build_app_kernel, get_app


@pytest.fixture(scope="module")
def traced_sad_run():
    """One SM of SAD (Table I's most section-starved app), observed."""
    config = fermi_like(num_sms=1)
    spec = get_app("SAD")
    technique = RegMutexTechnique(extended_set_size=spec.expected_es)
    compiled = technique.prepare_kernel(build_app_kernel(spec), config)
    occ = technique.occupancy(compiled, config)
    sections = technique.num_sections(compiled, config)
    stats = SmStats()
    state = RegMutexSmState(compiled, config, stats, num_sections=sections)
    sm = StreamingMultiprocessor(
        sm_id=0, config=config, kernel=compiled, technique_state=state,
        ctas_resident_limit=occ.ctas_per_sm, total_ctas=occ.ctas_per_sm,
        rng=DeterministicRng(11), stats=stats,
    )
    obs = SmObserver().attach(sm)
    sm.run()
    return obs.log, stats, sections


class TestDynamicSrpInvariants:
    def test_concurrent_holders_never_exceed_sections(self, traced_sad_run):
        trace, _, sections = traced_sad_run
        holding = 0
        peak = 0
        for event in trace.events:
            if event.kind == ACQUIRE_OK:
                holding += 1
            elif event.kind == RELEASE:
                holding -= 1
            assert holding >= 0
            peak = max(peak, holding)
        assert peak <= sections
        # The pool actually saturates on SAD (that is the contention
        # story); a peak below capacity would mean the trace lies.
        assert peak == sections

    def test_per_warp_alternation(self, traced_sad_run):
        """Each warp's event stream alternates acquire_ok / release."""
        trace, _, _ = traced_sad_run
        warp_ids = trace.warp_ids()
        for wid in warp_ids:
            state = "released"
            for e in trace.for_warp(wid):
                if e.kind == ACQUIRE_OK:
                    assert state == "released", (wid, e)
                    state = "held"
                elif e.kind == RELEASE:
                    assert state == "held", (wid, e)
                    state = "released"

    def test_stats_agree_with_trace(self, traced_sad_run):
        trace, stats, _ = traced_sad_run
        assert stats.acquire_successes == len(trace.of_kind(ACQUIRE_OK))
        assert stats.release_count == len(trace.of_kind(RELEASE))

    def test_blocked_acquires_present_under_contention(self, traced_sad_run):
        trace, stats, _ = traced_sad_run
        assert trace.of_kind(ACQUIRE_BLOCKED)
        assert stats.acquire_success_rate < 0.9
