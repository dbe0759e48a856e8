"""Tests for the cycle trace of an SM run, as ``SmObserver`` records it.

The trace is the observer's ``EventLog``: every issue, SRP acquire /
release / block and warp finish of one RegMutex SM run, in cycle
order, with the per-warp hold intervals reconstructed from it.
"""

import pytest

from repro.arch.config import fermi_like
from repro.isa.builder import KernelBuilder
from repro.observe import (
    ACQUIRE_BLOCKED,
    ACQUIRE_OK,
    ISSUE,
    RELEASE,
    WARP_FINISH,
    SmObserver,
)
from repro.regmutex.issue_logic import RegMutexSmState
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats


@pytest.fixture
def config():
    return fermi_like(
        name="trace-test", num_sms=1, max_warps_per_sm=8, max_ctas_per_sm=4,
        max_threads_per_sm=256, registers_per_sm=4096,
        dram_latency=60, l1_hit_latency=8,
    )


def _regmutex_kernel():
    b = KernelBuilder(regs_per_thread=8, threads_per_cta=64)
    for r in range(4):
        b.ldc(r)
    b.acquire()
    for r in range(4, 8):
        b.ldc(r)
    for r in range(4, 8):
        b.alu(0, 0, r)
    b.release()
    b.store(0, 0)
    b.exit()
    return b.build()


def _run_traced(config, kernel, sections=2, total_ctas=1):
    stats = SmStats()
    state = RegMutexSmState(kernel, config, stats, num_sections=sections)
    sm = StreamingMultiprocessor(
        sm_id=0, config=config, kernel=kernel, technique_state=state,
        ctas_resident_limit=2, total_ctas=total_ctas,
        rng=DeterministicRng(1), stats=stats,
    )
    obs = SmObserver()
    obs.attach(sm)
    sm.run()
    return obs.log


class TestTrace:
    def test_issue_events_recorded(self, config):
        trace = _run_traced(config, _regmutex_kernel())
        issues = trace.of_kind(ISSUE)
        # 2 warps x 16 instructions.
        assert len(issues) == 2 * 16

    def test_acquire_release_pairing(self, config):
        trace = _run_traced(config, _regmutex_kernel())
        assert len(trace.of_kind(ACQUIRE_OK)) == 2
        assert len(trace.of_kind(RELEASE)) == 2
        assert not trace.of_kind(ACQUIRE_BLOCKED)  # 2 sections, 2 warps

    def test_contention_visible(self, config):
        trace = _run_traced(config, _regmutex_kernel(), sections=1)
        assert trace.of_kind(ACQUIRE_BLOCKED)

    def test_hold_intervals_well_formed(self, config):
        trace = _run_traced(config, _regmutex_kernel(), sections=1)
        for warp_id in (0, 1):
            intervals = trace.hold_intervals(warp_id)
            assert intervals
            for start, end in intervals:
                assert start <= end

    def test_holds_serialized_under_one_section(self, config):
        """With a single section, the two warps' hold intervals must not
        overlap — the mutual-exclusion property, observed end to end."""
        trace = _run_traced(config, _regmutex_kernel(), sections=1)
        (a_start, a_end), = trace.hold_intervals(0)
        (b_start, b_end), = trace.hold_intervals(1)
        assert a_end <= b_start or b_end <= a_start

    def test_warp_finish_events(self, config):
        trace = _run_traced(config, _regmutex_kernel())
        assert len(trace.of_kind(WARP_FINISH)) == 2

    def test_events_cycle_ordered(self, config):
        trace = _run_traced(config, _regmutex_kernel())
        cycles = [e.cycle for e in trace.events]
        assert cycles == sorted(cycles)

    def test_for_warp_filters(self, config):
        trace = _run_traced(config, _regmutex_kernel())
        events = trace.for_warp(0)
        assert events
        assert all(e.warp_id == 0 for e in events)

    def test_unreleased_hold_closes_at_finish(self, config):
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
        b.ldc(0)
        b.acquire()
        b.ldc(5)
        b.alu(0, 5)
        b.exit()  # EXIT reclaims the section
        trace = _run_traced(config, b.build())
        intervals = trace.hold_intervals(0)
        assert len(intervals) == 1
        finish = trace.of_kind(WARP_FINISH)[0]
        assert intervals[0][1] == finish.cycle
