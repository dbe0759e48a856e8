"""Shared fixtures for the observability suite.

Everything here runs on the tiny one-SM config so the whole suite stays
in the sub-second range; the RegMutex kernel exercises acquire/release
(and therefore the SRP section tracks) end to end.
"""

from __future__ import annotations

import pytest

from repro.arch.config import fermi_like
from repro.isa.builder import KernelBuilder
from repro.observe import SmObserver
from repro.regmutex.issue_logic import RegMutexSmState
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats


@pytest.fixture
def config():
    return fermi_like(
        name="observe-test", num_sms=1, max_warps_per_sm=8,
        max_ctas_per_sm=4, max_threads_per_sm=256, registers_per_sm=4096,
        dram_latency=60, l1_hit_latency=8,
    )


def _build_regmutex_kernel():
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


@pytest.fixture
def regmutex_kernel():
    """Factory: a fresh 16-instruction acquire/release kernel per call."""
    return _build_regmutex_kernel


@pytest.fixture
def run_sm(config):
    """Factory: run one SM on a RegMutex state, optionally observed.

    Returns ``(observer_or_None, stats, sm)``.  Build parameters default
    to the trace-test shape (2 resident warps, 2 sections) so acquire
    succeeds immediately; pass ``sections=1`` / ``total_ctas>1`` to
    create contention and stalls, and ``config`` to run another config
    (another issue engine, say).
    """

    def _run(kernel, sections=2, total_ctas=1, resident=2, seed=1,
             observe=True, stride=8, config=config):
        stats = SmStats()
        state = RegMutexSmState(kernel, config, stats,
                                num_sections=sections)
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel, technique_state=state,
            ctas_resident_limit=resident, total_ctas=total_ctas,
            rng=DeterministicRng(seed), stats=stats,
        )
        obs = None
        if observe:
            obs = SmObserver(stride=stride).attach(sm)
        sm.run()
        return obs, stats, sm

    return _run
