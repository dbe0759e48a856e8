"""Quantitative scheduler-behaviour tests: GTO greediness vs LRR fairness."""

import dataclasses

import pytest

from repro.arch.config import fermi_like
from repro.isa.builder import KernelBuilder
from repro.observe import ISSUE, SmObserver
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState


@pytest.fixture
def config():
    return fermi_like(
        name="sched-test", num_sms=1, max_warps_per_sm=8, max_ctas_per_sm=4,
        max_threads_per_sm=256, registers_per_sm=4096,
        dram_latency=60, l1_hit_latency=8, num_schedulers=1,
    )


def alu_kernel(n=30):
    """Pure ALU with no intra-warp dependence: any warp can always issue,
    isolating the scheduling policy itself."""
    b = KernelBuilder(regs_per_thread=6, threads_per_cta=128)  # 4 warps
    for r in range(6):
        b.ldc(r)
    for i in range(n):
        b.alu(i % 3, 3 + i % 3, 3 + (i + 1) % 3)
    b.store(0, 0)
    b.exit()
    return b.build()


def _issue_sequence(config, policy):
    cfg = dataclasses.replace(config, scheduler_policy=policy)
    kernel = alu_kernel()
    stats = SmStats()
    sm = StreamingMultiprocessor(
        sm_id=0, config=cfg, kernel=kernel,
        technique_state=SmTechniqueState(kernel, cfg, stats),
        ctas_resident_limit=1, total_ctas=1,
        rng=DeterministicRng(1), stats=stats,
    )
    obs = SmObserver().attach(sm)
    sm.run()
    return [e.warp_id for e in obs.log.of_kind(ISSUE)]


def _longest_run(seq):
    best = run = 1
    for a, b in zip(seq, seq[1:]):
        run = run + 1 if a == b else 1
        best = max(best, run)
    return best


class TestPolicies:
    def test_gto_produces_long_runs(self, config):
        """Greedy-then-oldest sticks with one warp until it stalls (here a
        WAW hazard every third ALU bounds runs), producing clearly longer
        same-warp issue runs than round-robin ever can."""
        gto = _issue_sequence(config, "gto")
        lrr = _issue_sequence(config, "lrr")
        assert _longest_run(gto) >= 4
        assert _longest_run(gto) > _longest_run(lrr)

    def test_lrr_rotates(self, config):
        """Loose round-robin never issues the same warp twice in a row
        when other warps are ready."""
        seq = _issue_sequence(config, "lrr")
        assert _longest_run(seq) <= 2

    def test_both_complete_all_work(self, config):
        gto = _issue_sequence(config, "gto")
        lrr = _issue_sequence(config, "lrr")
        assert len(gto) == len(lrr)
        # Per-warp totals identical: scheduling reorders, never drops.
        from collections import Counter
        assert Counter(gto) == Counter(lrr)
