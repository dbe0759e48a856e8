"""End-to-end integration tests: compile + simulate on a small device.

These run the full stack (generator -> liveness -> |Es| selection ->
injection -> compaction -> cycle-level simulation with SRP arbitration)
on a shrunken GPU so they stay fast, and assert the paper's headline
behaviours qualitatively.
"""

import pytest

from repro.arch.config import fermi_like
from repro.baselines.owf import OwfTechnique
from repro.baselines.rfv import RfvTechnique
from repro.harness.runner import ExperimentRunner
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.regmutex.paired import PairedWarpsTechnique
from repro.sim.technique import BaselineTechnique
from repro.workloads.generator import KernelShape, PressurePhase, generate_kernel


@pytest.fixture(scope="module")
def config():
    """A quarter-scale Fermi: 2 SMs, 16 warp slots, 8K registers."""
    return fermi_like(
        name="mini-fermi",
        num_sms=2,
        max_warps_per_sm=16,
        max_ctas_per_sm=8,
        max_threads_per_sm=512,
        registers_per_sm=8 * 1024,
        shared_mem_per_sm=16 * 1024,
        dram_latency=200,
        l1_hit_latency=20,
    )


@pytest.fixture(scope="module")
def limited_kernel():
    """Register-limited on the mini device: 24 regs x 128 threads.

    8K regs / (24 x 128) = 2 CTAs = 8 warps of 16 slots; relaxing the
    registers would allow 4 CTAs, so occupancy is register-limited.
    """
    return generate_kernel(KernelShape(
        name="mini-limited",
        phases=(
            PressurePhase(live_regs=12, length=40, mem_ratio=0.3),
            PressurePhase(live_regs=24, length=25, mem_ratio=0.04),
            PressurePhase(live_regs=12, length=35, mem_ratio=0.3),
        ),
        regs_per_thread=24,
        threads_per_cta=128,
        outer_trips=4,
        seed=99,
    ))


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(target_ctas_per_sm=8)


class TestRegMutexEndToEnd:
    def test_occupancy_boost_speeds_up(self, config, limited_kernel, runner):
        base = runner.run(limited_kernel, config, BaselineTechnique())
        rm = runner.run(
            limited_kernel, config, RegMutexTechnique(extended_set_size=6)
        )
        assert rm.theoretical_occupancy > base.theoretical_occupancy
        assert rm.reduction_vs(base) > 0.03

    def test_acquires_and_releases_balance(self, config, limited_kernel, runner):
        rm = runner.run(
            limited_kernel, config, RegMutexTechnique(extended_set_size=6)
        )
        assert rm.acquire_successes == rm.release_count
        assert rm.acquire_successes > 0

    def test_paired_mode_runs_and_trails_default(
        self, config, limited_kernel, runner
    ):
        base = runner.run(limited_kernel, config, BaselineTechnique())
        rm = runner.run(
            limited_kernel, config, RegMutexTechnique(extended_set_size=6)
        )
        paired = runner.run(
            limited_kernel, config, PairedWarpsTechnique(extended_set_size=6)
        )
        assert paired.theoretical_occupancy <= rm.theoretical_occupancy
        assert paired.reduction_vs(base) <= rm.reduction_vs(base) + 0.02

    def test_owf_runs_without_deadlock(self, config, limited_kernel, runner):
        owf = runner.run(limited_kernel, config, OwfTechnique())
        assert owf.cycles > 0

    def test_rfv_runs_and_boosts_occupancy(self, config, limited_kernel, runner):
        base = runner.run(limited_kernel, config, BaselineTechnique())
        rfv = runner.run(limited_kernel, config, RfvTechnique())
        assert rfv.theoretical_occupancy >= base.theoretical_occupancy

    def test_eager_retry_policy_completes(self, config, limited_kernel, runner):
        eager = runner.run(
            limited_kernel, config,
            RegMutexTechnique(extended_set_size=6, retry_policy="eager"),
        )
        assert eager.cycles > 0

    def test_compaction_off_still_correct(self, config, limited_kernel, runner):
        """Without compaction the kernel still runs: values stranded in
        extended indices keep their section held longer (the acquire
        region effectively widens), but execution must complete."""
        rm = runner.run(
            limited_kernel, config,
            RegMutexTechnique(extended_set_size=6, enable_compaction=False),
        )
        assert rm.cycles > 0


class TestHalfRegisterFileEndToEnd:
    def test_regmutex_recovers_slowdown(self, config, runner):
        """A kernel that is comfortable on the full file but limited on
        half of it: RegMutex recovers most of the loss."""
        kernel = generate_kernel(KernelShape(
            name="mini-relaxed",
            phases=(
                PressurePhase(live_regs=8, length=40, mem_ratio=0.3),
                PressurePhase(live_regs=16, length=20, mem_ratio=0.04),
                PressurePhase(live_regs=8, length=30, mem_ratio=0.3),
            ),
            regs_per_thread=16,
            threads_per_cta=128,
            outer_trips=4,
            seed=77,
        ))
        half = config.with_half_register_file()
        full = runner.run(kernel, config, BaselineTechnique())
        bare = runner.run(kernel, half, BaselineTechnique())
        rm = runner.run(kernel, half, RegMutexTechnique(extended_set_size=4))
        assert bare.increase_vs(full) > 0.02
        assert rm.increase_vs(full) < bare.increase_vs(full)


class TestFaultInjection:
    def test_unpaired_release_is_harmless(self, config, runner):
        """A kernel with a stray RELEASE (no prior acquire) must execute
        normally — the no-nesting rule makes it a no-op."""
        from repro.isa.builder import KernelBuilder
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=64)
        for r in range(8):
            b.ldc(r)
        b.release()      # stray
        for i in range(10):
            b.alu(i % 8, (i + 1) % 8, (i + 2) % 8)
        b.store(0, 0)
        b.exit()
        kernel = b.build().with_metadata(
            base_set_size=6, extended_set_size=2, regs_per_thread=8
        )
        from repro.sim.gpu import Gpu
        tech = RegMutexTechnique(extended_set_size=2)
        # Bypass prepare_kernel: inject the faulty kernel directly.
        gpu = Gpu(config, BaselineTechnique())
        result = gpu.launch(b.build(), grid_ctas=2)
        assert result.cycles > 0

    def test_warp_exiting_inside_region_releases_section(self, config):
        """EXIT while holding a section must reclaim it (no SRP leak)."""
        from repro.isa.builder import KernelBuilder
        from repro.regmutex.issue_logic import RegMutexSmState
        from repro.sim.sm import StreamingMultiprocessor
        from repro.sim.stats import SmStats
        from repro.sim.rand import DeterministicRng

        b = KernelBuilder(regs_per_thread=8, threads_per_cta=64)
        b.ldc(0)
        b.acquire()
        b.alu(1, 0)
        b.exit()                      # never releases explicitly
        kernel = b.build()
        stats = SmStats()
        state = RegMutexSmState(kernel, config, stats, num_sections=1)
        sm = StreamingMultiprocessor(
            sm_id=0, config=config, kernel=kernel, technique_state=state,
            ctas_resident_limit=2, total_ctas=4,
            rng=DeterministicRng(3), stats=stats,
        )
        sm.run()
        # All 4 CTAs x 2 warps acquired the single section in turn.
        assert stats.acquire_successes == 8
        assert state.srp.sections_free == 1
