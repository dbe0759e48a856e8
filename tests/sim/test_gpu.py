"""Tests for the whole-device launcher."""


import pytest

from repro.arch.config import fermi_like
from repro.sim.gpu import Gpu, simulate_kernel
from repro.sim.technique import BaselineTechnique
from tests.conftest import looped_kernel, straightline_kernel


def memory_kernel(n=10):
    from repro.isa.builder import KernelBuilder
    b = KernelBuilder(regs_per_thread=3, threads_per_cta=64)
    b.ldc(0)
    for _ in range(n):
        b.load(1, 0)
        b.alu(0, 1, 0)
    b.store(0, 0)
    b.exit()
    return b.build()


@pytest.fixture
def small_gpu_config():
    return fermi_like(
        name="small",
        num_sms=3,
        max_warps_per_sm=8,
        max_ctas_per_sm=4,
        max_threads_per_sm=256,
        registers_per_sm=4096,
        dram_latency=60,
        l1_hit_latency=8,
    )


class TestGpuLaunch:
    def test_basic_launch(self, small_gpu_config):
        gpu = Gpu(small_gpu_config)
        result = gpu.launch(straightline_kernel(), grid_ctas=6)
        assert result.cycles > 0
        assert result.stats.technique == "baseline"
        assert len(result.stats.per_sm) == 3

    def test_zero_grid_rejected(self, small_gpu_config):
        with pytest.raises(ValueError):
            Gpu(small_gpu_config).launch(straightline_kernel(), grid_ctas=0)

    def test_unfittable_kernel_rejected(self, small_gpu_config):
        from repro.isa.builder import KernelBuilder
        b = KernelBuilder(regs_per_thread=63, threads_per_cta=256)
        b.ldc(0).exit()
        with pytest.raises(RuntimeError, match="does not fit"):
            Gpu(small_gpu_config).launch(b.build(), grid_ctas=3)

    def test_kernel_time_is_slowest_sm(self, small_gpu_config):
        gpu = Gpu(small_gpu_config)
        result = gpu.launch(looped_kernel(), grid_ctas=7)  # uneven split
        assert result.cycles == max(s.cycles for s in result.stats.per_sm)

    def test_equal_cta_counts_share_simulation(self, small_gpu_config):
        """SMs with equal CTA counts are bit-identical (memoized)."""
        gpu = Gpu(small_gpu_config)
        result = gpu.launch(looped_kernel(), grid_ctas=6)  # 2 CTAs per SM
        cycles = {s.cycles for s in result.stats.per_sm}
        assert len(cycles) == 1

    def test_deterministic_across_gpu_instances(self, small_gpu_config):
        r1 = Gpu(small_gpu_config, seed=5).launch(looped_kernel(), grid_ctas=6)
        r2 = Gpu(small_gpu_config, seed=5).launch(looped_kernel(), grid_ctas=6)
        assert r1.cycles == r2.cycles

    def test_seed_changes_timing(self, small_gpu_config):
        # Needs a memory-bound kernel: L1 hit/miss draws are the only
        # seed-dependent timing source.
        r1 = Gpu(small_gpu_config, seed=5).launch(memory_kernel(), grid_ctas=6)
        r2 = Gpu(small_gpu_config, seed=6).launch(memory_kernel(), grid_ctas=6)
        # L1 hit/miss draws differ; cycle counts should too (not guaranteed
        # in principle, but overwhelmingly likely for this workload).
        assert r1.cycles != r2.cycles

    def test_total_work_conserved(self, small_gpu_config):
        """Every CTA's warps execute; total instructions scale with grid."""
        kernel = straightline_kernel()
        warps_per_cta = (kernel.metadata.threads_per_cta + 31) // 32
        gpu = Gpu(small_gpu_config)
        result = gpu.launch(kernel, grid_ctas=6)
        assert result.stats.total.instructions_issued == (
            len(kernel) * warps_per_cta * 6
        )


class TestSimulateKernel:
    def test_default_grid_four_waves(self, small_gpu_config):
        kernel = straightline_kernel()
        result = simulate_kernel(kernel, small_gpu_config)
        from repro.arch.occupancy import theoretical_occupancy
        occ = theoretical_occupancy(small_gpu_config, kernel.metadata)
        expected = max(1, occ.ctas_per_sm) * small_gpu_config.num_sms * 4
        assert result.stats.total.ctas_launched == expected
