"""Tests for the runtime extended-register safety check: the
sanitizer's ``extended-access`` violation on hand-built kernels, and a
clean run on well-formed and compiled ones."""

import dataclasses

import pytest

from repro.arch.config import fermi_like
from repro.errors import SanitizerError
from repro.isa.builder import KernelBuilder
from repro.regmutex.issue_logic import RegMutexSmState, RegMutexTechnique
from repro.sim.gpu import Gpu
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.workloads.suite import build_app_kernel, get_app


@pytest.fixture
def checked_config():
    return fermi_like(
        name="checked", num_sms=1, max_warps_per_sm=8, max_ctas_per_sm=4,
        max_threads_per_sm=256, registers_per_sm=4096,
        dram_latency=60, l1_hit_latency=8, sanitizer=True,
    )


def _run_raw(kernel, config, sections=2):
    """Run a hand-built (possibly miscompiled) kernel without the
    compiler pipeline, exactly as the hardware would see it."""
    stats = SmStats()
    state = RegMutexSmState(kernel, config, stats, num_sections=sections)
    sm = StreamingMultiprocessor(
        sm_id=0, config=config, kernel=kernel, technique_state=state,
        ctas_resident_limit=1, total_ctas=1,
        rng=DeterministicRng(1), stats=stats,
    )
    return sm.run()


def _assert_extended_access(excinfo, reg):
    violation = excinfo.value.violations[0]
    assert violation.check == "extended-access"
    assert f"R{reg} " in violation.message


class TestRuntimeSafety:
    def test_wellformed_kernel_passes(self, checked_config):
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
        for r in range(4):
            b.ldc(r)
        b.acquire()
        b.ldc(6)
        b.alu(0, 0, 6)
        b.release()
        b.store(0, 0)
        b.exit()
        kernel = b.build().with_metadata(
            base_set_size=6, extended_set_size=2, regs_per_thread=8
        )
        stats = _run_raw(kernel, checked_config)
        assert stats.cycles > 0

    def test_miscompiled_kernel_caught(self, checked_config):
        """An extended access outside any acquire region trips the check
        at issue time — the hardware contract, enforced dynamically."""
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
        b.ldc(0)
        b.ldc(6)          # extended index, no section held
        b.alu(0, 0, 6)
        b.exit()
        kernel = b.build().with_metadata(
            base_set_size=6, extended_set_size=2, regs_per_thread=8
        )
        with pytest.raises(SanitizerError, match="R6") as excinfo:
            _run_raw(kernel, checked_config)
        _assert_extended_access(excinfo, 6)

    def test_access_after_release_caught(self, checked_config):
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
        b.ldc(0)
        b.acquire()
        b.ldc(6)
        b.release()
        b.alu(0, 0, 6)    # stale extended access
        b.exit()
        kernel = b.build().with_metadata(
            base_set_size=6, extended_set_size=2, regs_per_thread=8
        )
        with pytest.raises(SanitizerError) as excinfo:
            _run_raw(kernel, checked_config)
        _assert_extended_access(excinfo, 6)

    def test_pipeline_output_runs_clean_under_checks(self, checked_config):
        """The full compiler pipeline's output must satisfy the dynamic
        contract too — static verifier and runtime checker agree."""
        # A small register-limited kernel on the tiny device.
        from repro.workloads.generator import (
            KernelShape, PressurePhase, generate_kernel,
        )
        kernel = generate_kernel(KernelShape(
            name="checked-app",
            phases=(
                PressurePhase(live_regs=10, length=25, mem_ratio=0.2),
                PressurePhase(live_regs=20, length=15, mem_ratio=0.03),
                PressurePhase(live_regs=10, length=20, mem_ratio=0.2),
            ),
            regs_per_thread=20,
            threads_per_cta=64,
            outer_trips=3,
            seed=5,
        ))
        # A register file large enough to leave SRP sections after packing
        # the base sets (the tiny default has zero leftover at |Bs|=16).
        config = dataclasses.replace(checked_config, registers_per_sm=6144)
        gpu = Gpu(config, RegMutexTechnique(extended_set_size=4))
        result = gpu.launch(kernel, grid_ctas=4)
        assert result.cycles > 0
        assert result.stats.total.acquire_successes > 0

    def test_checks_off_by_default(self):
        cfg = fermi_like()
        assert not cfg.sanitizer

    def test_regmutex_state_adds_no_issue_hook(self, checked_config):
        """RegMutex gates nothing at issue time beyond acquire/release:
        its SM binds neither a ``can_issue`` nor an ``on_issue`` call,
        only the wakeup drain."""
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=32)
        b.exit()
        kernel = b.build()
        stats = SmStats()
        sm = StreamingMultiprocessor(
            sm_id=0, config=checked_config, kernel=kernel,
            technique_state=RegMutexSmState(
                kernel, checked_config, stats, num_sections=2
            ),
            ctas_resident_limit=1, total_ctas=1,
            rng=DeterministicRng(1), stats=stats,
        )
        assert sm._hook_bindings() == (None, None, True)
