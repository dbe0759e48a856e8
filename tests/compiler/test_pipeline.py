"""Tests for the end-to-end RegMutex compilation pipeline."""

import gc

import pytest

from repro.arch.config import GTX480, GTX480_HALF_RF
from repro.compiler.compaction import verify_compact
from repro.compiler import pipeline
from repro.compiler.pipeline import compilation_report, regmutex_compile
from repro.isa.instructions import Opcode
from repro.workloads.suite import APPLICATIONS, build_app_kernel, get_app


class TestRegmutexCompile:
    def test_register_limited_app_instrumented(self):
        spec = get_app("BFS")
        kernel = build_app_kernel(spec)
        compiled = regmutex_compile(kernel, GTX480, forced_es=spec.expected_es)
        md = compiled.metadata
        assert md.uses_regmutex
        assert md.base_set_size == spec.expected_bs
        assert md.extended_set_size == spec.expected_es
        assert compiled.regmutex_instruction_count() > 0

    def test_report_attached(self):
        spec = get_app("BFS")
        kernel = build_app_kernel(spec)
        compiled = regmutex_compile(kernel, GTX480, forced_es=spec.expected_es)
        report = compilation_report(compiled)
        assert report is not None
        assert report.instrumented
        assert report.acquire_count >= 1
        assert report.overhead_instructions >= 2

    def test_report_lives_exactly_as_long_as_its_kernel(self):
        """Reports are tied to their kernel object: dropping the kernel
        drops the report, and a kernel the pipeline did not produce —
        even one that reuses a dropped kernel's id() — has none."""
        spec = get_app("BFS")
        kernel = build_app_kernel(spec)
        gc.collect()
        before = len(pipeline._reports)
        dropped_ids = set()
        for _ in range(20):
            compiled = regmutex_compile(kernel, GTX480,
                                        forced_es=spec.expected_es)
            assert compilation_report(compiled) is not None
            dropped_ids.add(id(compiled))
            del compiled
            gc.collect()
        assert len(pipeline._reports) <= before
        assert not dropped_ids & set(pipeline._reports)
        strangers = [kernel.with_metadata(name=f"k{i}") for i in range(200)]
        assert all(compilation_report(k) is None for k in strangers)

    def test_relaxed_app_untouched_on_full_rf(self):
        """Apps without register-limited occupancy get zero-size extended
        sets and no instrumentation (paper §IV)."""
        spec = get_app("Gaussian")
        kernel = build_app_kernel(spec)
        compiled = regmutex_compile(kernel, GTX480)
        assert not compiled.metadata.uses_regmutex
        assert compiled.regmutex_instruction_count() == 0
        report = compilation_report(compiled)
        assert not report.instrumented

    def test_relaxed_app_instrumented_on_half_rf(self):
        spec = get_app("Gaussian")
        kernel = build_app_kernel(spec)
        compiled = regmutex_compile(kernel, GTX480_HALF_RF)
        assert compiled.metadata.uses_regmutex

    def test_double_compilation_rejected(self):
        spec = get_app("BFS")
        kernel = build_app_kernel(spec)
        compiled = regmutex_compile(kernel, GTX480, forced_es=spec.expected_es)
        with pytest.raises(ValueError, match="already compiled"):
            regmutex_compile(compiled, GTX480)

    def test_compaction_verified_on_all_apps(self):
        for name, spec in APPLICATIONS.items():
            kernel = build_app_kernel(spec)
            config = GTX480 if spec.group == "occupancy-limited" else GTX480_HALF_RF
            compiled = regmutex_compile(kernel, config, forced_es=spec.expected_es)
            if compiled.metadata.uses_regmutex:
                verify_compact(compiled, compiled.metadata.base_set_size)

    def test_compaction_can_be_disabled(self):
        spec = get_app("BFS")
        kernel = build_app_kernel(spec)
        with_c = regmutex_compile(kernel, GTX480, forced_es=spec.expected_es)
        without_c = regmutex_compile(
            kernel, GTX480, forced_es=spec.expected_es, enable_compaction=False
        )
        assert len(without_c) <= len(with_c)

    def test_metadata_regs_rounded(self):
        spec = get_app("BFS")  # 21 regs -> 24 rounded
        compiled = regmutex_compile(
            build_app_kernel(spec), GTX480, forced_es=spec.expected_es
        )
        assert compiled.metadata.regs_per_thread == 24

    def test_scrambled_indices_still_compile(self):
        """Compaction stress: high-index long-lived values forced by the
        scramble knob must still produce a verified-compact kernel."""
        import dataclasses
        from repro.workloads.suite import _shape
        from repro.workloads.generator import generate_kernel

        spec = get_app("BFS")
        shape = dataclasses.replace(_shape(spec), scramble_indices=True)
        kernel = generate_kernel(shape)
        compiled = regmutex_compile(kernel, GTX480, forced_es=spec.expected_es)
        if compiled.metadata.uses_regmutex:
            verify_compact(compiled, compiled.metadata.base_set_size)
