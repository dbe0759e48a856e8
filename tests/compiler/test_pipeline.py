"""Tests for the end-to-end RegMutex compilation pipeline."""

import dataclasses
import gc
import pickle
import weakref

import pytest

from repro.arch.config import GTX480, GTX480_HALF_RF
from repro.compiler import pipeline
from repro.compiler.compaction import CompactionError, verify_compact
from repro.compiler.pipeline import compilation_report, regmutex_compile
from repro.harness.experiments import ES_SWEEP
from repro.isa.instructions import Opcode
from repro.isa.kernel import Kernel
from repro.isa.parser import parse_kernel
from repro.isa.printer import format_kernel
from repro.liveness.liveness import analyze_liveness
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
        reports = []
        for _ in range(20):
            compiled = regmutex_compile(kernel, GTX480,
                                        forced_es=spec.expected_es)
            assert compilation_report(compiled) is not None
            reports.append(weakref.ref(compilation_report(compiled)))
            del compiled
            gc.collect()
        assert all(ref() is None for ref in reports)
        strangers = [kernel.with_metadata(name=f"k{i}") for i in range(200)]
        assert all(compilation_report(k) is None for k in strangers)

    def test_pickled_kernel_drops_the_memo(self):
        """A compiled kernel pickles to the same bytes as a copy that never
        held a memo, and comes back without a report."""
        spec = get_app("BFS")
        compiled = regmutex_compile(build_app_kernel(spec), GTX480,
                                    forced_es=spec.expected_es)
        analyze_liveness(compiled)
        assert compilation_report(compiled) is not None
        fresh = Kernel(compiled.instructions, compiled.metadata)
        blob = pickle.dumps(compiled)
        assert len(blob) == len(pickle.dumps(fresh))
        restored = pickle.loads(blob)
        assert restored == compiled
        assert compilation_report(restored) is None
        assert restored._memo == {}

    def test_memo_makes_no_reference_cycle(self):
        """Nothing in a kernel's memo points back at the kernel, so a
        compiled kernel and everything cached on it go as soon as the
        last reference does, without waiting for the cycle collector."""
        spec = get_app("BFS")
        compiled = regmutex_compile(build_app_kernel(spec), GTX480,
                                    forced_es=spec.expected_es)
        analyze_liveness(compiled)
        compiled.successor_table
        kernel_ref = weakref.ref(compiled)
        report_ref = weakref.ref(compilation_report(compiled))
        gc.disable()
        try:
            del compiled
            assert kernel_ref() is None and report_ref() is None
        finally:
            gc.enable()

    def test_sweep_analyses_its_input_once(self, monkeypatch):
        """Every compile of one parsed kernel reuses the kernel's memoized
        liveness: a full |Es| sweep on both register files analyses the
        input kernel exactly once."""
        from repro.liveness import liveness

        analysed = []
        original = liveness._analyze

        def counting(kernel, cfg):
            analysed.append(kernel)
            return original(kernel, cfg)

        monkeypatch.setattr(liveness, "_analyze", counting)
        kernel = parse_kernel(format_kernel(build_app_kernel(get_app("BFS"))))
        compiles = 0
        for config in (GTX480, GTX480_HALF_RF):
            for es in (None,) + ES_SWEEP:
                try:
                    regmutex_compile(kernel, config, forced_es=es)
                except CompactionError:
                    pass
                compiles += 1
        assert compiles == 14
        assert sum(k is kernel for k in analysed) == 1

    @staticmethod
    def _count_compactions(monkeypatch):
        calls = []
        original = pipeline.compact_register_indices

        def counting(kernel, bs):
            calls.append(bs)
            return original(kernel, bs)

        monkeypatch.setattr(pipeline, "compact_register_indices", counting)
        return calls

    def test_sweep_compacts_each_base_set_size_once(self, monkeypatch):
        """Regions, injection, compaction and the checks depend only on
        the kernel and |Bs|: a 14-compile sweep compacts once per
        distinct |Bs| that compiles, plus once per failing compile (a
        failure is never kept, so it runs again)."""
        calls = self._count_compactions(monkeypatch)
        kernel = parse_kernel(format_kernel(build_app_kernel(get_app("BFS"))))
        compiled_bs, failures = set(), 0
        for config in (GTX480, GTX480_HALF_RF):
            for es in (None,) + ES_SWEEP:
                try:
                    compiled = regmutex_compile(kernel, config, forced_es=es)
                except CompactionError:
                    failures += 1
                    continue
                if compilation_report(compiled).instrumented:
                    compiled_bs.add(compiled.metadata.base_set_size)
        assert failures and len(compiled_bs) > 1
        assert len(calls) == len(compiled_bs) + failures
        assert set(calls) >= compiled_bs

    def test_memoized_bodies_hold_no_analyses(self):
        """The input kernel keeps only each |Bs|'s instructions, regions
        and counts: no liveness, and no kernel that carries a memo of its
        own, so a sweep does not keep every intermediate analysis alive."""
        from repro.liveness.liveness import LivenessInfo

        kernel = parse_kernel(format_kernel(build_app_kernel(get_app("BFS"))))
        for config in (GTX480, GTX480_HALF_RF):
            for es in (None,) + ES_SWEEP:
                try:
                    regmutex_compile(kernel, config, forced_es=es)
                except CompactionError:
                    pass

        def held(value):
            if isinstance(value, (tuple, list)):
                for item in value:
                    yield from held(item)
            elif dataclasses.is_dataclass(value) and not isinstance(
                value, type
            ):
                yield value
                for f in dataclasses.fields(value):
                    yield from held(getattr(value, f.name))
            elif isinstance(value, Kernel):
                yield value

        bodies = kernel._memo["bodies"]
        assert len(bodies) > 1
        for body in bodies.values():
            for value in held(body):
                assert not isinstance(value, LivenessInfo)
                if isinstance(value, Kernel):
                    assert value._memo == {}

    def test_hits_return_their_own_kernel_and_report(self, monkeypatch):
        """Compiles that share a |Bs| share the body only: each returns a
        distinct kernel with its own metadata and report, equal to what a
        compile of a fresh copy of the input produces."""
        calls = self._count_compactions(monkeypatch)
        text = format_kernel(build_app_kernel(get_app("BFS")))
        kernel = parse_kernel(text)
        first = regmutex_compile(kernel, GTX480)
        hits = [regmutex_compile(kernel, config, forced_es=6)
                for config in (GTX480, GTX480_HALF_RF)]
        assert len(calls) == 1
        a, b = hits
        assert a is not b and a is not first
        assert a.metadata is not b.metadata
        assert a.metadata.base_set_size == b.metadata.base_set_size == 18
        assert a.instructions == b.instructions == first.instructions
        report_a, report_b = compilation_report(a), compilation_report(b)
        assert report_a is not report_b
        assert report_a.selection != report_b.selection
        assert report_a.regions == report_b.regions
        for config, hit in zip((GTX480, GTX480_HALF_RF), hits):
            fresh = regmutex_compile(parse_kernel(text), config, forced_es=6)
            assert hit == fresh
            assert compilation_report(hit) == compilation_report(fresh)

    def test_failing_base_set_size_raises_again_and_is_not_kept(
        self, monkeypatch
    ):
        calls = self._count_compactions(monkeypatch)
        kernel = parse_kernel(format_kernel(build_app_kernel(get_app("SAD"))))
        errors = []
        for _ in range(2):
            with pytest.raises(CompactionError) as info:
                regmutex_compile(kernel, GTX480, forced_es=4)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert calls == [28, 28]
        assert (28, True) not in kernel._memo.get("bodies", {})

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
