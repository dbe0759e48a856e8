"""Tests for the experiment runner (normalization + caching)."""

import pytest

from repro.arch.config import fermi_like
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.sim.technique import BaselineTechnique
from tests.conftest import looped_kernel, straightline_kernel


@pytest.fixture
def cfg():
    return fermi_like(
        name="runner-test", num_sms=2, max_warps_per_sm=8, max_ctas_per_sm=4,
        max_threads_per_sm=256, registers_per_sm=4096,
        dram_latency=60, l1_hit_latency=8,
    )


class TestRunRecord:
    def _record(self, cpc):
        return RunRecord(
            kernel_name="k", config_name="c", technique="t", cycles=100,
            ctas_total=10, ctas_per_sm_resident=2, cycles_per_cta=cpc,
            theoretical_occupancy=0.5, acquire_attempts=10,
            acquire_successes=8, release_count=8, instructions_issued=1000,
            stall_acquire=0, stall_memory=0,
        )

    def test_reduction_and_increase_are_inverse(self):
        base, fast = self._record(100.0), self._record(80.0)
        assert fast.reduction_vs(base) == pytest.approx(0.2)
        assert fast.increase_vs(base) == pytest.approx(-0.2)

    def test_acquire_success_rate(self):
        assert self._record(1).acquire_success_rate == 0.8


class TestExperimentRunner:
    def test_run_produces_record(self, cfg):
        runner = ExperimentRunner(target_ctas_per_sm=4)
        record = runner.run(straightline_kernel(), cfg, BaselineTechnique())
        assert record.cycles > 0
        assert record.cycles_per_cta > 0
        assert record.ctas_total % cfg.num_sms == 0

    def test_whole_waves(self, cfg):
        """Grid is a whole multiple of residency per SM — no tails."""
        runner = ExperimentRunner(target_ctas_per_sm=6)
        record = runner.run(looped_kernel(), cfg, BaselineTechnique())
        per_sm = record.ctas_total // cfg.num_sms
        assert per_sm % record.ctas_per_sm_resident == 0

    def test_memoization(self, cfg):
        runner = ExperimentRunner(target_ctas_per_sm=4)
        r1 = runner.run(straightline_kernel(), cfg, BaselineTechnique())
        r2 = runner.run(straightline_kernel(), cfg, BaselineTechnique())
        assert r1 is r2  # identical object: cache hit

    def test_distinct_kernels_not_conflated(self, cfg):
        runner = ExperimentRunner(target_ctas_per_sm=4)
        r1 = runner.run(straightline_kernel(4), cfg, BaselineTechnique())
        r2 = runner.run(straightline_kernel(12), cfg, BaselineTechnique())
        assert r1.instructions_issued != r2.instructions_issued

    def test_disk_cache_roundtrip(self, cfg, tmp_path):
        path = str(tmp_path / "cache.json")
        first = ExperimentRunner(target_ctas_per_sm=4, cache_path=path)
        r1 = first.run(straightline_kernel(), cfg, BaselineTechnique())
        first.flush()
        fresh = ExperimentRunner(target_ctas_per_sm=4, cache_path=path)
        r2 = fresh.run(straightline_kernel(), cfg, BaselineTechnique())
        assert r1 == r2
        assert fresh.cache_hits == 1  # served from disk, not re-simulated

    def test_flush_is_deferred_until_requested(self, cfg, tmp_path):
        import os
        path = str(tmp_path / "cache.json")
        runner = ExperimentRunner(target_ctas_per_sm=4, cache_path=path)
        runner.run(straightline_kernel(), cfg, BaselineTechnique())
        assert not os.path.exists(path)  # no write-per-run
        runner.flush()
        assert os.path.exists(path)

    def test_context_manager_flushes_on_exit(self, cfg, tmp_path):
        import os
        path = str(tmp_path / "cache.json")
        with ExperimentRunner(target_ctas_per_sm=4, cache_path=path) as r:
            r.run(straightline_kernel(), cfg, BaselineTechnique())
        assert os.path.exists(path)

    def test_corrupt_cache_tolerated(self, cfg, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        runner = ExperimentRunner(target_ctas_per_sm=4, cache_path=str(path))
        record = runner.run(straightline_kernel(), cfg, BaselineTechnique())
        assert record.cycles > 0

    def test_seed_in_cache_key(self, cfg):
        from tests.sim.test_gpu import memory_kernel
        a = ExperimentRunner(target_ctas_per_sm=4, seed=1).run(
            memory_kernel(), cfg, BaselineTechnique()
        )
        b = ExperimentRunner(target_ctas_per_sm=4, seed=2).run(
            memory_kernel(), cfg, BaselineTechnique()
        )
        assert a.cycles != b.cycles

    def test_regmutex_run_compacts_once(self, cfg, monkeypatch):
        """``run`` compiles the kernel for its occupancy and ``Gpu.launch``
        compiles the same kernel object again; the second compile reuses
        the first one's body instead of compacting again."""
        from repro.compiler import pipeline
        from repro.regmutex.issue_logic import RegMutexTechnique

        calls = []
        original = pipeline.compact_register_indices

        def counting(kernel, bs):
            calls.append(bs)
            return original(kernel, bs)

        monkeypatch.setattr(pipeline, "compact_register_indices", counting)
        record = ExperimentRunner(target_ctas_per_sm=4).run(
            straightline_kernel(n_alu=16, regs=16), cfg,
            RegMutexTechnique(extended_set_size=8),
        )
        assert record.acquire_attempts > 0
        assert calls == [8]


class TestCacheKeyStability:
    """Cache keys must depend on every config field and every declared
    technique parameter — and on nothing incidental (like dataclass
    repr formatting or attribute declaration order)."""

    def test_any_config_field_change_invalidates(self, cfg):
        import dataclasses
        runner = ExperimentRunner(target_ctas_per_sm=4)
        kernel = straightline_kernel()
        base_key = runner.key_for(kernel, cfg, BaselineTechnique())
        for field in ("num_sms", "max_warps_per_sm", "registers_per_sm",
                      "dram_latency"):
            bumped = dataclasses.replace(cfg, **{field: getattr(cfg, field) * 2})
            assert runner.key_for(kernel, bumped, BaselineTechnique()) != \
                base_key, field

    def test_technique_param_change_invalidates(self, cfg):
        from repro.regmutex.issue_logic import RegMutexTechnique
        runner = ExperimentRunner(target_ctas_per_sm=4)
        kernel = straightline_kernel()
        keys = {
            runner.key_for(kernel, cfg, RegMutexTechnique(extended_set_size=es))
            for es in (4, 6, 8)
        }
        assert len(keys) == 3
        assert runner.key_for(kernel, cfg, BaselineTechnique()) not in keys

    def test_key_is_deterministic_across_runners(self, cfg):
        kernel = straightline_kernel()
        a = ExperimentRunner(target_ctas_per_sm=4)
        b = ExperimentRunner(target_ctas_per_sm=4)
        assert a.key_for(kernel, cfg, BaselineTechnique()) == \
            b.key_for(kernel, cfg, BaselineTechnique())

    def test_hit_miss_counters(self, cfg):
        runner = ExperimentRunner(target_ctas_per_sm=4)
        runner.run(straightline_kernel(), cfg, BaselineTechnique())
        runner.run(straightline_kernel(), cfg, BaselineTechnique())
        assert runner.cache_misses == 1
        assert runner.cache_hits == 1

class TestCacheKeyHygiene:
    """Timing-neutral knobs — engine selection and the sanitizer
    family — must never perturb v6 fingerprints: flipping them on a
    cached experiment must hit the same record, not orphan it."""

    def test_neutral_fields_are_real_config_fields(self):
        import dataclasses

        from repro.arch.config import GpuConfig
        from repro.harness.runner import _TIMING_NEUTRAL_CONFIG_FIELDS

        names = {f.name for f in dataclasses.fields(GpuConfig)}
        assert _TIMING_NEUTRAL_CONFIG_FIELDS <= names

    def test_retired_fields_are_not_config_fields(self):
        """A retired name still on GpuConfig would be serialized twice,
        and the live value would silently win over the pinned one."""
        import dataclasses

        from repro.arch.config import GpuConfig
        from repro.harness.runner import _RETIRED_CONFIG_FIELDS

        names = {f.name for f in dataclasses.fields(GpuConfig)}
        assert not names & _RETIRED_CONFIG_FIELDS.keys()

    def test_golden_v6_key(self, cfg):
        """One fixed (kernel, config, technique) key, pinned at the hex
        digest computed before ``runtime_safety_checks``,
        ``debug_invariants``, ``model_bank_conflicts`` and
        ``register_file_banks`` left GpuConfig: removing a field must
        not move any v6 key."""
        from repro.harness.runner import CACHE_KEY_VERSION
        from repro.regmutex.issue_logic import RegMutexTechnique

        runner = ExperimentRunner(target_ctas_per_sm=4)
        key = runner.key_for(
            straightline_kernel(), cfg, RegMutexTechnique(extended_set_size=4)
        )
        assert CACHE_KEY_VERSION == "v6"
        assert key == (
            "e3894a02f2c7306ec696426ce660ac12a2b59b1c5c0d8e0c26a4b22e7af97122"
        )

    def test_engine_and_sanitizer_knobs_do_not_move_the_key(self, cfg):
        import dataclasses
        runner = ExperimentRunner(target_ctas_per_sm=4)
        kernel = straightline_kernel()
        base_key = runner.key_for(kernel, cfg, BaselineTechnique())
        for overrides in (
            {"issue_engine": "scan"},
            {"issue_engine": "columnar"},
            {"sanitizer": True},
            {"sanitizer_stride": 64},
            {"issue_engine": "columnar", "sanitizer": True,
             "sanitizer_stride": 7},
        ):
            flipped = dataclasses.replace(cfg, **overrides)
            assert runner.key_for(kernel, flipped, BaselineTechnique()) == \
                base_key, overrides

    @staticmethod
    def _scan_then_columnar(cfg):
        import dataclasses
        runner = ExperimentRunner(target_ctas_per_sm=4)
        kernel = straightline_kernel()
        runner.run(kernel, dataclasses.replace(cfg, issue_engine="scan"),
                   BaselineTechnique())
        runner.run(kernel, dataclasses.replace(cfg, issue_engine="columnar"),
                   BaselineTechnique())
        return runner

    def test_native_run_hits_scan_runs_cache(self, cfg):
        """A columnar run (the C loop where ``repro._native`` is built)
        lands on the same v6 entry a scan run populated — the engine is
        timing-neutral, not a different experiment."""
        runner = self._scan_then_columnar(cfg)
        assert runner.cache_misses == 1
        assert runner.cache_hits == 1


class TestCacheFormatContract:
    """The on-disk cache format must stay loadable across sessions: every
    RunRecord field is JSON-serializable and the loader tolerates extra
    or missing keys only by falling back to recomputation."""

    def test_record_is_json_round_trippable(self, cfg):
        import dataclasses, json
        runner = ExperimentRunner(target_ctas_per_sm=4)
        record = runner.run(straightline_kernel(), cfg, BaselineTechnique())
        blob = json.dumps(dataclasses.asdict(record))
        back = RunRecord(**json.loads(blob))
        assert back == record

    def test_stale_schema_triggers_recompute(self, cfg, tmp_path):
        import json
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"somekey": {"not": "a record"}}))
        runner = ExperimentRunner(target_ctas_per_sm=4, cache_path=str(path))
        record = runner.run(straightline_kernel(), cfg, BaselineTechnique())
        assert record.cycles > 0


class TestCacheKeyVersion:
    def test_version_pinned(self):
        """The oracle in repro.check proves checker/observer additions
        timing-neutral; the key only moves when semantics do.  A failure
        here means someone bumped it — make sure that was deliberate
        (it invalidates every cached run everywhere)."""
        from repro.harness.runner import CACHE_KEY_VERSION

        assert CACHE_KEY_VERSION == "v6"
