"""Perf-artifact tests: schema, sanitization, and the disk round trip."""

import json

import pytest

from repro.harness.telemetry import (
    MODE_CACHED,
    MODE_INLINE,
    MODE_POOL,
    SessionTelemetry,
)
from repro.observe import (
    artifact_filename,
    perf_artifact,
    write_perf_artifact,
)


def _session():
    t = SessionTelemetry(workers=2)
    t.record("fig7/BFS/regmutex", 2.0, MODE_POOL, cycles=1_000_000)
    t.record("fig7/BFS/baseline", 0.0, MODE_CACHED, cycles=500_000)
    t.record("fig7/SAD/regmutex", 1.0, MODE_INLINE, failed=True,
             failure_kind="deadlock", attempts=2)
    t.wall_seconds = 3.0
    return t


class TestArtifactFilename:
    def test_plain_label(self):
        assert artifact_filename("nightly") == "BENCH_nightly.json"

    def test_hostile_characters_sanitized(self):
        assert artifact_filename("a b/c:d") == "BENCH_a-b-c-d.json"

    def test_empty_label_falls_back(self):
        assert artifact_filename("///") == "BENCH_run.json"


class TestPerfArtifact:
    def test_schema_and_totals(self):
        a = perf_artifact("unit", _session())
        assert a["schema"] == 1
        assert a["label"] == "unit"
        assert a["workers"] == 2
        assert a["totals"]["jobs"] == 3
        assert a["totals"]["failures"] == 1
        # Cached cycles cost no simulation time, so they must not sit
        # in the throughput numerator: totals.cycles is computed-only,
        # cached work is reported in its own field.
        assert a["totals"]["cycles"] == 1_000_000
        assert a["totals"]["cached_cycles"] == 500_000
        assert a["totals"]["sim_seconds"] == pytest.approx(3.0)
        assert a["totals"]["cycles_per_sec"] == pytest.approx(
            1_000_000 / 3.0, rel=1e-3)
        assert a["cache"] == {"hits": 1, "misses": 2,
                              "hit_rate": pytest.approx(1 / 3, abs=1e-4)}
        assert a["failure_kinds"] == {"deadlock": 1}

    def test_mixed_session_throughput_excludes_cached(self):
        # Regression: a partially-cached session used to count cached
        # cycles in the numerator while sim_seconds excluded their
        # (zero) time, inflating cycles_per_sec by the cache hit rate.
        t = SessionTelemetry(workers=1)
        t.record("a", 2.0, MODE_POOL, cycles=800_000)
        t.record("b", 0.0, MODE_CACHED, cycles=10_000_000_000)
        a = perf_artifact("mixed", t)
        assert a["totals"]["cycles_per_sec"] == pytest.approx(400_000.0)

    def test_all_cached_session_has_no_throughput(self):
        t = SessionTelemetry(workers=1)
        t.record("a", 0.0, MODE_CACHED, cycles=500_000)
        a = perf_artifact("warm", t)
        assert a["totals"]["cycles"] == 0
        assert a["totals"]["cached_cycles"] == 500_000
        assert a["totals"]["cycles_per_sec"] is None

    def test_figures_embedded_when_given(self):
        figs = {"fig7": {"mean_cycle_reduction": 0.131, "apps": 8.0}}
        a = perf_artifact("unit", _session(), figures=figs)
        assert a["figures"] == figs
        assert "figures" not in perf_artifact("unit", _session())

    def test_per_job_rows(self):
        jobs = {j["label"]: j for j in perf_artifact("unit", _session())["jobs"]}
        simulated = jobs["fig7/BFS/regmutex"]
        assert simulated["cycles_per_sec"] == pytest.approx(500_000.0)
        assert simulated["mode"] == MODE_POOL
        cached = jobs["fig7/BFS/baseline"]
        assert cached["cycles_per_sec"] is None  # no time was spent
        failed = jobs["fig7/SAD/regmutex"]
        assert failed["failed"] and failed["failure_kind"] == "deadlock"
        assert failed["attempts"] == 2

    def test_write_load_round_trip(self, tmp_path):
        path = write_perf_artifact("round trip", _session(),
                                   directory=str(tmp_path))
        assert path.endswith("BENCH_round-trip.json")
        with open(path) as fh:
            loaded = json.load(fh)
        assert loaded == perf_artifact("round trip", _session())

    def test_cycles_per_sec_property(self):
        t = _session()
        by_label = {j.label: j for j in t.timings}
        assert by_label["fig7/BFS/regmutex"].cycles_per_sec == \
            pytest.approx(500_000.0)
        assert by_label["fig7/BFS/baseline"].cycles_per_sec is None
        assert by_label["fig7/SAD/regmutex"].cycles_per_sec is None

