"""Disk-store integrity: checksummed lines, quarantine, compaction."""

import json
import os
import warnings

import pytest

from repro.arch.config import fermi_like
from repro.harness.runner import ExperimentRunner
from repro.sim.technique import BaselineTechnique
from tests.conftest import straightline_kernel


@pytest.fixture
def cfg():
    return fermi_like(
        name="cache-test", num_sms=1, max_warps_per_sm=8, max_ctas_per_sm=4,
        max_threads_per_sm=256, registers_per_sm=4096,
        dram_latency=60, l1_hit_latency=8,
    )


def _populate(path, cfg, kernels=(4, 12)):
    with ExperimentRunner(target_ctas_per_sm=2, cache_path=path) as runner:
        for n in kernels:
            runner.run(straightline_kernel(n), cfg, BaselineTechnique())


def _lines(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def _write_lines(path, entries):
    with open(path, "w") as fh:
        fh.writelines(json.dumps(e) + "\n" for e in entries)


def _quarantined_lines(path):
    with open(path + ".quarantine.json") as fh:
        return [entry["line"] for entry in json.load(fh).values()]


class TestCorruptFileBackup:
    def test_unparseable_cache_backed_up_not_destroyed(self, cfg, tmp_path):
        path = str(tmp_path / "cache.json")
        with open(path, "w") as fh:
            fh.write("{definitely not json")
        with pytest.warns(UserWarning, match="quarantined"):
            runner = ExperimentRunner(target_ctas_per_sm=2, cache_path=path)
        # The evidence is intact in the quarantine file.
        assert _quarantined_lines(path) == ["{definitely not json"]
        assert runner.quarantined_entries == 1
        assert runner.run(straightline_kernel(), cfg, BaselineTechnique())

    def test_truncated_store_keeps_intact_lines(self, cfg, tmp_path):
        path = str(tmp_path / "cache.json")
        _populate(path, cfg)
        with open(path, "rb") as fh:
            data = fh.read()
        first_line_end = data.index(b"\n") + 1
        cut = first_line_end + 40  # inside the second line
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        with pytest.warns(UserWarning, match="quarantined"):
            runner = ExperimentRunner(target_ctas_per_sm=2, cache_path=path)
        assert len(runner._memo) == 1          # the intact first line
        assert runner.quarantined_entries == 1
        assert _quarantined_lines(path) == [data[first_line_end:cut].decode()]


class TestChecksumQuarantine:
    def test_poisoned_entry_quarantined_others_survive(self, cfg, tmp_path):
        path = str(tmp_path / "cache.json")
        _populate(path, cfg)
        entries = _lines(path)
        victim = entries[0]["key"]
        entries[0]["record"]["cycles"] += 1  # checksum now stale
        _write_lines(path, entries)

        with pytest.warns(UserWarning, match="quarantined"):
            runner = ExperimentRunner(target_ctas_per_sm=2, cache_path=path)
        assert runner.quarantined_entries == 1
        assert len(runner._memo) == len(entries) - 1  # rest kept
        assert runner.cached(victim) is None
        [line] = _quarantined_lines(path)
        assert json.loads(line) == entries[0]

    def test_poisoned_entry_recomputed_and_reflushed(self, cfg, tmp_path):
        path = str(tmp_path / "cache.json")
        _populate(path, cfg, kernels=(4,))
        entries = _lines(path)
        key = entries[0]["key"]
        entries[0]["record"]["cycles"] += 1
        _write_lines(path, entries)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with ExperimentRunner(target_ctas_per_sm=2, cache_path=path) as r:
                record = r.run(straightline_kernel(4), cfg, BaselineTechnique())
        assert record.cycles > 0
        # The flush compacted the poisoned line away; the store holds
        # the recomputed record with a valid sum.
        assert [e["key"] for e in _lines(path)] == [key]
        fresh = ExperimentRunner(target_ctas_per_sm=2, cache_path=path)
        assert fresh.quarantined_entries == 0
        assert fresh.cached(key) == record

    def test_clean_store_loads_without_warnings(self, cfg, tmp_path):
        path = str(tmp_path / "cache.json")
        _populate(path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            runner = ExperimentRunner(target_ctas_per_sm=2, cache_path=path)
        assert len(runner._memo) == 2
        assert runner.quarantined_entries == 0
        assert not os.path.exists(path + ".quarantine.json")


class TestCompaction:
    def test_duplicate_key_compacted_by_flush(self, cfg, tmp_path):
        path = str(tmp_path / "cache.json")
        _populate(path, cfg, kernels=(4,))
        [entry] = _lines(path)
        _write_lines(path, [entry, entry])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a duplicate is not damage
            runner = ExperimentRunner(target_ctas_per_sm=2, cache_path=path)
        assert runner.quarantined_entries == 0
        runner.flush()
        assert _lines(path) == [entry]

    @pytest.mark.parametrize("layout", ["v1", "v2"])
    def test_old_layout_store_quarantined_once_and_recomputed(
        self, cfg, tmp_path, layout
    ):
        path = str(tmp_path / "cache.json")
        _populate(path, cfg, kernels=(4,))
        [entry] = _lines(path)
        records = {entry["key"]: entry["record"]}
        old = records if layout == "v1" else {
            "__cache_format__": 2,
            "entries": {entry["key"]: {"record": entry["record"],
                                       "checksum": entry["checksum"]}},
        }
        with open(path, "w") as fh:
            json.dump(old, fh)  # one line, no newline: the old layouts

        with pytest.warns(UserWarning, match="quarantined"):
            with ExperimentRunner(target_ctas_per_sm=2, cache_path=path) as r:
                assert r.cached(entry["key"]) is None  # no old reader
                r.run(straightline_kernel(4), cfg, BaselineTechnique())
        assert _quarantined_lines(path) == [json.dumps(old)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # quarantined once, then clean
            fresh = ExperimentRunner(target_ctas_per_sm=2, cache_path=path)
        assert fresh.cached(entry["key"]) is not None
        assert _lines(path) == [entry]
