"""Crash-safety of the shared run store: one appended file, a lock, recovery.

The run store's durability contract has three legs:

1. every stored record is one fsync'd line appended to the store file
   before ``run``/``install`` returns, so it survives a crash and is
   visible to every runner sharing the path without any ``flush()``;
2. appends and compactions are serialized by an advisory file lock,
   so concurrent processes sharing one cache path never tear each
   other's bytes or lose each other's entries, and a reader that a
   compaction overtook re-reads the new file;
3. damage is contained: a torn tail or a corrupt line is quarantined,
   the next append starts a line of its own, and nothing aborts the
   session.

These tests exercise all three with real processes where the contract
is about processes, and with two in-process runners where it is about
the merge logic.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.harness.runner import ExperimentRunner, RunRecord
from repro.sim.technique import BaselineTechnique
from tests.conftest import straightline_kernel


def _tiny_config(name="cc-tiny"):
    from repro.arch.config import fermi_like

    return fermi_like(
        name=name,
        num_sms=1,
        max_warps_per_sm=8,
        max_ctas_per_sm=4,
        max_threads_per_sm=256,
        registers_per_sm=4096,
        shared_mem_per_sm=16 * 1024,
        dram_latency=80,
        l1_hit_latency=10,
    )


def _runner(path):
    return ExperimentRunner(target_ctas_per_sm=2, seed=11, cache_path=path)


def _compute(runner, name):
    return runner.run(
        straightline_kernel(), _tiny_config(name), BaselineTechnique()
    )


def _record(n: int) -> RunRecord:
    """A marker record no simulation produces, distinct per ``n``."""
    return RunRecord(
        kernel_name=f"marker-{n}", config_name="cc-tiny",
        technique="baseline", cycles=100 + n, ctas_total=1,
        ctas_per_sm_resident=1, cycles_per_cta=100.0 + n,
        theoretical_occupancy=1.0, acquire_attempts=0, acquire_successes=0,
        release_count=0, instructions_issued=1, stall_acquire=0,
        stall_memory=0,
    )


class _Crash(Exception):
    """A writer's death, raised where the process would have died."""


def _crash_mid_append(monkeypatch, path, key):
    """A writer dies mid-append: its fsync'd line loses its last 20
    bytes, newline included, and the writer never returns."""
    def torn_fsync(fd):
        os.ftruncate(fd, os.fstat(fd).st_size - 20)
        raise _Crash
    with monkeypatch.context() as patched:
        patched.setattr(os, "fsync", torn_fsync)
        with pytest.raises(_Crash):
            _runner(path).install(key, _record(0))


def _stress_worker(path: str, worker_id: int, entries: int) -> int:
    """Process-pool entry point: store + flush ``entries`` distinct
    records against the shared cache, flushing after every record for
    maximal lock contention."""
    runner = _runner(path)
    for i in range(entries):
        _compute(runner, f"cc-{worker_id}-{i}")
        runner.flush()
    return entries


def _compaction_worker(path: str, worker_id: int, entries: int) -> int:
    """Process-pool entry point: append ``entries`` marker records, each
    followed by one more copy of a shared key and a flush.  Every
    reader then sees duplicate keys, so each flush rewrites the file
    while the other workers keep appending to it."""
    runner = _runner(path)
    for i in range(entries):
        runner.install(f"w{worker_id}-{i}", _record(worker_id * entries + i))
        runner.install("shared", _record(-1))
        runner.flush()
    return entries


class TestJournalRecovery:
    def test_unflushed_record_survives_a_crash(self, tmp_path):
        path = str(tmp_path / "cache.json")
        crashed = _runner(path)
        record = _compute(crashed, "crashy")
        # The "crash": the runner is dropped without flush().  The
        # store file already holds the record, fsync'd, and is the
        # only file the session wrote besides its lock.
        assert sorted(os.listdir(tmp_path)) == ["cache.json", "cache.json.lock"]

        survivor = _runner(path)
        assert _compute(survivor, "crashy") == record
        assert survivor.cache_hits == 1
        assert survivor.cache_misses == 0

    def test_torn_tail_quarantined_at_open(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cache.json")
        writer = _runner(path)
        writer.install("whole-a", _record(1))
        writer.install("whole-b", _record(2))
        _crash_mid_append(monkeypatch, path, "torn-entry")

        with pytest.warns(UserWarning, match="quarantined"):
            survivor = _runner(path)
        assert len(survivor._memo) == 2
        assert survivor.quarantined_entries == 1
        with open(path + ".quarantine.json") as fh:
            [entry] = json.load(fh).values()
        assert '"key":"torn-entry"' in entry["line"]

    def test_record_stored_after_a_torn_tail_is_seen_by_a_fresh_runner(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "cache.json")
        _runner(path).install("whole", _record(1))
        _crash_mid_append(monkeypatch, path, "dead")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fragment's quarantine
            _runner(path).install("k1", _record(2))  # no flush()
            fresh = _runner(path)
        assert fresh.cached("k1") == _record(2)
        assert fresh.cached("whole") == _record(1)
        assert fresh.cached("dead") is None
        assert fresh.quarantined_entries == 1  # the fragment, once

    def test_corrupt_complete_line_skipped(self, tmp_path):
        path = str(tmp_path / "cache.json")
        writer = _runner(path)
        _compute(writer, "honest")
        with open(path, "a") as fh:
            fh.write("this is not json\n")
            fh.write('{"key": "bad-checksum", "record": {}, '
                     '"checksum": "nope"}\n')

        with pytest.warns(UserWarning, match="2 invalid entries"):
            survivor = _runner(path)
        assert len(survivor._memo) == 1
        assert survivor.quarantined_entries == 2

    def test_unflushed_record_seen_by_a_fresh_and_a_live_runner(
        self, tmp_path
    ):
        path = str(tmp_path / "cache.json")
        live = _runner(path)
        _runner(path).install("k1", _record(1))  # no flush()
        _runner(path).flush()  # a third runner's flush changes nothing

        assert _runner(path).cached("k1") == _record(1)
        assert live.cached("k1") == _record(1)

    def test_miss_path_adopts_a_peer_journal_entry(self, tmp_path):
        # Two runners share the path *in the same process*: B opened
        # before A computed, so B's memo is stale — the miss path must
        # read the lines appended since instead of recomputing.
        path = str(tmp_path / "cache.json")
        a = _runner(path)
        b = _runner(path)
        record = _compute(a, "late-arrival")
        assert _compute(b, "late-arrival") == record
        assert b.cache_hits == 1
        assert b.cache_misses == 0


class TestConcurrentWriters:
    def test_in_process_flushes_merge_not_clobber(self, tmp_path):
        path = str(tmp_path / "cache.json")
        a = _runner(path)
        b = _runner(path)
        _compute(a, "from-a")
        _compute(b, "from-b")
        a.flush()
        b.flush()  # must keep a's entry, not overwrite it

        survivor = _runner(path)
        assert len(survivor._memo) == 2
        assert survivor.quarantined_entries == 0

    def test_two_process_stress_loses_nothing(self, tmp_path):
        path = str(tmp_path / "cache.json")
        writers, entries = 2, 3
        with ProcessPoolExecutor(max_workers=writers) as pool:
            futures = [
                pool.submit(_stress_worker, path, wid, entries)
                for wid in range(writers)
            ]
            written = sum(f.result() for f in futures)
        assert written == writers * entries

        survivor = _runner(path)
        assert len(survivor._memo) == writers * entries
        assert survivor.quarantined_entries == 0
        names = {r.config_name for r in survivor._memo.values()}
        assert names == {
            f"cc-{w}-{i}" for w in range(writers) for i in range(entries)
        }

    def test_appends_racing_compactions_lose_nothing(self, tmp_path):
        # More writers than cores, spawned: appends, re-reads of replaced
        # files and compactions interleave freely.
        path = str(tmp_path / "cache.json")
        writers, entries = 4, 15
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=writers,
                                 mp_context=context) as pool:
            futures = [
                pool.submit(_compaction_worker, path, wid, entries)
                for wid in range(writers)
            ]
            written = sum(f.result(timeout=120) for f in futures)
        assert written == writers * entries

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no line was ever damaged
            survivor = _runner(path)
        assert len(survivor._memo) == writers * entries + 1
        for w in range(writers):
            for i in range(entries):
                assert survivor.cached(f"w{w}-{i}") == _record(w * entries + i)
        assert not os.path.exists(path + ".quarantine.json")

    def test_stressed_cache_file_is_well_formed(self, tmp_path):
        path = str(tmp_path / "cache.json")
        with ProcessPoolExecutor(max_workers=2) as pool:
            for f in [
                pool.submit(_stress_worker, path, wid, 2) for wid in range(2)
            ]:
                f.result()
        with open(path) as fh:
            # A torn or interleaved write would fail right here.
            keys = [json.loads(line)["key"] for line in fh]
        assert len(set(keys)) == len(keys) == 4

    def test_compaction_does_not_make_a_live_reader_misread(self, tmp_path):
        path = str(tmp_path / "cache.json")
        a = _runner(path)
        for key in ("k1", "k1", "k2", "k3"):  # one duplicate line
            a.install(key, _record(int(key[1:])))
        b = _runner(path)  # live, read up to the end of k3
        _runner(path).flush()  # saw the duplicate: rewrites the file shorter
        for n in (4, 5, 6, 7, 8):
            a.install(f"k{n}", _record(n))

        for n in range(1, 9):
            assert b.cached(f"k{n}") == _record(n)
        assert b.quarantined_entries == 0
        with open(path) as fh:
            keys = [json.loads(line)["key"] for line in fh]
        assert keys == [f"k{n}" for n in range(1, 9)]

    def test_identical_work_is_computed_once_then_shared(self, tmp_path):
        # Same (kernel, config, technique) from two runners: the second
        # adopts the first's stored record rather than recomputing.
        path = str(tmp_path / "cache.json")
        first = _runner(path)
        _compute(first, "shared-key")
        assert first.cache_misses == 1

        second = _runner(path)
        _compute(second, "shared-key")
        assert second.cache_misses == 0
        assert second.cache_hits == 1
