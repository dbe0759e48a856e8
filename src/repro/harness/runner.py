"""Cached, tail-free kernel runs.

Two problems a naive ``simulate_kernel`` comparison has:

1. **CTA tails.** With a fixed grid, a technique with 6 resident CTAs
   per SM can end on a nearly-empty last wave while one with 5 ends on a
   full wave, polluting the comparison with an artifact of small grids
   (the paper's grids are thousands of CTAs, so its tails are
   negligible).  The runner sizes each technique's grid to whole waves
   (per-SM CTA count a multiple of the technique's residency, targeting
   a constant amount of work) and reports **cycles per CTA** — the
   steady-state throughput both techniques would show on a huge grid.

2. **Repeated work.** The figure suite re-runs many (app, config,
   technique) combinations; the runner memoizes records in memory and,
   optionally, in a JSON file keyed by a content hash of everything that
   affects the result (kernel text, config, technique parameters, seed).

Crash-safety of the disk cache (see docs/ARCHITECTURE.md, "crash-safety &
resume"): every computed record is first appended to a write-ahead
journal (``<path>.journal``) as one fsync'd JSON line under an advisory
file lock, so a simulation result survives a crash that lands before the
session's single ``flush()``.  ``flush()`` itself merges the on-disk
cache, the journal, and the in-memory memo under the same lock before an
fsync'd atomic replace — concurrent processes sharing a cache directory
can interleave freely without torn writes or lost entries, and a torn
journal tail (a writer killed mid-append) is detected and dropped.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.arch.config import GpuConfig
from repro.isa.kernel import Kernel
from repro.isa.printer import format_kernel
from repro.sim.gpu import Gpu
from repro.sim.stats import SmStats
from repro.sim.technique import BaselineTechnique, SharingTechnique


@dataclass(frozen=True)
class RunRecord:
    """Normalized outcome of one (kernel, config, technique) run."""

    kernel_name: str
    config_name: str
    technique: str
    cycles: int
    ctas_total: int
    ctas_per_sm_resident: int
    cycles_per_cta: float
    theoretical_occupancy: float
    acquire_attempts: int
    acquire_successes: int
    release_count: int
    instructions_issued: int
    stall_acquire: int
    stall_memory: int

    @property
    def acquire_success_rate(self) -> float:
        """Granted acquires over attempts (1.0 when nothing was attempted)."""
        if self.acquire_attempts == 0:
            return 1.0
        return self.acquire_successes / self.acquire_attempts

    def reduction_vs(self, baseline: "RunRecord") -> float:
        """Cycle-per-CTA reduction relative to ``baseline`` (positive =
        faster), the paper's Figures 7/9a/10/12a metric."""
        if baseline.cycles_per_cta == 0:
            return 0.0
        return (
            baseline.cycles_per_cta - self.cycles_per_cta
        ) / baseline.cycles_per_cta

    def increase_vs(self, baseline: "RunRecord") -> float:
        """Cycle-per-CTA increase relative to ``baseline`` (positive =
        slower), the paper's Figures 8/9b/12b metric."""
        return -self.reduction_vs(baseline)


# On-disk cache layout version.  v2 wraps every record with a content
# checksum so bit-rot / torn writes are caught per entry (and quarantined)
# instead of silently trusted or fatally wiping the whole cache.
CACHE_FORMAT_VERSION = 2

# Simulator-semantics version folded into every cache key.  Bump ONLY
# when a change alters simulated cycle counts — a bump invalidates every
# cached run everywhere.  Checkers, observers, and other timing-neutral
# additions must leave it alone (the differential oracle in repro.check
# exists to prove that neutrality).
CACHE_KEY_VERSION = "v6"


def _record_checksum(fields: dict) -> str:
    """Content hash of a serialized RunRecord (sorted-key canonical JSON)."""
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@contextmanager
def _file_lock(lock_path: str):
    """Advisory exclusive lock scoped to the ``with`` body.

    Serializes journal appends and cache flushes across *processes*
    sharing one cache path.  Degrades to a no-op where ``fcntl`` is
    unavailable — single-process use stays correct, only cross-process
    exclusion is lost.
    """
    if fcntl is None:
        yield
        return
    fh = open(lock_path, "a+")
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
        fh.close()


def _fsync_dir(path: str) -> None:
    """Make a rename in ``path``'s directory durable (best-effort)."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystem
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


# Config fields that cannot affect simulated timing: they select
# between bit-identical implementations (the wake-queue property tests
# and the repro.check oracle enforce that identity) or arm pure
# checkers whose hooks observe without perturbing the schedule.
# Excluded from fingerprints so flipping them does not orphan cached
# records — and so adding them did not invalidate every pre-existing
# key (v6 stays v6).
_TIMING_NEUTRAL_CONFIG_FIELDS = frozenset({
    "issue_engine",   # scan / columnar (native or not): same schedule by contract
    "sanitizer",      # observer-only runtime checks (raise, never steer)
    "sanitizer_stride",
})


def _config_fingerprint(config: GpuConfig) -> str:
    """Field-sorted serialization of a config for cache keys.

    ``repr(config)`` depends on field declaration order and on the
    dataclass repr implementation; sorting the asdict items makes the
    key stable across field reordering and unaffected by cosmetic repr
    changes, while still covering every timing-relevant field's value.
    """
    items = sorted(
        (k, v)
        for k, v in dataclasses.asdict(config).items()
        if k not in _TIMING_NEUTRAL_CONFIG_FIELDS
    )
    return ";".join(f"{k}={v!r}" for k, v in items)


def _technique_fingerprint(technique: SharingTechnique) -> str:
    """A stable description of a technique instance for cache keys.

    Enumerates the technique's *declared* parameters — every instance
    attribute its constructor set — instead of probing a hard-coded
    attribute list, so a new technique (or a new parameter on an
    existing one) participates in the key without touching this module.
    Class-level ``model_version`` markers (RFV bumps one on semantic
    changes) are included as well.
    """
    params = dict(vars(technique))
    version = getattr(type(technique), "model_version", None)
    if version is not None:
        params.setdefault("model_version", version)
    parts = [technique.name]
    parts.extend(f"{k}={params[k]!r}" for k in sorted(params))
    return ";".join(parts)


class ExperimentRunner:
    """Runs kernels under techniques with memoization."""

    def __init__(
        self,
        target_ctas_per_sm: int = 24,
        seed: int = 2018,
        cache_path: Optional[str] = None,
    ) -> None:
        self.target_ctas_per_sm = target_ctas_per_sm
        self.seed = seed
        self.cache_hits = 0
        self.cache_misses = 0
        self._memo: dict[str, RunRecord] = {}
        self._dirty = False
        self._cache_path = cache_path
        self.quarantined_entries = 0
        # Byte offset of the first unread journal line; reset whenever
        # the journal is truncated (by our flush or a peer's).
        self._journal_offset = 0
        if cache_path and os.path.exists(cache_path):
            self._load_cache(cache_path)
        if cache_path:
            self._replay_journal()

    @property
    def _journal_path(self) -> str:
        return self._cache_path + ".journal"

    @property
    def _lock_path(self) -> str:
        return self._cache_path + ".lock"

    # -- cache plumbing ---------------------------------------------------------
    def _load_cache(self, cache_path: str) -> None:
        """Load the disk cache, validating every entry.

        An unparseable file is preserved (not destroyed) at
        ``<path>.corrupt`` so the evidence survives for diagnosis, and
        the session starts fresh.  A parseable file with individually
        bad entries — checksum mismatch, schema drift — loses only
        those entries: each is appended to ``<path>.quarantine.json``
        and the rest of the cache is kept, instead of the old behaviour
        of silently wiping the whole memo.
        """
        try:
            with open(cache_path) as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise TypeError(f"cache root is {type(raw).__name__}, not dict")
        except (json.JSONDecodeError, TypeError, OSError) as exc:
            backup = cache_path + ".corrupt"
            try:
                os.replace(cache_path, backup)
                _fsync_dir(backup)
            except OSError:
                backup = "<unmovable>"
            warnings.warn(
                f"result cache {cache_path!r} is unreadable ({exc}); "
                f"preserved at {backup!r}, starting with an empty cache",
                stacklevel=2,
            )
            return

        if raw.get("__cache_format__") == CACHE_FORMAT_VERSION:
            entries = raw.get("entries", {})
            checked = True
        else:
            # Legacy v1 layout: a bare {key: record-dict} mapping with
            # no checksums.  Load best-effort and mark dirty so the
            # next flush rewrites it in the checksummed format.
            entries = {k: {"record": v} for k, v in raw.items()}
            checked = False
            self._dirty = True

        bad: dict[str, object] = {}
        for key, entry in entries.items():
            try:
                fields = entry["record"]
                if checked and entry.get("checksum") != _record_checksum(fields):
                    raise ValueError("checksum mismatch")
                self._memo[key] = RunRecord(**fields)
            except (KeyError, TypeError, ValueError) as exc:
                bad[key] = {"entry": entry, "reason": str(exc)}
        if bad:
            self._quarantine(cache_path, bad)
            self._dirty = True

    # -- write-ahead journal -----------------------------------------------------
    def _journal_append(self, key: str, record: RunRecord) -> None:
        """Durably log one computed record before the session flush.

        One fsync'd JSON line per record, appended under the advisory
        lock: a crash between compute and ``flush()`` loses nothing, and
        two processes appending concurrently cannot interleave bytes.
        """
        if not self._cache_path:
            return
        fields = asdict(record)
        line = json.dumps(
            {"key": key, "record": fields,
             "checksum": _record_checksum(fields)},
            separators=(",", ":"),
        ) + "\n"
        with _file_lock(self._lock_path):
            with open(self._journal_path, "a") as fh:
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())

    def _replay_journal(self, into: dict[str, RunRecord] | None = None) -> int:
        """Merge journal entries written since the last replay.

        With ``into`` given, reads the whole journal into that dict
        (flush-time merge); otherwise reads incrementally from the
        remembered offset into the memo.  A torn final line (no
        terminating newline: the writer died mid-append) is left in
        place unconsumed — the writer's lock-protected retry or the next
        flush resolves it.  Corrupt complete lines are skipped.
        """
        if not self._cache_path:
            return 0
        target = self._memo if into is None else into
        adopted = 0
        try:
            size = os.path.getsize(self._journal_path)
        except OSError:
            if into is None:
                self._journal_offset = 0
            return 0
        offset = 0 if into is not None else self._journal_offset
        if size < offset:
            # The journal was truncated by a peer's flush: our offset
            # points into a file that no longer has those bytes.
            offset = 0
        try:
            with open(self._journal_path) as fh:
                fh.seek(offset)
                for line in fh:
                    if not line.endswith("\n"):
                        break  # torn tail from an interrupted append
                    offset += len(line.encode())
                    stripped = line.strip()
                    if not stripped:
                        continue
                    try:
                        entry = json.loads(stripped)
                        fields = entry["record"]
                        if entry.get("checksum") != _record_checksum(fields):
                            raise ValueError("checksum mismatch")
                        record = RunRecord(**fields)
                        key = entry["key"]
                    except (KeyError, TypeError, ValueError):
                        continue  # corrupt line: dropped at next flush
                    if key not in target:
                        target[key] = record
                        adopted += 1
                        if into is None:
                            self._dirty = True
        except OSError:
            return adopted
        if into is None:
            self._journal_offset = offset
        return adopted

    def _quarantine(self, cache_path: str, bad: dict[str, object]) -> None:
        """Append invalid entries to ``<path>.quarantine.json`` and warn."""
        self.quarantined_entries += len(bad)
        quarantine_path = cache_path + ".quarantine.json"
        existing: dict[str, object] = {}
        try:
            with open(quarantine_path) as fh:
                existing = json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass
        existing.update(bad)
        tmp = f"{quarantine_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(existing, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, quarantine_path)
        _fsync_dir(quarantine_path)
        warnings.warn(
            f"result cache {cache_path!r}: {len(bad)} invalid "
            f"entr{'y' if len(bad) == 1 else 'ies'} quarantined to "
            f"{quarantine_path!r}; they will be recomputed",
            stacklevel=3,
        )

    def _key(
        self, kernel: Kernel, config: GpuConfig, technique: SharingTechnique
    ) -> str:
        payload = "|".join(
            [
                format_kernel(kernel),
                _config_fingerprint(config),
                _technique_fingerprint(technique),
                str(self.seed),
                str(self.target_ctas_per_sm),
                CACHE_KEY_VERSION,
            ]
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def key_for(
        self, kernel: Kernel, config: GpuConfig, technique: SharingTechnique
    ) -> str:
        """Public cache key (the orchestrator's dedup/install handle)."""
        return self._key(kernel, config, technique)

    def cached(self, key: str) -> Optional[RunRecord]:
        """The memoized record for ``key``, if any (no hit accounting)."""
        return self._memo.get(key)

    def install(self, key: str, record: RunRecord) -> None:
        """Merge an externally computed record (a worker's result)."""
        self._memo[key] = record
        self._dirty = True
        self._journal_append(key, record)

    def flush(self) -> None:
        """Atomically persist the memo to disk, once, if anything changed.

        Persisting used to happen after *every* run — an O(cache) JSON
        rewrite per simulation.  Callers (CLI, orchestrator, benchmark
        session, examples) now flush once when their session ends.

        The whole merge-write-truncate sequence holds the advisory lock:
        the on-disk cache and the journal are re-read first so entries
        flushed or journaled by a concurrent process survive this
        process's rewrite, then the journal (now folded in) is removed.
        The temp file is fsync'd before the atomic replace so a crash at
        any point leaves either the old complete cache or the new one.
        """
        if not self._cache_path or not self._dirty:
            return
        with _file_lock(self._lock_path):
            merged: dict[str, RunRecord] = {}
            try:
                with open(self._cache_path) as fh:
                    raw = json.load(fh)
                if (
                    isinstance(raw, dict)
                    and raw.get("__cache_format__") == CACHE_FORMAT_VERSION
                ):
                    for key, entry in raw.get("entries", {}).items():
                        try:
                            fields = entry["record"]
                            if entry.get("checksum") != _record_checksum(fields):
                                continue
                            merged[key] = RunRecord(**fields)
                        except (KeyError, TypeError, ValueError):
                            continue
            except (OSError, json.JSONDecodeError, TypeError):
                pass
            self._replay_journal(into=merged)
            merged.update(self._memo)
            self._memo = merged
            payload = {
                "__cache_format__": CACHE_FORMAT_VERSION,
                "entries": {
                    k: {
                        "record": asdict(v),
                        "checksum": _record_checksum(asdict(v)),
                    }
                    for k, v in merged.items()
                },
            }
            tmp = f"{self._cache_path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(payload, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._cache_path)
            _fsync_dir(self._cache_path)
            try:
                os.remove(self._journal_path)
            except FileNotFoundError:
                pass
            self._journal_offset = 0
        self._dirty = False

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()

    # -- the run -------------------------------------------------------------------
    def run(
        self,
        kernel: Kernel,
        config: GpuConfig,
        technique: SharingTechnique | None = None,
        scheduler_priority=None,
        checkpoint_dir: str | None = None,
        checkpoint_interval: int = 0,
        resume_report: dict | None = None,
    ) -> RunRecord:
        """Run (or recall) one (kernel, config, technique) combination.

        The checkpoint knobs are deliberately keyword arguments rather
        than config or technique fields: a resumed run is bit-identical
        to a fresh one, so it must (and does) share the same cache key.
        """
        technique = technique or BaselineTechnique()
        key = self._key(kernel, config, technique)
        cached = self._memo.get(key)
        if cached is None and self._cache_path:
            # A concurrent process sharing this cache may have computed
            # and journaled this key since we loaded: adopt its result
            # instead of recomputing.
            self._replay_journal()
            cached = self._memo.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1

        gpu = Gpu(config, technique, seed=self.seed)
        compiled = technique.prepare_kernel(kernel, config)
        occ = technique.occupancy(compiled, config)
        resident = max(1, occ.ctas_per_sm)
        waves = max(2, round(self.target_ctas_per_sm / resident))
        grid = resident * waves * config.num_sms

        result = gpu.launch(
            kernel,
            grid,
            scheduler_priority=scheduler_priority,
            checkpoint_dir=checkpoint_dir,
            checkpoint_interval=checkpoint_interval,
            resume_report=resume_report,
        )
        total = result.stats.total
        record = RunRecord(
            kernel_name=kernel.name,
            config_name=config.name,
            technique=technique.name,
            cycles=result.cycles,
            ctas_total=grid,
            ctas_per_sm_resident=resident,
            cycles_per_cta=result.cycles / (resident * waves),
            theoretical_occupancy=result.stats.theoretical_occupancy,
            acquire_attempts=total.acquire_attempts,
            acquire_successes=total.acquire_successes,
            release_count=total.release_count,
            instructions_issued=total.instructions_issued,
            stall_acquire=total.stall_acquire,
            stall_memory=total.stall_memory,
        )
        self._memo[key] = record
        self._dirty = True
        self._journal_append(key, record)
        return record
