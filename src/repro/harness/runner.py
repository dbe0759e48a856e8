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

Crash-safety of the disk store (see docs/ARCHITECTURE.md, "Journaled
run store"): the store is one append-only file of checksummed JSON
lines ``{"key", "record", "checksum"}``.  ``run`` and ``install``
append and fsync one line under an advisory file lock before they
return, so a record is durable, and visible to every process sharing
the path, from then on.  A reader adopts new lines from a remembered
offset; a damaged line (a crashed writer's torn tail, garbage, a
checksum mismatch, a store in an older layout) is quarantined and its
record recomputed, and ``flush()`` compacts such lines away.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

from repro.arch.config import GpuConfig
from repro.isa.kernel import Kernel
from repro.isa.printer import format_kernel
from repro.sim.gpu import Gpu
from repro.sim.technique import BaselineTechnique, SharingTechnique
from repro.workloads.suite import (
    APPLICATIONS,
    AppSpec,
    build_app_kernel,
    get_app,
)

if TYPE_CHECKING:
    from repro.harness.spec import JobSpec


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


def _encode_line(key: str, record: RunRecord) -> bytes:
    """One store line: the key, the record and the record's checksum."""
    fields = asdict(record)
    return (json.dumps(
        {"key": key, "record": fields, "checksum": _record_checksum(fields)},
        separators=(",", ":"),
    ) + "\n").encode()


def _decode_line(line: bytes) -> tuple[str, RunRecord]:
    """The (key, record) of one store line.  Raises ``ValueError``,
    ``KeyError`` or ``TypeError`` for anything but an intact line."""
    entry = json.loads(line)
    fields = entry["record"]
    if entry.get("checksum") != _record_checksum(fields):
        raise ValueError("checksum mismatch")
    key = entry["key"]
    if not isinstance(key, str):
        raise TypeError(f"key is {type(key).__name__}, not str")
    return key, RunRecord(**fields)


@contextmanager
def _file_lock(lock_path: str):
    """Advisory exclusive lock scoped to the ``with`` body.

    Serializes store appends and compactions across *processes*
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
    "issue_engine",   # scan / columnar (the C loop): same schedule by contract
    "sanitizer",      # observer-only runtime checks (raise, never steer)
    "sanitizer_stride",
})


# Retired config fields, still serialized at the value every v6 key
# was computed with, so removing them from GpuConfig orphaned no record.
_RETIRED_CONFIG_FIELDS = {
    "debug_invariants": False,       # per-cycle checks: GpuConfig.sanitizer
    "runtime_safety_checks": False,  # extended-access: GpuConfig.sanitizer
    "model_bank_conflicts": False,   # operand-collector bank model, deleted
    "register_file_banks": 16,       # its bank count
}


def _config_fingerprint(config: GpuConfig) -> str:
    """Field-sorted serialization of a config for cache keys.

    ``repr(config)`` depends on field declaration order and on the
    dataclass repr implementation; sorting the asdict items makes the
    key stable across field reordering and unaffected by cosmetic repr
    changes, while still covering every timing-relevant field's value.

    Memoized per config value.  Equal configs can still print
    differently (``1`` vs ``1.0``, ``True`` vs ``1``), so the memo is
    keyed by the field types too: a key never depends on which of two
    equal configs was fingerprinted first.
    """
    return _fingerprint_fields(config, tuple(map(type, vars(config).values())))


# Bounded: a service client can send any config it likes.
@functools.lru_cache(maxsize=64)
def _fingerprint_fields(config: GpuConfig, _field_types: tuple) -> str:
    fields = {**_RETIRED_CONFIG_FIELDS, **dataclasses.asdict(config)}
    items = sorted(
        (k, v)
        for k, v in fields.items()
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


# A job names its app and both front ends resolve the name through
# ``get_app``, so the arguments are the registry's specs: one entry per
# registered app (16, about 47 KB of text).
@functools.lru_cache(maxsize=len(APPLICATIONS))
def _app_kernel_text(app: AppSpec) -> str:
    """Printed kernel of an app.  The generator is seeded by the
    ``AppSpec``, so the text depends on nothing else."""
    return format_kernel(build_app_kernel(app))


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
        self._cache_path = cache_path
        self.quarantined_entries = 0
        # How far this runner has read the store file: the file's
        # (st_dev, st_ino) and the byte offset of its first unread line.
        # A compaction replaces the file, and so changes its id.  The
        # file last read stays open (``_hold``): a freed inode number
        # can be reused by a later compaction's file, which would then
        # pass for the file this runner has read up to ``_offset``.
        self._file_id: tuple[int, int] | None = None
        self._offset = 0
        self._release = weakref.finalize(self, lambda: None)
        # Set once this runner has read a damaged line or a duplicate
        # key: the only case in which flush() rewrites the file.
        self._needs_compaction = False
        if cache_path:
            with _file_lock(self._lock_path):
                self._read_new_lines(locked=True)

    @property
    def _lock_path(self) -> str:
        return self._cache_path + ".lock"

    # -- the store file ---------------------------------------------------------
    def _hold(self, fh) -> os.stat_result:
        """Keep ``fh``, an open store file, open in place of the one
        held before, take its id, and return its stat."""
        self._release()
        self._release = weakref.finalize(self, fh.close)
        st = os.fstat(fh.fileno())
        self._file_id = (st.st_dev, st.st_ino)
        return st

    def _read_new_lines(self, locked: bool) -> None:
        """Adopt the records appended to the store since the last read.

        Every append holds the lock, so under the lock (``locked``) an
        unterminated final line is a crashed writer's torn tail and is
        quarantined like any other damaged line.  Without the lock it
        may be an append in progress, and is left for a later read.  A
        file that a compaction has replaced is re-read from its start,
        adopting only the keys this runner lacks.
        """
        try:
            fh = open(self._cache_path, "rb")
        except FileNotFoundError:
            return
        st = os.fstat(fh.fileno())
        rereading = False
        if ((st.st_dev, st.st_ino) != self._file_id
                or st.st_size < self._offset):
            rereading = self._file_id is not None
            self._offset = 0
        fh.seek(self._offset)
        data = fh.read()
        self._hold(fh)
        lines = data.split(b"\n")
        tail = lines.pop()  # b"" when the data ends with a newline
        bad: list[tuple[bytes, str]] = []
        for line in lines:
            if not line.strip():
                continue
            try:
                key, record = _decode_line(line)
            except (KeyError, TypeError, ValueError) as exc:
                bad.append((line, str(exc)))
                continue
            if key not in self._memo:
                self._memo[key] = record
            elif not rereading:
                self._needs_compaction = True  # a duplicate key
        self._offset += len(data) - len(tail)
        if tail and locked:
            bad.append((tail, "no terminating newline: a torn append, "
                              "or a store in an older layout"))
            self._offset += len(tail)
        if bad:
            self._needs_compaction = True
            self._quarantine(bad)

    def _quarantine(self, bad: list[tuple[bytes, str]]) -> None:
        """Keep damaged lines in ``<path>.quarantine.json`` and warn.

        Entries are keyed by a hash of the line, so a line that several
        readers quarantine is kept once.
        """
        self.quarantined_entries += len(bad)
        quarantine_path = self._cache_path + ".quarantine.json"
        existing: dict[str, object] = {}
        try:
            with open(quarantine_path) as fh:
                existing = json.load(fh)
        except (OSError, json.JSONDecodeError):
            pass
        for line, reason in bad:
            existing[hashlib.sha256(line).hexdigest()[:16]] = {
                "line": line.decode(errors="replace"), "reason": reason,
            }
        tmp = f"{quarantine_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(existing, fh, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, quarantine_path)
        _fsync_dir(quarantine_path)
        warnings.warn(
            f"result cache {self._cache_path!r}: {len(bad)} invalid "
            f"entr{'y' if len(bad) == 1 else 'ies'} quarantined to "
            f"{quarantine_path!r}; they will be recomputed",
            stacklevel=4,
        )

    def _store(self, key: str, record: RunRecord) -> None:
        """Memoize a record and, for a file-backed store, make it durable.

        The record's line is appended and fsync'd under the lock, after
        adopting the lines peers appended since the last read (so the
        offset can move past this line).  A torn final line left by a
        crashed writer is first ended with a newline, so this line
        stays a line of its own.
        """
        self._memo[key] = record
        if not self._cache_path:
            return
        line = _encode_line(key, record)
        with _file_lock(self._lock_path):
            self._read_new_lines(locked=True)
            with open(self._cache_path, "a+b") as fh:
                end = fh.seek(0, os.SEEK_END)
                if end:
                    fh.seek(end - 1)
                    if fh.read(1) != b"\n":
                        line = b"\n" + line
                fh.write(line)
                fh.flush()
                os.fsync(fh.fileno())
            if not end:
                _fsync_dir(self._cache_path)  # the new file's entry
            self._offset = self._hold(open(self._cache_path, "rb")).st_size

    def _key(
        self, kernel: Kernel, config: GpuConfig, technique: SharingTechnique
    ) -> str:
        return self._hash(format_kernel(kernel), config, technique)

    def _hash(
        self, kernel_text: str, config: GpuConfig, technique: SharingTechnique
    ) -> str:
        payload = "|".join(
            [
                kernel_text,
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
        """Cache key of an arbitrary kernel (``run``'s key)."""
        return self._key(kernel, config, technique)

    def job_key(self, job: JobSpec) -> str:
        """Cache key of a :class:`~repro.harness.spec.JobSpec`: the key
        ``key_for`` gives the job's built kernel, without building it.

        The one key path of both front ends, the orchestrator and the
        service daemon.  The app's kernel text and the config
        fingerprint come from their memos, so a warm job costs one
        technique build and one hash.
        """
        return self._hash(
            _app_kernel_text(get_app(job.app)), job.config,
            job.technique.build(),
        )

    def cached(self, key: str) -> Optional[RunRecord]:
        """The stored record for ``key``, if any (no hit accounting).

        The one store lookup every front end uses.  On a miss, a
        file-backed store first reads the lines appended since its last
        read, adopting a record a concurrent process sharing the cache
        path has stored since.
        """
        record = self._memo.get(key)
        if record is None and self._cache_path:
            self._read_new_lines(locked=False)
            record = self._memo.get(key)
        return record

    def install(self, key: str, record: RunRecord) -> None:
        """Merge an externally computed record (a worker's result).
        It is durable when this returns."""
        self._store(key, record)

    def flush(self) -> None:
        """Compact the store file, if this runner saw anything to compact.

        Records are durable as soon as they are stored, so a clean
        store needs no flush.  After this runner has read a damaged
        line or a duplicate key, the file is rewritten without them:
        under the lock, after adopting the newest lines, through an
        fsync'd temp file, ``os.replace`` and a directory fsync, so a
        crash leaves either the old file or the new one.  Other readers
        see the new file's id and re-read it.
        """
        if not self._cache_path or not self._needs_compaction:
            return
        with _file_lock(self._lock_path):
            self._read_new_lines(locked=True)
            tmp = f"{self._cache_path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                fh.writelines(
                    _encode_line(k, r) for k, r in self._memo.items()
                )
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._cache_path)
            _fsync_dir(self._cache_path)
            self._offset = self._hold(open(self._cache_path, "rb")).st_size
        self._needs_compaction = False

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
    ) -> RunRecord:
        """Run (or recall) one (kernel, config, technique) combination."""
        technique = technique or BaselineTechnique()
        key = self._key(kernel, config, technique)
        cached = self.cached(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        record, _ = self.simulate(kernel, config, technique)
        self._store(key, record)
        return record

    def simulate(
        self,
        kernel: Kernel,
        config: GpuConfig,
        technique: SharingTechnique,
    ) -> tuple[RunRecord, str | None]:
        """Compute one record from cycle 0, with no store lookup or write.

        Also returns the issue loop the SMs ran (see
        ``LaunchResult.loop``), which no record or key holds.
        """
        gpu = Gpu(config, technique, seed=self.seed)
        compiled = technique.prepare_kernel(kernel, config)
        occ = technique.occupancy(compiled, config)
        resident = max(1, occ.ctas_per_sm)
        waves = max(2, round(self.target_ctas_per_sm / resident))
        grid = resident * waves * config.num_sms

        result = gpu.launch(kernel, grid)
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
        return record, result.loop
