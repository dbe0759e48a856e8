"""Versioned, schema-checked SM checkpoints for crash-safe simulation.

A checkpoint is a pure-JSON snapshot of *everything* that determines the
rest of an SM's schedule: per-warp architectural and queue state, the
scoreboard's pending writes, the memory model's in-flight multiset and
its hit/miss RNG stream position, scheduler rotation state
(GTO greedy pointer / LRR cursor / issued counts), the columnar
path's ready lists and sleeper heaps, the installed
technique's own bookkeeping (SRP bitmask + LUT, pair locks, OWF
subscriptions, RFV pool), every ``SmStats`` counter, and the SM-level
RNG stream.  Restoring it into a freshly constructed SM (same
constructor arguments) and calling ``run()`` produces the *bit-identical*
tail — same final cycle, same stats, same oracle digests — as the
uninterrupted run, on both issue engines — and a columnar checkpoint
resumes identically with or without the ``repro._native`` accelerator,
which runs over the same state.  That property is what
lets the harness resume a crashed worker from its last checkpoint
instead of recomputing, with the cached result indistinguishable from a
clean run.

Layering: every stateful component serializes itself
(``Scoreboard.snapshot``, ``MemoryModel.snapshot``,
``ColumnarCore.checkpoint_state``, scheduler
``snapshot``, technique ``state_snapshot``); this module composes them,
stamps the envelope (schema version, issue engine, kernel/config
fingerprints), and owns the torn-write-safe file format.  Warp objects
are rebuilt from scratch on restore — never patched in place — so a
restored SM holds no references into the dead run.

Failure taxonomy (:mod:`repro.errors`): a wrong schema or engine raises
the typed :class:`CheckpointSchemaError` /
:class:`CheckpointEngineMismatchError` — never a silent partial resume —
and an unreadable / truncated / checksum-failing file raises
:class:`CheckpointCorruptError`.  None of these are
:class:`SimulationError`\\ s: a bad checkpoint says nothing about the
simulation's determinism, so the harness falls back to a fresh run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from repro.errors import (
    CheckpointCorruptError,
    CheckpointEngineMismatchError,
    CheckpointError,
    CheckpointSchemaError,
)
from repro.sim.cta import Cta
from repro.sim.rand import DeterministicRng
from repro.sim.warp import Warp, WarpStatus

# Bump on any change to the payload layout.  Restore refuses mismatched
# schemas outright: silently reinterpreting old fields would trade a
# loud typed error for a wrong-but-plausible simulation result.
# Version 2 moved the queue-state code out of the per-warp records into
# the columnar engine state.
CHECKPOINT_SCHEMA_VERSION = 2


# -- context fingerprints -----------------------------------------------------

def kernel_fingerprint(kernel) -> str:
    """Content hash of the kernel a checkpoint was taken under.

    Instruction dataclass reprs are deterministic and cover opcode,
    operands, and annotations; the metadata repr covers placement-
    relevant sizes (|Bs|, |Es|, threads/CTA, regs/thread)."""
    h = hashlib.sha256()
    h.update(kernel.name.encode())
    h.update(repr(kernel.metadata).encode())
    for inst in kernel.instructions:
        h.update(repr(inst).encode())
    return h.hexdigest()


def config_fingerprint(config) -> str:
    """Hash of the full frozen config repr (``issue_engine`` included —
    but the engine is also stored unhashed in the envelope so a mismatch
    raises the *specific* typed error before this generic one)."""
    return hashlib.sha256(repr(config).encode()).hexdigest()


# -- capture ------------------------------------------------------------------

def _capture_warp(warp: Warp) -> dict:
    """One warp's full mutable state.  Works identically for plain warps
    and bound columnar views: the view's properties read the columns."""
    return {
        "warp_id": warp.warp_id,
        "cta_id": warp.cta_id,
        "slot": warp.slot,
        "pc": warp.pc,
        "status": warp.status.value,
        "stalled_on": warp.stalled_on,
        "wake_cycle": warp.wake_cycle,
        "dynamic_instructions": warp.dynamic_instructions,
        "rng_state": warp.rng._state,
        "trips": {str(pc): n for pc, n in warp._trips_remaining.items()},
        "holds_extended_set": warp.holds_extended_set,
        "srp_section": warp.srp_section,
        "acquire_block_since": warp.acquire_block_since,
        "owns_pair_lock": warp.owns_pair_lock,
    }


def capture_sm(sm) -> dict:
    """Snapshot a quiescent SM (between cycles) into a JSON-safe dict."""
    if sm._columnar is not None:
        scoreboard_state = None
        engine_state = sm._columnar.checkpoint_state()
    else:
        scoreboard_state = sm.scoreboard.snapshot()
        engine_state = None
    payload = {
        "schema": CHECKPOINT_SCHEMA_VERSION,
        "issue_engine": sm.config.issue_engine,
        "kernel_fingerprint": kernel_fingerprint(sm.kernel),
        "config_fingerprint": config_fingerprint(sm.config),
        "cycle": sm.cycle,
        "sm": {
            "cycle": sm.cycle,
            "last_progress_cycle": sm._last_progress_cycle,
            "ctas_pending": sm.ctas_pending,
            "next_warp_id": sm._next_warp_id,
            "next_cta_seq": sm._next_cta_seq,
            "resident_warp_count": sm._resident_warp_count,
            "occupied_slots": sorted(sm._occupied_slots),
            "rng_state": sm.rng._state,
        },
        "stats": dataclasses.asdict(sm.stats),
        "ctas": [
            {
                "cta_id": cta.cta_id,
                "arrived": sorted(cta._arrived),
                "warps": [_capture_warp(w) for w in cta.warps],
            }
            for cta in sm.resident_ctas
        ],
        "memory": sm.memory.snapshot(),
        "scoreboard": scoreboard_state,
        "schedulers": [s.snapshot() for s in sm.schedulers],
        "engine_state": engine_state,
        "technique": sm.technique.state_snapshot(),
    }
    if sm.banked_rf is not None:
        payload["banked_rf"] = {
            "total_reads": sm.banked_rf.total_reads,
            "total_conflicts": sm.banked_rf.total_conflicts,
        }
    if sm._sanitizer is not None:
        payload["sanitizer"] = {
            "claims": {
                str(phys): list(claim)
                for phys, claim in sm._sanitizer._claims.items()
            },
        }
    return payload


# -- restore ------------------------------------------------------------------

def validate_payload(sm, payload: dict) -> None:
    """Refuse anything but an exact-context checkpoint, with the most
    specific typed error available (schema > engine > context)."""
    if not isinstance(payload, dict) or "schema" not in payload:
        raise CheckpointCorruptError(
            "checkpoint payload is not a schema-tagged mapping"
        )
    if payload["schema"] != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointSchemaError(
            f"checkpoint schema {payload['schema']!r} is not the "
            f"supported version {CHECKPOINT_SCHEMA_VERSION}"
        )
    engine = sm.config.issue_engine
    if payload["issue_engine"] != engine:
        raise CheckpointEngineMismatchError(
            f"checkpoint was written by issue engine "
            f"{payload['issue_engine']!r}; refusing to resume under "
            f"{engine!r} (queue state is engine-specific)"
        )
    if payload["kernel_fingerprint"] != kernel_fingerprint(sm.kernel):
        raise CheckpointError(
            "checkpoint kernel fingerprint does not match this SM's kernel"
        )
    if payload["config_fingerprint"] != config_fingerprint(sm.config):
        raise CheckpointError(
            "checkpoint config fingerprint does not match this SM's config"
        )


def restore_into(sm, payload: dict) -> None:
    """Rebuild ``sm``'s mutable state from ``payload``.

    ``sm`` must be freshly constructed with the same constructor
    arguments as the checkpointed SM (same kernel/config/technique
    class/seeded RNG); its constructor-launched CTAs and queues are torn
    down wholesale and rebuilt from the payload.
    """
    # Imported here: sm.py imports this module's sibling classes.
    from repro.sim.columnar import ColumnarCore, ColumnarScoreboard
    from repro.sim.scoreboard import Scoreboard

    validate_payload(sm, payload)
    config = sm.config
    s = payload["sm"]

    sm.cycle = s["cycle"]
    sm._last_progress_cycle = s["last_progress_cycle"]
    sm.ctas_pending = s["ctas_pending"]
    sm._next_warp_id = s["next_warp_id"]
    sm._next_cta_seq = s["next_cta_seq"]
    sm._resident_warp_count = s["resident_warp_count"]
    sm._occupied_slots = set(s["occupied_slots"])
    for field, value in payload["stats"].items():
        setattr(sm.stats, field, value)

    # Fresh containers (never patch constructor-launched state).  The
    # scheduler *objects* are kept — their rotation state restores below
    # and techniques may hold priority hooks bound to them.
    sm.resident_ctas = []
    sm._ctas_by_id = {}
    sm._warps_by_scheduler = [[] for _ in range(config.num_schedulers)]
    sm._sched_units = [
        (sched, warps, [])
        for sched, warps in zip(sm.schedulers, sm._warps_by_scheduler)
    ]
    if config.issue_engine == "columnar":
        sm._columnar = ColumnarCore(sm.schedulers, config)
        sm.scoreboard = ColumnarScoreboard(sm._columnar)
    else:
        sm._columnar = None
        sm.scoreboard = Scoreboard()

    warps_by_id: dict[int, Warp] = {}
    for cta_p in payload["ctas"]:
        cta_id = cta_p["cta_id"]
        kernel = (
            sm._kernels_for_ctas[cta_id]
            if sm._kernels_for_ctas is not None else sm.kernel
        )
        warps = []
        for wp in cta_p["warps"]:
            rng = DeterministicRng(1)
            rng._state = wp["rng_state"]
            wid = wp["warp_id"]
            if sm._columnar is not None:
                warp = sm._columnar.new_warp(
                    wid, cta_id, kernel, rng, wp["slot"]
                )
            else:
                warp = Warp(wid, cta_id, kernel, rng, slot=wp["slot"])
            warp.pc = wp["pc"]
            warp.status = WarpStatus(wp["status"])
            warp.stalled_on = wp["stalled_on"]
            warp.wake_cycle = wp["wake_cycle"]
            warp.dynamic_instructions = wp["dynamic_instructions"]
            warp.holds_extended_set = wp["holds_extended_set"]
            warp.srp_section = wp["srp_section"]
            warp.acquire_block_since = wp["acquire_block_since"]
            warp.owns_pair_lock = wp["owns_pair_lock"]
            # In-place: the columnar core's trips column aliases this dict.
            trips = warp._trips_remaining
            trips.clear()
            trips.update({int(pc): n for pc, n in wp["trips"].items()})
            warps.append(warp)
            warps_by_id[wid] = warp
            sm._warps_by_scheduler[wid % config.num_schedulers].append(warp)
        cta = Cta(cta_id, warps)
        cta._arrived = set(cta_p["arrived"])
        sm.resident_ctas.append(cta)
        sm._ctas_by_id[cta_id] = cta

    if sm._columnar is not None:
        sm._columnar.checkpoint_restore(payload["engine_state"], sm.cycle)
    else:
        sm.scoreboard.restore(payload["scoreboard"])
    sm.memory.restore(payload["memory"])
    for sched, sched_payload in zip(sm.schedulers, payload["schedulers"]):
        sched.restore(sched_payload, warps_by_id)
    sm.technique.state_restore(payload["technique"], warps_by_id)
    sm.rng._state = s["rng_state"]

    if sm.banked_rf is not None and payload.get("banked_rf") is not None:
        sm.banked_rf.total_reads = payload["banked_rf"]["total_reads"]
        sm.banked_rf.total_conflicts = payload["banked_rf"]["total_conflicts"]
    if sm._sanitizer is not None:
        claims = (payload.get("sanitizer") or {}).get("claims", {})
        sm._sanitizer._claims = {
            int(phys): (claim[0], claim[1]) for phys, claim in claims.items()
        }
        by_warp: dict[int, list[int]] = {}
        for phys, (wid, _reg) in sm._sanitizer._claims.items():
            by_warp.setdefault(wid, []).append(phys)
        sm._sanitizer._claims_by_warp = by_warp
    if sm._observer is not None:
        # Emits the RESTORE event and re-seeds the observer's stall
        # baseline / sample cursor from the restored counters.
        sm._observer.on_restore(sm, sm.cycle)


# -- torn-write-safe file format ----------------------------------------------

def checkpoint_path(directory: str, total_ctas: int) -> str:
    """Checkpoint file for one SM of a launch.

    Keyed by CTA count, not ``sm_id``: the per-SM RNG seed and hence the
    whole schedule depend only on ``total_ctas`` (``Gpu.launch`` memoizes
    equal-count SMs the same way), so one file serves every SM that
    simulates that count."""
    return os.path.join(directory, f"sm_{total_ctas}.ckpt.json")


def _canonical(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def write_checkpoint(path: str, payload: dict) -> None:
    """Atomic, fsync'd write: tmp file in the same directory, flushed to
    disk, then ``os.replace`` — a crash leaves either the previous
    checkpoint or the new one, never a torn file."""
    body = _canonical(payload)
    envelope = {
        "checksum": hashlib.sha256(body.encode()).hexdigest(),
        "payload": payload,
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh, separators=(",", ":"), sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def read_checkpoint(path: str) -> dict:
    """Load and checksum-verify a checkpoint file.

    Raises :class:`CheckpointCorruptError` for anything short of a
    fully intact envelope: missing file, truncation, bit-rot, or a
    checksum that no longer matches the payload."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh)
    except OSError as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path} unreadable: {exc}"
        ) from exc
    except ValueError as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path} is not valid JSON (truncated write?): {exc}"
        ) from exc
    if (
        not isinstance(envelope, dict)
        or "checksum" not in envelope
        or "payload" not in envelope
    ):
        raise CheckpointCorruptError(
            f"checkpoint {path} envelope missing checksum/payload"
        )
    payload = envelope["payload"]
    digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    if digest != envelope["checksum"]:
        raise CheckpointCorruptError(
            f"checkpoint {path} failed checksum verification "
            "(corrupted on disk)"
        )
    return payload
