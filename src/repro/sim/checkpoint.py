"""Engine-neutral snapshots of an SM's full mutable state.

A snapshot is a pure-JSON dict of *everything* that determines the rest
of an SM's schedule: per-warp architectural state with each warp's live
scoreboard writes, the memory model's in-flight multiset and its
hit/miss RNG stream position, scheduler rotation state (GTO greedy
pointer / LRR cursor / issued counts), the installed technique's own
bookkeeping (SRP bitmask + LUT, pair locks, OWF subscriptions, RFV
pool), every ``SmStats`` counter, and the SM-level RNG stream.

The payload holds only canonical state, never an issue path's private
representation: the columnar path's ready lists, sleeper heaps, blocked
counts and queue-state codes are a function of the warps'
status/wake/stall fields at the cycle boundary, and the C loop's
scoreboard completion heap is rebuilt from the rows' pending writes at
the start of each run.  The clock and the schedulers' rotation state,
which the C loop keeps in C between re-entries into Python, are
published at every exit, so a snapshot after a stop reads them exact.
So the scan stepper
and the columnar engine's C loop (``repro._native``), stopped at the
same cycle boundary, yield byte-identical snapshots:
``tests/sim/test_checkpoint.py`` compares them after cycle-limit stops,
and ``tests/sim/golden/rfv_checkpoint.json`` pins one.

Layering: every stateful component serializes itself
(``MemoryModel.snapshot``, scheduler ``snapshot``, technique
``state_snapshot``) or is read through its public API (the scoreboard's
``pending_writes``); this module composes them and stamps the envelope
(schema version, kernel/config fingerprints).

There is no restore: a job whose worker dies is recomputed from cycle
0, which at this model's job sizes (seconds) costs less than the code a
mid-run resume needs.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.sim.warp import Warp

# Bump on any change to the payload layout.  Version 3 dropped the
# per-engine state (issue engine, columnar queues, scan scoreboard
# dicts) for per-warp pending writes.
CHECKPOINT_SCHEMA_VERSION = 3


# -- context fingerprints -----------------------------------------------------

def kernel_fingerprint(kernel) -> str:
    """Content hash of the kernel a snapshot was taken under.

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
    """Hash of every config field but ``issue_engine`` (the issue paths
    are bit-identical, and the payload is engine-neutral).  The
    sanitizer fields stay in: sanitizer claims ride in the payload only
    when the sanitizer is on."""
    fields = [
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name != "issue_engine"
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


# -- capture ------------------------------------------------------------------

def _capture_warp(sm, warp: Warp) -> dict:
    """One warp's full mutable state, live scoreboard writes included.
    Works identically for plain warps and bound columnar views: the
    view's properties read the columns."""
    pending = sm.scoreboard.pending_writes(warp.warp_id, sm.cycle)
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
        "pending": {str(reg): ready for reg, ready in pending.items()},
    }


def capture_sm(sm) -> dict:
    """Snapshot a quiescent SM (between cycles) into a JSON-safe dict."""
    payload = {
        "schema": CHECKPOINT_SCHEMA_VERSION,
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
                "warps": [_capture_warp(sm, w) for w in cta.warps],
            }
            for cta in sm.resident_ctas
        ],
        "memory": sm.memory.snapshot(),
        "schedulers": [s.snapshot() for s in sm.schedulers],
        "technique": sm.technique.state_snapshot(),
    }
    if sm._sanitizer is not None:
        payload["sanitizer"] = {
            "claims": {
                str(phys): list(claim)
                for phys, claim in sm._sanitizer._claims.items()
            },
        }
    return payload
