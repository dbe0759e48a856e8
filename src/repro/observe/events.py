"""Event vocabulary of the observability subsystem.

Every observable simulator occurrence is a :class:`SimEvent` — a small
frozen record with a ``kind`` drawn from the constants below.  The
vocabulary is deliberately flat (no per-kind subclasses): exporters and
tests dispatch on the string kind, and the two generic payload fields
(``detail`` for a category/opcode label, ``value`` for an index/count)
cover every current producer without per-event dict allocation.

Producers (see :mod:`repro.observe.hooks`):

* issue/acquire/release/warp-finish — the technique wrapper around the
  installed :class:`~repro.sim.technique.SmTechniqueState`;
* CTA launch/retire, stall attribution, fast-forward, watchdog — the
  :class:`~repro.observe.hooks.SmObserver` cycle hook in the SM;
* SRP section transitions — the
  :class:`~repro.regmutex.srp.SharedRegisterPool` transition callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Instruction/warp lifecycle (emitted by the technique wrapper).
ISSUE = "issue"
ACQUIRE_OK = "acquire_ok"
ACQUIRE_BLOCKED = "acquire_blocked"
RELEASE = "release"
WARP_FINISH = "warp_finish"

# CTA lifecycle (emitted by the SM dispatcher).
CTA_LAUNCH = "cta_launch"
CTA_RETIRE = "cta_retire"

# Per-cycle stall attribution: one event per (cycle, category) with a
# non-zero idle-slot delta; ``detail`` is the category
# ("scoreboard" | "memory" | "barrier" | "acquire"), ``value`` the
# number of idle issue slots newly attributed to it.
STALL = "stall"

# Clock jumps and failure diagnostics.
FAST_FORWARD = "fast_forward"   # value = skipped cycles
WATCHDOG = "watchdog"           # detail = diagnostic summary

# SRP section transitions (emitted by the pool itself, so they cover
# defensive EXIT-time reclamation too).  ``warp_id`` is the warp *slot*,
# ``value`` the section index.
SECTION_ACQUIRE = "section_acquire"
SECTION_RELEASE = "section_release"

# Dynamic sanitizer violation (emitted by repro.check.sanitizer when a
# bus is attached): ``detail`` is "<check>: <message>", ``warp_id``/``pc``
# the provenance (-1 when the violation has no warp subject).
SANITIZER = "sanitizer"

# Service job lifecycle (emitted by the simulation daemon,
# :mod:`repro.service`).  These ride the same bus as simulator events
# but live on wall-clock time, not simulated cycles: ``cycle`` is
# milliseconds since the daemon started, ``value`` the daemon job id,
# ``detail`` the job label (JOB_DONE appends the execution mode,
# JOB_FAILED the failure kind).
JOB_QUEUED = "job_queued"
JOB_RUNNING = "job_running"
JOB_DONE = "job_done"
JOB_FAILED = "job_failed"

STALL_CATEGORIES = ("memory", "scoreboard", "barrier", "acquire")

JOB_KINDS = frozenset({
    JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED,
})

ALL_KINDS = frozenset({
    ISSUE, ACQUIRE_OK, ACQUIRE_BLOCKED, RELEASE, WARP_FINISH,
    CTA_LAUNCH, CTA_RETIRE, STALL, FAST_FORWARD, WATCHDOG,
    SECTION_ACQUIRE, SECTION_RELEASE, SANITIZER,
}) | JOB_KINDS


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One observable simulator occurrence.

    ``warp_id``/``pc`` are -1 for events without a warp subject (CTA and
    stall events); ``detail`` carries an opcode or category label;
    ``value`` carries a small integer payload (section index, idle-slot
    count, CTA id, skipped cycles) whose meaning is fixed per kind.
    """

    cycle: int
    kind: str
    warp_id: int = -1
    pc: int = -1
    detail: Optional[str] = None
    value: int = 0
