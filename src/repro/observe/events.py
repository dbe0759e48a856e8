"""Event vocabulary of the observability subsystem.

Every recorded occurrence is a :class:`SimEvent` — a small frozen
record with a ``kind`` drawn from the constants below — appended to an
:class:`~repro.observe.bus.EventLog`.  The vocabulary is deliberately
flat (no per-kind subclasses): exporters and tests dispatch on the
string kind, and the two generic payload fields (``detail`` for an
opcode/diagnostic label, ``value`` for an index) cover every producer
without per-event dict allocation.  Each kind has a reader in
:mod:`repro.observe.export` or :mod:`repro.observe.report`; levels and
cumulative counters (stall attribution included) are the probes' job
(:mod:`repro.observe.probes`), not the log's.

Producers:

* issue/acquire/release/warp-finish — the technique wrapper around the
  installed :class:`~repro.sim.technique.SmTechniqueState`
  (:mod:`repro.observe.hooks`);
* CTA launch/retire and watchdog — the
  :class:`~repro.observe.hooks.SmObserver` hooks in the SM;
* SRP section transitions — the
  :class:`~repro.regmutex.srp.SharedRegisterPool` transition callback;
* sanitizer violations — :mod:`repro.check.sanitizer`;
* service job lifecycle — :mod:`repro.service.daemon`.
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

# Failure diagnostics.
WATCHDOG = "watchdog"           # detail = diagnostic summary

# SRP section transitions (emitted by the pool itself, so they cover
# defensive EXIT-time reclamation too).  ``warp_id`` is the warp *slot*,
# ``value`` the section index.
SECTION_ACQUIRE = "section_acquire"
SECTION_RELEASE = "section_release"

# Dynamic sanitizer violation (emitted by repro.check.sanitizer when an
# observer is attached): ``detail`` is "<check>: <message>", ``warp_id``/``pc``
# the provenance (-1 when the violation has no warp subject).
SANITIZER = "sanitizer"

# Service job lifecycle (emitted by the simulation daemon,
# :mod:`repro.service`).  These share the simulator events' record
# but live on wall-clock time, not simulated cycles: ``cycle`` is
# milliseconds since the daemon started, ``value`` the daemon job id,
# ``detail`` the job label (JOB_DONE appends the execution mode,
# JOB_FAILED the failure kind).
JOB_QUEUED = "job_queued"
JOB_RUNNING = "job_running"
JOB_DONE = "job_done"
JOB_FAILED = "job_failed"

JOB_KINDS = frozenset({
    JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED,
})


@dataclass(frozen=True, slots=True)
class SimEvent:
    """One observable simulator occurrence.

    ``warp_id``/``pc`` are -1 for events without a warp subject (CTA,
    watchdog and job events); ``detail`` carries an opcode, diagnostic
    or job label; ``value`` carries a small integer payload (section
    index, CTA id, job id) whose meaning is fixed per kind.
    """

    cycle: int
    kind: str
    warp_id: int = -1
    pc: int = -1
    detail: Optional[str] = None
    value: int = 0
