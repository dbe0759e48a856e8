"""Typed failure taxonomy shared by the simulator and the harness.

The simulator used to signal every abnormal outcome — a genuine
deadlock, a runaway kernel hitting the cycle limit, a kernel that does
not fit on the device — as a bare ``RuntimeError``, which left the
harness unable to tell "this configuration deterministically cannot
run" from "something broke".  This module gives each failure mode a
type and a machine-readable ``kind`` string that survives a process
boundary (workers ship ``(kind, message)`` tuples back to the
orchestrator) and shows up attributed in telemetry and the ``repro
bench`` report.

Every class subclasses :class:`RuntimeError` so pre-taxonomy callers
(``except RuntimeError``) keep working unchanged.

:class:`DeadlockDiagnostic` is the structured snapshot a
:class:`SimulationDeadlockError` carries: enough per-warp, SRP, and
scoreboard state to diagnose a stuck schedule without re-running the
simulation under a debugger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

# Failure kinds produced by the *harness* rather than the simulator.
# Simulator kinds are the ``kind`` class attributes below.
FAILURE_TIMEOUT = "timeout"
FAILURE_WORKER_CRASH = "worker-crash"
FAILURE_RUNTIME = "runtime-error"
# Any other exception a job raises — e.g. the compiler's CompactionError
# for a kernel/|Es| pair it cannot compact — is that job's failure, not
# its batch's.
FAILURE_JOB_ERROR = "job-error"


@dataclass(frozen=True)
class WarpSnapshot:
    """One warp's state at the moment a deadlock was diagnosed."""

    warp_id: int
    cta_id: int
    pc: int
    status: str                      # WarpStatus.value
    stalled_on: Optional[str]
    wake_cycle: int
    holds_extended_set: bool
    srp_section: Optional[int]


@dataclass(frozen=True)
class DeadlockDiagnostic:
    """Snapshot of an SM with no forward progress.

    ``technique`` is the installed technique state's
    ``debug_snapshot()`` — for RegMutex that is the SRP bitmask/LUT,
    section accounting, and the acquire wait queue.
    """

    sm_id: int
    cycle: int
    last_progress_cycle: int
    warps: tuple[WarpSnapshot, ...] = ()
    scoreboard_pending: dict = field(default_factory=dict)
    technique: dict = field(default_factory=dict)

    def blocked_on_acquire(self) -> tuple[int, ...]:
        """Warp ids parked in the acquire wait state."""
        return tuple(
            w.warp_id for w in self.warps if w.status == "wait_acquire"
        )

    def summary(self) -> str:
        by_status: dict[str, int] = {}
        for w in self.warps:
            by_status[w.status] = by_status.get(w.status, 0) + 1
        statuses = ", ".join(f"{k}={v}" for k, v in sorted(by_status.items()))
        parts = [
            f"SM {self.sm_id} cycle {self.cycle} "
            f"(last progress at {self.last_progress_cycle})",
            f"warps: {statuses or 'none'}",
        ]
        if self.technique:
            srp = self.technique
            if "sections_in_use" in srp:
                parts.append(
                    f"SRP: {srp['sections_in_use']}/{srp.get('num_sections')} "
                    f"sections held, bitmask={srp.get('srp_bitmask'):#x}, "
                    f"wait queue={srp.get('wait_queue')}"
                )
        return "; ".join(parts)


class SimulationError(RuntimeError):
    """Base class for deterministic simulator failures.

    Deterministic means: re-running the identical (kernel, config,
    technique, seed) job reproduces the failure — so the harness must
    *not* retry it (unlike a worker crash, which is environmental).
    """

    kind = "simulation-error"

    def __init__(
        self, message: str, diagnostic: DeadlockDiagnostic | dict | None = None
    ) -> None:
        super().__init__(message)
        self.diagnostic = diagnostic


class SimulationDeadlockError(SimulationError):
    """No warp can ever issue again, or nothing made forward progress
    for the watchdog window — the schedule is stuck."""

    kind = "deadlock"


class CycleLimitExceededError(SimulationError):
    """The hard ``max_cycles`` backstop tripped (runaway kernel, or a
    livelock the watchdog was configured not to catch)."""

    kind = "cycle-limit"


class InvariantViolationError(SimulationError):
    """A hardware-structure consistency check failed (e.g. the SRP
    bitmask, LUT, and warp-status bitmask disagree)."""

    kind = "invariant-violation"


class KernelPlacementError(SimulationError):
    """The kernel (or kernel mix) cannot be placed on the device at
    all — zero CTAs fit."""

    kind = "placement"


class SanitizerError(SimulationError):
    """The dynamic sanitizer (``GpuConfig.sanitizer``) observed one or
    more runtime contract violations.  ``violations`` holds the typed
    :class:`repro.check.sanitizer.SanitizerViolation` reports (each with
    warp/pc/cycle provenance); the message summarizes the first."""

    kind = "sanitizer-violation"

    def __init__(
        self,
        message: str,
        violations: tuple = (),
        diagnostic: DeadlockDiagnostic | dict | None = None,
    ) -> None:
        super().__init__(message, diagnostic=diagnostic)
        self.violations = violations


class FaultInjectionError(RuntimeError):
    """A fault campaign was misconfigured (unknown fault kind, no
    injection site in the target kernel)."""


class CheckpointError(RuntimeError):
    """Base class for checkpoint save/restore failures.

    Deliberately *not* a :class:`SimulationError`: a bad checkpoint
    says nothing about the determinism of the underlying job, so the
    harness treats it as "fall back to a fresh run", never as a
    non-retryable simulation verdict.
    """

    kind = "checkpoint"


class CheckpointCorruptError(CheckpointError):
    """The checkpoint file is unreadable or fails its content checksum
    (torn write, truncation, bit-rot)."""

    kind = "checkpoint-corrupt"


class CheckpointSchemaError(CheckpointError):
    """The checkpoint parses but cannot be resumed: wrong schema
    version, or it describes a different (kernel, config, technique)
    context than the one being restored into."""

    kind = "checkpoint-schema"


class CheckpointEngineMismatchError(CheckpointSchemaError):
    """The checkpoint was captured under a different ``issue_engine``.

    The engines are bit-identical over whole runs, but their in-flight
    queue representations differ; resuming across engines is refused
    rather than approximated.
    """

    kind = "checkpoint-engine-mismatch"


class ServiceError(RuntimeError):
    """Base class for simulation-service failures (:mod:`repro.service`).

    Every subclass carries a machine-readable ``kind`` that crosses the
    wire verbatim: the daemon serializes a rejected request as
    ``{"ok": false, "error": {"kind", "message"}}`` and the client
    re-raises the matching class, so ``except ServiceQueueFullError``
    works identically in-process and across a socket.
    """

    kind = "service"


class ServiceProtocolError(ServiceError):
    """A wire frame was malformed: not JSON, not an object, missing a
    required field, an unknown operation, or an oversized line."""

    kind = "protocol"


class ServiceVersionError(ServiceProtocolError):
    """The frame parses but speaks a different protocol schema version
    than this peer — rejected rather than guessed at."""

    kind = "version-skew"


class ServiceSpecError(ServiceError):
    """A structurally valid submission names something that does not
    exist: an unknown app, technique kind, experiment, or an invalid
    device configuration."""

    kind = "bad-spec"


class ServiceQueueFullError(ServiceError):
    """The daemon's job queue is at ``max_queue``: backpressure.  The
    client should retry later (nothing was enqueued)."""

    kind = "queue-full"


class ServiceUnavailableError(ServiceError):
    """The daemon is draining toward shutdown (or the client could not
    reach it at all); new submissions are refused."""

    kind = "unavailable"


# kind -> class, for re-raising a wire error frame as the typed original.
SERVICE_ERRORS: dict[str, type] = {
    cls.kind: cls
    for cls in (
        ServiceError, ServiceProtocolError, ServiceVersionError,
        ServiceSpecError, ServiceQueueFullError, ServiceUnavailableError,
    )
}


class InterruptedRun(RuntimeError):
    """The operator interrupted an orchestrated batch (SIGINT).

    Carries enough for a typed summary instead of a raw traceback:
    how much of the batch completed, and whether the cache and
    telemetry were flushed before unwinding.
    """

    kind = "interrupted"

    def __init__(
        self, message: str, completed: int = 0, total: int = 0,
        flushed: bool = False,
    ) -> None:
        super().__init__(message)
        self.completed = completed
        self.total = total
        self.flushed = flushed

    def summary(self) -> str:
        state = "flushed" if self.flushed else "NOT flushed"
        return (
            f"interrupted: {self.completed}/{self.total} jobs completed, "
            f"cache {state}"
        )
