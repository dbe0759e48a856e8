"""Deterministic fault injection across the stack.

RegMutex's correctness rests on invariants the happy path never tests:
the compiler's two deadlock-avoidance rules, the SRP bitmask/LUT
consistency, and the harness's assumption that workers return.  This
module *breaks each of them on purpose*, deterministically, so the
detection machinery (the SM watchdog, ``Srp.check_invariants``, the
orchestrator's retry/timeout logic, the cache checksums) can be proven
to catch them — the related register-sharing literature (Jatala et
al., RegDem) is full of livelock/starvation modes that only fault
campaigns surface.

Fault kinds (see :data:`FAULT_KINDS`):

* ``dropped-release`` — a RELEASE is "lost in flight" at the SRP: the
  warp-side state clears but the section bit stays set, leaking the
  section forever.
* ``srp-bit-corruption`` — a bit of the SRP bitmask flips (a free
  section is marked taken), desynchronizing bitmask and LUT.
* ``unbalanced-acquire`` — the compiler emits an acquire with no
  matching release (:func:`drop_release` on the compiled kernel), the
  exact bug the paper's |Es|-selection rules exist to avoid.
* ``worker-crash`` / ``sim-error`` / ``worker-sleep`` — harness-level
  faults via :class:`FaultyWorkerTechnique`: a worker process dies
  hard (transient — retried), raises a deterministic simulation error
  (never retried), or hangs past the per-job timeout.
* ``cache-truncate`` / ``cache-garbage`` / ``cache-poison-entry`` —
  on-disk run-store damage via :func:`corrupt_cache_file`, caught by
  the runner's per-line validation and quarantine.
* ``kill-mid-run`` — a worker is SIGKILLed at a deterministic
  simulation cycle via :class:`KillMidRunTechnique`; the orchestrator's
  retry must recompute the job from cycle 0 and finish bit-identical
  to an undisturbed run.
* ``cache-concurrent-writer`` — multiple processes hammer one run
  store; the fsync'd appends under the advisory lock must lose no
  entry and corrupt none.

Every injection site is an *event ordinal* (the Nth release, the Nth
acquire attempt), not a wall-clock or cycle trigger, so a campaign is
bit-reproducible under a seed.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, replace

from repro.arch.config import GpuConfig
from repro.errors import FaultInjectionError, SimulationError
from repro.isa.instructions import Instruction, Opcode
from repro.isa.kernel import Kernel
from repro.regmutex.issue_logic import RegMutexSmState, RegMutexTechnique
from repro.sim.stats import SmStats
from repro.sim.technique import BaselineTechnique, SmTechniqueState
from repro.sim.warp import Warp


@dataclass(frozen=True)
class FaultKind:
    """Registry entry: where a fault lives and what it corrupts."""

    name: str
    layer: str  # "srp" | "compiler" | "harness" | "cache"
    description: str


FAULT_KINDS: dict[str, FaultKind] = {
    k.name: k
    for k in (
        FaultKind("dropped-release", "srp",
                  "a RELEASE is lost in flight; the section leaks"),
        FaultKind("srp-bit-corruption", "srp",
                  "an SRP bitmask bit flips out from under the LUT"),
        FaultKind("unbalanced-acquire", "compiler",
                  "the compiled kernel acquires without releasing"),
        FaultKind("worker-crash", "harness",
                  "a pool worker process dies mid-job (transient)"),
        FaultKind("sim-error", "harness",
                  "a job fails deterministically inside the worker"),
        FaultKind("worker-sleep", "harness",
                  "a worker hangs past the per-job timeout"),
        FaultKind("cache-truncate", "cache",
                  "the cache file is cut short mid-record"),
        FaultKind("cache-garbage", "cache",
                  "the cache file is overwritten with non-JSON bytes"),
        FaultKind("cache-poison-entry", "cache",
                  "one cache record is altered without its checksum"),
        FaultKind("kill-mid-run", "harness",
                  "a worker is SIGKILLed at a deterministic sim cycle"),
        FaultKind("cache-concurrent-writer", "cache",
                  "concurrent processes collide on one result cache"),
    )
}


def fault_kinds() -> tuple[str, ...]:
    return tuple(sorted(FAULT_KINDS))


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: a registered kind plus its deterministic trigger.

    ``trigger`` is an event ordinal — the Nth occurrence of the fault's
    target event (release, acquire attempt, …) fires the injection.
    ``seed`` feeds any remaining choice (e.g. which bit to flip) so a
    campaign replays bit-identically.
    """

    kind: str
    trigger: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            known = ", ".join(fault_kinds())
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r} (known: {known})"
            )
        if self.trigger < 0:
            raise FaultInjectionError("trigger ordinal must be >= 0")

    @property
    def layer(self) -> str:
        return FAULT_KINDS[self.kind].layer


# -- compiler-level faults: kernel transforms --------------------------------------
def drop_release(kernel: Kernel, occurrence: int = 0) -> Kernel:
    """Remove the Nth RELEASE instruction (an unbalanced acquire).

    A boundary label on the removed RELEASE migrates to the following
    instruction so branch targets stay valid; a candidate whose
    successor already carries a label is skipped (removing it would
    require merging labels, which no real miscompile would do).
    """
    candidates = [
        pc for pc, inst in enumerate(kernel)
        if inst.opcode is Opcode.RELEASE
        and (inst.label is None
             or (pc + 1 < len(kernel) and kernel[pc + 1].label is None))
    ]
    if not candidates:
        raise FaultInjectionError(
            f"kernel {kernel.name!r} has no removable RELEASE to drop"
        )
    target = candidates[occurrence % len(candidates)]
    moved_label = kernel[target].label
    new_instructions: list[Instruction] = []
    for pc, inst in enumerate(kernel):
        if pc == target:
            continue
        if pc == target + 1 and moved_label is not None:
            inst = replace(inst, label=moved_label)
        new_instructions.append(inst)
    return kernel.with_instructions(new_instructions)


def insert_acquire(kernel: Kernel, before_pc: int) -> Kernel:
    """Insert a spurious ACQUIRE before ``before_pc`` (the other
    unbalanced shape: an extra acquire the release count never matches).
    The displaced instruction's label moves onto the ACQUIRE so branch
    targets execute it — mirroring the real injector's label rule."""
    if not 0 <= before_pc < len(kernel):
        raise FaultInjectionError(f"pc {before_pc} outside kernel")
    new_instructions: list[Instruction] = []
    for pc, inst in enumerate(kernel):
        if pc == before_pc:
            new_instructions.append(
                Instruction(Opcode.ACQUIRE, label=inst.label)
            )
            inst = replace(inst, label=None)
        new_instructions.append(inst)
    return kernel.with_instructions(new_instructions)


# -- SRP-level faults: a sabotaged RegMutex SM state -------------------------------
class FaultingRegMutexState(RegMutexSmState):
    """RegMutex per-SM state with one armed hardware fault.

    Behaves identically to the real state until the armed event
    ordinal, then corrupts the SRP through
    ``Srp.corrupt_for_fault_injection`` — after which detection is the
    watchdog's and the sanitizer's problem, exactly as it would be on
    real silicon.
    """

    def __init__(self, *args, fault: FaultSpec, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fault = fault
        self._releases_seen = 0
        self._acquires_seen = 0
        self.fault_fired_at: int | None = None

    def try_acquire(self, warp: Warp, cycle: int) -> bool:
        if (
            self.fault.kind == "srp-bit-corruption"
            and self.fault_fired_at is None
            and self._acquires_seen >= self.fault.trigger
        ):
            # Fires at the first acquire at-or-after the trigger ordinal
            # where a section bit is actually clear (a flip of an
            # already-set bit would be invisible); FFZ is a pure
            # function of the bitmask, so the site stays deterministic.
            free = self.srp.srp_bitmask.find_first_zero()
            if free is not None:
                # The flipped bit marks a free section as taken; the
                # LUT says nobody holds it.
                self.srp.corrupt_for_fault_injection(
                    set_section_bits=(free,)
                )
                self.fault_fired_at = cycle
        self._acquires_seen += 1
        return super().try_acquire(warp, cycle)

    def release(self, warp: Warp, cycle: int) -> None:
        if (
            self.fault.kind == "dropped-release"
            and self.fault_fired_at is None
            and self._releases_seen == self.fault.trigger
            and warp.holds_extended_set
        ):
            self._releases_seen += 1
            # The release never reaches the SRP: the warp believes it
            # released (and the pipeline advances it), but the section
            # bit stays set and no waiter is woken.
            self.srp.corrupt_for_fault_injection(clear_slots=(warp.slot,))
            warp.holds_extended_set = False
            warp.srp_section = None
            self.fault_fired_at = cycle
            return
        self._releases_seen += 1
        super().release(warp, cycle)

    def debug_snapshot(self) -> dict:
        snapshot = super().debug_snapshot()
        snapshot["fault"] = {
            "kind": self.fault.kind,
            "trigger": self.fault.trigger,
            "fired_at": self.fault_fired_at,
        }
        return snapshot

    def state_snapshot(self) -> dict:
        payload = super().state_snapshot()
        payload["fault_counters"] = {
            "releases_seen": self._releases_seen,
            "acquires_seen": self._acquires_seen,
            "fired_at": self.fault_fired_at,
        }
        return payload


class FaultingRegMutexTechnique(RegMutexTechnique):
    """RegMutex with a fault armed — the campaign's simulator entry.

    Accepts pre-instrumented kernels (``uses_regmutex`` already set) so
    campaign scenarios can hand-place acquire/release/barrier shapes
    the compiler's deadlock rules would (correctly) refuse to emit;
    ``forced_sections`` pins the SRP size to create contention on tiny
    configs.
    """

    name = "regmutex-faulty"

    def __init__(
        self,
        fault: FaultSpec,
        extended_set_size: int | None = None,
        retry_policy: str = "wakeup",
        forced_sections: int | None = None,
    ) -> None:
        super().__init__(
            extended_set_size=extended_set_size, retry_policy=retry_policy
        )
        self.fault = fault
        self.forced_sections = forced_sections

    def prepare_kernel(self, kernel: Kernel, config: GpuConfig) -> Kernel:
        if kernel.metadata.uses_regmutex:
            compiled = kernel  # pre-instrumented scenario kernel
        else:
            compiled = super().prepare_kernel(kernel, config)
        if self.fault.kind == "unbalanced-acquire":
            compiled = drop_release(compiled, occurrence=self.fault.seed)
        return compiled

    def num_sections(self, kernel: Kernel, config: GpuConfig) -> int:
        if self.forced_sections is not None:
            return self.forced_sections
        return super().num_sections(kernel, config)

    def make_sm_state(
        self, kernel: Kernel, config: GpuConfig, stats: SmStats
    ) -> FaultingRegMutexState:
        return FaultingRegMutexState(
            kernel,
            config,
            stats,
            num_sections=self.num_sections(kernel, config),
            retry_policy=self.retry_policy,
            fault=self.fault,
        )


# -- harness-level faults: a technique that sabotages its worker -------------------
class FaultyWorkerTechnique(BaselineTechnique):
    """Baseline behaviour, plus one harness fault at kernel-prepare time.

    ``prepare_kernel`` runs inside the worker process (the orchestrator
    only fingerprints the technique in the parent), so this is the
    deterministic way to kill, fail, or hang a specific pool worker:

    * ``worker-crash`` — ``os._exit`` unless ``marker_path`` exists;
      the first attempt writes the marker and dies, the retry runs
      clean.  Models a transient environmental crash (OOM kill, node
      preemption).
    * ``sim-error`` — raise :class:`SimulationError`; deterministic, so
      the orchestrator must NOT retry it.
    * ``worker-sleep`` — sleep ``delay_seconds`` to trip the per-job
      timeout.
    """

    name = "faulty-worker"

    def __init__(
        self,
        mode: str = "worker-crash",
        marker_path: str = "",
        delay_seconds: float = 0.0,
        message: str = "injected deterministic simulation failure",
    ) -> None:
        if mode not in ("worker-crash", "sim-error", "worker-sleep"):
            raise FaultInjectionError(f"unknown worker fault mode {mode!r}")
        if mode == "worker-crash" and not marker_path:
            # Without a marker the crash would repeat on every retry
            # (and kill the orchestrating process itself in inline mode).
            raise FaultInjectionError(
                "worker-crash mode requires a marker_path"
            )
        self.mode = mode
        self.marker_path = marker_path
        self.delay_seconds = delay_seconds
        self.message = message

    def prepare_kernel(self, kernel: Kernel, config: GpuConfig) -> Kernel:
        if self.mode == "worker-crash":
            if not os.path.exists(self.marker_path):
                with open(self.marker_path, "w") as fh:
                    fh.write(str(os.getpid()))
                os._exit(23)  # hard death: no exception crosses the pipe
        elif self.mode == "sim-error":
            raise SimulationError(self.message)
        elif self.mode == "worker-sleep" and self.delay_seconds > 0:
            time.sleep(self.delay_seconds)
        return kernel


# -- kill-mid-run: a worker that dies at a deterministic cycle ---------------------
class _KillMidRunState(SmTechniqueState):
    """Baseline-identical issue state that SIGKILLs its own process.

    The kill fires on the first ``can_issue`` probe at or past
    ``kill_cycle`` — a deterministic point in a deterministic
    simulation — unless the marker file exists (the retried worker
    writes nothing and runs clean, so recovery is provable).  SIGKILL,
    not an exception: nothing crosses the pipe, the pool only sees a
    dead process, exactly like an OOM kill landing mid-simulation.
    """

    def __init__(self, *args, kill_cycle: int, marker_path: str, **kwargs):
        super().__init__(*args, **kwargs)
        self.kill_cycle = kill_cycle
        self.marker_path = marker_path

    def can_issue(self, warp: Warp, inst, cycle: int) -> bool:
        if cycle >= self.kill_cycle and not os.path.exists(self.marker_path):
            with open(self.marker_path, "w") as fh:
                fh.write(f"{os.getpid()} killed at cycle {cycle}")
                fh.flush()
                os.fsync(fh.fileno())
            os.kill(os.getpid(), signal.SIGKILL)
        return super().can_issue(warp, inst, cycle)


class KillMidRunTechnique(BaselineTechnique):
    """Baseline occupancy and timing, plus one mid-run SIGKILL.

    Used by the kill-mid-run campaign: the first dispatch dies at
    ``kill_cycle``, the marker file lets the retry finish, and the
    retry's record, recomputed from cycle 0, must be bit-identical to a
    plain baseline run.
    """

    name = "kill-mid-run"

    def __init__(self, kill_cycle: int = 0, marker_path: str = "") -> None:
        if kill_cycle > 0 and not marker_path:
            raise FaultInjectionError(
                "kill-mid-run with a positive kill_cycle requires a "
                "marker_path, or every retry dies identically"
            )
        self.kill_cycle = kill_cycle
        self.marker_path = marker_path

    def make_sm_state(
        self, kernel: Kernel, config: GpuConfig, stats: SmStats
    ) -> SmTechniqueState:
        if self.kill_cycle <= 0:
            return super().make_sm_state(kernel, config, stats)
        return _KillMidRunState(
            kernel, config, stats,
            kill_cycle=self.kill_cycle, marker_path=self.marker_path,
        )


# -- cache-level faults ------------------------------------------------------------
def corrupt_cache_file(path: str, kind: str, seed: int = 0) -> str:
    """Damage an on-disk run store in one of three deterministic ways.

    Returns the damaged text: the torn final line, the garbage, or the
    poisoned line (without its newline) — what the store must
    quarantine and never adopt.
    """
    import json

    if kind == "cache-truncate":
        # A torn write: the file loses its second half, mid-line.
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(max(1, size // 2))
        with open(path) as fh:
            return fh.read().rpartition("\n")[2]
    elif kind == "cache-garbage":
        garbage = "{this is not json" + "x" * (seed % 7)
        with open(path, "w") as fh:
            fh.write(garbage)
        return garbage
    elif kind == "cache-poison-entry":
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise FaultInjectionError(f"cache {path!r} has no entries to poison")
        index = seed % len(lines)
        entry = json.loads(lines[index])
        # Flip a result field without touching the stored checksum —
        # the signature of silent bit-rot.
        entry["record"]["cycles"] += 1
        lines[index] = json.dumps(entry, separators=(",", ":"))
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in lines)
        return lines[index]
    else:
        raise FaultInjectionError(f"unknown cache fault kind {kind!r}")
