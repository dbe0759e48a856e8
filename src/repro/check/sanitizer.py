"""Dynamic sanitizer: one per-issue / per-cycle runtime checker.

``GpuConfig.sanitizer`` is the simulator's one switch for dynamic
checks.  Every failure is reported as a typed :class:`SanitizerViolation`
with warp/pc/cycle provenance, appended to the attached observer's
event log (so violations land in Perfetto traces as instant events)
and raised as :class:`repro.errors.SanitizerError`.

Per issued instruction:

* **extended-access** — an SRP-family warp touches a register >= |Bs|
  without holding a section (the dynamic twin of the static verifier);
* **scoreboard-hazard** — the instruction issued over a pending write
  (RAW/WAW) the issue stage should have blocked on;
* **physical-bounds** — the technique's architected-to-physical mapping
  left the register file;
* **physical-aliasing** — a write claims a physical register another
  live warp wrote and still owns (claims are dropped at the owner's
  ACQUIRE/RELEASE — its section mapping changes — and at EXIT).

Per cycle:

* **structural-invariant** — the technique's own ``check_invariants``
  (SRP bitmask/LUT/status consistency for RegMutex), the only per-cycle
  caller of that hook;
* **wait-queue** — a finished warp parked in a wait queue or holding a
  stale wakeup, or a duplicated queue entry;
* **slot-accounting** — warp-slot leakage or aliasing in the SM's slot
  allocator.

Structural checks run every ``GpuConfig.sanitizer_stride`` cycles
(default 1 — every cycle); per-issue checks always run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvariantViolationError, SanitizerError
from repro.isa.instructions import Instruction, OpClass
from repro.observe.events import SANITIZER, SimEvent
from repro.regmutex.issue_logic import RegMutexSmState
from repro.regmutex.paired import PairedWarpsSmState
from repro.sim.technique import innermost
from repro.sim.warp import Warp

# Techniques whose kernels carry the acquire/release contract the
# extended-access check enforces.  OWF also sets |Bs| metadata but its
# warps legally touch shared registers without ACQUIRE (the hardware
# lock triggers on first access), so membership is by state type, not
# by kernel metadata.
_SRP_FAMILY = (RegMutexSmState, PairedWarpsSmState)


@dataclass(frozen=True)
class SanitizerViolation:
    """One runtime contract violation with full provenance."""

    check: str        # which checker fired (see module docstring)
    message: str
    cycle: int
    warp_id: int = -1  # -1: no warp subject (structural checks)
    pc: int = -1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        subject = f" warp {self.warp_id} pc {self.pc}" if self.warp_id >= 0 else ""
        return f"[{self.check}] cycle {self.cycle}{subject}: {self.message}"


class Sanitizer:
    """Per-SM dynamic checker installed when ``config.sanitizer`` is set.

    ``fail_fast`` (the default) raises :class:`SanitizerError` at the
    first violation — with the SM diagnostic snapshot attached, so the
    fault campaign's detectors classify it like any other structured
    failure.  With ``fail_fast=False`` violations accumulate in
    ``self.violations`` (used by tests that seed several).
    """

    def __init__(self, sm, fail_fast: bool = True) -> None:
        self.sm = sm
        self.fail_fast = fail_fast
        self.violations: list[SanitizerViolation] = []
        self._stride = max(1, getattr(sm.config, "sanitizer_stride", 1))
        # physical register -> (warp_id, arch_reg) of the live claimant.
        self._claims: dict[int, tuple[int, int]] = {}
        self._claims_by_warp: dict[int, list[int]] = {}

    # -- plumbing ------------------------------------------------------------------
    def _state(self):
        return innermost(self.sm.technique)

    def _report(
        self, check: str, message: str, cycle: int, warp_id: int = -1, pc: int = -1
    ) -> None:
        violation = SanitizerViolation(check, message, cycle, warp_id, pc)
        self.violations.append(violation)
        observer = self.sm._observer
        if observer is not None:
            observer.log.append(SimEvent(
                cycle, SANITIZER, warp_id=warp_id, pc=pc,
                detail=f"{check}: {message}",
            ))
        if self.fail_fast:
            raise SanitizerError(
                f"sanitizer: {violation}",
                violations=tuple(self.violations),
                diagnostic=self.sm.diagnostic(),
            )

    def _drop_claims(self, warp_id: int) -> None:
        for phys in self._claims_by_warp.pop(warp_id, ()):
            claim = self._claims.get(phys)
            if claim is not None and claim[0] == warp_id:
                del self._claims[phys]

    # -- per-issue checks ----------------------------------------------------------
    def on_issue(self, warp: Warp, inst: Instruction, cycle: int) -> None:
        state = self._state()
        metadata = warp.kernel.metadata

        if (
            isinstance(state, _SRP_FAMILY)
            and metadata.uses_regmutex
            and metadata.base_set_size
            and not warp.holds_extended_set
        ):
            base = metadata.base_set_size
            for reg in inst.registers:
                if reg >= base:
                    self._report(
                        "extended-access",
                        f"touched extended register R{reg} (|Bs|={base}) "
                        "without holding an SRP section",
                        cycle, warp.warp_id, warp.pc,
                    )

        if not self.sm.scoreboard.can_issue(warp.warp_id, inst, cycle):
            blocking = self.sm.scoreboard.blocking_registers(
                warp.warp_id, inst, cycle
            )
            regs = ", ".join(f"R{r}" for r in blocking)
            self._report(
                "scoreboard-hazard",
                f"{inst.opcode.value} issued over pending writes to {regs}",
                cycle, warp.warp_id, warp.pc,
            )

        if inst.op_class is OpClass.REGMUTEX or inst.is_exit:
            # The warp's extended mapping (or the warp itself) is going
            # away; its claims are no longer authoritative.
            self._drop_claims(warp.warp_id)
            return

        limit = self.sm.config.registers_per_sm
        for reg in dict.fromkeys(inst.registers):
            phys = state.resolve_physical(warp, reg)
            if not 0 <= phys < limit:
                self._report(
                    "physical-bounds",
                    f"R{reg} mapped to physical {phys}, outside "
                    f"[0, {limit})",
                    cycle, warp.warp_id, warp.pc,
                )
        for reg in inst.dsts:
            phys = state.resolve_physical(warp, reg)
            claim = self._claims.get(phys)
            if claim is not None and claim[0] != warp.warp_id:
                self._report(
                    "physical-aliasing",
                    f"write to R{reg} hit physical {phys}, still owned "
                    f"by warp {claim[0]} (its R{claim[1]})",
                    cycle, warp.warp_id, warp.pc,
                )
            self._claims[phys] = (warp.warp_id, reg)
            self._claims_by_warp.setdefault(warp.warp_id, []).append(phys)

    # -- per-cycle checks ----------------------------------------------------------
    def on_cycle(self, sm) -> None:
        cycle = sm.cycle
        if cycle % self._stride:
            return
        state = self._state()

        try:
            state.check_invariants(cycle)
        except InvariantViolationError as exc:
            self._report("structural-invariant", str(exc), cycle)

        for attr in ("_wait_queue", "_pending_wakeups"):
            queue = getattr(state, attr, None)
            if not queue:
                continue
            seen: set[int] = set()
            for warp in queue:
                if warp.finished:
                    self._report(
                        "wait-queue",
                        f"finished warp {warp.warp_id} still in {attr}",
                        cycle, warp.warp_id, warp.pc,
                    )
                if warp.warp_id in seen:
                    self._report(
                        "wait-queue",
                        f"warp {warp.warp_id} enqueued twice in {attr}",
                        cycle, warp.warp_id, warp.pc,
                    )
                seen.add(warp.warp_id)

        core = getattr(sm, "_columnar", None)
        if core is not None:
            # Columnar engine: the store's own structural contract —
            # queue membership vs qstate codes, ready-list ordering,
            # finished/free slots detached — plus agreement between the
            # holds column and the SRP's warp-status bitmask (the column
            # is a cache of the hardware structure; divergence means a
            # lost acquire/release transition).
            try:
                core.check_hygiene()
            except AssertionError as exc:
                self._report("columnar-hygiene", str(exc), cycle)
            srp = getattr(state, "srp", None)
            if srp is not None:
                srp_holds = srp.occupancy_columns()["holds"]
                holds = core.holds
                for slot, warp_id in enumerate(core.wid):
                    if warp_id < 0 or slot >= len(srp_holds):
                        continue
                    if bool(holds[slot]) != bool(srp_holds[slot]):
                        self._report(
                            "columnar-hygiene",
                            f"holds column says {bool(holds[slot])} for "
                            f"slot {slot} but SRP status bit is "
                            f"{bool(srp_holds[slot])}",
                            cycle, warp_id,
                        )

        occupied = sm._occupied_slots
        if len(occupied) != sm._resident_warp_count:
            self._report(
                "slot-accounting",
                f"{sm._resident_warp_count} resident warps but "
                f"{len(occupied)} occupied slots (leak or aliasing)",
                cycle,
            )
        if occupied and max(occupied) >= sm.config.max_warps_per_sm:
            self._report(
                "slot-accounting",
                f"slot {max(occupied)} outside the "
                f"{sm.config.max_warps_per_sm}-slot window",
                cycle,
            )
