"""Warp state machine.

A warp walks the kernel's instruction list with a private program
counter, resolving branch direction from the workload's annotations
(deterministic loop trip counts, or probabilities drawn from the warp's
own RNG stream).  The SM pipeline transitions warps between statuses;
the warp itself only knows how to fetch its next instruction and advance.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.isa.instructions import Instruction
from repro.isa.kernel import Kernel
from repro.sim.rand import DeterministicRng


class WarpStatus(enum.Enum):
    READY = "ready"                  # eligible for issue
    AT_BARRIER = "at_barrier"        # arrived at BAR.SYNC, waiting for CTA
    WAITING_ACQUIRE = "wait_acquire"  # blocked on extended-set acquire
    FINISHED = "finished"            # executed EXIT


def resolve_conditional_branch(
    pc: int,
    target_pc: int,
    trip_count: Optional[int],
    prob: float,
    trips: dict[int, int],
    rng: DeterministicRng,
) -> int:
    """Direction of a conditional branch at ``pc``: the behavior half of
    the warp's control flow, shared between :meth:`Warp.resolve_branch_target`
    and the columnar stepper (``repro.sim.columnar``), which reads the
    pre-decoded annotations out of :class:`~repro.sim.columnar.KernelColumns`
    instead of the ``Instruction``.  Both callers must sample the same RNG
    stream in the same order — keeping the logic in one place is what makes
    the engines' branch outcomes bit-identical by construction.

    Trip-count-annotated branches iterate deterministically
    (``trip_count`` taken transfers, then one fall-through, then the
    counter rearms for outer-loop re-entry).  Probability-annotated
    branches sample the warp's RNG (only when ``prob > 0.0`` — an
    unannotated branch must not consume a draw).
    """
    if trip_count is not None:
        remaining = trips.get(pc, trip_count)
        if remaining > 0:
            trips[pc] = remaining - 1
            return target_pc
        trips[pc] = trip_count
        return pc + 1
    if prob > 0.0 and rng.uniform() < prob:
        return target_pc
    return pc + 1


class Warp:
    """One warp resident on an SM."""

    __slots__ = (
        "warp_id", "cta_id", "kernel", "pc", "status", "rng",
        "_trips_remaining", "holds_extended_set", "srp_section",
        "dynamic_instructions", "acquire_block_since",
        "owns_pair_lock", "stalled_on", "wake_cycle", "slot",
    )

    def __init__(
        self,
        warp_id: int,
        cta_id: int,
        kernel: Kernel,
        rng: DeterministicRng,
        slot: int | None = None,
    ) -> None:
        self.warp_id = warp_id
        self.cta_id = cta_id
        # SM-local warp slot: indexes the per-SM hardware structures
        # (SRP status bit, register-file base block).
        # warp_id is globally unique and monotonic; two warps whose ids
        # differ by max_warps_per_sm must still get distinct slots, so
        # the SM allocates slots explicitly.  Defaults to warp_id for
        # directly constructed warps (tests, single-wave setups).
        self.slot = warp_id if slot is None else slot
        self.kernel = kernel
        self.pc = 0
        self.status = WarpStatus.READY
        self.rng = rng
        self._trips_remaining: dict[int, int] = {}
        # RegMutex state
        self.holds_extended_set = False
        self.srp_section: Optional[int] = None
        # Diagnostics
        self.dynamic_instructions = 0
        self.acquire_block_since: Optional[int] = None
        # OWF baseline state
        self.owns_pair_lock = False
        # Why the warp could not issue last time it was considered
        # ("scoreboard" | "memory" | "technique" | None) — feeds the
        # stall breakdown.
        self.stalled_on: Optional[str] = None
        # Scheduler skip hint: the warp cannot possibly issue before this
        # cycle (its blocking scoreboard entries cannot change while it
        # is stalled, because only the warp's own issues add entries).
        self.wake_cycle = 0

    # -- instruction access --------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.status is WarpStatus.FINISHED

    def current_instruction(self) -> Instruction:
        return self.kernel[self.pc]

    # -- control flow ----------------------------------------------------------
    def resolve_branch_target(self, inst: Instruction) -> int:
        """Next PC after executing branch ``inst`` at the current PC.

        Trip-count-annotated branches iterate deterministically
        (``trip_count`` taken transfers, then one fall-through, then the
        counter rearms for outer-loop re-entry).  Probability-annotated
        branches sample the warp's RNG.  Unannotated conditional branches
        fall through.
        """
        if not inst.is_branch:
            raise ValueError("resolve_branch_target on a non-branch")
        if not inst.is_conditional_branch:  # JMP
            return self.kernel.label_pc(inst.target)
        return resolve_conditional_branch(
            self.pc,
            self.kernel.label_pc(inst.target),
            inst.trip_count,
            inst.taken_probability if inst.taken_probability is not None else 0.0,
            self._trips_remaining,
            self.rng,
        )

    def advance(self, next_pc: int) -> None:
        self.pc = next_pc
        self.dynamic_instructions += 1

    def finish(self) -> None:
        self.status = WarpStatus.FINISHED
        self.dynamic_instructions += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Warp(id={self.warp_id}, cta={self.cta_id}, pc={self.pc}, "
            f"{self.status.value})"
        )
