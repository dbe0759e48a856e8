"""Per-warp register scoreboard.

Tracks, for each (warp, architected register), the cycle at which a
pending write completes.  An instruction may issue only when none of its
source or destination registers has an outstanding write (RAW and WAW
hazards), which is how in-order GPU pipelines behave at issue.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.isa.instructions import Instruction


class Scoreboard:
    """Pending-write tracking for all warps of one SM."""

    __slots__ = ("_pending", "_completions")

    def __init__(self) -> None:
        # warp_id -> {reg_index: ready_cycle}
        self._pending: dict[int, dict[int, int]] = {}
        # Completion min-heap of (ready_cycle, warp_id, reg), pushed on
        # every dict update so ``earliest_ready`` is a heap peek instead
        # of a scan of all pending writes.  Entries go stale when an
        # entry is superseded by a later write, expired, or its warp
        # removed; they are lazily discarded at read time by validating
        # against the dict.  Warp ids are never reused (globally
        # monotonic), so a (warp, reg) match is never a false positive.
        self._completions: list[tuple[int, int, int]] = []

    def register_warp(self, warp_id: int) -> None:
        self._pending[warp_id] = {}

    def remove_warp(self, warp_id: int) -> None:
        self._pending.pop(warp_id, None)

    def can_issue(self, warp_id: int, inst: Instruction, cycle: int) -> bool:
        """No outstanding write on any register the instruction touches."""
        pending = self._pending[warp_id]
        if not pending:
            return True
        for reg in inst.srcs:
            ready = pending.get(reg)
            if ready is not None and ready > cycle:
                return False
        for reg in inst.dsts:
            ready = pending.get(reg)
            if ready is not None and ready > cycle:
                return False
        return True

    def blocking_registers(self, warp_id: int, inst: Instruction, cycle: int) -> list[int]:
        """Registers preventing issue (diagnostics)."""
        pending = self._pending[warp_id]
        return [
            reg
            for reg in (*inst.srcs, *inst.dsts)
            if pending.get(reg, 0) > cycle
        ]

    def ready_cycle(self, warp_id: int, inst: Instruction, cycle: int) -> int:
        """The cycle at which all of the instruction's registers clear —
        the warp's scheduler skip hint after a scoreboard stall."""
        pending = self._pending[warp_id]
        latest = cycle
        for reg in (*inst.srcs, *inst.dsts):
            ready = pending.get(reg)
            if ready is not None and ready > latest:
                latest = ready
        return latest

    def record_write(self, warp_id: int, reg: int, ready_cycle: int) -> None:
        pending = self._pending[warp_id]
        current = pending.get(reg, 0)
        if ready_cycle > current:
            pending[reg] = ready_cycle
            heappush(self._completions, (ready_cycle, warp_id, reg))

    def expire(self, cycle: int) -> None:
        """Drop entries that have completed (keeps dicts small)."""
        for pending in self._pending.values():
            done = [reg for reg, ready in pending.items() if ready <= cycle]
            for reg in done:
                del pending[reg]
        # Prune the matching heap prefix so the heap's size stays
        # bounded by live entries too (the lazy discard in
        # ``earliest_ready`` alone would keep stale tails around).
        heap = self._completions
        while heap and heap[0][0] <= cycle:
            heappop(heap)

    def pending_count(self, warp_id: int, cycle: int) -> int:
        pending = self._pending.get(warp_id, {})
        return sum(1 for ready in pending.values() if ready > cycle)

    def pending_writes(self, warp_id: int, cycle: int) -> dict[int, int]:
        """The warp's live writes (``ready > cycle``) as ``{reg: ready}``,
        register-sorted — the engine-neutral scoreboard state a
        snapshot (:func:`repro.sim.checkpoint.capture_sm`) carries."""
        pending = self._pending[warp_id]
        return {reg: pending[reg] for reg in sorted(pending) if pending[reg] > cycle}

    def earliest_ready(self, cycle: int) -> int | None:
        """The soonest future completion across all warps (None if no
        pending writes) — the fast-forward target when every scheduler
        is idle.

        Heap peek with lazy discard: an entry is live only if the dict
        still holds exactly that (warp, reg, cycle) triple.  Every
        future dict value has a heap entry (``record_write`` pushes on
        every update), so the first live entry is the true minimum.
        """
        heap = self._completions
        pending = self._pending
        while heap:
            ready, warp_id, reg = heap[0]
            if ready > cycle:
                warp_pending = pending.get(warp_id)
                if warp_pending is not None and warp_pending.get(reg) == ready:
                    return ready
            heappop(heap)
        return None

    def _earliest_ready_scan(self, cycle: int) -> int | None:
        """Reference implementation of :meth:`earliest_ready` (full scan),
        kept for the identity-pinning test."""
        earliest: int | None = None
        for pending in self._pending.values():
            for ready in pending.values():
                if ready > cycle and (earliest is None or ready < earliest):
                    earliest = ready
        return earliest

    def has_pending_memory(self, warp_id: int, cycle: int, horizon: int) -> bool:
        """Heuristic: any write completing further than ``horizon`` cycles
        out is (almost certainly) a memory access — used for the stall
        attribution breakdown only, never for correctness."""
        pending = self._pending.get(warp_id, {})
        return any(ready - cycle > horizon for ready in pending.values())
