"""Warp schedulers: greedy-then-oldest (GTO) and loose round-robin (LRR).

Each SM hosts ``config.num_schedulers`` scheduler instances; resident
warps are partitioned across them by warp id (even/odd for two
schedulers, as on Fermi).  A scheduler, given the set of issuable warps
this cycle, picks one.

GTO (the paper's baseline policy): keep issuing from the same warp until
it stalls, then switch to the oldest ready warp (oldest = lowest launch
sequence number).

LRR: rotate through warps in id order starting after the last issued.

The OWF baseline (Jatala et al.) adds *owner-warp-first* on top of GTO:
warps holding the pair lock outrank everyone else.  The technique state
declares it as per-slot priority bits (``OwfSmState.scheduler_priority``,
its lock-owner bits), which the SM passes to :func:`make_scheduler`.
The bits are data, so the columnar engine's C loop evaluates the same
rule without calling back into Python; :meth:`GtoScheduler.pick` is its
reference.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from repro.sim.warp import Warp


class WarpScheduler:
    """Base scheduler interface."""

    def __init__(self, scheduler_id: int) -> None:
        self.scheduler_id = scheduler_id
        # Cumulative issued-instruction count, read by the observability
        # probes for the per-scheduler Perfetto tracks.
        self.issued_count = 0

    def pick(self, candidates: Sequence[Warp]) -> Optional[Warp]:
        """Choose one warp among issuable candidates (None if empty)."""
        raise NotImplementedError

    def notify_issued(self, warp: Warp) -> None:
        """Called after the chosen warp successfully issued."""
        self.issued_count += 1

    def notify_removed(self, warp: Warp) -> None:
        """Called when a warp leaves the SM (CTA retired)."""

    # -- state snapshot (repro.sim.checkpoint) -------------------------------------
    def snapshot(self) -> dict:
        """Mutable rotation state (policy-specific fields via override)."""
        return {"issued_count": self.issued_count}


def _by_warp_id(warp: Warp) -> int:
    """Module-level sort key: ``min(key=lambda ...)`` on the issue path
    would build a fresh closure per cycle."""
    return warp.warp_id


class GtoScheduler(WarpScheduler):
    """Greedy-then-oldest, optionally ranking prioritized warps first.

    ``priority`` is None or an ``array('l')`` with one entry per warp
    slot: when any candidate's entry is nonzero, the pick is made among
    those candidates only.  It is data, not a callable, so the columnar
    engine's C loop reads the same bits; this :meth:`pick` is the rule's
    Python reference, which the scan stepper runs.
    """

    def __init__(self, scheduler_id: int, priority: array | None = None) -> None:
        super().__init__(scheduler_id)
        if priority is not None and not (
            isinstance(priority, array) and priority.typecode == "l"
        ):
            raise TypeError(
                "GTO priority must be per-slot bits in an array('l'), not "
                f"{type(priority).__name__}"
            )
        self._greedy: Optional[Warp] = None
        self._priority = priority

    def pick(self, candidates: Sequence[Warp]) -> Optional[Warp]:
        if not candidates:
            return None
        bits = self._priority
        if bits is not None:
            top = [w for w in candidates if bits[w.slot]]
            if top:
                candidates = top
        greedy = self._greedy
        if greedy is not None and greedy in candidates:
            return greedy
        # Oldest = smallest warp id (ids are assigned in launch order).
        return min(candidates, key=_by_warp_id)

    def notify_issued(self, warp: Warp) -> None:
        self.issued_count += 1
        self._greedy = warp

    def notify_removed(self, warp: Warp) -> None:
        if self._greedy is warp:
            self._greedy = None

    def snapshot(self) -> dict:
        payload = super().snapshot()
        payload["greedy"] = (
            self._greedy.warp_id if self._greedy is not None else None
        )
        return payload


class LrrScheduler(WarpScheduler):
    """Loose round-robin: next warp id after the last issued one."""

    def __init__(self, scheduler_id: int) -> None:
        super().__init__(scheduler_id)
        self._last_id = -1

    def pick(self, candidates: Sequence[Warp]) -> Optional[Warp]:
        if not candidates:
            return None
        # Candidates arrive id-ascending by construction: the SM builds
        # them in launch order and re-inserts requalified warps in id
        # position (both steppers), so the old per-pick sort only
        # reproduced the order it was given.
        last = self._last_id
        for warp in candidates:
            if warp.warp_id > last:
                return warp
        return candidates[0]

    def notify_issued(self, warp: Warp) -> None:
        self.issued_count += 1
        self._last_id = warp.warp_id

    def notify_removed(self, warp: Warp) -> None:
        pass

    def snapshot(self) -> dict:
        payload = super().snapshot()
        payload["last_id"] = self._last_id
        return payload


def make_scheduler(
    policy: str,
    scheduler_id: int,
    priority: array | None = None,
) -> WarpScheduler:
    """Factory keyed by the config's ``scheduler_policy`` string."""
    if policy == "gto":
        return GtoScheduler(scheduler_id, priority=priority)
    if policy == "lrr":
        if priority is not None:
            raise ValueError("priority bits are only supported for GTO")
        return LrrScheduler(scheduler_id)
    raise ValueError(f"unknown scheduler policy {policy!r}")
