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
warps holding the pair lock outrank everyone else, a priority hook that
the technique state declares (``OwfSmState.scheduler_priority``) and the
SM passes to :func:`make_scheduler`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

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
    """Greedy-then-oldest with an optional priority hook.

    ``priority`` maps a warp to a sort key *before* the greedy/oldest
    rule; lower sorts first.  The default gives every warp equal priority.
    """

    def __init__(
        self,
        scheduler_id: int,
        priority: Callable[[Warp], int] | None = None,
    ) -> None:
        super().__init__(scheduler_id)
        self._greedy: Optional[Warp] = None
        # With no hook every warp ties at priority 0; the single-pass
        # partition below would only rediscover ``top == candidates``,
        # so the common case (no OWF-style hook installed) skips it —
        # this is on the per-cycle issue path.
        self._default_priority = priority is None
        self._priority = priority or (lambda w: 0)
        # Persistent top-tier scratch: no per-pick list allocation.
        self._top: list[Warp] = []

    def pick(self, candidates: Sequence[Warp]) -> Optional[Warp]:
        if not candidates:
            return None
        if self._default_priority:
            greedy = self._greedy
            if greedy is not None and greedy in candidates:
                return greedy
            return min(candidates, key=_by_warp_id)
        # Single pass: the hook runs exactly once per candidate (OWF's
        # hook is pure but hooks are user-supplied — don't assume).
        priority = self._priority
        top = self._top
        top.clear()
        best_priority: int | None = None
        for w in candidates:
            p = priority(w)
            if best_priority is None or p < best_priority:
                best_priority = p
                top.clear()
                top.append(w)
            elif p == best_priority:
                top.append(w)
        if self._greedy is not None and self._greedy in top:
            return self._greedy
        # Oldest = smallest warp id (ids are assigned in launch order).
        return min(top, key=_by_warp_id)

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
    priority: Callable[[Warp], int] | None = None,
) -> WarpScheduler:
    """Factory keyed by the config's ``scheduler_policy`` string."""
    if policy == "gto":
        return GtoScheduler(scheduler_id, priority=priority)
    if policy == "lrr":
        if priority is not None:
            raise ValueError("priority hook is only supported for GTO")
        return LrrScheduler(scheduler_id)
    raise ValueError(f"unknown scheduler policy {policy!r}")
