"""The event log: the one sink every observability producer appends to.

An :class:`EventLog` only exists while observability is enabled — the
SM holds no observer when disabled, so the disabled hot path pays a
single ``is None`` branch per cycle and nothing else (see
:mod:`repro.sim.sm`).  Producers (the observing technique wrapper, the
SRP transition callback, the SM's observer hooks, the sanitizer and
the service daemon) call :meth:`EventLog.append` directly; the log is
an append-only list of :class:`~repro.observe.events.SimEvent` with
the query helpers the exporters, the report and the test suite need
(kind/warp filters, SRP hold intervals).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.observe.events import (
    ACQUIRE_OK,
    RELEASE,
    SimEvent,
    WARP_FINISH,
)


class EventLog:
    """An append-only event record with query helpers."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[SimEvent] = []

    def append(self, event: SimEvent) -> None:
        self.events.append(event)

    # -- queries ---------------------------------------------------------------
    def of_kind(self, kind: str) -> list[SimEvent]:
        return [e for e in self.events if e.kind == kind]

    def for_warp(self, warp_id: int) -> list[SimEvent]:
        return [e for e in self.events if e.warp_id == warp_id]

    def warp_ids(self) -> list[int]:
        """Sorted warp ids that appear in any warp-subject event."""
        return sorted({e.warp_id for e in self.events if e.warp_id >= 0})

    def hold_intervals(self, warp_id: int) -> list[tuple[int, int]]:
        """(acquire cycle, release cycle) pairs for one warp.

        An unmatched trailing acquire (section reclaimed at EXIT) closes
        at the warp's finish event, or at the last logged cycle.
        """
        intervals: list[tuple[int, int]] = []
        start: Optional[int] = None
        finish: Optional[int] = None
        for e in self.events:
            if e.warp_id != warp_id:
                continue
            if e.kind == ACQUIRE_OK and start is None:
                start = e.cycle
            elif e.kind == RELEASE and start is not None:
                intervals.append((start, e.cycle))
                start = None
            elif e.kind == WARP_FINISH:
                finish = e.cycle
        if start is not None:
            last = finish if finish is not None else (
                self.events[-1].cycle if self.events else start
            )
            intervals.append((start, last))
        return intervals

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[SimEvent]:
        return iter(self.events)
