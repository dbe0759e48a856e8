"""Cycle-sampled probes: columnar timelines of SM state.

Where the event log captures *transitions*, probes capture *levels*: at
a configurable stride (every N-th cycle) the observer snapshots SRP
occupancy, the warp-status histogram, live-register pressure, and the
cumulative issue/stall counters.  Columns are parallel Python lists
that the exporters and the report read directly.  The histogram is one
walk over the SM's resident warps on either issue engine (a columnar
SM's warps are views whose attributes read its columns), and the
counters are the live ``SmStats``, so the final sample, taken on the
run's last cycle, equals the run's stall attribution.

Live-register pressure counts registers a warp can architecturally
touch right now: ``|Bs|`` per resident warp (its private base set) plus
``|Es|`` per currently-held SRP section, times the warp size.  On a
non-RegMutex kernel it degrades to ``regs_per_thread × warps``.
"""

from __future__ import annotations

from repro.sim.warp import WarpStatus


_COLUMNS = (
    "cycle", "srp_in_use", "srp_total", "warps_ready", "warps_at_barrier",
    "warps_waiting_acquire", "resident_warps", "section_holders",
    "live_registers", "instructions_issued", "idle_scheduler_cycles",
    "stall_memory", "stall_scoreboard", "stall_barrier", "stall_acquire",
)


class ProbeSeries:
    """Columnar store of cycle-sampled SM state.

    ``sched_issued`` is the one non-scalar column: a tuple per sample of
    each scheduler's cumulative issued-instruction count, feeding the
    per-scheduler Perfetto tracks and the idle-breakdown report.
    """

    __slots__ = tuple(_COLUMNS) + ("stride", "sched_issued")

    def __init__(self, stride: int = 64) -> None:
        if stride <= 0:
            raise ValueError("sampling stride must be positive")
        self.stride = stride
        self.sched_issued: list[tuple[int, ...]] = []
        for name in _COLUMNS:
            setattr(self, name, [])

    def __len__(self) -> int:
        return len(self.cycle)

    @property
    def columns(self) -> tuple[str, ...]:
        return _COLUMNS

    def sample(self, sm) -> None:
        """Append one row snapshotted from a live SM."""
        ready = barrier = waiting = resident = holders = live = 0
        for warps in sm._warps_by_scheduler:
            for w in warps:
                status = w.status
                if status is WarpStatus.FINISHED:
                    continue
                resident += 1
                if status is WarpStatus.READY:
                    ready += 1
                elif status is WarpStatus.AT_BARRIER:
                    barrier += 1
                elif status is WarpStatus.WAITING_ACQUIRE:
                    waiting += 1
                md = w.kernel.metadata
                live += md.base_set_size or md.regs_per_thread
                if w.holds_extended_set:
                    holders += 1
                    live += md.extended_set_size or 0

        view = sm.technique.srp_view()
        in_use, total = view if view is not None else (0, 0)
        stats = sm.stats
        self.cycle.append(sm.cycle)
        self.srp_in_use.append(in_use)
        self.srp_total.append(total)
        self.warps_ready.append(ready)
        self.warps_at_barrier.append(barrier)
        self.warps_waiting_acquire.append(waiting)
        self.resident_warps.append(resident)
        self.section_holders.append(holders)
        self.live_registers.append(live * sm.config.warp_size)
        self.instructions_issued.append(stats.instructions_issued)
        self.idle_scheduler_cycles.append(stats.idle_scheduler_cycles)
        self.stall_memory.append(stats.stall_memory)
        self.stall_scoreboard.append(stats.stall_scoreboard)
        self.stall_barrier.append(stats.stall_barrier)
        self.stall_acquire.append(stats.stall_acquire)
        self.sched_issued.append(
            tuple(s.issued_count for s in sm.schedulers)
        )

    # -- summaries -------------------------------------------------------------
    def srp_utilization(self) -> float:
        """Mean fraction of SRP sections in use across the samples."""
        pairs = [
            (u, t) for u, t in zip(self.srp_in_use, self.srp_total) if t > 0
        ]
        if not pairs:
            return 0.0
        return sum(u / t for u, t in pairs) / len(pairs)

    def peak_srp_in_use(self) -> int:
        return max(self.srp_in_use, default=0)
