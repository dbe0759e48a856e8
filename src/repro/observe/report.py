"""The text profile report: one readable page per profiled run.

Combines the aggregate counters (via
:mod:`repro.analysis.bottleneck`'s flame-style attribution), the
acquire/SRP statistics the paper's time-sharing story revolves around,
and the cycle-sampled timelines into the report ``repro profile``
prints.
"""

from __future__ import annotations

from repro.analysis.bottleneck import attribute_bottlenecks
from repro.arch.config import GpuConfig
from repro.observe.bus import EventLog
from repro.observe.probes import ProbeSeries
from repro.sim.stats import SmStats


def _sparkline(values: list[float], width: int = 48) -> str:
    blocks = " .:-=+*#%@"
    if not values:
        return "(no samples)"
    stride = max(1, len(values) // width)
    peak = max(max(values), 1e-12)
    chars = []
    for v in values[::stride]:
        frac = min(max(v / peak, 0.0), 1.0)
        chars.append(blocks[min(int(frac * (len(blocks) - 1)),
                                len(blocks) - 1)])
    return "".join(chars)


def profile_report(
    stats: SmStats,
    config: GpuConfig,
    samples: ProbeSeries | None = None,
    log: EventLog | None = None,
    title: str = "profile",
) -> str:
    """Render the profile report for one SM run."""
    lines = [title, "=" * len(title), ""]

    report = attribute_bottlenecks(stats, num_schedulers=config.num_schedulers)
    occupancy = stats.achieved_occupancy(config.max_warps_per_sm)
    lines.append(
        f"cycles {stats.cycles:,}   instructions {stats.instructions_issued:,}"
        f"   IPC {report.issue_utilization * config.num_schedulers:.2f}"
        f"   achieved occupancy {occupancy:.0%}"
    )
    lines.append("")
    lines.append("stall attribution")
    lines.append(report.flame())
    lines.append("")

    if stats.acquire_attempts:
        waits = stats.acquire_wait_cycles
        blocked = stats.acquire_attempts - stats.acquire_successes
        mean_wait = waits / blocked if blocked else 0.0
        lines.append("SRP time-sharing")
        lines.append(
            f"  acquires {stats.acquire_attempts:,} "
            f"({stats.acquire_success_rate:.0%} immediate), "
            f"releases {stats.release_count:,}"
        )
        lines.append(
            f"  acquire-wait {waits:,} warp-cycles "
            f"(mean {mean_wait:.0f} per blocked acquire)"
        )
        lines.append("")

    if samples is not None and len(samples):
        lines.append(
            f"timelines ({len(samples)} samples, stride {samples.stride})"
        )
        if any(t > 0 for t in samples.srp_total):
            util = samples.srp_utilization()
            lines.append(
                f"  SRP in use    |{_sparkline(list(map(float, samples.srp_in_use)))}| "
                f"mean {util:.0%} of {max(samples.srp_total)} sections, "
                f"peak {samples.peak_srp_in_use()}"
            )
        lines.append(
            f"  warps ready   |{_sparkline(list(map(float, samples.warps_ready)))}| "
            f"peak {max(samples.warps_ready)}"
        )
        if any(samples.warps_waiting_acquire):
            lines.append(
                f"  wait acquire  |{_sparkline(list(map(float, samples.warps_waiting_acquire)))}| "
                f"peak {max(samples.warps_waiting_acquire)}"
            )
        lines.append(
            f"  live registers|{_sparkline(list(map(float, samples.live_registers)))}| "
            f"peak {max(samples.live_registers):,} "
            f"of {config.registers_per_sm:,}"
        )
        lines.append("")

    if log is not None and len(log):
        holders = []
        for warp_id in log.warp_ids():
            held = sum(e - s for s, e in log.hold_intervals(warp_id))
            if held:
                holders.append((held, warp_id))
        if holders:
            holders.sort(reverse=True)
            top = ", ".join(
                f"w{warp_id} ({held:,}cy)" for held, warp_id in holders[:6]
            )
            lines.append(f"top section holders: {top}")
            lines.append("")
        lines.append(f"event log: {len(log):,} events")

    return "\n".join(lines).rstrip() + "\n"
