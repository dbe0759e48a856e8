"""ASCII rendering of experiment results.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width ASCII table."""
    materialized = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_percent_series(
    label: str, values: Sequence[float], width: int = 40
) -> str:
    """A one-line sparkline-style bar chart for a [0, 1] series."""
    if not values:
        return f"{label}: (empty)"
    blocks = " .:-=+*#%@"
    chars = []
    stride = max(1, len(values) // width)
    for v in values[::stride]:
        clamped = min(max(v, 0.0), 1.0)
        chars.append(blocks[min(int(clamped * (len(blocks) - 1)), len(blocks) - 1)])
    return f"{label:<16} |{''.join(chars)}| min={min(values):.2f} max={max(values):.2f}"


def percent(value: float) -> str:
    """Format a fraction as a signed percentage."""
    return f"{value * 100:+.1f}%"


def _first_line(message: str | None, width: int = 120) -> str:
    """A failure message cut to one table cell."""
    line = (message or "").strip().split("\n", 1)[0]
    return line if len(line) <= width else line[: width - 3] + "..."


def format_telemetry(telemetry, slowest: int = 10) -> str:
    """Render a :class:`~repro.harness.telemetry.SessionTelemetry` report.

    One summary table (job counts, cache hits/misses, wall vs simulated
    seconds, worker utilization), the failures by kind and each failed
    job with what it raised, then the slowest simulated jobs.
    """
    summary = format_table(
        ["metric", "value"],
        [
            ["jobs", telemetry.jobs_total],
            ["cache hits", telemetry.cache_hits],
            ["cache misses", telemetry.cache_misses],
            ["failures", telemetry.failures],
            ["retries", telemetry.retries],
            ["workers", telemetry.workers],
            ["wall seconds", f"{telemetry.wall_seconds:.2f}"],
            ["simulated seconds", f"{telemetry.sim_seconds:.2f}"],
            ["computed cycles", f"{telemetry.computed_cycles:,}"],
            ["cached cycles", f"{telemetry.cached_cycles:,}"],
            ["worker utilization", f"{telemetry.utilization():.0%}"],
        ],
        title="orchestration telemetry",
    )
    by_kind = telemetry.failures_by_kind()
    if by_kind:
        summary += "\n\n" + format_table(
            ["failure kind", "count"],
            [[kind, count] for kind, count in by_kind.items()],
            title="failures by kind",
        )
        summary += "\n\n" + format_table(
            ["job", "kind", "raised"],
            [[t.label, t.failure_kind or "error",
              _first_line(t.failure_message)]
             for t in telemetry.timings if t.failed],
            title="failed jobs",
        )
    jobs = telemetry.slowest(slowest)
    if not jobs:
        return summary
    detail = format_table(
        ["job", "seconds", "mode"],
        [[t.label, f"{t.seconds:.2f}", t.mode] for t in jobs],
        title=f"slowest {len(jobs)} jobs",
    )
    return summary + "\n\n" + detail
