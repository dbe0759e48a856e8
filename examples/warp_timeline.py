"""Scenario: visualize SRP section hold intervals per warp.

Runs one SM of the SAD workload (Table I's most section-starved app)
under RegMutex with an event-logging observer attached, then draws an
ASCII timeline of which warps held extended sets when — making the
time-multiplexing (and the contention the paper discusses for SAD)
directly visible.

Run::

    python examples/warp_timeline.py [app] [--sections N]
"""

from __future__ import annotations

import sys

from repro import GTX480, RegMutexTechnique, build_app_kernel, get_app
from repro.observe import SmObserver
from repro.regmutex.issue_logic import RegMutexSmState
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats


def main(app_name: str, sections_override: int | None) -> None:
    spec = get_app(app_name)
    kernel = build_app_kernel(spec)
    technique = RegMutexTechnique(extended_set_size=spec.expected_es)
    compiled = technique.prepare_kernel(kernel, GTX480)
    occ = technique.occupancy(compiled, GTX480)
    sections = (
        sections_override
        if sections_override is not None
        else technique.num_sections(compiled, GTX480)
    )

    stats = SmStats()
    state = RegMutexSmState(compiled, GTX480, stats, num_sections=sections)
    sm = StreamingMultiprocessor(
        sm_id=0, config=GTX480, kernel=compiled, technique_state=state,
        ctas_resident_limit=occ.ctas_per_sm, total_ctas=occ.ctas_per_sm,
        rng=DeterministicRng(7), stats=stats,
    )
    trace = SmObserver().attach(sm).log
    sm.run()

    warp_ids = trace.warp_ids()
    total = stats.cycles
    width = 88
    print(f"{app_name}: {occ.resident_warps} warps, {sections} SRP sections, "
          f"{total} cycles, acquire success "
          f"{stats.acquire_success_rate:.0%}\n")
    print("one row per warp; '#' marks cycles holding an extended set:\n")
    shown = warp_ids[: min(len(warp_ids), 24)]
    for wid in shown:
        row = [" "] * width
        for start, end in trace.hold_intervals(wid):
            a = min(width - 1, start * width // max(1, total))
            b = min(width - 1, end * width // max(1, total))
            for i in range(a, b + 1):
                row[i] = "#"
        print(f"w{wid:02d} |{''.join(row)}|")
    if len(warp_ids) > len(shown):
        print(f"... ({len(warp_ids) - len(shown)} more warps)")
    held = sum(
        e - s for w in warp_ids for s, e in trace.hold_intervals(w)
    )
    capacity = total * sections
    print(f"\nSRP utilization: {held / capacity:.0%} of section-cycles "
          f"({held} held / {capacity} available)")


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    sections = None
    for i, a in enumerate(sys.argv):
        if a == "--sections" and i + 1 < len(sys.argv):
            sections = int(sys.argv[i + 1])
    main(args[0] if args else "SAD", sections)
