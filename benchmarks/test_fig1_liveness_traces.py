"""Figure 1 — per-thread register liveness utilization traces.

Regenerates the six single-thread utilization-over-instructions series
the paper uses to motivate register time-sharing, and asserts the
motivating shape: utilization is well below 100% most of the time and
fluctuates strongly.
"""

from repro.harness.experiments import fig1_liveness_traces
from repro.harness.figures import fig1_claims
from repro.harness.reporting import format_percent_series
from benchmarks.conftest import run_once


def test_fig1_liveness_traces(benchmark):
    rows = run_once(benchmark, fig1_liveness_traces)

    print("\nFigure 1 — live registers / allocated registers (one thread)")
    for row in rows:
        print(format_percent_series(row.app, row.utilization_series))
        print(f"{'':<16}  {row.instructions_executed} dyn insts, "
              f"mean {row.mean_utilization:.0%}, "
              f"at-peak {row.fraction_at_peak:.0%}")

    assert fig1_claims(rows) == []
