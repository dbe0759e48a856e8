"""Figure 12 — the paired-warps specialization.

Paper shape: (a) on the baseline architecture paired-warps reduces
cycles by ≈ 8% on average — ≈ 4 points below default RegMutex — and is
effective only where it still boosts occupancy; (b) on the half file it
lands between no-technique (+23%) and default RegMutex, trailing the
default by ≈ 8 points.
"""

from benchmarks.conftest import check_figure


def test_fig12a_paired_baseline(benchmark, runner):
    check_figure(benchmark, runner, "fig12a")


def test_fig12b_paired_half_rf(benchmark, runner):
    check_figure(benchmark, runner, "fig12b")
