"""Figure 7 — execution-cycle reduction and occupancy boost on the
baseline architecture, for the 8 register-limited applications.

Paper shape: average reduction ≈ 13%, BFS the largest at ≈ 23%, SAD
muted despite the same occupancy boost (SRP-section contention), and
occupancy never decreasing.
"""

from benchmarks.conftest import check_figure


def test_fig7_reduction_and_occupancy(benchmark, runner):
    check_figure(benchmark, runner, "fig7")
