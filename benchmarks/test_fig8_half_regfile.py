"""Figure 8 — resilience on an architecture with half the register file.

Paper shape: without any technique the 8 register-relaxed apps slow down
by ≈ 23% on the 64 KB file; with RegMutex the average increase drops to
≈ 9%; MergeSort is the one app the heuristic cannot help (its pick does
not raise occupancy, leaving only instruction overhead).
"""

from benchmarks.conftest import check_figure


def test_fig8_half_register_file(benchmark, runner):
    check_figure(benchmark, runner, "fig8")
