"""Figure 13 — acquire success rate, default RegMutex vs paired-warps.

Paper shape: the specialization's guaranteed partner raises the success
rate relative to the communal pool on contended apps (the left 8 apps
run on the baseline architecture, the right 8 on the halved file).
"""

from benchmarks.conftest import check_figure


def test_fig13_acquire_success(benchmark, runner):
    check_figure(benchmark, runner, "fig13")
