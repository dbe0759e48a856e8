"""Figure 11 — theoretical occupancy (a) and successful-acquire ratio (b)
as |Es| varies.

Paper shape: "as |Es| gets larger, occupancy increases but the chance of
a successful acquire usually reduces" — the two adversarial effects the
heuristic balances.
"""

from benchmarks.conftest import check_figure


def test_fig11_occupancy_and_acquires(benchmark, runner):
    check_figure(benchmark, runner, "fig11")
