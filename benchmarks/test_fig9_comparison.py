"""Figure 9 — comparison with OWF (Jatala et al.) and RFV (Jeon et al.).

Paper shape, baseline architecture (9a): average reductions 1.9% (OWF),
16.2% (RFV), 12.8% (RegMutex) — both RFV and RegMutex far ahead of OWF,
RFV modestly ahead of RegMutex (at >81x the storage cost).

Half register file (9b): average increases 22.9% (nothing), 20.6% (OWF),
5.9% (RFV), 10.8% (RegMutex).
"""

from benchmarks.conftest import check_figure


def test_fig9a_comparison_baseline(benchmark, runner):
    check_figure(benchmark, runner, "fig9a")


def test_fig9b_comparison_half_rf(benchmark, runner):
    check_figure(benchmark, runner, "fig9b")
