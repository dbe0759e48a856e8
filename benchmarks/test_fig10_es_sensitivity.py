"""Figure 10 — sensitivity of kernel performance to |Es| in {2,..,12}.

Paper shape: the best |Es| differs per application with no global trend,
and the compile-time heuristic's pick is "the best or one of the best"
for each app.
"""

from benchmarks.conftest import check_figure


def test_fig10_es_sensitivity(benchmark, runner):
    check_figure(benchmark, runner, "fig10")
