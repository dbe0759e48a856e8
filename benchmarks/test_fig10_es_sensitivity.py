"""Figure 10 — sensitivity of kernel performance to |Es| in {2,..,12}.

Paper shape: the best |Es| differs per application with no global trend,
and the compile-time heuristic's pick is "the best or one of the best"
for each app.
"""

from repro.harness.experiments import fig10_es_sensitivity
from repro.harness.reporting import format_table, percent
from repro.workloads.suite import APPLICATIONS
from benchmarks.conftest import run_once


def test_fig10_es_sensitivity(benchmark, runner):
    rows = run_once(benchmark, fig10_es_sensitivity, runner)

    by_app: dict[str, list] = {}
    for r in rows:
        by_app.setdefault(r.app, []).append(r)

    print("\nFigure 10 — cycle reduction per |Es| (* = Table I / heuristic pick)")
    table_rows = []
    for app, entries in by_app.items():
        entries.sort(key=lambda r: r.es)
        cells = [
            (f"failed ({e.failure})" if e.failure
             else percent(e.cycle_reduction))
            + ("*" if e.is_heuristic_pick else "")
            for e in entries
        ]
        table_rows.append([app, *cells])
    es_values = sorted({r.es for r in rows})
    print(format_table(["app"] + [f"|Es|={e}" for e in es_values], table_rows))

    assert set(by_app) == {
        a for a, s in APPLICATIONS.items() if s.group == "occupancy-limited"
    }
    # A failed sweep point (an |Es| whose kernel the compiler cannot
    # compact) has no metric: it is left out of every best, rank and
    # worst below.
    measured = {
        app: [e for e in entries if e.failure is None]
        for app, entries in by_app.items()
    }
    for app, entries in by_app.items():
        assert len(entries) == 6
        picks = [e for e in entries if e.is_heuristic_pick]
        # ParticleFilter/SAD's Table I pick (|Es|=12) is the last sweep
        # point; every app has exactly one marked pick.
        assert len(picks) == 1, app
        assert picks[0].failure is None, app
        ok = measured[app]
        best = max(e.cycle_reduction for e in ok)
        # The pick is the best or one of the best: within 5 points of
        # the per-app maximum, or in the top half of the sweep (section
        # granularity can hand an off-heuristic size an outsized win:
        # RadixSort's |Es|=10 lands 8 SRP sections where |Es|=8 lands 2,
        # turning adjacent sweep points into a -82%/+28% cliff pair).
        rank = sorted(
            (e.cycle_reduction for e in ok), reverse=True
        ).index(picks[0].cycle_reduction)
        assert picks[0].cycle_reduction >= best - 0.05 or rank <= 2, (
            f"{app}: pick {picks[0].es} at {picks[0].cycle_reduction:.1%} "
            f"vs best {best:.1%} (rank {rank + 1})"
        )
        # The pick itself is never a regression...
        assert picks[0].cycle_reduction > -0.02, app
        # ...and crucially it dodges the sweep's cliffs.
        worst = min(e.cycle_reduction for e in ok)
        assert picks[0].cycle_reduction > worst + 0.02 or worst > -0.02, app

    # "the best performing |Es| differs from one application to another":
    best_es = {
        app: max(entries, key=lambda e: e.cycle_reduction).es
        for app, entries in measured.items()
    }
    assert len(set(best_es.values())) >= 2
