"""Figure 11 — theoretical occupancy (a) and successful-acquire ratio (b)
as |Es| varies.

Paper shape: "as |Es| gets larger, occupancy increases but the chance of
a successful acquire usually reduces" — the two adversarial effects the
heuristic balances.
"""

from repro.harness.experiments import fig11_occupancy_and_acquires
from repro.harness.reporting import format_table
from benchmarks.conftest import run_once


def test_fig11_occupancy_and_acquires(benchmark, runner):
    rows = run_once(benchmark, fig11_occupancy_and_acquires, runner)

    by_app: dict[str, list] = {}
    for r in rows:
        by_app.setdefault(r.app, []).append(r)
    for entries in by_app.values():
        entries.sort(key=lambda r: r.es)

    def cell(e, value):
        # A failed sweep point (an |Es| whose kernel the compiler cannot
        # compact) has no metric; it is also left out of every check
        # below.
        return f"failed ({e.failure})" if e.failure else f"{value:.0%}"

    print("\nFigure 11a — theoretical occupancy per |Es|")
    es_values = sorted({r.es for r in rows})
    print(format_table(
        ["app"] + [f"|Es|={e}" for e in es_values],
        [[app, *[cell(e, e.theoretical_occupancy) for e in entries]]
         for app, entries in by_app.items()],
    ))
    print("\nFigure 11b — successful acquires per |Es|")
    print(format_table(
        ["app"] + [f"|Es|={e}" for e in es_values],
        [[app, *[cell(e, e.acquire_success_rate) for e in entries]]
         for app, entries in by_app.items()],
    ))

    assert len(by_app) == 8
    falls = 0
    for app, entries in by_app.items():
        active = [e for e in entries if e.active]
        assert active, app  # Table I's |Es| is always in the sweep
        # (a) among the |Es| values the deadlock rules accept, occupancy
        # is non-decreasing in |Es| (a larger extended set shrinks the
        # exclusively-held base set; rejected sizes fall back to the
        # lower baseline occupancy and are excluded).
        occ = [e.theoretical_occupancy for e in active]
        assert all(b >= a - 1e-9 for a, b in zip(occ, occ[1:])), app
        # (b) count the apps where the success rate falls from the
        # smallest to the largest accepted |Es| — the paper's "usually
        # reduces" (not a per-app law: when occupancy is capped by
        # another resource, a larger |Es| only adds SRP sections and the
        # success rate can rise instead, e.g. HotSpot3D).
        success = [e.acquire_success_rate for e in active]
        if success[-1] <= success[0] + 1e-9:
            falls += 1
    assert falls >= 4, f"success rate fell on only {falls}/8 apps"

    # Somewhere in the suite the success-rate penalty is substantial —
    # that is what makes |Es| selection an actual trade-off.
    assert any(
        min(e.acquire_success_rate for e in entries if e.failure is None)
        < 0.75
        for entries in by_app.values()
    )
