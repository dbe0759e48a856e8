"""Regenerate EXPERIMENTS.md: paper vs. measured for every table and figure.

:func:`render_report` builds every figure through the orchestrator (the
run store answers whatever it already holds) and renders the document:
each figure's rows, its headline means from ``summarize_figures``, and a
``Shape:`` verdict computed from the paper claims declared in
:mod:`repro.harness.figures` — the same claims ``benchmarks/`` asserts.
A tier-1 test renders it over the pinned full-scale records
(``perfbench/expected/figure_jobs.json``) and requires the committed
EXPERIMENTS.md to match.

Run::

    [REPRO_WORKERS=N] python examples/report_experiments.py [output-path]

``REPRO_WORKERS`` (default: the machine's CPU count) is the number of
processes that simulate the jobs missing from ``.bench_cache.json``.
"""

from __future__ import annotations

import os
import sys

from repro.harness import experiments as E
from repro.harness.figures import (
    FIGURES,
    fig1_claims,
    pick_near_best,
    summarize_figures,
)
from repro.harness.orchestrator import Orchestrator
from repro.harness.reporting import percent as pct
from repro.harness.runner import ExperimentRunner

_CACHE = os.path.join(os.path.dirname(__file__), os.pardir, ".bench_cache.json")


def _table(headers: list[str], rows) -> list[str]:
    """A Markdown table, ``|`` escaped in the headers."""
    headers = [h.replace("|", "\\|") for h in headers]
    return (["| " + " | ".join(headers) + " |",
             "|" + "---|" * len(headers)]
            + ["| " + " | ".join(str(c) for c in row) + " |" for row in rows])


def _shape(unmet: list[str]) -> str:
    if not unmet:
        return "Shape: REPRODUCED (every paper claim holds)."
    return "Shape: NOT REPRODUCED — unmet: " + "; ".join(unmet) + "."


def _sweep(rows, value, mark_picks: bool = False) -> list[str]:
    """An app x |Es| table of a Figure 10/11 sweep: ``value(row)`` per
    measured point, ``failed (<kind>)`` for a point without a metric,
    and a ``*`` on the Table I pick if ``mark_picks``."""
    def cell(row) -> str:
        text = f"failed ({row.failure})" if row.failure else value(row)
        return text + ("*" if mark_picks and row.is_heuristic_pick else "")

    by_app: dict[str, list] = {}
    for row in rows:
        by_app.setdefault(row.app, []).append(row)
    es_values = sorted({row.es for row in rows})
    return _table(["app"] + [f"|Es|={es}" for es in es_values],
                  [[app, *(cell(r) for r in sorted(xs, key=lambda r: r.es))]
                   for app, xs in sorted(by_app.items())])


def render_report(runner: ExperimentRunner, workers: int = 1) -> str:
    """EXPERIMENTS.md, rendered from the figures ``runner`` builds."""
    rows = Orchestrator(runner, workers=workers).run_specs(
        [build() for build in E.FIGURE_SPECS.values()]
    )
    means = summarize_figures(rows)

    def verdict(name: str) -> str:
        return _shape(FIGURES[name].unmet(rows))

    lines: list[str] = []
    w = lines.extend

    w(["# EXPERIMENTS — paper vs. measured", "",
       "Every table and figure of the paper's evaluation.  This file is",
       "generated by `python examples/report_experiments.py` from the",
       "figure rows, and the pinned full-scale records",
       "(`perfbench/expected/figure_jobs.json`) must reproduce it exactly",
       "(a tier-1 test).  Absolute cycle counts are not comparable — the",
       "substrate is a simplified cycle-level simulator with synthetic",
       "workloads — so each entry reports the paper's value, ours, and",
       "whether the *shape* (ordering, sign, rough magnitude, outliers)",
       "reproduces: the verdict is computed from the paper claims declared",
       "in `repro.harness.figures`, which `pytest benchmarks/` asserts on",
       "a full-scale run.", ""])

    # ---- Figure 1 ----------------------------------------------------------
    rows1 = E.fig1_liveness_traces()
    w(["## Figure 1 — single-thread register utilization traces", "",
       "Paper: for six kernels, only a subset of allocated registers is live",
       "for the majority of execution, with constant fluctuation.", ""])
    w(_table(["app", "dyn. instructions", "mean utilization",
              "time at peak"],
             [[x.app, x.instructions_executed, f"{x.mean_utilization:.0%}",
               f"{x.fraction_at_peak:.0%}"] for x in rows1]))
    w(["", _shape(fig1_claims(rows1)),
       "(See `examples/liveness_profile.py` for the series.)", ""])

    # ---- Table I -----------------------------------------------------------
    rows_t1 = E.table1_workloads()
    agree = sum(x.heuristic_agrees for x in rows_t1)
    w(["## Table I — workloads and the |Bs| split", ""])
    w(_table(["app", "regs (paper)", "rounded", "|Bs| (paper)", "|Es|",
              "SRP sections", "heuristic agrees"],
             [[x.app, x.regs, x.regs_rounded, x.bs, x.es, x.srp_sections,
               "yes" if x.heuristic_agrees else "forced"] for x in rows_t1]))
    w(["",
       "All 16 register counts and |Bs| values match Table I by construction;",
       "our re-implementation of the §III-A2 heuristic independently derives",
       f"the published split for {agree}/16 apps (launch geometry is not "
       "given",
       "in the paper; for the rest the split is forced to Table I — see",
       "DESIGN.md).", ""])

    # ---- Figure 7 ----------------------------------------------------------
    best = max(rows["fig7"], key=lambda x: x.cycle_reduction)
    w(["## Figure 7 — occupancy boost on the baseline architecture", ""])
    w(_table(["app", "reduction (ours)", "occupancy init -> RegMutex",
              "acquire success"],
             [[x.app, pct(x.cycle_reduction),
               f"{x.occupancy_init:.0%} -> {x.occupancy_regmutex:.0%}",
               f"{x.acquire_success_rate:.0%}"] for x in rows["fig7"]]))
    w(["",
       "Paper: average reduction 13%, maximum 23% (BFS), SAD muted despite an",
       "equal occupancy boost (SRP contention).  Ours: average "
       f"{pct(means['fig7']['mean_cycle_reduction'])}, maximum",
       f"{pct(best.cycle_reduction)} ({best.app}).",
       verdict("fig7"), ""])

    # ---- Figure 8 ----------------------------------------------------------
    fig8 = means["fig8"]
    w(["## Figure 8 — half register file (64 KB/SM)", ""])
    w(_table(["app", "increase, no technique", "increase, RegMutex",
              "occupancy bare -> RegMutex"],
             [[x.app, pct(x.increase_no_technique), pct(x.increase_regmutex),
               f"{x.occupancy_half_no_technique:.0%} -> "
               f"{x.occupancy_half_regmutex:.0%}"] for x in rows["fig8"]]))
    w(["",
       "Paper: +23% average slowdown bare, +9% with RegMutex; MergeSort the",
       "one app RegMutex cannot help (no occupancy gain, instruction overhead",
       f"only).  Ours: {pct(fig8['mean_increase_bare'])} bare vs "
       f"{pct(fig8['mean_increase_regmutex'])} with RegMutex (our",
       "synthetic apps are more latency-bound than the originals, so both",
       "magnitudes run larger than the paper's).",
       verdict("fig8"), ""])

    # ---- Figure 9 ----------------------------------------------------------
    fig9a = means["fig9a"]
    w(["## Figure 9a — vs OWF and RFV, baseline architecture", ""])
    w(_table(["app", "OWF", "RFV", "RegMutex"],
             [[x.app, pct(x.reduction_owf), pct(x.reduction_rfv),
               pct(x.reduction_regmutex)] for x in rows["fig9a"]]))
    w(["",
       "Paper averages: OWF +1.9%, RFV +16.2%, RegMutex +12.8% (RFV at >81x",
       f"the storage, below).  Ours: OWF {pct(fig9a['mean_reduction_owf'])}, "
       f"RFV {pct(fig9a['mean_reduction_rfv'])},",
       f"RegMutex {pct(fig9a['mean_reduction_regmutex'])}.",
       verdict("fig9a"), ""])

    fig9b = means["fig9b"]
    w(["## Figure 9b — vs OWF and RFV, half register file", ""])
    w(_table(["app", "none", "OWF", "RFV", "RegMutex"],
             [[x.app, pct(x.increase_none), pct(x.increase_owf),
               pct(x.increase_rfv), pct(x.increase_regmutex)]
              for x in rows["fig9b"]]))
    w(["",
       "Paper averages (increase, lower is better): none +22.9%, OWF +20.6%,",
       f"RFV +5.9%, RegMutex +10.8%.  Ours: none "
       f"{pct(fig9b['mean_increase_none'])}, "
       f"OWF {pct(fig9b['mean_increase_owf'])},",
       f"RFV {pct(fig9b['mean_increase_rfv'])}, "
       f"RegMutex {pct(fig9b['mean_increase_regmutex'])}.",
       verdict("fig9b"), ""])

    # ---- Figures 10/11 -----------------------------------------------------
    failed = [f"{x.app} |Es|={x.es}" for x in rows["fig10"] if x.failure]
    by_app: dict[str, list] = {}
    for x in rows["fig10"]:
        by_app.setdefault(x.app, []).append(x)
    picks_ok = sum(pick_near_best(xs) for xs in by_app.values())
    w(["## Figure 10 — |Es| sensitivity (cycle reduction per |Es|)", ""])
    w(_sweep(rows["fig10"], lambda x: pct(x.cycle_reduction),
             mark_picks=True))
    w(["",
       "Paper: the best |Es| differs per app with no global trend, and the",
       "heuristic picks the best or near-best size for each.  Ours: the",
       "Table I pick (*) is within 5 points of the per-app best or among the",
       f"top three of its sweep for {picks_ok}/{len(by_app)} apps; mean "
       "reduction at the pick",
       f"{pct(means['fig10']['mean_reduction_heuristic'])}.  "
       f"Failed points ({', '.join(failed) or 'none'}) are",
       "forced sizes the compiler cannot compact; they are left out of every",
       "mean, best and rank.",
       verdict("fig10"), ""])

    w(["## Figure 11 — occupancy (a) and acquire success (b) vs |Es|", ""])
    w(_sweep(rows["fig11"], lambda x: f"{x.theoretical_occupancy:.0%} / "
             f"{x.acquire_success_rate:.0%}"))
    w(["", "(cells: theoretical occupancy / successful-acquire ratio)", "",
       "Paper: as |Es| grows, occupancy increases but acquire success usually",
       "falls — the two adversarial effects.  Ours: mean acquire success at",
       "the Table I pick "
       f"{means['fig11']['mean_acquire_success_heuristic']:.0%}.",
       verdict("fig11"), ""])

    # ---- Figure 12 ---------------------------------------------------------
    fig12a = means["fig12a"]
    w(["## Figure 12a — paired-warps specialization, baseline architecture",
       ""])
    w(_table(["app", "paired reduction", "default reduction",
              "paired occupancy"],
             [[x.app, pct(x.metric), pct(x.metric_default),
               f"{x.occupancy_paired:.0%}"] for x in rows["fig12a"]]))
    w(["",
       "Paper: paired averages +8%, about 4 points below default RegMutex;",
       "a few apps (e.g. SAD) do better paired.  Ours: paired "
       f"{pct(fig12a['mean_reduction_paired'])}",
       f"vs default {pct(fig12a['mean_reduction_default'])}.",
       verdict("fig12a"), ""])

    fig12b = means["fig12b"]
    w(["## Figure 12b — paired-warps, half register file", ""])
    w(_table(["app", "paired increase", "default increase",
              "paired occupancy"],
             [[x.app, pct(x.metric), pct(x.metric_default),
               f"{x.occupancy_paired:.0%}"] for x in rows["fig12b"]]))
    w(["",
       "Paper: paired +17% vs default +9% (default better by ~8 points).",
       f"Ours: paired {pct(fig12b['mean_increase_paired'])} vs default "
       f"{pct(fig12b['mean_increase_default'])}.",
       verdict("fig12b"), ""])

    # ---- Figure 13 ---------------------------------------------------------
    fig13 = means["fig13"]
    w(["## Figure 13 — acquire success, default vs paired", ""])
    w(_table(["app", "architecture", "default", "paired"],
             [[x.app, x.arch, f"{x.success_default:.0%}",
               f"{x.success_paired:.0%}"] for x in rows["fig13"]]))
    w(["",
       "Paper: pairing's guaranteed partner raises acquire success on the",
       "contended apps.  Ours: mean success "
       f"{fig13['mean_success_default']:.0%} default vs "
       f"{fig13['mean_success_paired']:.0%} paired.",
       verdict("fig13"), ""])

    # ---- Storage -----------------------------------------------------------
    budgets = {n: b.total_bits
               for n, b in E.storage_overhead_comparison().items()}
    paper = {"regmutex": 384, "regmutex-paired": 24, "rfv": 30240 + 1024}
    exact = all(budgets[n] == bits for n, bits in paper.items())
    w(["## §III-B1 / §IV-C — hardware storage overhead", ""])
    w(_table(["technique", "bits per SM", "paper"],
             [["RegMutex", budgets["regmutex"], "384"],
              ["RegMutex paired", budgets["regmutex-paired"], "Nw/2 = 24"],
              ["RFV", budgets["rfv"], "30,240 + 1,024"]]))
    w(["",
       f"Storage ratio RFV / RegMutex = "
       f"{budgets['rfv'] / budgets['regmutex']:.0f}x (paper: >81x).",
       f"Values: {'EXACT MATCH' if exact else 'MISMATCH'} (these are "
       "analytic, not simulated).", ""])

    # ---- Beyond the figures ------------------------------------------------
    w(["## Correctness gate — differential execution oracle (`repro check`)",
       "",
       "Not a paper figure: the gate that makes every number above",
       "trustworthy.  All 16 Table I apps run under all five techniques",
       "(baseline, RegMutex, paired-warps, OWF, RFV) with the shadow",
       "architectural executor attached; per-warp retired-instruction stream",
       "digests, retired counts, and the shadow memory digest must match",
       "baseline exactly (register-map digests additionally pinned for the",
       "non-renaming OWF/RFV).  Digests are snapshotted in",
       "`tests/check/golden/` — `repro check` verifies against them,",
       "`repro check --smoke` is the 3-app CI gate, `repro check --faults`",
       "re-runs the fault campaign with the dynamic sanitizer armed and",
       "requires every injected fault to be caught and classified.",
       "",
       "Status: 16/16 apps equivalent across all 5 techniques (80 runs).",
       "The oracle caught one real miscompile on first deployment — the",
       "compaction pass clobbering a moved value on MRI-Q — fixed in",
       "`compiler.compaction` and covered by regression tests.",
       "",
       "## Crash-safety — resumed runs share the cache key",
       "",
       "Checkpoint/resume (docs/ARCHITECTURE.md) is invisible to every number",
       "in this file: the checkpoint knobs are plumbed as keyword arguments,",
       "not config or technique fields, so they never enter the v6 cache-key",
       "fingerprint — a run resumed from a mid-flight checkpoint produces "
       "the",
       "bit-identical record under the *same* key as an undisturbed run, and",
       "the shared `.bench_cache.json` cannot fork into resumed/fresh",
       "variants.  `repro faults --kill-mid-run` proves the property",
       "end-to-end by SIGKILLing a worker mid-simulation and requiring the",
       "resumed result to match an undisturbed reference exactly."])
    return "\n".join(lines) + "\n"


def main(out_path: str) -> None:
    workers = int(os.environ.get("REPRO_WORKERS", str(os.cpu_count() or 1)))
    with ExperimentRunner(cache_path=os.path.abspath(_CACHE)) as runner:
        text = render_report(runner, workers)
    with open(out_path, "w") as fh:
        fh.write(text)
    print(f"wrote {out_path} ({text.count(chr(10))} lines)")


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md"
    )
    main(os.path.abspath(target))
