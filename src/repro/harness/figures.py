"""Figure headline metrics and the paper's target values.

``repro bench`` already builds every figure's rows; this module boils
each figure down to the scalar(s) the paper reports (mean cycle
reduction, mean slowdown on the half file, …) so the perf artifact
carries reproduction quality alongside simulator speed.
``PAPER_TARGETS`` pins the numbers the RegMutex paper states for
Figures 7–13 (the same values the benchmark suite's docstrings assert
neighbourhoods around), and ``repro bench`` prints measured-minus-paper
diffs from the two.

Metrics are fractions (0.13 == +13 %).  A figure run on an app subset
still summarizes — the paper-diff table labels every diff with the app
count so a 1-app CI smoke is never mistaken for the full 8-app average.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FigureTarget:
    """One paper-reported headline number for a figure."""

    figure: str
    metric: str
    paper: float
    description: str


# The paper's stated averages (§IV): the values the benchmark suite
# prints "(paper +X%)" against.  Figures without a stated scalar
# (fig10/fig11 sweeps, fig13 per-app rates) are summarized but not
# diffed against a target.
PAPER_TARGETS: tuple[FigureTarget, ...] = (
    FigureTarget("fig7", "mean_cycle_reduction", 0.13,
                 "mean cycle reduction, RegMutex on baseline GTX480"),
    FigureTarget("fig8", "mean_increase_bare", 0.23,
                 "mean cycle increase, half RF without RegMutex"),
    FigureTarget("fig8", "mean_increase_regmutex", 0.09,
                 "mean cycle increase, half RF with RegMutex"),
    FigureTarget("fig9a", "mean_reduction_owf", 0.019,
                 "mean reduction, OWF on baseline arch"),
    FigureTarget("fig9a", "mean_reduction_rfv", 0.162,
                 "mean reduction, RFV on baseline arch"),
    FigureTarget("fig9a", "mean_reduction_regmutex", 0.128,
                 "mean reduction, RegMutex on baseline arch"),
    FigureTarget("fig9b", "mean_increase_none", 0.229,
                 "mean increase on half RF, no technique"),
    FigureTarget("fig9b", "mean_increase_owf", 0.206,
                 "mean increase on half RF, OWF"),
    FigureTarget("fig9b", "mean_increase_rfv", 0.059,
                 "mean increase on half RF, RFV"),
    FigureTarget("fig9b", "mean_increase_regmutex", 0.108,
                 "mean increase on half RF, RegMutex"),
    FigureTarget("fig12a", "mean_reduction_paired", 0.08,
                 "mean reduction, paired-warps on baseline arch"),
    FigureTarget("fig12a", "mean_reduction_default", 0.12,
                 "mean reduction, default RegMutex on baseline arch"),
    FigureTarget("fig12b", "mean_increase_paired", 0.17,
                 "mean increase on half RF, paired-warps"),
    FigureTarget("fig12b", "mean_increase_default", 0.09,
                 "mean increase on half RF, default RegMutex"),
)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def summarize_figures(rows_by_name: dict[str, list]) -> dict[str, dict[str, float]]:
    """Headline metric(s) per figure from its built rows.

    Rows are the dataclasses :mod:`repro.harness.experiments` builds;
    empty row lists and unknown figures are skipped, so a partial
    ``--figures`` bench still produces a well-formed summary.  Every
    figure also records ``apps``, the row/app count the means cover.
    Rows of failed jobs (a sweep point whose ``failure`` is set) carry
    no metrics and are left out of the means.
    """
    summary: dict[str, dict[str, float]] = {}
    for name, rows in sorted(rows_by_name.items()):
        rows = [r for r in rows if getattr(r, "failure", None) is None]
        if not rows:
            continue
        metrics: dict[str, float] = {}
        if name == "fig7":
            metrics["mean_cycle_reduction"] = _mean(
                [r.cycle_reduction for r in rows])
            metrics["mean_acquire_success"] = _mean(
                [r.acquire_success_rate for r in rows])
        elif name == "fig8":
            metrics["mean_increase_bare"] = _mean(
                [r.increase_no_technique for r in rows])
            metrics["mean_increase_regmutex"] = _mean(
                [r.increase_regmutex for r in rows])
        elif name == "fig9a":
            metrics["mean_reduction_owf"] = _mean(
                [r.reduction_owf for r in rows])
            metrics["mean_reduction_rfv"] = _mean(
                [r.reduction_rfv for r in rows])
            metrics["mean_reduction_regmutex"] = _mean(
                [r.reduction_regmutex for r in rows])
        elif name == "fig9b":
            metrics["mean_increase_none"] = _mean(
                [r.increase_none for r in rows])
            metrics["mean_increase_owf"] = _mean(
                [r.increase_owf for r in rows])
            metrics["mean_increase_rfv"] = _mean(
                [r.increase_rfv for r in rows])
            metrics["mean_increase_regmutex"] = _mean(
                [r.increase_regmutex for r in rows])
        elif name == "fig10":
            picks = [r for r in rows if r.is_heuristic_pick]
            if picks:
                metrics["mean_reduction_heuristic"] = _mean(
                    [r.cycle_reduction for r in picks])
        elif name == "fig11":
            picks = [r for r in rows if r.is_heuristic_pick]
            if picks:
                metrics["mean_acquire_success_heuristic"] = _mean(
                    [r.acquire_success_rate for r in picks])
        elif name in ("fig12a", "fig12b"):
            kind = "reduction" if name == "fig12a" else "increase"
            metrics[f"mean_{kind}_paired"] = _mean(
                [r.metric for r in rows])
            metrics[f"mean_{kind}_default"] = _mean(
                [r.metric_default for r in rows])
        elif name == "fig13":
            metrics["mean_success_default"] = _mean(
                [r.success_default for r in rows])
            metrics["mean_success_paired"] = _mean(
                [r.success_paired for r in rows])
        else:
            continue
        apps = {getattr(r, "app", None) for r in rows}
        apps.discard(None)
        metrics["apps"] = float(len(apps) or len(rows))
        summary[name] = {k: round(v, 6) for k, v in metrics.items()}
    return summary


def figure_diffs(
    figures: dict[str, dict[str, float]],
) -> list[tuple[FigureTarget, float, float]]:
    """(target, measured, measured - paper) for every matched target."""
    diffs = []
    for target in PAPER_TARGETS:
        metrics = figures.get(target.figure)
        if not metrics or target.metric not in metrics:
            continue
        measured = metrics[target.metric]
        diffs.append((target, measured, measured - target.paper))
    return diffs
