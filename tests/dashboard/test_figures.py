"""Figure-summary tests: headline metrics and paper-target diffs."""

from types import SimpleNamespace

import pytest

from repro.harness.figures import (
    PAPER_TARGETS,
    figure_diffs,
    summarize_figures,
)


def _row(**kw):
    return SimpleNamespace(**kw)


class TestSummarizeFigures:
    def test_fig7_means(self):
        rows = [
            _row(app="BFS", cycle_reduction=0.10, acquire_success_rate=0.9),
            _row(app="SAD", cycle_reduction=0.20, acquire_success_rate=0.7),
        ]
        summary = summarize_figures({"fig7": rows})
        fig7 = summary["fig7"]
        assert fig7["mean_cycle_reduction"] == pytest.approx(0.15)
        assert fig7["mean_acquire_success"] == pytest.approx(0.8)
        assert fig7["apps"] == 2.0

    def test_empty_and_unknown_figures_are_skipped(self):
        summary = summarize_figures({"fig7": [], "table9000": [_row(x=1)]})
        assert summary == {}

    def test_fig8_both_series(self):
        rows = [_row(app="BFS", increase_no_technique=0.3,
                     increase_regmutex=0.1)]
        fig8 = summarize_figures({"fig8": rows})["fig8"]
        assert fig8["mean_increase_bare"] == pytest.approx(0.3)
        assert fig8["mean_increase_regmutex"] == pytest.approx(0.1)

    def test_fig10_uses_heuristic_picks_only(self):
        rows = [
            _row(app="BFS", cycle_reduction=0.5, is_heuristic_pick=False),
            _row(app="BFS", cycle_reduction=0.1, is_heuristic_pick=True),
        ]
        fig10 = summarize_figures({"fig10": rows})["fig10"]
        assert fig10["mean_reduction_heuristic"] == pytest.approx(0.1)


class TestFigureDiffs:
    def test_diff_is_measured_minus_paper(self):
        figures = {"fig7": {"mean_cycle_reduction": 0.15, "apps": 8.0}}
        [(target, measured, diff)] = figure_diffs(figures)
        assert target.figure == "fig7"
        assert target.paper == 0.13
        assert measured == pytest.approx(0.15)
        assert diff == pytest.approx(0.02)

    def test_unmatched_targets_are_skipped(self):
        assert figure_diffs({}) == []
        assert figure_diffs({"fig7": {"apps": 1.0}}) == []

    def test_every_target_names_a_distinct_metric(self):
        keys = {(t.figure, t.metric) for t in PAPER_TARGETS}
        assert len(keys) == len(PAPER_TARGETS)
