"""Byte-for-byte CLI goldens over the pinned full-scale figure records.

``golden/`` holds what the experiment commands printed over the pinned
store before every figure was declared once in
:mod:`repro.harness.figures` and run through the orchestrator: the
stdout of each of the 12 experiment commands, ``fig10 --csv``, the
``summarize_figures`` JSON of the whole suite, and the measured-vs-paper
table of ``repro bench``.  Rendering a figure any other way than before
shows up here as a diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.experiments import FIGURE_SPECS
from repro.harness.figures import summarize_figures
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner

GOLDEN = Path(__file__).parent / "golden"

EXPERIMENTS = ("fig1", "table1", "fig7", "fig8", "fig9a", "fig9b", "fig10",
               "fig11", "fig12a", "fig12b", "fig13", "storage")


@pytest.mark.parametrize("command", EXPERIMENTS)
def test_experiment_stdout_matches_golden(command, pinned_store, capsys):
    assert main(["--cache", pinned_store, command]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{command}.txt").read_text()


def test_sweep_csv_matches_golden(pinned_store, tmp_path, capsys):
    path = tmp_path / "fig10.csv"
    assert main(["--cache", pinned_store, "fig10", "--csv", str(path)]) == 0
    assert path.read_text() == (GOLDEN / "fig10.csv").read_text()


def test_figure_summary_matches_golden(pinned_store):
    rows = Orchestrator(ExperimentRunner(cache_path=pinned_store)).run_specs(
        [build() for build in FIGURE_SPECS.values()]
    )
    golden = json.loads((GOLDEN / "summary.json").read_text())
    assert summarize_figures(rows) == golden


def test_bench_paper_table_matches_golden(pinned_store, capsys):
    assert main(["--cache", pinned_store, "bench", "--no-artifact"]) == 0
    out = capsys.readouterr().out
    assert out[out.index("measured vs. paper"):] == (
        GOLDEN / "bench_paper.txt").read_text()


def test_app_subset_is_honoured_where_the_figure_takes_one(pinned_store,
                                                          capsys):
    assert main(["--cache", pinned_store, "fig7", "--apps", "BFS"]) == 0
    header, _, *rows = capsys.readouterr().out.splitlines()
    golden = (GOLDEN / "fig7.txt").read_text().splitlines()
    # The same header and BFS cells as the full figure's (column widths
    # follow the rows printed).
    assert header.split() == golden[0].split()
    assert [row.split() for row in rows] == [
        ln.split() for ln in golden if ln.startswith("BFS ")]


@pytest.mark.parametrize("command",
                         ("fig12a", "fig12b", "fig13", "table1", "storage"))
def test_fixed_app_commands_reject_apps(command, pinned_store, capsys):
    # These figures have fixed app sets: an --apps subset used to be
    # accepted and silently ignored (every app printed, exit 0).
    with pytest.raises(SystemExit) as exit_info:
        main(["--cache", pinned_store, command, "--apps", "BFS"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --apps" in capsys.readouterr().err
