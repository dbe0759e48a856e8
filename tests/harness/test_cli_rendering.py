"""CLI figure-command rendering tests with stubbed experiment drivers.

The real drivers are exercised by the benchmark suite; these tests pin
the CLI's table rendering and argument plumbing for every figure
subcommand without simulation.
"""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.harness.experiments import (
    Fig7Row, Fig8Row, Fig9aRow, Fig9bRow, Fig10Row, Fig11Row,
    Fig12Row, Fig13Row,
)


@pytest.fixture(autouse=True)
def stub_experiments(monkeypatch):
    monkeypatch.setattr(
        cli.E, "fig7_occupancy_boost",
        lambda runner, **kw: [Fig7Row("BFS", 0.254, 0.75, 1.0, 1.0)],
    )
    monkeypatch.setattr(
        cli.E, "fig8_half_register_file",
        lambda runner, **kw: [Fig8Row("Gaussian", 0.22, -0.003, 0.83, 1.0)],
    )
    monkeypatch.setattr(
        cli.E, "fig9a_comparison_baseline",
        lambda runner, **kw: [Fig9aRow("BFS", 0.0, 0.25, 0.25)],
    )
    monkeypatch.setattr(
        cli.E, "fig9b_comparison_half_rf",
        lambda runner, **kw: [Fig9bRow("SPMV", 0.19, 0.19, 0.0, 0.0)],
    )
    monkeypatch.setattr(
        cli.E, "fig10_es_sensitivity",
        lambda runner, **kw: [Fig10Row("BFS", 6, 0.254, True)],
    )
    monkeypatch.setattr(
        cli.E, "fig11_occupancy_and_acquires",
        lambda runner, **kw: [Fig11Row("BFS", 6, 1.0, 1.0, True)],
    )
    monkeypatch.setattr(
        cli.E, "fig12_paired_warps",
        lambda runner, half_rf=False: [Fig12Row("SAD", 0.08, 0.67, 0.12)],
    )
    monkeypatch.setattr(
        cli.E, "fig13_acquire_success",
        lambda runner: [Fig13Row("SAD", "baseline", 0.51, 0.85)],
    )


@pytest.mark.parametrize("command,needle", [
    ("fig7", "+25.4%"),
    ("fig8", "Gaussian"),
    ("fig9a", "RegMutex"),
    ("fig9b", "SPMV"),
    ("fig10", "heuristic pick"),
    ("fig11", "acquire success"),
    ("fig12a", "paired reduction"),
    ("fig12b", "paired increase"),
    ("fig13", "baseline"),
])
def test_figure_commands_render(command, needle, capsys, tmp_path):
    assert cli.main(["--cache", str(tmp_path / "c.json"), command]) == 0
    assert needle in capsys.readouterr().out


@pytest.mark.parametrize("command,row", [
    ("fig10", Fig10Row("SAD", 4, None, False, failure="job-error")),
    ("fig11", Fig11Row("SAD", 4, None, None, False, active=False,
                       failure="job-error")),
])
def test_failed_sweep_point_renders_its_kind(
    command, row, monkeypatch, capsys, tmp_path
):
    figure = {"fig10": "fig10_es_sensitivity",
              "fig11": "fig11_occupancy_and_acquires"}[command]
    monkeypatch.setattr(cli.E, figure, lambda runner, **kw: [row])
    assert cli.main(["--cache", str(tmp_path / "c.json"), command]) == 0
    assert "failed (job-error)" in capsys.readouterr().out


def test_csv_flag_on_stubbed_rows(tmp_path, capsys):
    path = str(tmp_path / "rows.csv")
    assert cli.main(
        ["--cache", str(tmp_path / "c.json"), "fig7", "--csv", path]
    ) == 0
    from repro.harness.export import read_csv_rows
    rows = read_csv_rows(path)
    assert rows[0]["app"] == "BFS"
