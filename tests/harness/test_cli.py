"""Tests for the command-line interface (cheap commands only; the
figure commands are exercised by the benchmark suite)."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "BFS" in out and "fig7" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "DWT2D" in out
        assert "38" in out  # DWT2D's |Bs|

    def test_storage(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "384" in out
        assert "31264" in out

    def test_storage_csv(self, tmp_path, capsys):
        from repro.harness.export import read_csv_rows

        path = tmp_path / "storage.csv"
        assert main(["storage", "--csv", str(path)]) == 0
        assert f"(rows exported to {path})" in capsys.readouterr().out
        rows = read_csv_rows(str(path))
        assert [r["technique"] for r in rows] == [
            "regmutex", "regmutex-paired", "rfv", "owf"]
        bits = {r["technique"]: int(r["bits_per_sm"]) for r in rows}
        assert bits["regmutex"] == 384 and bits["rfv"] == 31264

    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "CUTCP" in out and "|" in out

    def test_fig1_app_subset(self, capsys):
        assert main(["fig1", "--apps", "SAD"]) == 0
        out = capsys.readouterr().out
        assert "SAD" in out and "CUTCP" not in out

    def test_bad_app_rejected(self):
        with pytest.raises(KeyError):
            main(["fig1", "--apps", "NopeApp"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_run_requires_known_app(self):
        with pytest.raises(SystemExit):
            main(["run", "NopeApp"])

    def test_bench_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            main(["--cache", str(tmp_path / "c.json"),
                  "bench", "--figures", "fig99"])

    def test_bench_renders_telemetry(self, capsys, tmp_path, monkeypatch):
        # Swap the figure registry for one tiny spec so the bench path
        # (orchestrate -> build rows -> telemetry report) stays cheap.
        from repro.arch.config import fermi_like
        from repro.harness import experiments as E

        cfg = fermi_like(
            name="cli-bench", num_sms=1, max_warps_per_sm=8,
            max_ctas_per_sm=2, max_threads_per_sm=256,
            registers_per_sm=8192, dram_latency=60, l1_hit_latency=8,
        )
        monkeypatch.setattr(
            E, "FIGURE_SPECS",
            {"fig7": lambda: E.fig7_spec(("Gaussian",), cfg)},
        )
        assert main([
            "--cache", str(tmp_path / "c.json"),
            "--workers", "2", "bench",
            "--label", "cli-test", "--artifact-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out
        assert "orchestration telemetry" in out
        assert "cache misses" in out
        assert "slowest" in out
        assert "BENCH_cli-test.json" in out
        # The paper-diff table follows the telemetry report.
        assert "measured vs. paper" in out
        assert out.index("measured vs. paper") > out.index(
            "orchestration telemetry")
        [diff_line] = [ln for ln in out.splitlines()
                       if "mean_cycle_reduction" in ln]
        assert "fig7" in diff_line and "+13.0%" in diff_line
        artifact = json.loads((tmp_path / "BENCH_cli-test.json").read_text())
        assert artifact["totals"]["jobs"] == 2
        assert artifact["totals"]["cycles"] > 0

    def test_run_single_app(self, capsys, tmp_path):
        # Mini end-to-end through the CLI; uses the real GTX480 but the
        # smallest app and the cache keeps re-runs free.
        assert main([
            "--cache", str(tmp_path / "c.json"),
            "run", "Gaussian", "--technique", "baseline",
        ]) == 0
        out = capsys.readouterr().out
        assert "cycles/CTA" in out
        assert "Gaussian" in out
