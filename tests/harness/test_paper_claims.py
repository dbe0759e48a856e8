"""The paper's claims (Figs. 7-13) over the pinned full-scale records.

``perfbench/expected/figure_jobs.json`` holds the real full-scale
``RunRecord`` of every figure job.  Installed into a run store, every
``FIGURE_SPECS`` figure builds through the production orchestrator from
store hits in well under a second, so the shape claims the full-scale
benchmarks assert (``repro.harness.figures``) are checked in tier-1,
and so is the generated EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.harness.experiments import FIGURE_SPECS
from repro.harness.figures import FIGURES, summarize_figures
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner

ROOT = Path(__file__).resolve().parents[2]

# The forced |Es| points the compiler cannot compact (CompactionError).
FAILED_POINTS = {("BFS", 4), ("ParticleFilter", 2), ("SAD", 4), ("SAD", 6)}


@pytest.fixture(scope="module")
def suite(pinned_store_template, tmp_path_factory):
    """(rows by figure, orchestrator) for the whole pinned suite."""
    store = tmp_path_factory.mktemp("claims") / "store.json"
    store.write_bytes(pinned_store_template.read_bytes())
    orch = Orchestrator(ExperimentRunner(cache_path=str(store)), workers=1)
    rows = orch.run_specs([build() for build in FIGURE_SPECS.values()])
    return rows, orch


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_meets_its_paper_claims(suite, name):
    rows, _ = suite
    assert FIGURES[name].unmet(rows) == []


def test_every_job_is_a_store_hit_or_a_compile_failure(suite):
    _, orch = suite
    assert orch.telemetry.cache_hits == 124
    assert orch.telemetry.failures_by_kind() == {"job-error": 4}


def test_exactly_the_uncompactable_points_fail(suite):
    rows, _ = suite
    for name in ("fig10", "fig11"):
        failed = [r for r in rows[name] if r.failure]
        assert {(r.app, r.es) for r in failed} == FAILED_POINTS, name
        assert {r.failure for r in failed} == {"job-error"}
    for name, figure_rows in rows.items():
        if name not in ("fig10", "fig11"):
            assert not any(getattr(r, "failure", None) for r in figure_rows)


def test_failed_points_render_as_failed(suite):
    rows, _ = suite
    # One metric cell per fig10 row, two per fig11 row.
    assert FIGURES["fig10"].table(rows["fig10"]).count(
        "failed (job-error)") == 4
    assert FIGURES["fig11"].table(rows["fig11"]).count(
        "failed (job-error)") == 8


def test_failed_points_stay_out_of_every_headline_mean(suite):
    rows, _ = suite
    measured = {
        name: [r for r in figure_rows if not getattr(r, "failure", None)]
        for name, figure_rows in rows.items()
    }
    summary = summarize_figures(rows)
    assert summary == summarize_figures(measured)
    picks = [r for r in rows["fig10"] if r.is_heuristic_pick]
    assert len(picks) == 8 and not any(r.failure for r in picks)
    assert summary["fig10"]["mean_reduction_heuristic"] == round(
        sum(r.cycle_reduction for r in picks) / 8, 6)
    assert all(v is not None for m in summary.values() for v in m.values())


def test_claims_catch_a_broken_shape(suite):
    """The claims are not vacuous: a run where SAD outgains BFS breaks
    Figure 7's "BFS the biggest winner" and "SAD muted" claims."""
    rows, _ = suite
    broken = [dataclasses.replace(r, cycle_reduction=0.5)
              if r.app == "SAD" else r for r in rows["fig7"]]
    unmet = FIGURES["fig7"].unmet({"fig7": broken})
    assert any("BFS the biggest winner" in claim for claim in unmet)
    assert any("SAD: reduction below the average" in claim
               for claim in unmet)


def test_experiments_md_is_generated_from_the_pinned_records(pinned_store):
    spec = importlib.util.spec_from_file_location(
        "report_experiments", ROOT / "examples" / "report_experiments.py")
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)
    text = report.render_report(ExperimentRunner(cache_path=pinned_store))
    assert text == (ROOT / "EXPERIMENTS.md").read_text(), (
        "EXPERIMENTS.md differs from render_report over the pinned records"
    )
