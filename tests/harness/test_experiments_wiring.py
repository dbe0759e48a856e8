"""Wiring tests for the figure specs, using a stubbed runner.

The benchmark suite and the pinned-record claims test build the specs'
rows from real simulations; these tests pin the *plumbing* — which
technique each spec runs on which architecture, and how rows are
derived from records — without paying for simulation.  Rows are built
through ``spec.build_rows(JobResults(...))`` from the stub's records,
one run per unique job in declared order, with a raising job classified
the way the orchestrator classifies it.
"""

from __future__ import annotations

import pytest

from repro.arch.config import GTX480
from repro.compiler.compaction import CompactionError
from repro.harness import experiments as E
from repro.harness.figures import summarize_figures
from repro.harness.runner import RunRecord
from repro.harness.spec import (
    JobFailure,
    JobResults,
    classify_failure,
    materialize_job,
)


class StubRunner:
    """Returns canned records and logs every (kernel, config, technique)."""

    def __init__(self):
        self.calls: list[tuple[str, str, str]] = []

    def run(self, kernel, config, technique=None):
        name = technique.name if technique else "baseline"
        self.calls.append((kernel.name, config.name, name))
        # Cycles keyed by technique so reductions are deterministic.
        cycles = {
            "baseline": 1000.0,
            "regmutex": 880.0,
            "regmutex-paired": 920.0,
            "owf": 990.0,
            "rfv": 850.0,
        }[name]
        return RunRecord(
            kernel_name=kernel.name,
            config_name=config.name,
            technique=name,
            cycles=int(cycles),
            ctas_total=10,
            ctas_per_sm_resident=2,
            cycles_per_cta=cycles,
            theoretical_occupancy=0.75 if name == "baseline" else 1.0,
            acquire_attempts=100,
            acquire_successes=90,
            release_count=90,
            instructions_issued=10_000,
            stall_acquire=5,
            stall_memory=50,
        )


class UncompactableStubRunner(StubRunner):
    """Raises the compiler's CompactionError for one forced |Es|, the
    way SAD's |Es| = 4 and 6 points do on the real compiler."""

    def __init__(self, failing_es: int):
        super().__init__()
        self.failing_es = failing_es

    def run(self, kernel, config, technique=None):
        if getattr(technique, "extended_set_size", None) == self.failing_es:
            raise CompactionError(f"cannot compact |Es|={self.failing_es}")
        return super().run(kernel, config, technique)


def _rows(spec, runner):
    """``spec``'s rows from ``runner``'s records (a raising job fails)."""
    outcomes = {}
    for job in spec.unique_jobs():
        kernel, technique, _ = materialize_job(job)
        try:
            outcomes[job] = runner.run(kernel, job.config, technique)
        except Exception as exc:
            kind, message = classify_failure(exc)
            outcomes[job] = JobFailure(message, kind=kind)
    return spec.build_rows(JobResults(outcomes))


@pytest.fixture
def stub():
    return StubRunner()


class TestFig7Wiring:
    def test_runs_baseline_and_regmutex_on_full_rf(self, stub):
        rows = _rows(E.fig7_spec(apps=("BFS",)), stub)
        assert [c[2] for c in stub.calls] == ["baseline", "regmutex"]
        assert all(c[1] == GTX480.name for c in stub.calls)
        (row,) = rows
        assert row.cycle_reduction == pytest.approx(0.12)
        assert row.occupancy_init == 0.75
        assert row.occupancy_regmutex == 1.0

    def test_acquire_rate_propagated(self, stub):
        (row,) = _rows(E.fig7_spec(apps=("BFS",)), stub)
        assert row.acquire_success_rate == pytest.approx(0.9)


class TestFig8Wiring:
    def test_configs(self, stub):
        _rows(E.fig8_spec(apps=("Gaussian",)), stub)
        configs = [c[1] for c in stub.calls]
        assert configs[0] == GTX480.name          # full-file reference
        assert all("half" in c.lower() for c in configs[1:])

    def test_increase_vs_full_reference(self, stub):
        (row,) = _rows(E.fig8_spec(apps=("Gaussian",)), stub)
        # Stub gives every baseline 1000 cycles regardless of config,
        # so the bare increase is zero and RegMutex shows its gain.
        assert row.increase_no_technique == pytest.approx(0.0)
        assert row.increase_regmutex == pytest.approx(-0.12)


class TestFig9Wiring:
    def test_three_techniques_plus_base(self, stub):
        _rows(E.fig9a_spec(apps=("BFS",)), stub)
        assert [c[2] for c in stub.calls] == [
            "baseline", "owf", "rfv", "regmutex"
        ]

    def test_reductions(self, stub):
        (row,) = _rows(E.fig9a_spec(apps=("BFS",)), stub)
        assert row.reduction_owf == pytest.approx(0.01)
        assert row.reduction_rfv == pytest.approx(0.15)
        assert row.reduction_regmutex == pytest.approx(0.12)

    def test_9b_runs_on_half_rf(self, stub):
        _rows(E.fig9b_spec(apps=("Gaussian",)), stub)
        assert sum("half" in c[1].lower() for c in stub.calls) == 4


class TestFig10And11Wiring:
    def test_sweep_covers_all_es(self, stub):
        rows = _rows(E.fig10_spec(apps=("BFS",)), stub)
        assert [r.es for r in rows] == list(E.ES_SWEEP)
        assert sum(r.is_heuristic_pick for r in rows) == 1

    def test_fig11_active_flag(self, stub):
        rows = _rows(E.fig11_spec(apps=("BFS",)), stub)
        assert all(r.active for r in rows)  # stub always reports acquires

    def test_fig10_failed_point_is_a_failed_row(self):
        """A non-simulation error (here the compiler's CompactionError)
        is a typed job failure, and the sweep keeps every other point."""
        rows = _rows(E.fig10_spec(apps=("SAD",)),
                     UncompactableStubRunner(4))
        assert [r.es for r in rows] == list(E.ES_SWEEP)
        (failed,) = [r for r in rows if r.failure]
        assert (failed.es, failed.failure) == (4, "job-error")
        assert failed.cycle_reduction is None
        assert all(r.cycle_reduction == pytest.approx(0.12)
                   for r in rows if r is not failed)

    def test_fig11_failed_point_is_a_failed_row(self):
        rows = _rows(E.fig11_spec(apps=("SAD",)),
                     UncompactableStubRunner(4))
        (failed,) = [r for r in rows if r.failure]
        assert (failed.es, failed.failure) == (4, "job-error")
        assert failed.theoretical_occupancy is None
        assert failed.acquire_success_rate is None
        assert len(rows) == len(E.ES_SWEEP)

    def test_summary_skips_a_failed_heuristic_pick(self):
        """SAD's Table I pick is |Es| = 12; with that point failed the
        fig10/fig11 summaries cover BFS's pick alone."""
        runner = UncompactableStubRunner(12)
        rows = {
            "fig10": _rows(E.fig10_spec(apps=("BFS", "SAD")), runner),
            "fig11": _rows(E.fig11_spec(apps=("BFS", "SAD")), runner),
        }
        summary = summarize_figures(rows)
        assert summary["fig10"]["mean_reduction_heuristic"] == (
            pytest.approx(0.12)
        )
        assert summary["fig11"]["mean_acquire_success_heuristic"] == (
            pytest.approx(0.9)
        )


class TestFig12And13Wiring:
    def test_12a_uses_paired_and_default(self, stub):
        _rows(E.fig12_spec(half_rf=False), stub)
        techniques = {c[2] for c in stub.calls}
        assert {"baseline", "regmutex", "regmutex-paired"} <= techniques

    def test_13_covers_all_sixteen(self, stub):
        rows = _rows(E.fig13_spec(), stub)
        assert len(rows) == 16
