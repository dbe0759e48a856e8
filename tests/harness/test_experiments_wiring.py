"""Wiring tests for the experiment drivers, using a stubbed runner.

The benchmark suite exercises the drivers against the real simulator;
these tests pin the *plumbing* — which technique each driver runs on
which architecture, and how rows are derived from records — without
paying for simulation.
"""

from __future__ import annotations

import pytest

from repro.arch.config import GTX480
from repro.compiler.compaction import CompactionError
from repro.harness import experiments as E
from repro.harness.figures import summarize_figures
from repro.harness.runner import RunRecord


class StubRunner:
    """Returns canned records and logs every (kernel, config, technique)."""

    def __init__(self):
        self.calls: list[tuple[str, str, str]] = []

    def run(self, kernel, config, technique=None, scheduler_priority=None):
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

    def run(self, kernel, config, technique=None, scheduler_priority=None):
        if getattr(technique, "extended_set_size", None) == self.failing_es:
            raise CompactionError(f"cannot compact |Es|={self.failing_es}")
        return super().run(kernel, config, technique, scheduler_priority)


@pytest.fixture
def stub():
    return StubRunner()


class TestFig7Wiring:
    def test_runs_baseline_and_regmutex_on_full_rf(self, stub):
        rows = E.fig7_occupancy_boost(stub, apps=("BFS",))
        assert [c[2] for c in stub.calls] == ["baseline", "regmutex"]
        assert all(c[1] == GTX480.name for c in stub.calls)
        (row,) = rows
        assert row.cycle_reduction == pytest.approx(0.12)
        assert row.occupancy_init == 0.75
        assert row.occupancy_regmutex == 1.0

    def test_acquire_rate_propagated(self, stub):
        (row,) = E.fig7_occupancy_boost(stub, apps=("BFS",))
        assert row.acquire_success_rate == pytest.approx(0.9)


class TestFig8Wiring:
    def test_configs(self, stub):
        E.fig8_half_register_file(stub, apps=("Gaussian",))
        configs = [c[1] for c in stub.calls]
        assert configs[0] == GTX480.name          # full-file reference
        assert all("half" in c.lower() for c in configs[1:])

    def test_increase_vs_full_reference(self, stub):
        (row,) = E.fig8_half_register_file(stub, apps=("Gaussian",))
        # Stub gives every baseline 1000 cycles regardless of config,
        # so the bare increase is zero and RegMutex shows its gain.
        assert row.increase_no_technique == pytest.approx(0.0)
        assert row.increase_regmutex == pytest.approx(-0.12)


class TestFig9Wiring:
    def test_three_techniques_plus_base(self, stub):
        E.fig9a_comparison_baseline(stub, apps=("BFS",))
        assert [c[2] for c in stub.calls] == [
            "baseline", "owf", "rfv", "regmutex"
        ]

    def test_reductions(self, stub):
        (row,) = E.fig9a_comparison_baseline(stub, apps=("BFS",))
        assert row.reduction_owf == pytest.approx(0.01)
        assert row.reduction_rfv == pytest.approx(0.15)
        assert row.reduction_regmutex == pytest.approx(0.12)

    def test_9b_runs_on_half_rf(self, stub):
        E.fig9b_comparison_half_rf(stub, apps=("Gaussian",))
        assert sum("half" in c[1].lower() for c in stub.calls) == 4


class TestFig10And11Wiring:
    def test_sweep_covers_all_es(self, stub):
        rows = E.fig10_es_sensitivity(stub, apps=("BFS",))
        assert [r.es for r in rows] == list(E.ES_SWEEP)
        assert sum(r.is_heuristic_pick for r in rows) == 1

    def test_fig11_active_flag(self, stub):
        rows = E.fig11_occupancy_and_acquires(stub, apps=("BFS",))
        assert all(r.active for r in rows)  # stub always reports acquires

    def test_fig10_failed_point_is_a_failed_row(self):
        """The serial path classifies a non-simulation error (here the
        compiler's CompactionError) as a typed job failure, and the
        sweep keeps every other point."""
        rows = E.fig10_es_sensitivity(UncompactableStubRunner(4),
                                      apps=("SAD",))
        assert [r.es for r in rows] == list(E.ES_SWEEP)
        (failed,) = [r for r in rows if r.failure]
        assert (failed.es, failed.failure) == (4, "job-error")
        assert failed.cycle_reduction is None
        assert all(r.cycle_reduction == pytest.approx(0.12)
                   for r in rows if r is not failed)

    def test_fig11_failed_point_is_a_failed_row(self):
        rows = E.fig11_occupancy_and_acquires(UncompactableStubRunner(4),
                                              apps=("SAD",))
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
            "fig10": E.fig10_es_sensitivity(runner, apps=("BFS", "SAD")),
            "fig11": E.fig11_occupancy_and_acquires(runner,
                                                    apps=("BFS", "SAD")),
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
        E.fig12_paired_warps(stub, half_rf=False)
        techniques = {c[2] for c in stub.calls}
        assert {"baseline", "regmutex", "regmutex-paired"} <= techniques

    def test_13_covers_all_sixteen(self, stub):
        rows = E.fig13_acquire_success(stub)
        assert len(rows) == 16
