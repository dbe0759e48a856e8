"""Tests for the declarative spec layer (no simulation)."""

from __future__ import annotations

import pickle

import pytest

from repro.arch.config import GTX480, GpuConfig
from repro.baselines.owf import OwfSmState, OwfTechnique
from repro.harness import experiments as E
from repro.harness.runner import RunRecord
from repro.harness.spec import (
    ExperimentSpec,
    JobFailure,
    JobResults,
    JobSpec,
    TechniqueSpec,
)
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState
from tests.conftest import straightline_kernel


def _record(name="k", config="c", technique="baseline", cycles=1000):
    return RunRecord(
        kernel_name=name, config_name=config, technique=technique,
        cycles=cycles, ctas_total=10, ctas_per_sm_resident=2,
        cycles_per_cta=float(cycles), theoretical_occupancy=0.75,
        acquire_attempts=10, acquire_successes=9, release_count=9,
        instructions_issued=100, stall_acquire=0, stall_memory=0,
    )


class TestTechniqueSpec:
    def test_build_constructs_registered_technique(self):
        spec = TechniqueSpec.of("regmutex", extended_set_size=6)
        technique = spec.build()
        assert isinstance(technique, RegMutexTechnique)
        assert technique.extended_set_size == 6

    def test_params_are_sorted_for_stable_identity(self):
        a = TechniqueSpec.of("regmutex", extended_set_size=6,
                             retry_policy="eager")
        b = TechniqueSpec.of("regmutex", retry_policy="eager",
                             extended_set_size=6)
        assert a == b and hash(a) == hash(b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            TechniqueSpec.of("warp-vodoo")

    def test_owf_carries_scheduler_priority(self):
        """OWF's owner-warp-first pick is declared by its per-SM state,
        which every front end builds through the technique."""
        assert isinstance(TechniqueSpec.of("owf").build(), OwfTechnique)
        state = OwfSmState(straightline_kernel(), GTX480, SmStats(),
                           base_ctas=1, extra_ctas=1)
        assert state.scheduler_priority is state.owner
        assert SmTechniqueState.scheduler_priority is None
        assert not hasattr(TechniqueSpec, "scheduler_priority")

    def test_str_form(self):
        assert str(TechniqueSpec.of("baseline")) == "baseline"
        assert str(TechniqueSpec.of("regmutex", extended_set_size=6)) == (
            "regmutex(extended_set_size=6)"
        )

    def test_picklable(self):
        job = JobSpec("BFS", GTX480, TechniqueSpec.of(
            "regmutex", extended_set_size=6
        ))
        assert pickle.loads(pickle.dumps(job)) == job


class TestJobSpec:
    def test_hashable_dedup(self):
        a = JobSpec("BFS", GTX480, TechniqueSpec.of("baseline"))
        b = JobSpec("BFS", GTX480, TechniqueSpec.of("baseline"))
        c = JobSpec("SAD", GTX480, TechniqueSpec.of("baseline"))
        assert len({a, b, c}) == 2

    def test_label(self):
        job = JobSpec("BFS", GTX480, TechniqueSpec.of(
            "regmutex", extended_set_size=6
        ))
        assert job.label == "BFS/GTX480/regmutex(extended_set_size=6)"


class TestJobResults:
    def test_failure_surfaces_on_access(self):
        job = JobSpec("BFS", GTX480, TechniqueSpec.of("baseline"))
        results = JobResults({job: JobFailure("does not fit")})
        assert results.failed(job)
        assert results.error(job) == "does not fit"
        with pytest.raises(RuntimeError, match="does not fit"):
            results[job]

    def test_success_passthrough(self):
        job = JobSpec("BFS", GTX480, TechniqueSpec.of("baseline"))
        record = _record()
        results = JobResults({job: record})
        assert results[job] is record
        assert not results.failed(job)
        assert results.error(job) is None


class TestExperimentSpec:
    def test_unique_jobs_preserves_declared_order(self):
        base = JobSpec("BFS", GTX480, TechniqueSpec.of("baseline"))
        rm = JobSpec("BFS", GTX480, TechniqueSpec.of(
            "regmutex", extended_set_size=6
        ))
        spec = ExperimentSpec("x", (base, rm, base), lambda r: [])
        assert spec.unique_jobs() == (base, rm)


class TestFigureSpecRegistry:
    def test_every_simulated_figure_is_declared(self):
        assert set(E.FIGURE_SPECS) == {
            "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11",
            "fig12a", "fig12b", "fig13",
        }

    def test_builders_produce_specs_with_jobs(self):
        for name, build in E.FIGURE_SPECS.items():
            spec = build()
            assert spec.jobs, name
            assert all(isinstance(j, JobSpec) for j in spec.jobs)

    def test_suite_job_set_deduplicates_across_figures(self):
        all_jobs = [
            job for build in E.FIGURE_SPECS.values()
            for job in build().jobs
        ]
        unique = set(all_jobs)
        # Baselines (and the forced-|Es| RegMutex runs) recur across
        # figures; the orchestrator's dedup is what makes the suite
        # cheaper than the sum of its figures.
        assert len(unique) < len(all_jobs)

    def test_only_figures_with_an_app_set_take_apps(self):
        assert {n for n in E.FIGURE_SPECS if E.takes_apps(n)} == {
            "fig7", "fig8", "fig9a", "fig9b", "fig10", "fig11",
        }
        # A fixed-app figure ignores the subset (the daemon's rule).
        assert E.figure_spec("fig13", ("BFS",)) == E.figure_spec("fig13")

    def test_fig13_covers_all_sixteen_apps(self):
        spec = E.FIGURE_SPECS["fig13"]()
        assert len({j.app for j in spec.jobs}) == 16
