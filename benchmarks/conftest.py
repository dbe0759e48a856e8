"""Shared fixtures for the figure-regeneration benchmark suite.

All benchmarks share one :class:`ExperimentRunner` with an on-disk cache
next to the repository root, so a full ``pytest benchmarks/`` pass
simulates each (app, config, technique) combination exactly once and
re-runs are instant.  The cache is persisted once, when the session
ends (atomic write), instead of after every run.

Set ``REPRO_BENCH_WORKERS=N`` (N > 1) to prewarm the cache through the
orchestrator before the first benchmark: the whole figure suite's job
set is deduplicated and simulated on N processes, and the benchmarks
then measure cached row building.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.runner import ExperimentRunner

_CACHE = os.path.join(os.path.dirname(__file__), os.pardir, ".bench_cache.json")


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    r = ExperimentRunner(cache_path=os.path.abspath(_CACHE))
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))
    if workers > 1:
        from repro.harness.experiments import FIGURE_SPECS
        from repro.harness.orchestrator import Orchestrator

        Orchestrator(r, workers=workers).run_specs(
            [build() for build in FIGURE_SPECS.values()]
        )
    yield r
    r.flush()


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an experiment with a single timed round.

    The interesting output is the experiment's rows (asserted by each
    bench); the timing records how long regenerating the figure takes.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def check_figure(benchmark, runner, name: str) -> None:
    """Regenerate one paper figure, print its declared table, and
    assert that its rows meet every paper claim declared for it
    (:mod:`repro.harness.figures`)."""
    from repro.harness.experiments import figure_spec
    from repro.harness.figures import FIGURES
    from repro.harness.orchestrator import Orchestrator

    figure = FIGURES[name]
    specs = [figure_spec(n) for n in (name, *figure.needs)]
    rows = run_once(benchmark, Orchestrator(runner).run_specs, specs)
    print(f"\n{name}\n" + figure.table(rows[name]))
    assert figure.unmet(rows) == []
