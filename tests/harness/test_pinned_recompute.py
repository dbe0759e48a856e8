"""Full-scale recompute guard: three pinned figure jobs, simulated from
an empty store through the production orchestrator, must reproduce
their pinned ``RunRecord`` field for field.

The claims and CLI golden tests read
``perfbench/expected/figure_jobs.json`` as given; this is the tier-1
check that the simulator still produces those numbers.  The jobs are
the smallest pinned baseline, RegMutex and RFV jobs, so the baseline
issue path, the SRP acquire/release path and RFV's per-issue hooks
each run at full GTX480 scale, plus DWT2D under OWF, whose count moves
(121,600 to 120,537 cycles) when the owner-warp-first pick is lost.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.harness.experiments import FIGURE_SPECS, figure_spec
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner, RunRecord
from tests.conftest import PINNED_FIGURE_JOBS

GUARDED = (
    "TPACF/GTX480/baseline",
    "DWT2D/GTX480/regmutex(extended_set_size=2)",
    "DWT2D/GTX480/rfv",
    "DWT2D/GTX480/owf",
)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_FIGURE_JOBS.read_text())["jobs"]


@pytest.fixture(scope="module")
def universe():
    return {job.label: job
            for name in FIGURE_SPECS for job in figure_spec(name).jobs}


@pytest.mark.parametrize("label", GUARDED)
def test_cold_run_matches_pinned_record(label, pinned, universe):
    orch = Orchestrator(ExperimentRunner(), workers=1)
    job = universe[label]
    record = orch.run_jobs([job])[job]
    assert isinstance(record, RunRecord), record
    want = pinned[label]["record"]
    got = dataclasses.asdict(record)
    assert got.keys() == want.keys()
    assert {k: got[k] for k in want if got[k] != want[k]} == {}
