"""benchmarks/sad_longrun.py reports the spread of its runs, not just
the best one, and its artifact keeps the perf-artifact schema."""

import importlib.util
import json
import os

import pytest

from repro.observe.perf import PERF_ARTIFACT_VERSION

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


@pytest.fixture
def sad_longrun():
    spec = importlib.util.spec_from_file_location(
        "sad_longrun", os.path.join(REPO, "benchmarks", "sad_longrun.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_records_median_and_mad(sad_longrun, monkeypatch, tmp_path,
                                         capsys):
    # Stub the timed SAD launch: five runs of 1000 cycles.
    seconds = iter((2.0, 1.0, 4.0, 1.5, 2.5))
    monkeypatch.setattr(sad_longrun, "run_once",
                        lambda engine: (1000, next(seconds)))
    artifact = sad_longrun.bench_engine("scan", repeat=5)

    assert artifact["spread"] == {
        "runs": 5, "median_seconds": 2.0, "mad_seconds": 0.5,
    }
    # Totals still report the best run.
    assert artifact["totals"]["sim_seconds"] == 1.0
    assert artifact["totals"]["cycles_per_sec"] == 1000.0
    assert "median 2.000s, MAD 0.500s over 5 runs" in capsys.readouterr().out

    path = sad_longrun.write_artifact(artifact, str(tmp_path))
    with open(path) as fh:
        loaded = json.load(fh)
    assert loaded == json.loads(json.dumps(artifact))
    assert loaded["schema"] == PERF_ARTIFACT_VERSION
    assert {"label", "totals", "cache", "jobs"} <= set(loaded)
