"""SAD long-run microbenchmark: the issue-path throughput yardstick.

Runs the SAD app (the suite's longest-running kernel) on a single
GTX480 SM under RegMutex, seed 2018, 8 total CTAs — enough cycles
(~310k) that steady-state issue-path cost dominates and per-run noise
sits under a percent.  Reports wall time and cycles/sec, best of
``--repeat`` runs next to the median and median absolute deviation
(MAD) of the per-run seconds, and (unless ``--no-artifact``) writes a
schema-1 perf artifact per code path — ``BENCH_sad_<path>.json`` — so
the issue-path numbers are committed next to the code.  The path is
``scan``, or for the columnar engine whichever loop actually ran:
``native`` when ``repro._native`` is built, ``columnar`` (pure Python)
otherwise.

Usage::

    PYTHONPATH=src python benchmarks/sad_longrun.py \
        [--engine scan|columnar] [--repeat 3] [--all-engines] \
        [--artifact-dir DIR] [--no-artifact]

Absolute seconds are machine-dependent, so compare paths on the *same*
machine (PROFILING.md records one such set).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from dataclasses import replace

import repro.sim.sm as sm_mod
from repro.arch.config import GTX480, ISSUE_ENGINES
from repro.observe.perf import PERF_ARTIFACT_VERSION, artifact_filename
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.sim.gpu import Gpu
from repro.workloads.suite import build_app_kernel, get_app

TOTAL_CTAS = 8
SEED = 2018


def path_label(engine: str) -> str:
    """The code path a run of ``engine`` takes (artifact/trend label)."""
    if engine == "columnar" and sm_mod._native is not None:
        return "native"
    return engine


def run_once(engine: str) -> tuple[int, float]:
    config = replace(GTX480, num_sms=1, issue_engine=engine)
    technique = RegMutexTechnique()
    gpu = Gpu(config, technique, seed=SEED)
    kernel = build_app_kernel(get_app("SAD"))
    start = time.perf_counter()
    result = gpu.launch(kernel, TOTAL_CTAS)
    elapsed = time.perf_counter() - start
    return result.cycles, elapsed


def bench_engine(engine: str, repeat: int) -> dict:
    """Run one engine ``repeat`` times; return a schema-1 perf artifact.

    Shaped exactly like ``repro.observe.perf.perf_artifact`` output, so
    one reader handles both kinds of file.  Totals use the best run —
    the microbenchmark tracks the engine's ceiling, not scheduler
    jitter on a busy machine — and
    ``spread`` records the median and MAD of the per-run seconds, so a
    reader can tell a real difference between two artifacts from noise.
    """
    path = path_label(engine)
    jobs = []
    best: float | None = None
    cycles = 0
    for i in range(repeat):
        cycles, elapsed = run_once(engine)
        print(f"run {i + 1}: {cycles} cycles in {elapsed:.3f}s "
              f"({cycles / elapsed:,.0f} cycles/sec)")
        jobs.append({
            "label": f"SAD/longrun/{path}/run{i + 1}",
            "mode": "inline",
            "seconds": round(elapsed, 6),
            "cycles": cycles,
            "cycles_per_sec": round(cycles / elapsed, 1),
            "failed": False,
            "failure_kind": None,
            "attempts": 1,
        })
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    seconds = [j["seconds"] for j in jobs]
    median = statistics.median(seconds)
    mad = statistics.median(abs(x - median) for x in seconds)
    print(f"best [{path}]: {cycles} cycles in {best:.3f}s "
          f"({cycles / best:,.0f} cycles/sec); median {median:.3f}s, "
          f"MAD {mad:.3f}s over {len(seconds)} runs")
    return {
        "schema": PERF_ARTIFACT_VERSION,
        "label": f"sad_{path}",
        "workers": 1,
        "wall_seconds": round(sum(j["seconds"] for j in jobs), 6),
        "cache": {"hits": 0, "misses": len(jobs), "hit_rate": 0.0},
        "totals": {
            "jobs": len(jobs),
            "failures": 0,
            "sim_seconds": round(best, 6),
            "cycles": cycles,
            "cycles_per_sec": round(cycles / best, 1),
        },
        "spread": {
            "runs": len(seconds),
            "median_seconds": round(median, 6),
            "mad_seconds": round(mad, 6),
        },
        "failure_kinds": {},
        "jobs": jobs,
    }


def write_artifact(artifact: dict, directory: str) -> str:
    path = os.path.join(directory, artifact_filename(artifact["label"]))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--engine", choices=ISSUE_ENGINES,
                        default="columnar")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument(
        "--all-engines", action="store_true",
        help="benchmark every engine back-to-back (same process, same "
             "machine state) instead of just --engine",
    )
    parser.add_argument(
        "--artifact-dir", default=".", metavar="DIR",
        help="directory for BENCH_sad_<path>.json (default: repo root)",
    )
    parser.add_argument(
        "--no-artifact", action="store_true",
        help="skip writing the per-engine perf artifact",
    )
    args = parser.parse_args()
    if args.repeat <= 0:
        parser.error("--repeat must be positive")

    engines = ISSUE_ENGINES if args.all_engines else (args.engine,)
    for engine in engines:
        artifact = bench_engine(engine, args.repeat)
        if not args.no_artifact:
            path = write_artifact(artifact, args.artifact_dir)
            print(f"(perf artifact written to {path})")


if __name__ == "__main__":
    main()
