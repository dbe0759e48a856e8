"""Cold full-figure-suite benchmark: the number a user waits for.

Runs ``repro --workers 2 bench`` (every figure, all 128 jobs) three
times, each session in a fresh process against an empty run store, and
writes ``BENCH_figures_cold.json`` at the repo root: the median and
median absolute deviation (MAD) of each session's wall time and job
seconds, of each technique's job seconds and of each job's seconds,
with the worker count and the issue loop each job ran (``JobTiming.loop``:
``native`` for the columnar engine's C loop, ``scan`` without it).  The
``spread`` block is ``sad_longrun.py``'s, over the session wall times.

Usage::

    python benchmarks/figures_cold.py

About 10-40 s per session on a 2-core machine.  Absolute seconds are
machine-dependent: compare artifacts from one machine only.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = 3
WORKERS = 2
LABEL = "figures_cold"


def spread(values: list[float]) -> dict:
    """Median and MAD of ``values``, as ``sad_longrun.py`` reports them."""
    median = statistics.median(values)
    mad = statistics.median(abs(x - median) for x in values)
    return {
        "runs": len(values),
        "median_seconds": round(median, 6),
        "mad_seconds": round(mad, 6),
    }


def technique(label: str) -> str:
    """``regmutex`` of ``BFS/GTX480/regmutex(extended_set_size=4)``."""
    return label.split("/")[2].split("(")[0]


def run_session(index: int) -> dict:
    """One cold ``repro bench`` session; its perf artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "repro",
             "--cache", os.path.join(tmp, "store.json"),
             "--workers", str(WORKERS), "bench",
             "--label", "session", "--artifact-dir", tmp],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        artifact = json.loads(Path(tmp, "BENCH_session.json").read_text())
    job_seconds = sum(j["seconds"] for j in artifact["jobs"])
    print(f"session {index + 1}: {artifact['wall_seconds']:.2f} s wall, "
          f"{job_seconds:.2f} job-seconds, {len(artifact['jobs'])} jobs")
    return artifact


def summarize(sessions: list[dict]) -> dict:
    jobs: dict[str, list[dict]] = {}
    for artifact in sessions:
        for job in artifact["jobs"]:
            jobs.setdefault(job["label"], []).append(job)
    by_technique: dict[str, list[float]] = {}
    for artifact in sessions:
        seconds: dict[str, float] = {}
        for job in artifact["jobs"]:
            name = technique(job["label"])
            seconds[name] = seconds.get(name, 0.0) + job["seconds"]
        for name, total in seconds.items():
            by_technique.setdefault(name, []).append(total)
    walls = [a["wall_seconds"] for a in sessions]
    job_seconds = [sum(j["seconds"] for j in a["jobs"]) for a in sessions]
    return {
        "schema": 1,
        "label": LABEL,
        "workers": WORKERS,
        "wall_seconds": round(statistics.median(walls), 6),
        "totals": {
            "jobs": len(jobs),
            "failures": sum(runs[0]["failed"] for runs in jobs.values()),
            "cycles": sum(runs[0]["cycles"] or 0 for runs in jobs.values()),
            "job_seconds": spread(job_seconds),
        },
        "spread": spread(walls),
        "sessions": [
            {"wall_seconds": wall, "job_seconds": round(js, 6)}
            for wall, js in zip(walls, job_seconds)
        ],
        "techniques": {
            name: dict(spread(values), jobs=sum(
                technique(label) == name for label in jobs))
            for name, values in sorted(by_technique.items())
        },
        "jobs": [
            {
                "label": label,
                **spread([r["seconds"] for r in runs]),
                "cycles": runs[0]["cycles"],
                "failed": runs[0]["failed"],
                "failure_kind": runs[0]["failure_kind"],
                "loop": runs[0]["loop"],
            }
            for label, runs in jobs.items()
        ],
    }


def main() -> None:
    artifact = summarize([run_session(i) for i in range(SESSIONS)])
    path = ROOT / f"BENCH_{LABEL}.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(artifact, indent=2) + "\n")
    os.replace(tmp, path)
    spread_ = artifact["spread"]
    print(f"wall: median {spread_['median_seconds']:.2f} s, "
          f"MAD {spread_['mad_seconds']:.2f} s over {spread_['runs']} "
          "sessions")
    for name, entry in artifact["techniques"].items():
        print(f"  {name:16s} {entry['jobs']:3d} jobs  median "
              f"{entry['median_seconds']:.2f} s  MAD "
              f"{entry['mad_seconds']:.2f} s")
    print(f"(written to {path})")


if __name__ == "__main__":
    main()
