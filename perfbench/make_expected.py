"""Regenerate the benchmark's expected tables from real runs.

    python3 perfbench/make_expected.py [--workers N] [--only figures|compile]

``expected/figure_jobs.json`` holds the RunRecord (or the raised error
class) of every job in the nine figure specs, computed by simulating
each job once, and each figure's job list.
``expected/compile_sweep.json`` holds the checked summary of every
``compile-sweep`` kernel variant.

Regenerate only when the program's outputs are meant to change, and
say so in the change that does it.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import multiprocessing
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from common import EXPECTED_DIR  # noqa: E402


def _simulate_one(label: str) -> tuple[str, dict]:
    from repro.harness import ExperimentRunner
    from repro.harness.spec import execute_job

    job = workloads.figure_universe()[label]
    try:
        return label, {"record": dataclasses.asdict(
            execute_job(job, ExperimentRunner()))}
    except Exception as exc:
        return label, {"error": type(exc).__name__}


def figure_table(workers: int) -> dict:
    from repro.harness.experiments import FIGURE_SPECS, figure_spec

    labels = list(workloads.figure_universe())
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workers) as pool:
        entries = dict(pool.imap_unordered(_simulate_one, labels))
    figures = {}
    for name, factory in FIGURE_SPECS.items():
        figures[name] = {
            "apps_param": "apps" in inspect.signature(factory).parameters,
            "jobs": [[job.app, job.label] for job in figure_spec(name).jobs],
        }
    return {"jobs": {label: entries[label] for label in labels},
            "figures": figures}


def compile_table() -> dict:
    from repro.workloads.suite import APPLICATIONS

    kernels = {}
    for app in sorted(APPLICATIONS):
        for index in range(workloads.COMPILE_VARIANTS):
            name = f"{app}_v{index:02d}"
            kernels[name] = workloads.summarize_sweep(
                workloads.compile_sweep(workloads.kernel_text(name)))
    return {"kernels": kernels}


def _write(name: str, table: dict) -> None:
    """Compact JSON with one top-level entry per line (diffable)."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    with open(EXPECTED_DIR / name, "w") as fh:
        fh.write("{\n")
        for i, (section, entries) in enumerate(table.items()):
            fh.write(f"{json.dumps(section)}: {{\n")
            lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                     for k, v in entries.items()]
            fh.write(",\n".join(lines))
            fh.write("\n}" + (",\n" if i + 1 < len(table) else "\n"))
        fh.write("}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--only", choices=("figures", "compile"))
    args = parser.parse_args()
    if args.only != "compile":
        _write("figure_jobs.json", figure_table(args.workers))
    if args.only != "figures":
        _write("compile_sweep.json", compile_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
