"""Same-machine A/B of the benchmark: the head commit against a base one.

Run from the root of the head checkout, with a checkout of the base
commit next to it::

    git worktree add ../base <base-sha>
    python3 benchmarks/perf_ab.py ../base

The head tree that is timed is a ``git archive`` of this checkout's
``HEAD`` (uncommitted changes are not in it), unpacked into a fresh
sibling of the base directory and removed afterwards, so both trees run
from like directories: where a checkout sits alone moved ``figures-cold``
by about 12% between two copies of one commit.  Before timing, the
script builds the C extension in both trees with ``setup.py build_ext
--inplace``, so every run times the issue loop users run (the C loop
wherever a compiler exists) and no run pays for the build; it stops
when the extension builds in one tree and not the other.

The workloads, ``run_seconds`` and the end-to-end metrics with their
``better`` direction and relative ``bound`` come from head's
``BENCHMARK.json``.  For every workload and every seed in ``SEEDS`` the
script runs ``perfbench/run.py --trace 0`` once in each tree, taking
turns at which tree goes first, and keeps the result line (the last line
of standard output).  It prints one table per workload (base median,
head median, Δ%, bound and verdict per metric), writes every run's
result line to ``perf_ab.json`` and exits 1 when head fails the rule in
:func:`verdict`.
"""

from __future__ import annotations

import io
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

SEEDS = (1, 2, 3)
HEAD = Path(__file__).resolve().parent.parent
OUT = "perf_ab.json"


@dataclass(frozen=True)
class Comparison:
    """One workload × metric row of the A/B table."""

    workload: str
    metric: str
    base: float
    head: float
    bound: float
    better: str

    @property
    def delta(self) -> float:
        """Relative change of head's median against base's."""
        if self.base == 0:
            return 0.0 if self.head == 0 else float("inf")
        return (self.head - self.base) / self.base

    @property
    def ok(self) -> bool:
        worse = self.delta if self.better == "lower" else -self.delta
        return worse <= self.bound


def _median(runs: list[dict], workload: str, metric: str) -> float:
    return statistics.median(r["metrics"][metric]["value"] for r in runs
                             if r["workload"] == workload)


def _failed_share(run: dict) -> float:
    return run["failed"] / run["attempted"] if run["attempted"] else 0.0


def verdict(base_runs: list[dict], head_runs: list[dict],
            metrics: list[dict]) -> tuple[list[Comparison], list[str]]:
    """Compare head's runs with base's; return the table and the failures.

    Every run is a ``perfbench/run.py`` result dict plus its
    ``workload`` and ``seed``; ``metrics`` are ``BENCHMARK.json``'s
    ``end_to_end`` entries.  Head fails when any of its runs is not
    correct, when on some seed its share of failed ops is larger than
    base's, or when for some workload and metric its median is worse
    than base's by more than the metric's relative bound.
    """
    failures = [
        f"{r['workload']} seed {r['seed']}: head run is not correct"
        for r in head_runs if not r["correct"]
    ]
    base_share = {(r["workload"], r["seed"]): _failed_share(r)
                  for r in base_runs}
    for r in head_runs:
        key = (r["workload"], r["seed"])
        if _failed_share(r) > base_share[key]:
            failures.append(
                f"{key[0]} seed {key[1]}: head failed {r['failed']}/"
                f"{r['attempted']} ops, more than base's share "
                f"({base_share[key]:.1%})")
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in head_runs):
        for m in metrics:
            row = Comparison(workload, m["name"],
                             _median(base_runs, workload, m["name"]),
                             _median(head_runs, workload, m["name"]),
                             m["bound"], m["better"])
            rows.append(row)
            if not row.ok:
                failures.append(
                    f"{workload} {row.metric}: head median {row.head:.4g} vs "
                    f"base {row.base:.4g} ({row.delta:+.1%}; "
                    f"{row.better} is better, bound {row.bound:.0%})")
    return rows, failures


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; its parsed result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perf_ab: {workload} seed {seed} in {tree} exited "
                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"workload": workload, "seed": seed, **json.loads(lines[-1])}


def archive_head(parent: Path) -> Path:
    """Unpack ``git archive HEAD`` of this checkout into a new directory
    under ``parent``; return it."""
    tar = subprocess.run(["git", "archive", "--format=tar", "HEAD"],
                         cwd=HEAD, capture_output=True, check=True).stdout
    tree = Path(tempfile.mkdtemp(prefix="perf-ab-head-", dir=parent))
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tree, filter="data")
    return tree


def build_extension(tree: Path) -> bool:
    """Build ``repro._native`` in place in ``tree``; whether it exists."""
    subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                   cwd=tree, capture_output=True)
    return any((tree / "src" / "repro").glob("_native*.so"))


def print_tables(rows: list[Comparison]) -> None:
    for workload in dict.fromkeys(r.workload for r in rows):
        print(f"\n{workload}")
        print(f"  {'metric':<18}{'base':>12}{'head':>12}{'Δ%':>9}"
              f"{'bound':>8}  verdict")
        for r in rows:
            if r.workload == workload:
                print(f"  {r.metric:<18}{r.base:>12.4g}{r.head:>12.4g}"
                      f"{r.delta:>+9.1%}{r.bound:>8.0%}  "
                      f"{'ok' if r.ok else 'WORSE'}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 benchmarks/perf_ab.py BASE_DIR", file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    with open(HEAD / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    trees = {"base": base, "head": archive_head(base.parent)}
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    names = [w["name"] for w in spec["workloads"]]
    try:
        built = {side: build_extension(tree) for side, tree in trees.items()}
        print("C extension built: " + ", ".join(
            f"{side} {'yes' if ok else 'no'}" for side, ok in built.items()))
        if built["base"] != built["head"]:
            print("::error::the C extension builds in one tree only, so the "
                  "two would time different issue loops")
            return 1
        for turn, (workload, seed) in enumerate(
                itertools.product(names, SEEDS)):
            order = ("base", "head") if turn % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_bench(trees[side], workload, seed,
                                            spec["run_seconds"]))
    finally:
        shutil.rmtree(trees["head"], ignore_errors=True)
    with open(HEAD / OUT, "w") as fh:
        json.dump(runs, fh, indent=2)
        fh.write("\n")
    rows, failures = verdict(runs["base"], runs["head"], spec["end_to_end"])
    print_tables(rows)
    print(f"\n(every run's result line written to {OUT})")
    for line in failures:
        print(f"::error::{line}")
    print("perf A/B: " + ("FAIL" if failures else "pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
