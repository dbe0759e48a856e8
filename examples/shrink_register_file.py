"""Scenario: shipping a GPU with half the register file.

The paper's second pitch (§IV-B): RegMutex lets programs keep most of
their performance on an architecture with a smaller (cheaper, cooler)
register file — "approximately the same performance with the lower
number of registers hence yielding higher performance per dollar".

This script takes the register-relaxed applications, halves the register
file, and compares the slowdown with and without RegMutex, reproducing
Figure 8's experiment on a few apps.

Run::

    python examples/shrink_register_file.py [app ...]
"""

from __future__ import annotations

import sys

from repro import (
    GTX480,
    BaselineTechnique,
    RegMutexTechnique,
    REGISTER_RELAXED_APPS,
    build_app_kernel,
    get_app,
)
from repro.harness.reporting import format_table, percent
from repro.harness.runner import ExperimentRunner


def main(apps: list[str]) -> None:
    half = GTX480.with_half_register_file()
    runner = ExperimentRunner(cache_path='.bench_cache.json')
    rows = []
    for name in apps:
        spec = get_app(name)
        kernel = build_app_kernel(spec)
        full = runner.run(kernel, GTX480, BaselineTechnique())
        bare = runner.run(kernel, half, BaselineTechnique())
        rm = runner.run(
            kernel, half, RegMutexTechnique(extended_set_size=spec.expected_es)
        )
        rows.append([
            name,
            percent(bare.increase_vs(full)),
            percent(rm.increase_vs(full)),
            f"{bare.theoretical_occupancy:.0%}",
            f"{rm.theoretical_occupancy:.0%}",
        ])
    print(format_table(
        ["app", "slowdown (no technique)", "slowdown (RegMutex)",
         "occupancy bare", "occupancy RegMutex"],
        rows,
        title="Half register file (64 KB/SM) vs full-file baseline",
    ))
    print("\nRegMutex should absorb most of the slowdown from the smaller "
          "register file (paper: 23% -> 9% average increase).")
    runner.flush()  # compact the shared store if this session saw damage


if __name__ == "__main__":
    chosen = sys.argv[1:] or list(REGISTER_RELAXED_APPS[:3])
    main(chosen)
