"""Scenario: compare all five register-management schemes on one app.

Runs the stock GPU, RegMutex (default and paired-warps), OWF, and RFV
on the same workload and prints the Figure 9-style comparison plus the
hardware storage cost each scheme pays — the paper's cost/benefit
argument in one table.

Run::

    python examples/compare_techniques.py [app] [--half-rf]
"""

from __future__ import annotations

import sys

from repro import (
    GTX480,
    BaselineTechnique,
    OwfTechnique,
    PairedWarpsTechnique,
    RegMutexTechnique,
    RfvTechnique,
    build_app_kernel,
    get_app,
    paired_storage_bits,
    regmutex_storage_bits,
    rfv_storage_bits,
)
from repro.harness.reporting import format_table, percent
from repro.harness.runner import ExperimentRunner
from repro.regmutex.storage import owf_storage_bits


def main(app_name: str, half_rf: bool) -> None:
    spec = get_app(app_name)
    kernel = build_app_kernel(spec)
    config = GTX480.with_half_register_file() if half_rf else GTX480
    runner = ExperimentRunner(cache_path='.bench_cache.json')

    storage = {
        "baseline": 0,
        "regmutex": regmutex_storage_bits(config).total_bits,
        "regmutex-paired": paired_storage_bits(config).total_bits,
        "owf": owf_storage_bits(config).total_bits,
        "rfv": rfv_storage_bits(config).total_bits,
    }
    plans = [
        ("baseline", BaselineTechnique()),
        ("regmutex", RegMutexTechnique(extended_set_size=spec.expected_es)),
        ("regmutex-paired",
         PairedWarpsTechnique(extended_set_size=spec.expected_es)),
        ("owf", OwfTechnique()),
        ("rfv", RfvTechnique()),
    ]

    base = runner.run(kernel, config, BaselineTechnique())
    rows = []
    for name, technique in plans:
        record = runner.run(kernel, config, technique)
        rows.append([
            name,
            f"{record.cycles_per_cta:.0f}",
            percent(record.reduction_vs(base)),
            f"{record.theoretical_occupancy:.0%}",
            f"{record.acquire_success_rate:.0%}",
            storage[name],
        ])

    print(format_table(
        ["technique", "cycles/CTA", "vs baseline", "occupancy",
         "acquire success", "added storage (bits/SM)"],
        rows,
        title=f"{app_name} on {config.name}",
    ))
    print("\nThe paper's pitch in one line: RegMutex buys most of RFV's "
          "speedup at ~1% of its storage.")
    runner.flush()  # compact the shared store if this session saw damage


if __name__ == "__main__":
    apps = [a for a in sys.argv[1:] if not a.startswith("--")]
    main(apps[0] if apps else "BFS", "--half-rf" in sys.argv)
