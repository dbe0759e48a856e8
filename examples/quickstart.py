"""Quickstart: compile a kernel for RegMutex and watch it beat the baseline.

Builds the BFS workload from the paper's Table I, shows what the
RegMutex compiler does to it (liveness -> |Es| selection -> acquire/
release injection -> index compaction), and runs both the stock GPU and
RegMutex on the simulated GTX480.

Run::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    GTX480,
    BaselineTechnique,
    RegMutexTechnique,
    analyze_liveness,
    build_app_kernel,
    compilation_report,
    get_app,
    regmutex_compile,
)
from repro.harness.runner import ExperimentRunner


def main() -> None:
    spec = get_app("BFS")
    kernel = build_app_kernel(spec)
    print(f"kernel {kernel.name}: {len(kernel)} instructions, "
          f"{kernel.metadata.regs_per_thread} registers/thread, "
          f"{kernel.metadata.threads_per_cta} threads/CTA")

    # --- what the compiler sees -------------------------------------------------
    info = analyze_liveness(kernel)
    print(f"liveness: max {info.max_live()} registers live at once; "
          f"{len(info.live_at_barriers())} barrier point(s)")

    # --- compile for RegMutex ----------------------------------------------------
    compiled = regmutex_compile(kernel, GTX480, forced_es=spec.expected_es)
    report = compilation_report(compiled)
    md = compiled.metadata
    print(f"compiled: |Bs|={md.base_set_size} |Es|={md.extended_set_size} "
          f"({report.acquire_count} acquire / {report.release_count} release "
          f"primitives, +{report.overhead_instructions} instructions)")
    print(f"selection: {report.selection.reason}")
    print(f"SRP sections available: {report.selection.srp_sections}")

    # --- run both configurations ---------------------------------------------------
    runner = ExperimentRunner(cache_path='.bench_cache.json')
    base = runner.run(kernel, GTX480, BaselineTechnique())
    rm = runner.run(
        kernel, GTX480, RegMutexTechnique(extended_set_size=spec.expected_es)
    )
    print(f"\nbaseline:  {base.cycles_per_cta:9.1f} cycles/CTA  "
          f"occupancy {base.theoretical_occupancy:.0%}")
    print(f"regmutex:  {rm.cycles_per_cta:9.1f} cycles/CTA  "
          f"occupancy {rm.theoretical_occupancy:.0%}  "
          f"acquire success {rm.acquire_success_rate:.0%}")
    reduction = rm.reduction_vs(base)
    print(f"execution-cycle reduction: {reduction:+.1%}")
    runner.flush()  # compact the shared store if this session saw damage
    if reduction <= 0:
        raise SystemExit("expected RegMutex to win on BFS — check the build")


if __name__ == "__main__":
    main()
