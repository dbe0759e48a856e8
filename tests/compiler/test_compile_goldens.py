"""Compile goldens: the |Es| sweep of one generated variant per Table I app.

``perfbench/expected/compile_sweep.json`` pins, for every generated
kernel the ``compile-sweep`` benchmark compiles, what each compile of
the sweep produced: |Bs|, |Es|, acquire and release counts, CTAs/SM and
a digest of the printed kernel, or the error class when it raised.  This
test recompiles variant 0 of each app the same way and compares, so a
compiler change that moves a single byte fails tier-1, not only the
benchmark.  The file is only read here.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.arch.config import GTX480, GTX480_HALF_RF
from repro.arch.occupancy import round_regs_to_granularity
from repro.compiler.pipeline import compilation_report, regmutex_compile
from repro.harness.experiments import ES_SWEEP
from repro.isa.parser import parse_kernel
from repro.isa.printer import format_kernel
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.workloads.generator import KernelShape, PressurePhase, generate_kernel
from repro.workloads.suite import APPLICATIONS

EXPECTED = (
    Path(__file__).resolve().parents[2]
    / "perfbench" / "expected" / "compile_sweep.json"
)


def variant_shape(app, index: int) -> KernelShape:
    """The benchmark's generated variant ``index`` of ``app``: seeded
    pressure levels and phase lengths jittered around the app's knobs, a
    divergent inner phase for about 30% of variants, scrambled register
    indices for about 30%."""
    rng = random.Random(f"{app.name}/{index}")
    high = rng.randint(max(3, app.high_pressure - 3), app.high_pressure)
    low = rng.randint(max(2, app.low_pressure - 2),
                      min(high - 1, app.low_pressure + 2))

    def jitter(n: int) -> int:
        return max(4, round(n * rng.uniform(0.8, 1.2)))

    phases = (
        PressurePhase(low, jitter(app.prologue_len), mem_ratio=app.mem_ratio,
                      barrier_after=app.has_barrier),
        PressurePhase(high, jitter(app.inner_len),
                      mem_ratio=app.inner_mem_ratio, sfu_ratio=app.sfu_ratio,
                      divergent=0.5 if rng.random() < 0.3 else 0.0),
        PressurePhase(low, jitter(app.epilogue_len), mem_ratio=app.mem_ratio),
    )
    return KernelShape(
        name=f"{app.name}_v{index:02d}",
        phases=phases,
        regs_per_thread=app.regs,
        threads_per_cta=app.threads_per_cta,
        shared_mem_per_cta=app.shared_mem_per_cta,
        outer_trips=max(0, app.outer_trips + rng.randint(-2, 2)),
        scramble_indices=rng.random() < 0.3,
        seed=rng.randrange(1, 1 << 30),
    )


def sweep_rows(text: str) -> dict[str, list]:
    """Parse ``text`` and compile it under the heuristic and every forced
    |Es| below its rounded register count, on both register files."""
    kernel = parse_kernel(text)
    out: dict[str, list] = {}
    for config in (GTX480, GTX480_HALF_RF):
        rows = out.setdefault(config.name, [])
        rounded = round_regs_to_granularity(
            kernel.metadata.regs_per_thread,
            config.register_allocation_granularity)
        for es in (None,) + tuple(e for e in ES_SWEEP if e < rounded):
            try:
                compiled = regmutex_compile(kernel, config, forced_es=es)
            except ValueError as exc:
                rows.append([es, type(exc).__name__])
                continue
            md, report = compiled.metadata, compilation_report(compiled)
            ctas = RegMutexTechnique(extended_set_size=es).occupancy(
                compiled, config).ctas_per_sm
            digest = hashlib.sha256(format_kernel(compiled).encode()).hexdigest()
            rows.append([es, md.base_set_size, md.extended_set_size,
                         report.acquire_count, report.release_count, ctas,
                         digest[:12]])
    return out


@pytest.fixture(scope="module")
def expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)["kernels"]


@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_variant_zero_sweep_matches_pinned_rows(app, expected):
    name = f"{app}_v00"
    text = format_kernel(generate_kernel(variant_shape(APPLICATIONS[app], 0)))
    assert sweep_rows(text) == expected[name]
