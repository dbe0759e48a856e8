"""Design-space sweeps built on the declarative experiment layer.

The headline sweep generalizes the paper's §IV-B experiment: instead of
one halved register file, sweep the file size and measure how much
performance each technique retains — "how small can the register file
get before the kernel falls off a cliff, and how far does RegMutex push
that cliff?".

Each sweep is declared as an :class:`ExperimentSpec` whose row builder
tolerates per-point failures (a scale where no CTA fits is a data point,
not an error); it runs through an
:class:`~repro.harness.orchestrator.Orchestrator` like every figure.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.arch.config import GpuConfig, GTX480
from repro.harness.orchestrator import Orchestrator
from repro.harness.runner import ExperimentRunner
from repro.harness.spec import (
    ExperimentSpec,
    JobResults,
    JobSpec,
    TechniqueSpec,
)
from repro.workloads.suite import get_app

DEFAULT_SCALES = (1.0, 0.75, 0.5, 0.375)


@dataclass(frozen=True)
class RfSizePoint:
    """One point of the register-file size sweep."""

    app: str
    scale: float
    registers_per_sm: int
    increase_baseline: float      # vs the full-size file, no technique
    increase_regmutex: float      # vs the full-size file, with RegMutex
    fits_baseline: bool           # could the kernel be placed at all?
    fits_regmutex: bool

    @property
    def regmutex_recovery(self) -> float:
        """Fraction of the bare slowdown RegMutex recovers at this point."""
        if self.increase_baseline <= 0:
            return 0.0
        return 1.0 - self.increase_regmutex / self.increase_baseline


def _scaled(config: GpuConfig, scale: float) -> GpuConfig:
    regs = int(config.registers_per_sm * scale)
    # Keep warp-size alignment so per-warp register packs stay whole.
    regs -= regs % config.warp_size
    return dataclasses.replace(
        config, name=f"{config.name}-rf{scale:g}", registers_per_sm=regs
    )


def rf_size_sweep_spec(
    app: str,
    config: GpuConfig = GTX480,
    scales: tuple[float, ...] = DEFAULT_SCALES,
) -> ExperimentSpec:
    """Declare the register-file size sweep for one application."""
    es = get_app(app).expected_es
    full_job = JobSpec(app, config, TechniqueSpec.of("baseline"))
    plan = []
    for scale in scales:
        scaled = _scaled(config, scale)
        plan.append(
            (scale, scaled,
             JobSpec(app, scaled, TechniqueSpec.of("baseline")),
             JobSpec(app, scaled,
                     TechniqueSpec.of("regmutex", extended_set_size=es)))
        )

    def build(results: JobResults) -> list[RfSizePoint]:
        full = results[full_job]

        def metric(job: JobSpec) -> tuple[float, bool]:
            # The kernel may stop fitting at small scales (no CTA
            # placeable); carry an infinite increase instead of raising.
            if results.failed(job):
                return float("inf"), False
            return results[job].increase_vs(full), True

        points = []
        for scale, scaled, base_job, rm_job in plan:
            inc_base, fits_base = metric(base_job)
            inc_rm, fits_rm = metric(rm_job)
            points.append(RfSizePoint(
                app=app,
                scale=scale,
                registers_per_sm=scaled.registers_per_sm,
                increase_baseline=inc_base,
                increase_regmutex=inc_rm,
                fits_baseline=fits_base,
                fits_regmutex=fits_rm,
            ))
        return points

    jobs = (full_job,) + tuple(
        j for _, _, base, rm in plan for j in (base, rm)
    )
    return ExperimentSpec(f"rf-size-sweep/{app}", jobs, build)


def register_file_size_sweep(
    runner: ExperimentRunner,
    app: str,
    config: GpuConfig = GTX480,
    scales: tuple[float, ...] = DEFAULT_SCALES,
) -> list[RfSizePoint]:
    """Sweep the register file size for one application, in-process."""
    spec = rf_size_sweep_spec(app, config, scales)
    return Orchestrator(runner).run_specs([spec])[spec.name]
