"""One-call profiled runs: the driver behind ``repro profile``.

Profiles one SM — the unit the paper's time-resolved figures describe —
under any sharing technique, with an observer attached for the whole
run.  A single SM keeps traces readable (one Perfetto process) and
profile runs fast; the CTA count is configurable for longer timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GpuConfig
from repro.errors import SimulationError
from repro.isa.kernel import Kernel
from repro.observe.hooks import SmObserver
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import SmStats
from repro.sim.technique import SharingTechnique


@dataclass
class ProfileResult:
    """Everything a profiled run produced."""

    kernel_name: str
    technique_name: str
    config: GpuConfig
    stats: SmStats
    observer: SmObserver
    total_ctas: int
    srp_sections: int
    error: SimulationError | None = None

    @property
    def log(self):
        return self.observer.log

    @property
    def samples(self):
        return self.observer.samples


def profile_kernel(
    kernel: Kernel,
    config: GpuConfig,
    technique: SharingTechnique,
    total_ctas: int | None = None,
    stride: int = 64,
    seed: int = 2018,
    max_cycles: int = 50_000_000,
) -> ProfileResult:
    """Run one SM with full observability and return the observations.

    A run that dies on a :class:`SimulationError` (deadlock, watchdog,
    cycle limit) still returns its partial observations — a trace of the
    run *up to* the failure is exactly what the watchdog events are for
    — with the error recorded on the result.
    """
    compiled = technique.prepare_kernel(kernel, config)
    occ = technique.occupancy(compiled, config)
    resident = max(1, occ.ctas_per_sm)
    if total_ctas is None:
        total_ctas = resident * 2

    stats = SmStats()
    state = technique.make_sm_state(compiled, config, stats)
    sm = StreamingMultiprocessor(
        sm_id=0,
        config=config,
        kernel=compiled,
        technique_state=state,
        ctas_resident_limit=resident,
        total_ctas=total_ctas,
        rng=DeterministicRng(seed),
        stats=stats,
    )
    observer = SmObserver(stride=stride)
    observer.attach(sm)

    error: SimulationError | None = None
    try:
        sm.run(max_cycles=max_cycles)
    except SimulationError as exc:
        error = exc
        observer.on_run_end(sm)
    stats.cycles = sm.cycle

    sections = 0
    view = sm.technique.srp_view()
    if view is not None:
        sections = view[1]
    return ProfileResult(
        kernel_name=kernel.name,
        technique_name=technique.name,
        config=config,
        stats=stats,
        observer=observer,
        total_ctas=total_ctas,
        srp_sections=sections,
        error=error,
    )
