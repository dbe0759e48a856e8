"""Whole-device simulation: CTA grid partitioning across SMs.

SMs in this model do not interact (no shared L2 contention), so a launch
partitions the grid's CTAs across ``num_sms`` SMs and simulates each SM
independently; kernel time is the slowest SM.  Since all CTAs run the
same kernel, SMs with equal CTA counts behave identically under a fixed
per-SM seed, so distinct CTA counts are simulated once and reused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import GpuConfig
from repro.errors import KernelPlacementError
from repro.isa.kernel import Kernel
from repro.sim.rand import DeterministicRng
from repro.sim.sm import StreamingMultiprocessor
from repro.sim.stats import KernelStats, SmStats
from repro.sim.technique import BaselineTechnique, SharingTechnique


@dataclass(frozen=True)
class LaunchResult:
    """The outcome of one kernel launch."""

    stats: KernelStats
    compiled_kernel: Kernel
    # The issue loop the simulated SMs ran ("native" or "scan"; None
    # when no SM ran).  Not part of any record or cache key.
    loop: str | None = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class Gpu:
    """A multi-SM device with an installable sharing technique."""

    def __init__(
        self,
        config: GpuConfig,
        technique: SharingTechnique | None = None,
        seed: int = 2018,
    ) -> None:
        self.config = config
        self.technique = technique or BaselineTechnique()
        self.seed = seed

    def launch(
        self,
        kernel: Kernel,
        grid_ctas: int,
        max_cycles: int = 50_000_000,
        observer_factory=None,
    ) -> LaunchResult:
        """Run ``grid_ctas`` CTAs of ``kernel`` across the device.

        ``observer_factory`` (``sm_id -> SmObserver | None``) attaches
        observability to individual SMs; any observed launch disables the
        equal-CTA-count memoization below, since observers must see every
        SM actually simulated.
        """
        if grid_ctas <= 0:
            raise ValueError("grid must contain at least one CTA")
        compiled = self.technique.prepare_kernel(kernel, self.config)
        occ = self.technique.occupancy(compiled, self.config)
        if occ.ctas_per_sm <= 0:
            raise KernelPlacementError(
                f"kernel {kernel.name!r} does not fit on {self.config.name}: "
                f"limited by {occ.limiting_resource}"
            )

        num_sms = self.config.num_sms
        base, extra = divmod(grid_ctas, num_sms)
        per_sm_counts = [base + (1 if i < extra else 0) for i in range(num_sms)]

        stats_by_count: dict[int, SmStats] = {}
        per_sm: list[SmStats] = []
        loops: set[str] = set()
        for sm_id, count in enumerate(per_sm_counts):
            if count == 0:
                per_sm.append(SmStats())
                continue
            if observer_factory is not None:
                per_sm.append(self._run_one_sm(
                    sm_id, compiled, occ.ctas_per_sm, count,
                    max_cycles, loops,
                    observer=observer_factory(sm_id),
                ))
                continue
            if count not in stats_by_count:
                stats_by_count[count] = self._run_one_sm(
                    sm_id, compiled, occ.ctas_per_sm, count,
                    max_cycles, loops,
                )
            per_sm.append(stats_by_count[count])

        cycles = max((s.cycles for s in per_sm), default=0)
        kstats = KernelStats(
            kernel_name=kernel.name,
            config_name=self.config.name,
            technique=self.technique.name,
            cycles=cycles,
            theoretical_occupancy=occ.occupancy,
            ctas_per_sm=occ.ctas_per_sm,
            per_sm=per_sm,
        )
        # Every SM of a launch shares the config, so all take one loop.
        loop = loops.pop() if len(loops) == 1 else None
        return LaunchResult(stats=kstats, compiled_kernel=compiled, loop=loop)

    def _run_one_sm(
        self,
        sm_id: int,
        compiled: Kernel,
        resident_limit: int,
        total_ctas: int,
        max_cycles: int,
        loops: set[str],
        observer=None,
    ) -> SmStats:
        stats = SmStats()
        state = self.technique.make_sm_state(compiled, self.config, stats)
        sm = StreamingMultiprocessor(
            sm_id=sm_id,
            config=self.config,
            kernel=compiled,
            technique_state=state,
            ctas_resident_limit=resident_limit,
            total_ctas=total_ctas,
            # Seed depends on CTA count only, so equal-count SMs are
            # bit-identical and the memoization above is sound.
            rng=DeterministicRng(self.seed * 1_000_003 + total_ctas),
            stats=stats,  # shared with the technique state
        )
        if observer is not None:
            observer.attach(sm)
        loops.add(sm.issue_loop)
        return sm.run(max_cycles=max_cycles)


def simulate_kernel(
    kernel: Kernel,
    config: GpuConfig,
    technique: SharingTechnique | None = None,
    grid_ctas: int | None = None,
    seed: int = 2018,
) -> LaunchResult:
    """One-call convenience wrapper.

    ``grid_ctas`` defaults to four full waves of CTAs on the *baseline*
    occupancy, so every technique runs the identical amount of work and
    occupancy-boosting techniques finish it in fewer cycles.
    """
    from repro.arch.occupancy import theoretical_occupancy

    if grid_ctas is None:
        base_occ = theoretical_occupancy(config, kernel.metadata)
        waves = 4
        grid_ctas = max(1, base_occ.ctas_per_sm) * config.num_sms * waves
    gpu = Gpu(config, technique, seed=seed)
    return gpu.launch(kernel, grid_ctas)
