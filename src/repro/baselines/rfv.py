"""RFV baseline: register file virtualization (behaviour model of Jeon
et al., MICRO 2015).

A renaming table maps architected registers to physical registers
on demand: a physical register is taken at first write and returned when
the value dies.  Occupancy is therefore limited by *average* live
demand, not the declared maximum, and a warp only stalls when the pool
is momentarily empty at an allocating instruction.  That fine allocation
granularity is why RFV edges out RegMutex on cycles (paper Fig 9:
16.2% vs 12.8% average reduction) while paying >81× more storage.

Model specifics:

* per-warp physical demand tracks the static live count at the warp's
  PC (per-instruction allocate/free, the dead-value hints of the
  original design),
* the pool is ``registers_per_sm / warp_size`` per-thread slots shared
  by all resident warps,
* forward progress: the oldest resident warp may always allocate (the
  model's stand-in for the original's reserved/eviction machinery),
  so the pool can dip negative by at most one warp's peak demand.
"""

from __future__ import annotations

from array import array
from types import MappingProxyType
from typing import Mapping

from repro.arch.config import GpuConfig
from repro.arch.occupancy import OccupancyResult, theoretical_occupancy
from repro.isa.instructions import Instruction
from repro.isa.kernel import Kernel
from repro.liveness.liveness import analyze_liveness
from repro.sim.columnar import buffer_field
from repro.sim.stats import SmStats
from repro.sim.technique import SharingTechnique, SmTechniqueState
from repro.sim.warp import Warp


# Slots of ``RfvSmState.pool``.
RFV_POOL_FREE = 0
RFV_RESERVE_HOLDER = 1  # a warp id; -1 means None
RFV_PEAK_POOL_USE = 2
RFV_POOL_CAPACITY = 3
RFV_NEXT_ORDER = 4      # the next first-issue sequence number


class RfvSmState(SmTechniqueState):
    """Per-SM virtualized register pool.

    The state lives in ``array('l')`` buffers that the columnar engine's
    C loop reads and writes in place (:meth:`native_gate`):

    * ``live_count`` — per pc, the static live register count (demand);
    * ``held`` — per warp slot, the per-thread registers it holds;
    * ``owner`` / ``order`` — per slot, the holder's warp id and its
      first-issue sequence number (-1: the slot holds no allocation),
      which keep ``allocated`` in the order the warps first issued;
    * ``pool`` — ``[pool_free, reserve_holder, peak_pool_use,
      pool_capacity, next_order]``.

    ``can_issue``/``on_issue`` below are the specification and what the
    scan stepper runs; the C loop evaluates the same rules over the same
    buffers when they are bound unwrapped.
    """

    def __init__(self, kernel: Kernel, config: GpuConfig, stats: SmStats) -> None:
        super().__init__(kernel, config, stats)
        info = analyze_liveness(kernel)
        self.live_count = array("l", info.live_count)
        slots = config.max_warps_per_sm
        self.held = array("l", [0]) * slots
        self.owner = array("l", [-1]) * slots
        self.order = array("l", [-1]) * slots
        capacity = config.registers_per_sm // config.warp_size
        # Forward-progress reserve: exactly one warp may over-allocate
        # from an exhausted pool.  The token must never sit on a warp
        # that cannot run (a barrier waiter would deadlock the SM), so it
        # is dropped when the holder hits a barrier, returns registers,
        # or finishes.
        self.pool = array("l", [capacity, -1, 0, capacity, 0])
        self._gate = (
            self.live_count, self.held, self.owner, self.order, self.pool,
        )

    pool_free = buffer_field("pool", RFV_POOL_FREE)
    peak_pool_use = buffer_field("pool", RFV_PEAK_POOL_USE)
    pool_capacity = buffer_field("pool", RFV_POOL_CAPACITY)

    @property
    def _reserve_holder(self) -> int | None:
        holder = self.pool[RFV_RESERVE_HOLDER]
        return None if holder < 0 else holder

    @property
    def _allocated(self) -> Mapping[int, int]:
        """warp_id -> per-thread registers held, in first-issue order."""
        order = self.order
        holders = sorted(
            (slot for slot in range(len(order)) if order[slot] >= 0),
            key=order.__getitem__,
        )
        return MappingProxyType(
            {self.owner[slot]: self.held[slot] for slot in holders}
        )

    def native_gate(self) -> tuple:
        return self._gate

    def can_issue(self, warp: Warp, inst: Instruction, cycle: int) -> bool:
        needed = self.live_count[warp.pc] - self.held[warp.slot]
        if needed <= 0:
            return True
        pool = self.pool
        if pool[RFV_POOL_FREE] >= needed:
            return True
        if pool[RFV_RESERVE_HOLDER] in (-1, warp.warp_id):
            pool[RFV_RESERVE_HOLDER] = warp.warp_id
            return True
        warp.stalled_on = "technique"
        return False

    def on_issue(self, warp: Warp, inst: Instruction, cycle: int) -> None:
        slot = warp.slot
        pool = self.pool
        demand = self.live_count[warp.pc]
        delta = demand - self.held[slot]
        pool[RFV_POOL_FREE] -= delta
        if self.order[slot] < 0:
            self.order[slot] = pool[RFV_NEXT_ORDER]
            pool[RFV_NEXT_ORDER] += 1
            self.owner[slot] = warp.warp_id
        self.held[slot] = demand
        used = pool[RFV_POOL_CAPACITY] - pool[RFV_POOL_FREE]
        if used > pool[RFV_PEAK_POOL_USE]:
            pool[RFV_PEAK_POOL_USE] = used
        if pool[RFV_RESERVE_HOLDER] == warp.warp_id and (
            delta < 0 or inst.is_barrier
        ):
            pool[RFV_RESERVE_HOLDER] = -1

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        slot = warp.slot
        pool = self.pool
        pool[RFV_POOL_FREE] += self.held[slot]
        self.held[slot] = 0
        self.owner[slot] = -1
        self.order[slot] = -1
        if pool[RFV_RESERVE_HOLDER] == warp.warp_id:
            pool[RFV_RESERVE_HOLDER] = -1

    def state_snapshot(self) -> dict:
        return {
            "pool_free": self.pool_free,
            "allocated": {str(w): h for w, h in self._allocated.items()},
            "peak_pool_use": self.peak_pool_use,
            "reserve_holder": self._reserve_holder,
        }


class RfvTechnique(SharingTechnique):
    """Register file virtualization with dead-value reclamation."""

    name = "rfv"
    # Bumped whenever the model's semantics change, so cached experiment
    # records invalidate without flushing unrelated techniques.
    model_version = 2

    def prepare_kernel(self, kernel: Kernel, config: GpuConfig) -> Kernel:
        # No code rewriting: dead-value information rides on liveness
        # metadata (the original embeds it via meta-instructions, whose
        # fetch-stage cost we charge below through occupancy, not code).
        return kernel

    def occupancy(self, kernel: Kernel, config: GpuConfig) -> OccupancyResult:
        md = kernel.metadata
        # Registers virtualized: CTA packing sizes each warp by the
        # midpoint of its mean and peak static live demand.  Packing by
        # the mean alone admits so many warps on high-variance kernels
        # that the physical pool saturates whenever several warps hit
        # their peak together, serializing execution behind the
        # forward-progress reserve — a residency throttle the real
        # design's eviction machinery corresponds to.
        info = analyze_liveness(kernel)
        counts = info.live_count
        if counts:
            mean_live = sum(counts) / len(counts)
            effective = max(1, -(-int(mean_live + max(counts)) // 2))
        else:
            effective = 1
        return theoretical_occupancy(
            config, md, regs_per_thread=effective, granularity=1
        )

    def make_sm_state(
        self, kernel: Kernel, config: GpuConfig, stats: SmStats
    ) -> RfvSmState:
        return RfvSmState(kernel, config, stats)
