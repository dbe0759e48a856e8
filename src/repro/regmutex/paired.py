"""Paired-warps specialization (paper §III-C).

Instead of a communal SRP, warps are statically paired and each pair is
provisioned ``2·|Bs| + |Es|`` physical registers: base sets are private,
the single extended section is time-shared between the two partners.
This drops the LUT and SRP bitmask entirely — only an ``Nw/2``-bit
pair-status bitmask remains — at the cost of sharing flexibility: a warp
can only wait on its own partner, never borrow a section from an idle
pair elsewhere on the SM.
"""

from __future__ import annotations

from repro.arch.config import GpuConfig
from repro.arch.occupancy import OccupancyResult, theoretical_occupancy
from repro.isa.kernel import Kernel
from repro.regmutex.srp import Bitmask
from repro.sim.stats import SmStats
from repro.sim.technique import SmTechniqueState
from repro.regmutex.issue_logic import RegMutexTechnique
from repro.sim.warp import Warp, WarpStatus


class PairedWarpsSmState(SmTechniqueState):
    """Per-SM state: one status bit per warp pair."""

    def __init__(self, kernel: Kernel, config: GpuConfig, stats: SmStats) -> None:
        super().__init__(kernel, config, stats)
        num_pairs = max(1, config.max_warps_per_sm // 2)
        self.pair_status = Bitmask(num_pairs)
        # pair index -> warp currently holding the pair's extended section
        self._holder: dict[int, Warp] = {}
        self._waiting: dict[int, Warp] = {}
        # Double-buffered, like RegMutexSmState: no per-cycle allocation.
        self._pending_wakeups: list[Warp] = []
        self._wakeup_spare: list[Warp] = []

    def _pair_of(self, warp: Warp) -> int:
        return warp.slot // 2

    def try_acquire(self, warp: Warp, cycle: int) -> bool:
        self.stats.acquire_attempts += 1
        pair = self._pair_of(warp)
        holder = self._holder.get(pair)
        if holder is warp or not self.pair_status.test(pair):
            self.pair_status.set(pair)
            self._holder[pair] = warp
            self.stats.acquire_successes += 1
            warp.holds_extended_set = True
            warp.srp_section = pair
            if warp.acquire_block_since is not None:
                self.stats.acquire_wait_cycles += cycle - warp.acquire_block_since
                warp.acquire_block_since = None
            return True
        warp.status = WarpStatus.WAITING_ACQUIRE
        self._waiting[pair] = warp
        if warp.acquire_block_since is None:
            warp.acquire_block_since = cycle
        return False

    def release(self, warp: Warp, cycle: int) -> None:
        pair = self._pair_of(warp)
        if self._holder.get(pair) is not warp:
            return  # nested release: no effect
        self.pair_status.unset(pair)
        del self._holder[pair]
        warp.holds_extended_set = False
        warp.srp_section = None
        self.stats.release_count += 1
        partner = self._waiting.pop(pair, None)
        if partner is not None:
            self._pending_wakeups.append(partner)

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        if warp.holds_extended_set:
            self.release(warp, cycle)
        pair = self._pair_of(warp)
        if self._waiting.get(pair) is warp:
            del self._waiting[pair]
        if warp in self._pending_wakeups:
            # Stale wakeup for a finished warp: drop it.  No handoff is
            # needed — the pair's only other member is the one that
            # released, and it reacquires without a wakeup.
            self._pending_wakeups.remove(warp)

    def wakeup_pending(self) -> list[Warp] | tuple:
        woken = self._pending_wakeups
        if not woken:
            return ()
        spare = self._wakeup_spare
        spare.clear()
        self._pending_wakeups, self._wakeup_spare = spare, woken
        return woken

    def srp_view(self) -> tuple[int, int]:
        return (self.pair_status.popcount(), self.pair_status.width)

    def state_snapshot(self) -> dict:
        return {
            "pair_status": self.pair_status.as_int(),
            "holder": {str(p): w.warp_id for p, w in self._holder.items()},
            "waiting": {str(p): w.warp_id for p, w in self._waiting.items()},
            "pending_wakeups": [w.warp_id for w in self._pending_wakeups],
        }


class PairedWarpsTechnique(RegMutexTechnique):
    """RegMutex with statically paired warps sharing one section each."""

    name = "regmutex-paired"

    def occupancy(self, kernel: Kernel, config: GpuConfig) -> OccupancyResult:
        md = kernel.metadata
        if not md.uses_regmutex:
            return theoretical_occupancy(config, md)
        # Each *pair* costs 2|Bs| + |Es| registers per thread; amortized
        # per warp that is |Bs| + |Es|/2.  Using a fractional per-thread
        # cost directly would misround, so pack pairs explicitly: the
        # register cap in warps is 2 * floor(R / (2|Bs|+|Es|)) expressed
        # through an effective per-thread register cost.
        pair_cost_threads = 2 * md.base_set_size + md.extended_set_size
        # Effective per-warp register cost: half the pair.
        effective = (pair_cost_threads + 1) // 2
        return theoretical_occupancy(
            config, md, regs_per_thread=effective, granularity=1
        )

    def num_sections(self, kernel: Kernel, config: GpuConfig) -> int:
        md = kernel.metadata
        if not md.uses_regmutex:
            return 0
        occ = self.occupancy(kernel, config)
        return occ.resident_warps // 2

    def make_sm_state(
        self, kernel: Kernel, config: GpuConfig, stats: SmStats
    ) -> PairedWarpsSmState:
        return PairedWarpsSmState(kernel, config, stats)
