"""RegMutex issue-stage logic and the full technique wiring.

The acquire/release primitives execute at the issue stage, like barrier
operations (paper §III-B1).  A failed acquire parks the warp in
``WAITING_ACQUIRE``; any release wakes all parked warps, which then
retry their acquire when next scheduled (an alternative eager-retry
policy is available for the ablation benches).

:class:`RegMutexTechnique` is the end-to-end scheme: ``prepare_kernel``
runs the compiler pipeline (liveness → |Es| selection → compaction →
primitive injection) and ``occupancy`` implements the paper's register
accounting — CTAs packed by ``|Bs|`` alone, with the leftover registers
carved into SRP sections of ``|Es|`` registers each.
"""

from __future__ import annotations

from repro.arch.config import GpuConfig
from repro.arch.occupancy import OccupancyResult, theoretical_occupancy
from repro.errors import InvariantViolationError
from repro.isa.kernel import Kernel
from repro.regmutex.srp import SharedRegisterPool
from repro.sim.stats import SmStats
from repro.sim.technique import SharingTechnique, SmTechniqueState
from repro.sim.warp import Warp, WarpStatus


def srp_section_count(
    config: GpuConfig,
    resident_warps: int,
    base_set_size: int,
    extended_set_size: int,
) -> int:
    """Number of extended sets that fit in the register file leftover.

    Paper §III-A2 worked example: 48 warps × |Bs| threads' registers are
    packed first; the remainder is divided by one extended set's register
    cost (|Es| × warp_size); the count is capped at the warp-slot count
    (the SRP bitmask is Nw bits) and floored at 0.
    """
    if extended_set_size <= 0:
        return 0
    used = resident_warps * base_set_size * config.warp_size
    leftover = config.registers_per_sm - used
    if leftover <= 0:
        return 0
    sections = leftover // (extended_set_size * config.warp_size)
    return max(0, min(sections, config.max_warps_per_sm))


class RegMutexSmState(SmTechniqueState):
    """Per-SM runtime: the SRP plus the blocked-warp wait queue."""

    def __init__(
        self,
        kernel: Kernel,
        config: GpuConfig,
        stats: SmStats,
        num_sections: int,
        retry_policy: str = "wakeup",
    ) -> None:
        super().__init__(kernel, config, stats)
        if retry_policy not in ("wakeup", "eager"):
            raise ValueError(f"unknown retry policy {retry_policy!r}")
        self.srp = SharedRegisterPool(config.max_warps_per_sm, num_sections)
        self.retry_policy = retry_policy
        self._wait_queue: list[Warp] = []
        # Double-buffered wakeup list: ``wakeup_pending`` swaps the two
        # instead of allocating a fresh list per cycle (hot loop).
        self._pending_wakeups: list[Warp] = []
        self._wakeup_spare: list[Warp] = []

    # -- technique interface -----------------------------------------------------
    def try_acquire(self, warp: Warp, cycle: int) -> bool:
        self.stats.acquire_attempts += 1
        section = self.srp.acquire(warp.slot)
        if section is not None:
            self.stats.acquire_successes += 1
            warp.holds_extended_set = True
            warp.srp_section = section
            if warp.acquire_block_since is not None:
                self.stats.acquire_wait_cycles += cycle - warp.acquire_block_since
                warp.acquire_block_since = None
            return True
        if self.retry_policy == "wakeup":
            warp.status = WarpStatus.WAITING_ACQUIRE
            if warp not in self._wait_queue:
                self._wait_queue.append(warp)
        if warp.acquire_block_since is None:
            warp.acquire_block_since = cycle
        return False

    def release(self, warp: Warp, cycle: int) -> None:
        freed = self.srp.release(warp.slot)
        if freed is not None:
            self.stats.release_count += 1
            warp.holds_extended_set = False
            warp.srp_section = None
            if self._wait_queue:
                # One section came back: wake exactly one waiter (FIFO).
                # Waking the whole queue would burn an issue slot per
                # loser on every release (thundering herd).
                self._pending_wakeups.append(self._wait_queue.pop(0))

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        # Defensive reclamation: a well-formed compiled kernel releases
        # before EXIT, but a warp exiting inside an acquire region must
        # not leak its section.
        if warp.holds_extended_set:
            self.release(warp, cycle)
        if warp in self._wait_queue:
            self._wait_queue.remove(warp)
        if warp in self._pending_wakeups:
            # The warp finished (or was watchdog-killed) between being
            # granted a wakeup and consuming it.  Dropping the stale
            # wakeup alone would strand the freed section until the next
            # release, so hand it to the next parked waiter.
            self._pending_wakeups.remove(warp)
            if self._wait_queue:
                self._pending_wakeups.append(self._wait_queue.pop(0))

    def wakeup_pending(self) -> list[Warp] | tuple:
        woken = self._pending_wakeups
        if not woken:
            return ()
        spare = self._wakeup_spare
        spare.clear()
        self._pending_wakeups, self._wakeup_spare = spare, woken
        return woken

    def srp_view(self) -> tuple[int, int]:
        return (self.srp.sections_in_use, self.srp.num_sections)

    @property
    def waiting_warps(self) -> int:
        return len(self._wait_queue)

    def check_invariants(self, cycle: int) -> None:
        """SRP bitmask/LUT/status consistency, as a structured error.

        ``Srp.check_invariants`` raises ``AssertionError`` (its
        property-test contract); the simulator surface wraps it so a
        corrupted structure is attributable and carries a snapshot.
        """
        try:
            self.srp.check_invariants()
        except AssertionError as exc:
            raise InvariantViolationError(
                f"cycle {cycle}: SRP invariant violated: {exc}",
                diagnostic=self.debug_snapshot(),
            ) from exc

    def debug_snapshot(self) -> dict:
        return {
            "srp_bitmask": self.srp.srp_bitmask.as_int(),
            "warp_status": self.srp.warp_status.as_int(),
            "lut": [
                self.srp.lut_entry(slot) for slot in range(self.srp.max_warps)
            ],
            "num_sections": self.srp.num_sections,
            "sections_in_use": self.srp.sections_in_use,
            "wait_queue": [w.warp_id for w in self._wait_queue],
            "retry_policy": self.retry_policy,
        }

    def state_snapshot(self) -> dict:
        return {
            "srp_bitmask": self.srp.srp_bitmask.as_int(),
            "warp_status": self.srp.warp_status.as_int(),
            "lut": list(self.srp._lut),
            "wait_queue": [w.warp_id for w in self._wait_queue],
            "pending_wakeups": [w.warp_id for w in self._pending_wakeups],
        }

    def resolve_physical(self, warp: Warp, arch_reg: int) -> int:
        """The Figure 6b mux, read by the sanitizer's physical-bounds
        and physical-aliasing checks.

        Base registers live in the warp's |Bs| block; extended registers
        live in the warp's current SRP section past the SRP offset.  A
        warp touching an extended register without a section would be a
        compiler bug (the static verifier forbids it, and the sanitizer's
        extended-access check reports it); fall back to the base formula
        so the physical checks never crash mid-run.
        """
        md = self.kernel.metadata
        bs = md.base_set_size or md.regs_per_thread
        if arch_reg < bs or not warp.holds_extended_set:
            return arch_reg + bs * warp.slot
        es = md.extended_set_size or 0
        section = warp.srp_section or 0
        srp_offset = bs * self.config.max_warps_per_sm
        return (arch_reg - bs) + es * section + srp_offset


class RegMutexTechnique(SharingTechnique):
    """RegMutex default mode: communal SRP time-shared by all warps."""

    name = "regmutex"

    def __init__(
        self,
        extended_set_size: int | None = None,
        retry_policy: str = "wakeup",
        enable_compaction: bool = True,
    ) -> None:
        """``extended_set_size`` forces |Es| (the Figure 10 sweep); None
        lets the compiler heuristic choose."""
        self.extended_set_size = extended_set_size
        self.retry_policy = retry_policy
        self.enable_compaction = enable_compaction

    def prepare_kernel(self, kernel: Kernel, config: GpuConfig) -> Kernel:
        # Local import: the compiler package builds on isa/liveness/arch
        # and is orthogonal to the hardware model hierarchy.
        from repro.compiler.pipeline import regmutex_compile

        return regmutex_compile(
            kernel,
            config,
            forced_es=self.extended_set_size,
            enable_compaction=self.enable_compaction,
        )

    def occupancy(self, kernel: Kernel, config: GpuConfig) -> OccupancyResult:
        md = kernel.metadata
        if not md.uses_regmutex:
            return theoretical_occupancy(config, md)
        return theoretical_occupancy(
            config, md, regs_per_thread=md.base_set_size, granularity=1
        )

    def num_sections(self, kernel: Kernel, config: GpuConfig) -> int:
        md = kernel.metadata
        if not md.uses_regmutex:
            return 0
        occ = self.occupancy(kernel, config)
        return srp_section_count(
            config, occ.resident_warps, md.base_set_size, md.extended_set_size
        )

    def make_sm_state(
        self, kernel: Kernel, config: GpuConfig, stats: SmStats
    ) -> RegMutexSmState:
        return RegMutexSmState(
            kernel,
            config,
            stats,
            num_sections=self.num_sections(kernel, config),
            retry_policy=self.retry_policy,
        )
