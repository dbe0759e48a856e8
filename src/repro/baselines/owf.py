"""OWF baseline: warp-pair register sharing with one-shot acquisition
(behaviour model of Jatala et al., HPDC 2016).

The scheme keeps the baseline's resident CTAs ("native" warps, which own
their full register allocation privately) and packs *extra* CTAs into
the register-file leftover: an extra warp owns only the base portion of
its registers and time-shares the high-index portion with one native
partner behind a hardware lock with **one-shot** semantics — the first
warp to touch a shared register owns it *until it finishes* (the paper's
central criticism: "one-time acquire with no in-kernel release").

A native warp implicitly owns its shared set from launch, so in practice
an extra warp progresses through low-pressure code, blocks at its first
high-register access, and resumes only when its partner retires.
Scheduling is Owner-Warp-First: lock owners outrank non-owners so they
finish (and hand over) sooner.  The net effect the paper measures — a
small average gain (≈2%) with occasional losses — comes from extra
warps contributing low-pressure progress and tail coverage only.

For an apples-to-apples comparison the high-register threshold reuses
the RegMutex compiler's |Bs| split; no instructions are injected (the
real design checks indices at the register file on every access).
"""

from __future__ import annotations

from repro.arch.config import GpuConfig
from repro.arch.occupancy import OccupancyResult, theoretical_occupancy
from repro.compiler.es_selection import select_extended_set_size
from repro.isa.instructions import Instruction
from repro.isa.kernel import Kernel
from repro.sim.stats import SmStats
from repro.sim.technique import SharingTechnique, SmTechniqueState
from repro.sim.warp import Warp, WarpStatus


def _extra_ctas(config: GpuConfig, md, base: OccupancyResult) -> int:
    """How many additional shared-register CTAs fit after baseline packing."""
    if not md.uses_regmutex:
        return 0
    from repro.arch.occupancy import round_regs_to_granularity

    rounded = round_regs_to_granularity(
        md.regs_per_thread, config.register_allocation_granularity
    )
    used_regs = base.ctas_per_sm * rounded * md.threads_per_cta
    leftover = config.registers_per_sm - used_regs
    extra_cta_regs = md.base_set_size * md.threads_per_cta
    cap_regs = leftover // extra_cta_regs if extra_cta_regs else 0
    cap_threads = (
        config.max_threads_per_sm - base.ctas_per_sm * md.threads_per_cta
    ) // md.threads_per_cta
    cap_slots = config.max_ctas_per_sm - base.ctas_per_sm
    cap_warps = (
        config.max_warps_per_sm - base.resident_warps
    ) // base.warps_per_cta
    if md.shared_mem_per_cta > 0:
        cap_smem = (
            config.shared_mem_per_sm
            - base.ctas_per_sm * md.shared_mem_per_cta
        ) // md.shared_mem_per_cta
    else:
        cap_smem = cap_slots
    # Pairing capacity: every extra warp needs a native partner.
    cap_pairing = base.ctas_per_sm
    return max(0, min(cap_regs, cap_threads, cap_slots, cap_warps,
                      cap_smem, cap_pairing))


def owf_priority(warp: Warp) -> int:
    """Owner-Warp-First: lock owners outrank everyone else."""
    return 0 if warp.owns_pair_lock else 1


class OwfSmState(SmTechniqueState):
    """Per-SM one-shot pair locks between native and extra warps."""

    scheduler_priority = staticmethod(owf_priority)

    def __init__(
        self,
        kernel: Kernel,
        config: GpuConfig,
        stats: SmStats,
        base_ctas: int,
        extra_ctas: int,
    ) -> None:
        super().__init__(kernel, config, stats)
        md = kernel.metadata
        self.threshold = md.base_set_size if md.base_set_size else md.regs_per_thread
        self.base_ctas = max(1, base_ctas)
        self.extra_ctas = extra_ctas
        self._cycle_len = self.base_ctas + self.extra_ctas
        # extra warp -> native partner currently blocking it
        self._partner: dict[int, Warp] = {}
        self._waiting_on: dict[int, list[Warp]] = {}
        self._native_round_robin = 0
        # Double-buffered like the RegMutex states: no per-cycle list.
        self._pending_wakeups: list[Warp] = []
        self._wakeup_spare: list[Warp] = []
        self._natives: dict[int, Warp] = {}

    def is_extra(self, warp: Warp) -> bool:
        return (warp.cta_id % self._cycle_len) >= self.base_ctas

    def _touches_shared(self, inst: Instruction) -> bool:
        return any(r >= self.threshold for r in inst.registers)

    def can_issue(self, warp: Warp, inst: Instruction, cycle: int) -> bool:
        if not self.is_extra(warp):
            # Native warps own their shared set from launch (one-shot
            # semantics: they are the first toucher by construction).
            if not warp.owns_pair_lock:
                warp.owns_pair_lock = True
                self._natives[warp.warp_id] = warp
            return True
        if warp.owns_pair_lock or not self._touches_shared(inst):
            return True
        # Extra warp hitting its first shared access: pick (or look up)
        # the native partner; block until that partner retires.
        partner = self._partner.get(warp.warp_id)
        if partner is None:
            alive = [w for w in self._natives.values() if not w.finished]
            if not alive:
                # Partner already finished (or none resident): own freely.
                warp.owns_pair_lock = True
                self.stats.acquire_attempts += 1
                self.stats.acquire_successes += 1
                return True
            partner = alive[self._native_round_robin % len(alive)]
            self._native_round_robin += 1
            self._partner[warp.warp_id] = partner
        self.stats.acquire_attempts += 1
        warp.status = WarpStatus.WAITING_ACQUIRE
        self._waiting_on.setdefault(partner.warp_id, []).append(warp)
        if warp.acquire_block_since is None:
            warp.acquire_block_since = cycle
        return False

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        self._natives.pop(warp.warp_id, None)
        if warp in self._pending_wakeups:
            # The warp finished before consuming its wakeup (its lock is
            # one-shot, so nothing transfers — just drop the stale entry).
            self._pending_wakeups.remove(warp)
        for waiter in self._waiting_on.pop(warp.warp_id, []):
            waiter.owns_pair_lock = True
            self._partner.pop(waiter.warp_id, None)
            self.stats.acquire_successes += 1
            if waiter.acquire_block_since is not None:
                self.stats.acquire_wait_cycles += cycle - waiter.acquire_block_since
                waiter.acquire_block_since = None
            self._pending_wakeups.append(waiter)
        self._partner.pop(warp.warp_id, None)

    def wakeup_pending(self) -> list[Warp] | tuple:
        woken = self._pending_wakeups
        if not woken:
            return ()
        spare = self._wakeup_spare
        spare.clear()
        self._pending_wakeups, self._wakeup_spare = spare, woken
        return woken

    def state_snapshot(self) -> dict:
        return {
            "partner": {
                str(w): p.warp_id for w, p in self._partner.items()
            },
            "waiting_on": {
                str(n): [w.warp_id for w in waiters]
                for n, waiters in self._waiting_on.items()
            },
            "native_round_robin": self._native_round_robin,
            "pending_wakeups": [w.warp_id for w in self._pending_wakeups],
            # Insertion order matters: the round-robin partner pick
            # indexes the live natives in registration order.
            "natives": list(self._natives),
        }


class OwfTechnique(SharingTechnique):
    """Baseline residency plus extra pair-shared CTAs, one-shot lock,
    owner-warp-first scheduling."""

    name = "owf"

    def prepare_kernel(self, kernel: Kernel, config: GpuConfig) -> Kernel:
        if kernel.metadata.uses_regmutex:
            raise ValueError("OWF expects an uninstrumented kernel")
        selection = select_extended_set_size(kernel, config)
        return kernel.with_metadata(
            regs_per_thread=selection.rounded_regs,
            base_set_size=(
                selection.base_set_size
                if selection.uses_regmutex
                else selection.rounded_regs
            ),
            extended_set_size=selection.extended_set_size,
        )

    def occupancy(self, kernel: Kernel, config: GpuConfig) -> OccupancyResult:
        md = kernel.metadata
        base = theoretical_occupancy(config, md)
        extra = _extra_ctas(config, md, base)
        if extra == 0:
            return base
        import dataclasses

        return dataclasses.replace(
            base, ctas_per_sm=base.ctas_per_sm + extra
        )

    def make_sm_state(
        self, kernel: Kernel, config: GpuConfig, stats: SmStats
    ) -> OwfSmState:
        md = kernel.metadata
        base = theoretical_occupancy(config, md)
        extra = _extra_ctas(config, md, base)
        return OwfSmState(
            kernel, config, stats,
            base_ctas=base.ctas_per_sm, extra_ctas=extra,
        )
