"""OWF baseline: warp-pair register sharing with one-shot acquisition
(behaviour model of Jatala et al., HPDC 2016).

The scheme keeps the baseline's resident CTAs ("native" warps, which own
their full register allocation privately) and packs *extra* CTAs into
the register-file leftover: an extra warp owns only the base portion of
its registers and time-shares the high-index portion with one native
partner behind a hardware lock with **one-shot** semantics — the first
warp to touch a shared register owns it *until it finishes* (the paper's
central criticism: "one-time acquire with no in-kernel release").

A native warp owns its shared set from launch, so in practice an extra
warp progresses through low-pressure code, blocks at its first
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

from array import array

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


# The tag of ``OwfSmState.native_gate()``'s declaration (RFV's is
# ``repro.baselines.rfv.GATE_RFV``).
GATE_OWF = 2


class OwfSmState(SmTechniqueState):
    """Per-SM one-shot pair locks between native and extra warps.

    The lock state lives in ``array('l')`` buffers that the columnar
    engine's C loop reads and writes in place (:meth:`native_gate`):

    * ``touches`` — per pc, 1 when the instruction touches a register at
      or above ``threshold`` (the shared portion);
    * ``native`` — per warp slot, 1 when the resident warp is native
      (``cta_id % (base + extra) < base``, evaluated at launch);
    * ``owner`` — per slot, the pair-lock owner bit: a native owns from
      launch, an extra warp once its lock is granted.  It is also the
      ``scheduler_priority`` the GTO scheduler ranks first
      (owner-warp-first);
    * ``order`` / ``next_order`` — per slot, a native's registration
      number (-1: unregistered), taken at its first qualification, and
      the next number: they keep ``_natives`` in the order the natives
      first qualified, which the round-robin partner pick indexes.

    ``can_issue`` below is the specification and what the scan stepper
    runs.  The C loop evaluates its native and owner tests over the same
    buffers and calls it only for an extra warp's first shared access,
    which picks the partner and parks the warp until that partner
    finishes: at most once per extra warp.
    """

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
        self.touches = array("l", map(self._touches_shared, kernel.instructions))
        slots = config.max_warps_per_sm
        self.native = array("l", [0]) * slots
        self.owner = array("l", [0]) * slots
        self.order = array("l", [-1]) * slots
        self.next_order = array("l", [0])
        self.scheduler_priority = self.owner
        self._gate = (
            GATE_OWF, self.touches, self.native, self.owner, self.order,
            self.next_order,
        )
        # slot -> the warp launched into it
        self._resident: list[Warp | None] = [None] * slots
        # extra warp -> native partner currently blocking it
        self._partner: dict[int, Warp] = {}
        self._waiting_on: dict[int, list[Warp]] = {}
        self._native_round_robin = 0
        # Double-buffered like the RegMutex states: no per-cycle list.
        self._pending_wakeups: list[Warp] = []
        self._wakeup_spare: list[Warp] = []

    def is_extra(self, warp: Warp) -> bool:
        return (warp.cta_id % self._cycle_len) >= self.base_ctas

    def _touches_shared(self, inst: Instruction) -> bool:
        return any(r >= self.threshold for r in inst.registers)

    @property
    def _natives(self) -> dict[int, Warp]:
        """warp_id -> registered native warp, in registration order."""
        order = self.order
        slots = sorted(
            (slot for slot in range(len(order)) if order[slot] >= 0),
            key=order.__getitem__,
        )
        return {self._resident[s].warp_id: self._resident[s] for s in slots}

    def native_gate(self) -> tuple:
        return self._gate

    def _grant(self, warp: Warp) -> None:
        warp.owns_pair_lock = True
        self.owner[warp.slot] = 1

    def on_warp_launch(self, warp: Warp) -> None:
        # Native warps own their shared set from launch (one-shot
        # semantics: they are the first toucher by construction).
        slot = warp.slot
        native = not self.is_extra(warp)
        self._resident[slot] = warp
        self.native[slot] = native
        self.owner[slot] = native
        self.order[slot] = -1
        warp.owns_pair_lock = native

    def can_issue(self, warp: Warp, inst: Instruction, cycle: int) -> bool:
        slot = warp.slot
        if self.native[slot]:
            if self.order[slot] < 0:
                self.order[slot] = self.next_order[0]
                self.next_order[0] += 1
            return True
        if self.owner[slot] or not self._touches_shared(inst):
            return True
        # Extra warp hitting its first shared access: pick (or look up)
        # the native partner; block until that partner retires.
        partner = self._partner.get(warp.warp_id)
        if partner is None:
            alive = [w for w in self._natives.values() if not w.finished]
            if not alive:
                # Partner already finished (or none resident): own freely.
                self._grant(warp)
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
        self.order[warp.slot] = -1
        if warp in self._pending_wakeups:
            # The warp finished before consuming its wakeup (its lock is
            # one-shot, so nothing transfers — just drop the stale entry).
            self._pending_wakeups.remove(warp)
        for waiter in self._waiting_on.pop(warp.warp_id, []):
            self._grant(waiter)
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
            # Registration order matters: the round-robin partner pick
            # indexes the live natives in that order.
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
