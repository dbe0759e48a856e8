"""Register-sharing technique interface.

The SM pipeline is technique-agnostic: a :class:`SharingTechnique`
decides (a) how many CTAs fit on an SM (the occupancy side) and (b) what
happens at issue time for each instruction (the arbitration side).  The
stock GPU, RegMutex (default and paired-warps), OWF, and RFV all
implement this interface, which is what makes the Figure 9 comparison an
apples-to-apples swap.
"""

from __future__ import annotations

from typing import Sequence

from repro.arch.config import GpuConfig
from repro.arch.occupancy import OccupancyResult, theoretical_occupancy
from repro.isa.instructions import Instruction
from repro.isa.kernel import Kernel
from repro.sim.stats import SmStats
from repro.sim.warp import Warp


class SmTechniqueState:
    """Per-SM runtime state of a sharing technique.

    The default implementation is the stock GPU: every instruction may
    issue, acquire/release primitives are no-ops (they should not exist
    in uninstrumented kernels, but tolerating them keeps fault-injection
    tests simple).
    """

    def __init__(self, kernel: Kernel, config: GpuConfig, stats: SmStats) -> None:
        self.kernel = kernel
        self.config = config
        self.stats = stats

    def can_issue(self, warp: Warp, inst: Instruction, cycle: int) -> bool:
        """Technique-specific issue gate (beyond scoreboard/memory)."""
        return True

    def on_issue(self, warp: Warp, inst: Instruction, cycle: int) -> None:
        """Bookkeeping after an instruction issues."""

    def try_acquire(self, warp: Warp, cycle: int) -> bool:
        """Handle an ACQUIRE primitive; True = granted, warp proceeds."""
        return True

    def release(self, warp: Warp, cycle: int) -> None:
        """Handle a RELEASE primitive."""

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        """Warp executed EXIT; reclaim any held resources."""

    def wakeup_pending(self) -> "Sequence[Warp]":
        """Warps whose blocked acquire may now succeed (drained each cycle).

        Returns the empty tuple when nothing is pending — the SM calls
        this every cycle, and techniques without wakeups (baseline, OWF,
        RFV) must not allocate a fresh list per cycle for nothing.

        This drain is the *only* event that re-arms an acquire-parked
        warp on the columnar issue path: a warp this method returns is
        moved from its scheduler's blocked count back into the ready
        list (``ColumnarCore.on_acquire_wake``).  A technique that
        unparks a warp any other way — mutating ``warp.status`` without
        reporting it here — would strand the warp on the columnar path
        while the scan stepper silently picked it up; the
        engine-identity property tests exist to catch exactly that.
        """
        return ()

    def check_invariants(self, cycle: int) -> None:
        """Raise ``InvariantViolationError`` if the technique's hardware
        structures are inconsistent.  Called every cycle when the config
        sets ``debug_invariants``; the default state has none."""

    def debug_snapshot(self) -> dict:
        """Technique-internal state for deadlock diagnostics (plain
        JSON-able values only — this crosses process boundaries inside
        error messages)."""
        return {}

    def srp_view(self) -> "tuple[int, int] | None":
        """(sections in use, total sections) for the observability probes.

        None means the technique has no shared pool (stock GPU); the
        probes then record a zero-width SRP track.
        """
        return None

    def resolve_physical(self, warp: Warp, arch_reg: int) -> int:
        """Architected-to-physical mapping for the bank-conflict model.

        Default: the stock ``Y = X + Coeff * Widx`` with the kernel's
        declared per-thread register count as the coefficient (paper
        Figure 6a).  RegMutex overrides this with the base/extended mux.
        """
        coeff = max(1, self.kernel.metadata.regs_per_thread)
        return arch_reg + coeff * warp.slot

    # -- checkpoint hooks (repro.sim.checkpoint) ----------------------------------
    # Distinct names from the issue-path hooks on purpose: the columnar
    # stepper detects overridden can_issue/on_issue/wakeup_pending by
    # class identity to pick its fast path, and a checkpoint mixin must
    # never perturb that detection.

    def state_snapshot(self) -> dict:
        """JSON-able snapshot of the technique's mutable per-SM state.

        The base state is stateless (``kernel``/``config``/``stats``
        are restored by the SM itself), so the default is empty.
        Techniques with wait queues, pools, or counters override both
        hooks; orderings (FIFO queues, insertion-ordered dicts) must be
        preserved exactly — resume is a *bit-identity* contract.
        """
        return {}

    def state_restore(self, payload: dict, warps_by_id: dict[int, Warp]) -> None:
        """Rebuild mutable state from :meth:`state_snapshot` output.

        ``warps_by_id`` maps warp ids to the *restored* warp objects —
        any serialized warp reference must be resolved through it, never
        kept as an id, so identity checks (e.g. ``warp in queue``) keep
        working after resume.
        """


class SharingTechnique:
    """A register-management scheme: occupancy math + per-SM state factory."""

    name = "baseline"

    def prepare_kernel(self, kernel: Kernel, config: GpuConfig) -> Kernel:
        """Hook for techniques that rewrite the kernel (RegMutex compiles
        acquire/release in here).  Default: unchanged."""
        return kernel

    def occupancy(self, kernel: Kernel, config: GpuConfig) -> OccupancyResult:
        """CTAs resident per SM under this technique."""
        return theoretical_occupancy(config, kernel.metadata)

    def make_sm_state(
        self, kernel: Kernel, config: GpuConfig, stats: SmStats
    ) -> SmTechniqueState:
        return SmTechniqueState(kernel, config, stats)


class BaselineTechnique(SharingTechnique):
    """The stock GPU: static, exclusive register allocation."""

    name = "baseline"
