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

    # The GTO scheduler's priority hook (``warp -> int``, lower issues
    # first), or None for plain greedy-then-oldest.  The SM builds its
    # schedulers from it, so a technique whose scheduling is part of its
    # definition (OWF's owner-warp-first) carries that scheduling into
    # every run of its state.
    scheduler_priority = None

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

    def native_gate(self) -> "tuple | None":
        """The technique's issue gate as data, or None (the default).

        A state that returns a declaration here promises that the
        columnar engine's C loop evaluates its class's own ``can_issue``
        and ``on_issue`` over exactly these buffers (each an
        ``array('l')`` the Python hooks read and write too), so the loop
        binds the declaration instead of calling the method
        (:func:`resolve_gate`).  The layout is the C loop's; RFV is the
        one technique that declares one.
        """
        return None

    def wakeup_pending(self) -> "Sequence[Warp]":
        """Warps whose blocked acquire may now succeed, as queued by the
        technique's own hooks.

        Returns the empty tuple when nothing is pending — the scan
        stepper calls this every cycle, the C loop on each cycle after
        it re-entered Python (only Python code can queue a wakeup), and
        techniques without wakeups (baseline, OWF, RFV) must not
        allocate a fresh list per call for nothing.

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
        structures are inconsistent.  The sanitizer calls it every
        ``sanitizer_stride`` cycles; the default state has none."""

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
        """Architected-to-physical mapping, read by the sanitizer's
        physical-bounds and physical-aliasing checks.

        Default: the stock ``Y = X + Coeff * Widx`` with the kernel's
        declared per-thread register count as the coefficient (paper
        Figure 6a).  RegMutex overrides this with the base/extended mux.
        """
        coeff = max(1, self.kernel.metadata.regs_per_thread)
        return arch_reg + coeff * warp.slot

    # -- state snapshot (repro.sim.checkpoint) ----------------------------------
    # A distinct name from the issue-path hooks on purpose: the columnar
    # stepper detects overridden can_issue/on_issue/wakeup_pending by
    # class identity to pick its fast path, and a snapshot hook must
    # never perturb that detection.

    def state_snapshot(self) -> dict:
        """JSON-able snapshot of the technique's mutable per-SM state.

        The base state is stateless (``kernel``/``config``/``stats``
        are captured by the SM itself), so the default is empty.
        Techniques with wait queues, pools, or counters override it;
        orderings (FIFO queues, insertion-ordered dicts) are part of the
        schedule and appear verbatim, so the engines' snapshots compare
        byte for byte.
        """
        return {}


class DelegatingTechniqueState(SmTechniqueState):
    """Decorator base: forwards every hook to the wrapped ``inner`` state.

    Wrappers that observe the technique (the observability bus, the
    shadow executor) subclass this and override only the hooks they add
    to, so a hook added here reaches every wrapper, the snapshot hook
    included.  Wrappers compose in any order; :func:`innermost` unwraps
    them.
    """

    def __init__(self, inner: SmTechniqueState) -> None:
        super().__init__(inner.kernel, inner.config, inner.stats)
        self.inner = inner

    @property
    def scheduler_priority(self):
        return self.inner.scheduler_priority

    def can_issue(self, warp: Warp, inst: Instruction, cycle: int) -> bool:
        return self.inner.can_issue(warp, inst, cycle)

    def on_issue(self, warp: Warp, inst: Instruction, cycle: int) -> None:
        self.inner.on_issue(warp, inst, cycle)

    def try_acquire(self, warp: Warp, cycle: int) -> bool:
        return self.inner.try_acquire(warp, cycle)

    def release(self, warp: Warp, cycle: int) -> None:
        self.inner.release(warp, cycle)

    def on_warp_finish(self, warp: Warp, cycle: int) -> None:
        self.inner.on_warp_finish(warp, cycle)

    def native_gate(self) -> "tuple | None":
        return self.inner.native_gate()

    def wakeup_pending(self) -> "Sequence[Warp]":
        return self.inner.wakeup_pending()

    def check_invariants(self, cycle: int) -> None:
        self.inner.check_invariants(cycle)

    def debug_snapshot(self) -> dict:
        return self.inner.debug_snapshot()

    def srp_view(self) -> "tuple[int, int] | None":
        return self.inner.srp_view()

    def resolve_physical(self, warp: Warp, arch_reg: int) -> int:
        return self.inner.resolve_physical(warp, arch_reg)

    def state_snapshot(self) -> dict:
        return self.inner.state_snapshot()


def innermost(state: SmTechniqueState) -> SmTechniqueState:
    """The technique state under any stack of delegating wrappers."""
    while isinstance(state, DelegatingTechniqueState):
        state = state.inner
    return state


def resolve_hook(state: SmTechniqueState, name: str):
    """The bound method that does the work of hook ``name``, or None.

    Walks a wrapper stack past layers that only forward the hook: the
    outermost layer that overrides it is bound (it calls on inward
    itself); with no overriding wrapper, the innermost state's own
    method is bound, or None when that is the ``SmTechniqueState``
    no-op.
    """
    while isinstance(state, DelegatingTechniqueState):
        if getattr(type(state), name) is not getattr(
            DelegatingTechniqueState, name
        ):
            return getattr(state, name)
        state = state.inner
    if getattr(type(state), name) is getattr(SmTechniqueState, name):
        return None
    return getattr(state, name)


def resolve_gate(state: SmTechniqueState, name: str):
    """Hook ``name`` as the C loop runs it: :func:`resolve_hook`'s
    binding, or the innermost state's :meth:`~SmTechniqueState.native_gate`
    declaration when that binding is the method of the class that
    declares the gate.  A wrapper that overrides the hook (observer,
    shadow, fault injector), or a subclass that redefines it, keeps its
    Python call, and that call reaches the same buffers."""
    hook = resolve_hook(state, name)
    inner = innermost(state)
    if hook is None or getattr(hook, "__self__", None) is not inner:
        return hook
    gate = inner.native_gate()
    if gate is None:
        return hook
    declaring = next(
        cls for cls in type(inner).__mro__ if "native_gate" in vars(cls)
    )
    if hook.__func__ is vars(declaring).get(name):
        return gate
    return hook


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
