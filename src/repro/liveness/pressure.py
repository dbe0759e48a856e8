"""Register pressure profiling: static per-PC counts and dynamic traces.

``static_pressure`` gives live counts per program counter (what the
RegMutex compiler consumes).  ``dynamic_pressure_trace`` walks a single
thread's dynamic execution path — using the branch annotations the
workload generator attaches — and emits the percentage-live-over-time
series of the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.kernel import Kernel
from repro.liveness.liveness import LivenessInfo, analyze_liveness
from repro.sim.rand import DeterministicRng


@dataclass
class PressureProfile:
    """Static pressure facts derived from liveness."""

    kernel: Kernel
    live_count: tuple[int, ...]

    @property
    def max_live(self) -> int:
        return max(self.live_count) if self.live_count else 0

    def pcs_above(self, threshold: int) -> list[int]:
        """Program counters whose live count exceeds ``threshold``."""
        return [pc for pc, c in enumerate(self.live_count) if c > threshold]

    def fraction_above(self, threshold: int) -> float:
        """Static fraction of instructions with pressure above threshold."""
        if not self.live_count:
            return 0.0
        return len(self.pcs_above(threshold)) / len(self.live_count)

    def histogram(self) -> dict[int, int]:
        """live-count -> number of PCs at that count."""
        out: dict[int, int] = {}
        for c in self.live_count:
            out[c] = out.get(c, 0) + 1
        return dict(sorted(out.items()))


def static_pressure(kernel: Kernel, liveness: LivenessInfo | None = None) -> PressureProfile:
    info = liveness or analyze_liveness(kernel)
    return PressureProfile(kernel=kernel, live_count=info.live_count)


@dataclass
class DynamicTrace:
    """A single thread's dynamic execution pressure trace (Figure 1).

    ``live_counts[i]`` is the live-register count at the i-th dynamically
    executed instruction; ``utilization[i]`` is that count divided by the
    kernel's allocated register count.
    """

    kernel: Kernel
    pcs: list[int]
    live_counts: list[int]

    @property
    def instructions_executed(self) -> int:
        return len(self.pcs)

    @property
    def utilization(self) -> list[float]:
        alloc = self.kernel.metadata.regs_per_thread
        return [c / alloc for c in self.live_counts]

    def mean_utilization(self) -> float:
        util = self.utilization
        return sum(util) / len(util) if util else 0.0

    def fraction_fully_utilized(self, tolerance: int = 0) -> float:
        """Fraction of dynamic instructions at (or within ``tolerance`` of)
        the maximum live count."""
        if not self.live_counts:
            return 0.0
        peak = max(self.live_counts)
        hits = sum(1 for c in self.live_counts if c >= peak - tolerance)
        return hits / len(self.live_counts)


def dynamic_pressure_trace(
    kernel: Kernel,
    max_instructions: int = 100_000,
    seed: int = 0,
    liveness: LivenessInfo | None = None,
) -> DynamicTrace:
    """Trace one thread through the kernel, sampling live counts.

    Branches resolve via their ``trip_count`` annotation when present
    (loop-style deterministic iteration) or ``taken_probability`` via a
    deterministic RNG otherwise; unannotated conditional branches default
    to not-taken.  Raises if the walk exceeds ``max_instructions`` —
    synthetic kernels are finite by construction, so hitting the cap
    indicates a malformed workload.
    """
    info = liveness or analyze_liveness(kernel)
    counts = info.live_count
    rng = DeterministicRng(seed)

    pcs: list[int] = []
    live: list[int] = []
    trips_remaining: dict[int, int] = {}
    pc = 0
    n = len(kernel)

    while pc < n:
        inst = kernel[pc]
        pcs.append(pc)
        live.append(counts[pc])
        if len(pcs) > max_instructions:
            raise RuntimeError(
                f"dynamic trace exceeded {max_instructions} instructions; "
                "kernel may not terminate"
            )
        if inst.is_exit:
            break
        if inst.is_branch:
            if inst.is_conditional_branch:
                if inst.trip_count is not None:
                    remaining = trips_remaining.get(pc, inst.trip_count)
                    if remaining > 0:
                        trips_remaining[pc] = remaining - 1
                        pc = kernel.label_pc(inst.target)
                        continue
                    trips_remaining[pc] = inst.trip_count  # reset for re-entry
                    pc += 1
                    continue
                prob = inst.taken_probability if inst.taken_probability is not None else 0.0
                if rng.uniform() < prob:
                    pc = kernel.label_pc(inst.target)
                    continue
                pc += 1
                continue
            pc = kernel.label_pc(inst.target)  # JMP
            continue
        pc += 1

    return DynamicTrace(kernel=kernel, pcs=pcs, live_counts=live)
