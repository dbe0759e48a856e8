"""Parametric synthetic-kernel generator.

A kernel is described by a :class:`KernelShape`: an ordered list of
:class:`PressurePhase` segments, optionally wrapped in an outer loop,
with optional barriers between phases.  Each phase sustains a target
live-register count for a given instruction length, which is how the
generator reproduces the liveness fluctuation the paper motivates with
Figure 1 (low-pressure stretches punctuated by high-pressure inner
loops).

Pressure control works by construction:

* entering a phase, registers ``0 .. P-1`` are made live (definitions
  for the ones not yet live),
* the phase body reads live registers and rewrites a rotating subset of
  them — every write is read later, so all ``P`` stay live,
* leaving a phase with a lower-pressure successor, the retiring
  registers are *reduced* into a low accumulator (their last use) so
  they die exactly at the phase boundary.

Long-lived values get low indices and phase-local temporaries get high
indices, matching how real register allocators order by live-range
length; the ``scramble_indices`` knob inverts that for compaction
stress-testing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Opcode
from repro.isa.kernel import Kernel
from repro.sim.rand import DeterministicRng

_ALU_OPS = (Opcode.FFMA, Opcode.IADD, Opcode.FMUL, Opcode.IMAD, Opcode.FADD)


@dataclass(frozen=True)
class PressurePhase:
    """One pressure plateau.

    ``live_regs`` — registers simultaneously live through the phase.
    ``length`` — body instructions (excluding setup/teardown).
    ``mem_ratio`` — fraction of body instructions that are global loads.
    ``loop_trips`` — if > 0, the body loops this many times.
    ``barrier_after`` — emit a CTA barrier at the end of the phase.
    ``sfu_ratio`` — fraction of ALU ops sent to the SFU pipe.
    """

    live_regs: int
    length: int
    mem_ratio: float = 0.15
    loop_trips: int = 0
    barrier_after: bool = False
    sfu_ratio: float = 0.0
    # Wrap the body in an if/else diamond taken with this probability
    # (0 = straight-line).  The arms run different halves of the body,
    # exercising the divergence-conservative liveness rules (paper
    # Figure 3) on generated workloads.
    divergent: float = 0.0

    def __post_init__(self) -> None:
        if self.live_regs < 2:
            raise ValueError("a phase needs at least 2 live registers")
        if self.length < 1:
            raise ValueError("phase length must be positive")
        if not 0.0 <= self.mem_ratio <= 1.0:
            raise ValueError("mem_ratio must lie in [0, 1]")
        if not 0.0 <= self.sfu_ratio <= 1.0:
            raise ValueError("sfu_ratio must lie in [0, 1]")
        if not 0.0 <= self.divergent <= 1.0:
            raise ValueError("divergent must lie in [0, 1]")
        if self.divergent and self.length < 4:
            raise ValueError("a divergent phase needs length >= 4")
        if self.loop_trips < 0:
            raise ValueError("loop_trips must be non-negative")


@dataclass(frozen=True)
class KernelShape:
    """Full kernel description for the generator."""

    name: str
    phases: tuple[PressurePhase, ...]
    regs_per_thread: int
    threads_per_cta: int = 256
    shared_mem_per_cta: int = 0
    outer_trips: int = 0        # if > 0, all phases loop this many times
    scramble_indices: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("kernel shape needs at least one phase")
        peak = max(p.live_regs for p in self.phases)
        if peak > self.regs_per_thread:
            raise ValueError(
                f"peak phase pressure {peak} exceeds declared "
                f"regs_per_thread {self.regs_per_thread}"
            )


class _Emitter:
    """Stateful code emitter tracking the live register set."""

    def __init__(self, shape: KernelShape, builder: KernelBuilder) -> None:
        self.shape = shape
        self.b = builder
        self.rng = DeterministicRng(shape.seed)
        self.live: list[int] = []
        self._label_counter = 0
        self._index_map = self._build_index_map()

    def _build_index_map(self) -> list[int]:
        n = self.shape.regs_per_thread
        if not self.shape.scramble_indices:
            return list(range(n))
        # Deterministic shuffle so compaction has real work to do.
        order = list(range(n))
        rng = DeterministicRng(self.shape.seed ^ 0x5CAB)
        for i in range(n - 1, 0, -1):
            j = rng.randint(0, i)
            order[i], order[j] = order[j], order[i]
        return order

    def reg(self, logical: int) -> int:
        return self._index_map[logical]

    def fresh_label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    # -- pressure management -------------------------------------------------
    def raise_pressure(self, target: int) -> None:
        """Define registers until ``target`` are live."""
        for logical in range(target):
            if logical not in self.live:
                reg = self.reg(logical)
                # Mix constant loads and memory loads for definitions.
                if self.live and self.rng.uniform() < 0.3:
                    self.b.load(reg, self.reg(self.live[0]))
                else:
                    self.b.ldc(reg)
                self.live.append(logical)
        self.live.sort()

    def lower_pressure(self, target: int) -> None:
        """Retire live registers above ``target`` by reducing them into
        the lowest live register (their final use)."""
        if target < 1:
            target = 1
        retiring = [l for l in self.live if l >= target]
        if not retiring:
            return
        acc = self.reg(self.live[0])
        for logical in retiring:
            self.b.alu(acc, acc, self.reg(logical), opcode=Opcode.FADD)
        self.live = [l for l in self.live if l < target]

    # -- phase body -----------------------------------------------------------
    def body(self, phase: PressurePhase) -> None:
        """Emit ``phase.length`` instructions at constant pressure."""
        assert len(self.live) >= phase.live_regs
        pool = self.live[: phase.live_regs]
        n = len(pool)
        # Deterministic placement: exactly round(ratio * length) loads and
        # SFU ops, evenly spaced.  Per-instruction random thresholds make
        # tiny ratios all-or-nothing (0.01 over a 50-instruction phase is
        # half a load in expectation), and contention calibration needs
        # the load count to respond to small ratio changes.
        n_loads = round(phase.mem_ratio * phase.length)
        n_sfu = round(phase.sfu_ratio * phase.length)
        load_slots = {
            int((j + 0.5) * phase.length / n_loads) for j in range(n_loads)
        }
        sfu_slots = {
            int((j + 0.25) * phase.length / n_sfu) for j in range(n_sfu)
        } - load_slots
        for step in range(phase.length):
            # Short dependence distance, as in real GPU inner loops: each
            # instruction reads the previous instruction's destination
            # (pool[step-1]), so a load's consumer sits right behind it
            # and per-warp stalls expose memory latency — the property
            # occupancy-based latency hiding (and hence RegMutex's
            # occupancy boost) lives on.
            prev = pool[(step - 1) % n]
            dst = pool[step % n]
            if step in load_slots:
                # Load overwrites a rotating pool member (keeps it live:
                # the new value is read by the following instruction).
                self.b.load(self.reg(dst), self.reg(prev))
            elif step in sfu_slots:
                self.b.alu(self.reg(dst), self.reg(prev), opcode=Opcode.RSQRT)
            else:
                far = pool[(step + 2) % n]
                op = _ALU_OPS[self.rng.randint(0, len(_ALU_OPS) - 1)]
                if op in (Opcode.FFMA, Opcode.IMAD):
                    self.b.op(op, (self.reg(dst),),
                              (self.reg(prev), self.reg(far), self.reg(dst)))
                else:
                    self.b.op(op, (self.reg(dst),), (self.reg(prev), self.reg(far)))
        # Keep every pool member live past the body: the reduction at
        # lower_pressure provides last uses; for pool members that stay
        # live into the next phase, later phases read them.

    def _emit_body(self, phase: PressurePhase) -> None:
        """The body, optionally wrapped in an if/else diamond."""
        if phase.divergent <= 0.0:
            self.body(phase)
            return
        import dataclasses

        half = dataclasses.replace(
            phase,
            length=max(2, phase.length // 2),
            divergent=0.0,
            loop_trips=0,
            barrier_after=False,
        )
        pred = self.reg(self.live[1])
        else_label = self.fresh_label("else")
        join_label = self.fresh_label("join")
        self.b.branch(else_label, pred, taken_probability=phase.divergent)
        self.body(half)                  # then-arm
        self.b.jump(join_label)
        self.b.label(else_label)
        self.body(half)                  # else-arm (different random mix)
        self.b.label(join_label)
        self.b.nop()

    def phase(self, phase: PressurePhase) -> None:
        self.raise_pressure(phase.live_regs)
        if phase.loop_trips > 0:
            head = self.fresh_label("loop")
            # Loop-carried predicate register: logical 0 is always live.
            pred = self.reg(self.live[0])
            self.b.label(head)
            self._emit_body(phase)
            self.b.setp(pred, pred, self.reg(self.live[1]))
            self.b.branch(head, pred, trip_count=phase.loop_trips)
        else:
            self._emit_body(phase)
        if phase.barrier_after:
            self.b.barrier()


def generate_kernel(shape: KernelShape) -> Kernel:
    """Produce a kernel from a shape description."""
    builder = KernelBuilder(
        name=shape.name,
        regs_per_thread=shape.regs_per_thread,
        threads_per_cta=shape.threads_per_cta,
        shared_mem_per_cta=shape.shared_mem_per_cta,
    )
    em = _Emitter(shape, builder)

    outer_label = None
    em.raise_pressure(2)  # accumulator + predicate always live
    if shape.outer_trips > 0:
        outer_label = em.fresh_label("outer")
        builder.label(outer_label)
        builder.nop()

    for i, phase in enumerate(shape.phases):
        em.phase(phase)
        next_pressure = (
            shape.phases[i + 1].live_regs if i + 1 < len(shape.phases) else 2
        )
        em.lower_pressure(min(next_pressure, phase.live_regs)
                          if i + 1 < len(shape.phases) else 2)

    if shape.outer_trips > 0:
        pred = em.reg(em.live[0])
        builder.setp(pred, pred, em.reg(em.live[-1] if len(em.live) > 1 else em.live[0]))
        builder.branch(outer_label, pred, trip_count=shape.outer_trips)

    # Final store makes the accumulator's last value observable.
    builder.store(em.reg(em.live[0]), em.reg(em.live[0]))
    builder.exit()
    return builder.build(regs_per_thread=shape.regs_per_thread)
