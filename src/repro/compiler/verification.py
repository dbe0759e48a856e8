"""Static verification of compiled RegMutex kernels.

The hardware contract (checked dynamically, on every issued
instruction of a sanitizer-armed run, by the ``extended-access`` check
of :mod:`repro.check.sanitizer`) is: a warp may only touch an
architected register with index >= |Bs| while it holds an SRP section.
This module proves the property statically for a compiled kernel, so
miscompiled kernels are rejected before they ever reach the simulator:

* **hold-state dataflow** — for every PC, compute whether the warp may
  be holding / not-holding a section when the instruction executes
  (a forward may-analysis over instruction-level edges; ACQUIRE exits in
  the holding state, RELEASE in the released state, everything else
  propagates).
* **access check** — any instruction that reads or writes an extended
  register while the not-holding state is reachable at its PC is a
  violation.
* **balance check** — an ACQUIRE reachable in the holding state or a
  RELEASE reachable in the released state is legal (the no-nesting rule
  makes them no-ops) but reported as a *warning*, since the compiler
  should not emit them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Opcode
from repro.isa.kernel import Kernel


class RegMutexSafetyError(ValueError):
    """A compiled kernel can touch extended registers without a section."""


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of the static check."""

    violations: tuple[str, ...]
    warnings: tuple[str, ...]
    # (may_hold, may_not_hold) reachable states per pc.
    hold_states: tuple[tuple[bool, bool], ...] = field(repr=False, default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_regmutex_safety(kernel: Kernel, base_set_size: int) -> VerificationResult:
    """Prove no extended-register access can happen without a section."""
    n = len(kernel)
    # State lattice per pc: a pair of reachability bits
    # (reachable-holding, reachable-not-holding) *before* the instruction.
    may_hold = [False] * n
    may_free = [False] * n
    may_free[0] = True  # warps launch without a section

    # Worklist forward propagation.
    insts, successors = kernel.instructions, kernel.successor_table
    work = [0]
    while work:
        pc = work.pop()
        inst = insts[pc]
        out_hold, out_free = may_hold[pc], may_free[pc]
        if inst.opcode is Opcode.ACQUIRE:
            out_hold, out_free = out_hold or out_free, False
        elif inst.opcode is Opcode.RELEASE:
            out_hold, out_free = False, out_hold or out_free
        for succ in successors[pc]:
            changed = False
            if out_hold and not may_hold[succ]:
                may_hold[succ] = True
                changed = True
            if out_free and not may_free[succ]:
                may_free[succ] = True
                changed = True
            if changed:
                work.append(succ)

    violations: list[str] = []
    warnings: list[str] = []
    for pc, inst in enumerate(kernel):
        extended = [r for r in inst.registers if r >= base_set_size]
        if extended and may_free[pc]:
            regs = ", ".join(f"R{r}" for r in sorted(set(extended)))
            violations.append(
                f"pc {pc}: {inst.opcode.value} touches extended {regs} "
                "on a path that holds no SRP section"
            )
        if inst.opcode is Opcode.ACQUIRE and may_hold[pc]:
            warnings.append(
                f"pc {pc}: re-acquire reachable while holding (no-op)"
            )
        if inst.opcode is Opcode.RELEASE and may_free[pc]:
            warnings.append(
                f"pc {pc}: release reachable while not holding (no-op)"
            )
        if extended and not may_hold[pc] and not may_free[pc]:
            # Unreachable from pc 0: both reachability bits stayed False,
            # so the access check above never saw it.  Dead code cannot
            # corrupt state at runtime, but an extended access there is
            # still suspicious (a branch-target bug away from being
            # live), so surface it instead of silently passing.
            regs = ", ".join(f"R{r}" for r in sorted(set(extended)))
            warnings.append(
                f"pc {pc}: {inst.opcode.value} touches extended {regs} "
                "in unreachable code (never verified against the "
                "hold-state contract)"
            )

    return VerificationResult(
        violations=tuple(violations),
        warnings=tuple(warnings),
        hold_states=tuple(zip(may_hold, may_free)),
    )


def assert_regmutex_safe(kernel: Kernel, base_set_size: int) -> None:
    """Raise :class:`RegMutexSafetyError` on any violation."""
    result = verify_regmutex_safety(kernel, base_set_size)
    if not result.ok:
        detail = "\n  ".join(result.violations[:10])
        raise RegMutexSafetyError(
            f"{len(result.violations)} extended-register safety "
            f"violation(s):\n  {detail}"
        )
