"""Shadow architectural executor for the differential oracle.

The cycle-level simulator is timing-only: registers have no values, so
two techniques can diverge architecturally (a compaction MOV copying the
wrong register, an SRP mux aliasing two warps' sections) while producing
plausible cycle counts.  The shadow executor gives every instruction
deterministic *synthetic* value semantics — a splitmix64-style 64-bit
mix of its operand values — and folds each warp's retired values into a
running stream digest.  Two runs whose per-warp digests agree executed,
warp for warp, the same dataflow; one corrupted copy anywhere poisons
every downstream value.

Semantics (all values are 64-bit):

* ``MOV`` is a value copy — so register renaming (compaction) is
  invariant by construction;
* ALU/SFU ops mix an opcode tag with the source values;
* ``LDC`` yields ``mix(tag, warp_id, n)`` for the warp's n-th LDC —
  warp-unique roots, so all derived values (addresses included) are
  warp-private and memory is free of cross-warp races, making the final
  memory state independent of the technique's interleaving;
* loads/stores go through a shadow memory dict keyed by (space,
  address-value); an unwritten address reads a mix of its key;
* reading a never-written register yields a per-warp constant that does
  not depend on the register *index* (rename invariance again).

What is digested: every retired instruction except the REGMUTEX
primitives and the compaction-injected MOVs (``comment`` starting with
``"compaction:"``) — exactly the instructions a technique is documented
to add.  Both still *execute* (the MOV performs its copy); they are
only excluded from the cross-technique comparison stream.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction, OpClass, Opcode
from repro.sim.technique import DelegatingTechniqueState, SmTechniqueState
from repro.sim.warp import Warp

_MASK = (1 << 64) - 1


def mix64(*parts: int) -> int:
    """Fold integers into a 64-bit splitmix64-style digest.

    Deterministic across processes and Python versions (unlike
    ``hash()``), cheap enough to run per retired instruction.
    """
    x = 0x9E3779B97F4A7C15
    for part in parts:
        x = (x + (part & _MASK)) & _MASK
        x ^= x >> 30
        x = (x * 0xBF58476D1CE4E5B9) & _MASK
        x ^= x >> 27
        x = (x * 0x94D049BB133111EB) & _MASK
        x ^= x >> 31
    return x


# Stable per-opcode tags (enum definition order, not hash order).
_OP_TAG: dict[Opcode, int] = {
    op: mix64(0x0C0DE, index) for index, op in enumerate(Opcode)
}
_UNINIT_TAG = mix64(0x0DEAD)   # never-written register reads
_UNREAD_TAG = mix64(0x0BEEF)   # never-written memory reads
_COMPACTION_PREFIX = "compaction:"


class ShadowState:
    """Architectural state shadowing one SM's execution."""

    __slots__ = ("regs", "mem", "_digests", "_counts", "_ldc_counts")

    def __init__(self) -> None:
        # warp_id -> {arch_reg: value}
        self.regs: dict[int, dict[int, int]] = {}
        # (space, address value) -> stored value; space 0 = global,
        # 1 = shared.
        self.mem: dict[tuple[int, int], int] = {}
        self._digests: dict[int, int] = {}
        self._counts: dict[int, int] = {}
        self._ldc_counts: dict[int, int] = {}

    # -- execution -----------------------------------------------------------------
    def _read(self, regs: dict[int, int], wid: int, reg: int) -> int:
        value = regs.get(reg)
        if value is None:
            # Index-independent so a renamed uninitialized read (legal
            # in straight-line prologue code) stays invariant.
            value = mix64(_UNINIT_TAG, wid)
        return value

    def observe(self, warp: Warp, inst: Instruction) -> None:
        """Execute one issued instruction against the shadow state."""
        op_class = inst.op_class
        if op_class is OpClass.REGMUTEX:
            return  # documented remapping traffic, not dataflow
        wid = warp.warp_id
        regs = self.regs.get(wid)
        if regs is None:
            regs = self.regs[wid] = {}
        opcode = inst.opcode

        if opcode is Opcode.MOV:
            value = self._read(regs, wid, inst.srcs[0])
            regs[inst.dsts[0]] = value
            if inst.comment is not None and inst.comment.startswith(
                _COMPACTION_PREFIX
            ):
                return  # injected copy: value-transparent by contract
            self._record(wid, opcode, (value,), (value,))
            return

        src_values = tuple(self._read(regs, wid, r) for r in inst.srcs)
        tag = _OP_TAG[opcode]

        if opcode is Opcode.LDC:
            ordinal = self._ldc_counts.get(wid, 0)
            self._ldc_counts[wid] = ordinal + 1
            value = mix64(tag, wid, ordinal)
            regs[inst.dsts[0]] = value
            out_values: tuple[int, ...] = (value,)
        elif op_class is OpClass.LOAD:
            space = 1 if opcode is Opcode.LD_SHARED else 0
            address = src_values[0]
            value = self.mem.get(
                (space, address), mix64(_UNREAD_TAG, space, address)
            )
            regs[inst.dsts[0]] = value
            out_values = (value,)
        elif op_class is OpClass.STORE:
            address, value = src_values
            space = 1 if opcode is Opcode.ST_SHARED else 0
            self.mem[(space, address)] = value
            out_values = ()
        elif inst.dsts:
            out_values = tuple(
                mix64(tag, index, *src_values)
                for index in range(len(inst.dsts))
            )
            for reg, value in zip(inst.dsts, out_values):
                regs[reg] = value
        else:
            out_values = ()  # branches, barriers, EXIT, NOP

        self._record(wid, opcode, src_values, out_values)

    def _record(
        self,
        wid: int,
        opcode: Opcode,
        src_values: tuple[int, ...],
        out_values: tuple[int, ...],
    ) -> None:
        self._digests[wid] = mix64(
            self._digests.get(wid, 0), _OP_TAG[opcode], *src_values, *out_values
        )
        self._counts[wid] = self._counts.get(wid, 0) + 1

    # -- summaries -----------------------------------------------------------------
    def warp_streams(self) -> tuple[tuple[int, int, int], ...]:
        """Per-warp ``(warp_id, stream_digest, retired_count)``, sorted."""
        return tuple(
            (wid, self._digests.get(wid, 0), self._counts.get(wid, 0))
            for wid in sorted(self.regs)
        )

    def memory_digest(self) -> int:
        """Digest of the final shadow memory contents."""
        digest = 0
        for (space, address), value in sorted(self.mem.items()):
            digest = mix64(digest, space, address, value)
        return digest

    def register_digest(self) -> int:
        """Digest of the final per-warp (register index, value) maps.

        Index-sensitive, so it is only comparable between techniques
        that do not rename registers (baseline, OWF, RFV); RegMutex
        compaction legitimately redistributes the same values across
        different indices.
        """
        digest = 0
        for wid in sorted(self.regs):
            digest = mix64(digest, wid)
            for reg, value in sorted(self.regs[wid].items()):
                digest = mix64(digest, reg, value)
        return digest


class ShadowTechniqueState(DelegatingTechniqueState):
    """Decorator around the installed technique that feeds the shadow:
    ``on_issue`` additionally executes the instruction against the
    :class:`ShadowState`; every other hook is forwarded."""

    def __init__(self, inner: SmTechniqueState, shadow: ShadowState) -> None:
        super().__init__(inner)
        self.shadow = shadow

    def on_issue(self, warp, inst, cycle):
        self.inner.on_issue(warp, inst, cycle)
        self.shadow.observe(warp, inst)


def attach_shadow(sm) -> ShadowState:
    """Wrap an SM's technique state with a fresh shadow executor.

    Must run before the first ``step()``; composes with the
    observability wrapper (either order — both delegate fully).
    """
    shadow = ShadowState()
    sm.technique = ShadowTechniqueState(sm.technique, shadow)
    return shadow
