"""Instruction set definition for the GPU assembly IR.

The opcode vocabulary mirrors what the RegMutex compiler passes and the
cycle-level simulator need from PTXPlus-level assembly:

* ALU ops at several latency classes (integer, FP32, SFU),
* memory ops (global/shared load/store) that go to the memory model,
* control flow (``BRA``/``BRX`` conditional, ``JMP`` unconditional,
  ``EXIT``),
* synchronization (``BAR_SYNC`` — CTA-wide barrier),
* register-move (``MOV``) used by index compaction, and
* the two RegMutex primitives ``ACQUIRE`` and ``RELEASE`` which the
  compiler injects and the issue stage interprets (paper §III-A3/§III-B1).

Operand convention: ``dsts`` are written registers, ``srcs`` are read
registers — both as plain int indices.  Control transfer targets are
string labels resolved by :class:`repro.isa.kernel.Kernel`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional


class OpClass(enum.Enum):
    """Execution-resource class; drives latency and pipe selection."""

    IALU = "ialu"        # integer ALU
    FALU = "falu"        # single-precision FP
    SFU = "sfu"          # special function unit (rsqrt, sin, ...)
    LOAD = "load"        # memory read
    STORE = "store"      # memory write
    BRANCH = "branch"    # control transfer
    BARRIER = "barrier"  # CTA-wide synchronization
    REGMUTEX = "regmutex"  # acquire / release primitives
    NOP = "nop"


class Opcode(enum.Enum):
    """Concrete opcodes of the IR."""

    # integer ALU
    IADD = "IADD"
    ISUB = "ISUB"
    IMUL = "IMUL"
    IMAD = "IMAD"
    SHL = "SHL"
    SHR = "SHR"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    ISETP = "ISETP"     # integer compare, writes a predicate-carrying reg
    MOV = "MOV"
    LDC = "LDC"         # load constant / immediate into register
    # floating point
    FADD = "FADD"
    FMUL = "FMUL"
    FFMA = "FFMA"
    FSETP = "FSETP"
    # special function unit
    RSQRT = "RSQRT"
    SIN = "SIN"
    COS = "COS"
    EX2 = "EX2"
    LG2 = "LG2"
    RCP = "RCP"
    # memory
    LD_GLOBAL = "LD.GLOBAL"
    ST_GLOBAL = "ST.GLOBAL"
    LD_SHARED = "LD.SHARED"
    ST_SHARED = "ST.SHARED"
    # control flow
    BRA = "BRA"         # conditional branch on a register's predicate
    JMP = "JMP"         # unconditional jump
    EXIT = "EXIT"       # thread/warp termination
    # synchronization
    BAR_SYNC = "BAR.SYNC"
    # RegMutex primitives (paper §III-A3)
    ACQUIRE = "REGMUTEX.ACQUIRE"
    RELEASE = "REGMUTEX.RELEASE"
    NOP = "NOP"


OPCODE_CLASS: dict[Opcode, OpClass] = {
    Opcode.IADD: OpClass.IALU,
    Opcode.ISUB: OpClass.IALU,
    Opcode.IMUL: OpClass.IALU,
    Opcode.IMAD: OpClass.IALU,
    Opcode.SHL: OpClass.IALU,
    Opcode.SHR: OpClass.IALU,
    Opcode.AND: OpClass.IALU,
    Opcode.OR: OpClass.IALU,
    Opcode.XOR: OpClass.IALU,
    Opcode.ISETP: OpClass.IALU,
    Opcode.MOV: OpClass.IALU,
    Opcode.LDC: OpClass.IALU,
    Opcode.FADD: OpClass.FALU,
    Opcode.FMUL: OpClass.FALU,
    Opcode.FFMA: OpClass.FALU,
    Opcode.FSETP: OpClass.FALU,
    Opcode.RSQRT: OpClass.SFU,
    Opcode.SIN: OpClass.SFU,
    Opcode.COS: OpClass.SFU,
    Opcode.EX2: OpClass.SFU,
    Opcode.LG2: OpClass.SFU,
    Opcode.RCP: OpClass.SFU,
    Opcode.LD_GLOBAL: OpClass.LOAD,
    Opcode.ST_GLOBAL: OpClass.STORE,
    Opcode.LD_SHARED: OpClass.LOAD,
    Opcode.ST_SHARED: OpClass.STORE,
    Opcode.BRA: OpClass.BRANCH,
    Opcode.JMP: OpClass.BRANCH,
    Opcode.EXIT: OpClass.BRANCH,
    Opcode.BAR_SYNC: OpClass.BARRIER,
    Opcode.ACQUIRE: OpClass.REGMUTEX,
    Opcode.RELEASE: OpClass.REGMUTEX,
    Opcode.NOP: OpClass.NOP,
}

# Control transfers that carry a target label (EXIT has none).
_BRANCH_OPCODES = tuple(
    op for op, cls in OPCODE_CLASS.items()
    if cls is OpClass.BRANCH and op is not Opcode.EXIT
)

# Issue-to-writeback latency in cycles per opcode, patterned on Fermi-era
# numbers used by GPGPU-Sim configs (ALU ~4-6, SFU ~16-32; memory latency is
# supplied by the memory model, the value here is only the pipeline
# occupancy of the access instruction itself).
OPCODE_LATENCY: dict[Opcode, int] = {
    Opcode.IADD: 4, Opcode.ISUB: 4, Opcode.IMUL: 6, Opcode.IMAD: 6,
    Opcode.SHL: 4, Opcode.SHR: 4, Opcode.AND: 4, Opcode.OR: 4, Opcode.XOR: 4,
    Opcode.ISETP: 4, Opcode.MOV: 4, Opcode.LDC: 4,
    Opcode.FADD: 4, Opcode.FMUL: 4, Opcode.FFMA: 6, Opcode.FSETP: 4,
    Opcode.RSQRT: 16, Opcode.SIN: 16, Opcode.COS: 16,
    Opcode.EX2: 16, Opcode.LG2: 16, Opcode.RCP: 16,
    Opcode.LD_GLOBAL: 4, Opcode.ST_GLOBAL: 4,
    Opcode.LD_SHARED: 4, Opcode.ST_SHARED: 4,
    Opcode.BRA: 4, Opcode.JMP: 4, Opcode.EXIT: 1,
    Opcode.BAR_SYNC: 1,
    Opcode.ACQUIRE: 1, Opcode.RELEASE: 1,
    Opcode.NOP: 1,
}

# Each opcode carries its class, latency and the two class tests as
# attributes, so the Instruction properties below read them without
# hashing the enum (``Enum.__hash__`` is a Python-level call).
for _op, _cls in OPCODE_CLASS.items():
    _op.op_class = _cls
    _op.latency = OPCODE_LATENCY[_op]
    _op.is_memory = _cls in (OpClass.LOAD, OpClass.STORE)
    _op.is_regmutex = _cls is OpClass.REGMUTEX
del _op, _cls


@dataclass(frozen=True)
class Instruction:
    """One machine instruction.

    ``dsts``/``srcs`` hold architected register indices.  ``target`` is a
    label for branch opcodes.  ``taken_probability`` and ``trip_count``
    annotate branches for the simulator's execution model (synthetic
    workloads set these; see :mod:`repro.workloads.generator`).
    ``label`` marks the instruction as a branch destination.
    """

    opcode: Opcode
    dsts: tuple[int, ...] = ()
    srcs: tuple[int, ...] = ()
    target: Optional[str] = None
    label: Optional[str] = None
    # Branch behaviour annotations consumed by the simulator front-end.
    taken_probability: Optional[float] = None
    trip_count: Optional[int] = None
    # Free-form annotations (e.g. compaction provenance).
    comment: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.opcode, Opcode):
            raise ValueError(f"unknown opcode {self.opcode!r}")
        for reg in (*self.dsts, *self.srcs):
            if not isinstance(reg, int) or reg < 0:
                raise ValueError(f"bad register operand {reg!r} in {self.opcode}")
        if self.op_class is OpClass.BRANCH and self.opcode is not Opcode.EXIT:
            if self.target is None:
                raise ValueError(f"{self.opcode.value} requires a target label")
        if self.target is not None and self.op_class is not OpClass.BRANCH:
            raise ValueError(f"{self.opcode.value} cannot carry a branch target")
        if self.taken_probability is not None and not 0.0 <= self.taken_probability <= 1.0:
            raise ValueError("taken_probability must lie in [0, 1]")
        if self.trip_count is not None and self.trip_count < 0:
            raise ValueError("trip_count must be non-negative")

    @property
    def op_class(self) -> OpClass:
        return self.opcode.op_class

    @property
    def latency(self) -> int:
        return self.opcode.latency

    @property
    def registers(self) -> tuple[int, ...]:
        """All registers the instruction touches (dsts then srcs)."""
        return (*self.dsts, *self.srcs)

    @property
    def is_branch(self) -> bool:
        # Tuple membership compares by identity; an OPCODE_CLASS lookup
        # would hash the enum, a Python-level call on every CFG query.
        return self.opcode in _BRANCH_OPCODES

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode is Opcode.BRA

    @property
    def is_exit(self) -> bool:
        return self.opcode is Opcode.EXIT

    @property
    def is_barrier(self) -> bool:
        return self.opcode is Opcode.BAR_SYNC

    @property
    def is_memory(self) -> bool:
        return self.opcode.is_memory

    @property
    def is_regmutex(self) -> bool:
        return self.opcode.is_regmutex

    def with_label(self, label: str) -> "Instruction":
        return replace(self, label=label)

    def renamed(self, mapping: dict[int, int]) -> "Instruction":
        """Return a copy with register operands renamed through ``mapping``.

        Registers absent from the mapping are kept as-is.  Used by the
        index-compaction pass (paper §III-A4).
        """
        return replace(
            self,
            dsts=tuple(mapping.get(r, r) for r in self.dsts),
            srcs=tuple(mapping.get(r, r) for r in self.srcs),
        )
