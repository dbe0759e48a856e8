"""GPU assembly intermediate representation.

This package models post-register-allocation GPU assembly at the same
abstraction level as GPGPU-Sim's PTXPlus: instructions operate on
*architected* register indices (``R0 .. R{n-1}``), plus predicates,
branches, barriers, and the RegMutex ``acquire``/``release`` primitives.

The IR is deliberately simple: a :class:`~repro.isa.kernel.Kernel` is a
flat list of :class:`~repro.isa.instructions.Instruction` objects with
label-based control flow, which is exactly what the compiler passes in
:mod:`repro.compiler` and the cycle-level simulator in :mod:`repro.sim`
consume.
"""

from repro.isa.instructions import (
    Opcode,
    OpClass,
    Instruction,
    OPCODE_CLASS,
    OPCODE_LATENCY,
)
from repro.isa.kernel import Kernel, KernelMetadata
from repro.isa.builder import KernelBuilder
from repro.isa.parser import parse_kernel, AsmSyntaxError
from repro.isa.printer import format_kernel, format_instruction

__all__ = [
    "Opcode",
    "OpClass",
    "Instruction",
    "OPCODE_CLASS",
    "OPCODE_LATENCY",
    "Kernel",
    "KernelMetadata",
    "KernelBuilder",
    "parse_kernel",
    "AsmSyntaxError",
    "format_kernel",
    "format_instruction",
]
