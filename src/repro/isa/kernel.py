"""Kernel container: a flat instruction list plus launch metadata.

A :class:`Kernel` is what every other subsystem consumes: the CFG builder
splits it into basic blocks, the liveness pass annotates it, the RegMutex
compiler rewrites it, and the simulator executes it.  Launch metadata
(threads per CTA, shared memory, declared register count) is what the
occupancy calculator needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from repro.isa.instructions import Instruction


@dataclass(frozen=True)
class KernelMetadata:
    """Launch-relevant kernel properties (mirrors a ``.cubin`` header).

    ``regs_per_thread`` is the architected register demand as declared by
    the (synthetic) compiler — the maximum live count plus scratch, i.e.
    Table I's "# Regs." column before rounding.  ``base_set_size`` is
    populated by the RegMutex compiler; ``extended_set_size`` likewise.
    """

    name: str = "kernel"
    regs_per_thread: int = 16
    threads_per_cta: int = 256
    shared_mem_per_cta: int = 0
    base_set_size: Optional[int] = None
    extended_set_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.regs_per_thread <= 0:
            raise ValueError("regs_per_thread must be positive")
        if self.threads_per_cta <= 0:
            raise ValueError("threads_per_cta must be positive")
        if self.shared_mem_per_cta < 0:
            raise ValueError("shared_mem_per_cta must be non-negative")
        if self.base_set_size is not None and self.extended_set_size is not None:
            if self.base_set_size + self.extended_set_size != self.regs_per_thread:
                raise ValueError(
                    "|Bs| + |Es| must equal regs_per_thread "
                    f"({self.base_set_size} + {self.extended_set_size} "
                    f"!= {self.regs_per_thread})"
                )

    @property
    def uses_regmutex(self) -> bool:
        return bool(self.extended_set_size)


class Kernel:
    """An immutable GPU kernel: instructions + metadata + label index.

    Because a kernel never changes, facts derived from it are computed
    once and kept in a private per-kernel memo (``_memo``): the
    successor table, its liveness (``repro.liveness``) and, for a
    compiled kernel, the pipeline's ``CompilationReport``.  The memo
    lives exactly as long as the kernel; equality ignores it, rewriting
    (``with_instructions``/``with_metadata``) starts a fresh one, and
    pickling drops it.
    """

    def __init__(
        self,
        instructions: Iterable[Instruction],
        metadata: KernelMetadata | None = None,
    ) -> None:
        self._instructions: tuple[Instruction, ...] = tuple(instructions)
        self._metadata = metadata or KernelMetadata()
        if not self._instructions:
            raise ValueError("kernel must contain at least one instruction")
        self._labels: dict[str, int] = {}
        for pc, inst in enumerate(self._instructions):
            if inst.label is not None:
                if inst.label in self._labels:
                    raise ValueError(f"duplicate label {inst.label!r}")
                self._labels[inst.label] = pc
        for pc, inst in enumerate(self._instructions):
            if inst.target is not None and inst.target not in self._labels:
                raise ValueError(
                    f"pc {pc}: branch target {inst.target!r} is not a label"
                )
        self._memo: dict[str, object] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_memo"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = {}

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self._instructions[pc]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Kernel):
            return NotImplemented
        return (
            self._instructions == other._instructions
            and self._metadata == other._metadata
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Kernel({self._metadata.name!r}, {len(self)} insts, "
            f"{self._metadata.regs_per_thread} regs/thread)"
        )

    # -- accessors ---------------------------------------------------------------
    @property
    def instructions(self) -> tuple[Instruction, ...]:
        return self._instructions

    @property
    def metadata(self) -> KernelMetadata:
        return self._metadata

    @property
    def name(self) -> str:
        return self._metadata.name

    def label_pc(self, label: str) -> int:
        """Program counter of a label."""
        return self._labels[label]

    @property
    def labels(self) -> dict[str, int]:
        return dict(self._labels)

    # -- derived properties --------------------------------------------------------
    def referenced_registers(self) -> set[int]:
        """Every architected register index any instruction touches."""
        regs: set[int] = set()
        for inst in self._instructions:
            regs.update(inst.registers)
        return regs

    def has_barrier(self) -> bool:
        return any(inst.is_barrier for inst in self._instructions)

    def regmutex_instruction_count(self) -> int:
        return sum(1 for inst in self._instructions if inst.is_regmutex)

    # -- rewriting -----------------------------------------------------------------
    def with_metadata(self, **changes) -> "Kernel":
        return Kernel(self._instructions, replace(self._metadata, **changes))

    def with_instructions(self, instructions: Iterable[Instruction]) -> "Kernel":
        return Kernel(instructions, self._metadata)

    def validate_register_bound(self) -> None:
        """Check no instruction references a register beyond the declared count."""
        bound = self._metadata.regs_per_thread
        for pc, inst in enumerate(self._instructions):
            for reg in inst.registers:
                if reg >= bound:
                    raise ValueError(
                        f"pc {pc}: register R{reg} exceeds declared "
                        f"regs_per_thread={bound}"
                    )

    def exit_pcs(self) -> tuple[int, ...]:
        return tuple(
            pc for pc, inst in enumerate(self._instructions) if inst.is_exit
        )

    @property
    def successor_table(self) -> tuple[tuple[int, ...], ...]:
        """``successors_of_pc`` for every pc, built once per kernel.

        EXIT has none; JMP has its target; a conditional branch has the
        fall-through (if any) and the target; everything else falls
        through (if not at the end of the kernel).
        """
        table = self._memo.get("successors")
        if table is None:
            table = self._memo["successors"] = self._build_successor_table()
        return table

    def successors_of_pc(self, pc: int) -> tuple[int, ...]:
        """Instruction-level control-flow successors of ``pc`` (see
        :attr:`successor_table`)."""
        return self.successor_table[pc]

    def _build_successor_table(self) -> tuple[tuple[int, ...], ...]:
        n = len(self._instructions)
        table: list[tuple[int, ...]] = []
        for pc, inst in enumerate(self._instructions):
            nxt = pc + 1
            if inst.is_exit:
                table.append(())
            elif inst.is_branch:
                target = self._labels[inst.target]
                if inst.is_conditional_branch and nxt < n and nxt != target:
                    table.append((nxt, target))
                else:
                    table.append((target,))
            else:
                table.append((nxt,) if nxt < n else ())
        return tuple(table)
