"""Control-flow graph over basic blocks.

Edges: fall-through from a block whose terminator is not an
unconditional transfer, plus branch-target edges.  ``EXIT`` terminators
produce no successors.  A synthetic-free representation — virtual
entry/exit handling lives in the dominance module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.basic_blocks import BasicBlock, split_into_blocks
from repro.isa.instructions import Opcode
from repro.isa.kernel import Kernel


@dataclass
class ControlFlowGraph:
    """CFG: blocks in program order plus successor/predecessor maps."""

    blocks: list[BasicBlock]
    successors: dict[int, tuple[int, ...]]
    predecessors: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.predecessors:
            preds: dict[int, list[int]] = {b.index: [] for b in self.blocks}
            for src, dsts in self.successors.items():
                for dst in dsts:
                    preds[dst].append(src)
            self.predecessors = {k: tuple(v) for k, v in preds.items()}

    @property
    def entry(self) -> int:
        return 0

    def exit_blocks(self) -> tuple[int, ...]:
        """Blocks with no successors (terminated by EXIT or falling off)."""
        return tuple(
            b.index for b in self.blocks if not self.successors[b.index]
        )

    def block_of_pc(self, pc: int) -> BasicBlock:
        """The block containing ``pc`` (binary search over sorted ranges)."""
        lo, hi = 0, len(self.blocks) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            blk = self.blocks[mid]
            if pc < blk.start:
                hi = mid - 1
            elif pc >= blk.end:
                lo = mid + 1
            else:
                return blk
        raise IndexError(f"pc {pc} outside kernel range")

    def reverse_post_order(self) -> list[int]:
        """Blocks in reverse post-order from the entry (forward dataflow order)."""
        visited: set[int] = set()
        order: list[int] = []

        def dfs(node: int) -> None:
            # Iterative DFS to survive deep CFGs.
            stack: list[tuple[int, int]] = [(node, 0)]
            visited.add(node)
            while stack:
                current, child_idx = stack[-1]
                succs = self.successors[current]
                if child_idx < len(succs):
                    stack[-1] = (current, child_idx + 1)
                    nxt = succs[child_idx]
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append((nxt, 0))
                else:
                    order.append(current)
                    stack.pop()

        dfs(self.entry)
        # Unreachable blocks appended in program order so analyses still
        # terminate (conservatively) on degenerate inputs.
        for blk in self.blocks:
            if blk.index not in visited:
                order.append(blk.index)
        order.reverse()
        return order


def build_cfg(kernel: Kernel) -> ControlFlowGraph:
    """Construct the CFG for a kernel."""
    blocks = split_into_blocks(kernel)
    start_to_block = {b.start: b.index for b in blocks}
    successors: dict[int, tuple[int, ...]] = {}

    for blk in blocks:
        term = kernel[blk.last_pc]
        succs: list[int] = []
        if term.is_exit:
            pass
        elif term.opcode is Opcode.JMP:
            succs.append(start_to_block[kernel.label_pc(term.target)])
        elif term.is_conditional_branch:
            # Not-taken (fall-through) first, then taken.
            if blk.end < len(kernel):
                succs.append(start_to_block[blk.end])
            succs.append(start_to_block[kernel.label_pc(term.target)])
        else:
            if blk.end < len(kernel):
                succs.append(start_to_block[blk.end])
        # Deduplicate while preserving order (self-loop branches etc.).
        unique: list[int] = []
        for s in succs:
            if s not in unique:
                unique.append(s)
        successors[blk.index] = tuple(unique)

    return ControlFlowGraph(blocks=blocks, successors=successors)
