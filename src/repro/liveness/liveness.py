"""Divergence-conservative register liveness (paper §III-A1).

The core is standard backward liveness on the CFG:

    live_out[b] = union of live_in over successors of b
    live_in[b]  = uses(b) | (live_out[b] - defs(b))

with per-instruction refinement inside each block.  GPU divergence adds
two conservative rules the paper illustrates with Figure 3:

1. **Branch-arm union**: a register live into *any* successor of a
   divergent branch must be considered live through *all* arms until the
   immediate post-dominator (threads of one warp may interleave both
   arms in an unknown order).  Standard may-liveness already unions over
   successors; the extra conservatism is that a value defined in one arm
   and used after the reconvergence point must be treated as live in the
   *other* arms too.
2. **Definition-in-branch rule**: if a register is defined inside a
   branch arm and used at/after the post-dominator, it is alive in the
   sibling arms (the other arm's threads must not clobber it).

We implement both by computing standard liveness first and then, for
each conditional-branch block ``b`` with immediate post-dominator ``p``,
unioning into every block on any path ``b .. p`` the registers that are
live into ``p`` and *referenced anywhere within the branch region*, plus
registers live out of any arm.  This matches nvdisasm-style conservative
liveness and is a strict over-approximation of the precise per-thread
answer — safe for RegMutex (overestimating liveness can only enlarge
acquire regions, never break correctness).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.dominance import VIRTUAL_EXIT, post_dominator_tree
from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.isa.instructions import Instruction
from repro.isa.kernel import Kernel
from repro.liveness.dataflow import BackwardDataflow


def instruction_defs_uses(inst: Instruction) -> tuple[frozenset[int], frozenset[int]]:
    """(defs, uses) register sets of one instruction."""
    return frozenset(inst.dsts), frozenset(inst.srcs)


@dataclass(frozen=True)
class LivenessInfo:
    """Per-instruction liveness facts for one kernel.

    ``live_in[pc]`` / ``live_out[pc]`` are frozensets of architected
    register indices, held in tuples: one result is shared by every
    caller that analyses the same kernel, so none may change it.
    ``live_count[pc]`` is ``len(live_in[pc] | defs(pc))`` — the number
    of registers that must physically exist while the instruction at
    ``pc`` executes (a definition needs its destination allocated even
    if the value dies immediately).  The result holds no reference to
    its kernel, so keeping it in the kernel's memo makes no cycle.
    """

    cfg: ControlFlowGraph
    live_in: tuple[frozenset[int], ...]
    live_out: tuple[frozenset[int], ...]
    live_count: tuple[int, ...]
    # (pc, live_in | defs) at every BAR.SYNC, in program order.
    barrier_live: tuple[tuple[int, frozenset[int]], ...]

    def max_live(self) -> int:
        """Maximum simultaneous live registers anywhere in the kernel."""
        return max(self.live_count) if self.live_count else 0

    def live_at_barriers(self) -> list[tuple[int, frozenset[int]]]:
        """(pc, live set) at every CTA-wide synchronization point.

        Drives the second deadlock-avoidance rule of §III-A2: |Bs| must
        cover the live count at every ``BAR.SYNC``.
        """
        return list(self.barrier_live)


def _block_transfer(kernel: Kernel, cfg: ControlFlowGraph):
    """Build the per-block transfer closure for the dataflow solver."""
    block_defs: dict[int, frozenset[int]] = {}
    block_uses: dict[int, frozenset[int]] = {}
    for blk in cfg.blocks:
        defs: set[int] = set()
        uses: set[int] = set()
        for inst in kernel.instructions[blk.start:blk.end]:
            # upward-exposed uses: read before any def in this block
            for reg in inst.srcs:
                if reg not in defs:
                    uses.add(reg)
            defs.update(inst.dsts)
        block_defs[blk.index] = frozenset(defs)
        block_uses[blk.index] = frozenset(uses)

    def transfer(block: int, out: frozenset) -> frozenset:
        return block_uses[block] | (out - block_defs[block])

    return transfer


def _branch_region_blocks(
    cfg: ControlFlowGraph, branch_block: int, ipdom: int
) -> set[int]:
    """Blocks on any path from the branch (exclusive) to its immediate
    post-dominator (exclusive) — the divergent region."""
    region: set[int] = set()
    stack = [s for s in cfg.successors[branch_block] if s != ipdom]
    while stack:
        node = stack.pop()
        if node in region or node == ipdom:
            continue
        region.add(node)
        stack.extend(
            s for s in cfg.successors[node] if s != ipdom and s not in region
        )
    return region


def analyze_liveness(kernel: Kernel, cfg: ControlFlowGraph | None = None) -> LivenessInfo:
    """Run divergence-conservative liveness for a kernel.

    Without an explicit ``cfg`` the result is kept in the kernel's memo,
    so each kernel object is analysed once.
    """
    if cfg is not None:
        return _analyze(kernel, cfg)
    info = kernel._memo.get("liveness")
    if info is None:
        info = kernel._memo["liveness"] = _analyze(kernel, build_cfg(kernel))
    return info


def kernel_liveness(kernel: Kernel) -> LivenessInfo:
    """``analyze_liveness(kernel)`` for callers that usually find the
    analysis already made (an |Es| sweep's input kernel, compaction's
    final kernel): a hit is one memo read and never re-enters the
    analysis entry point."""
    return kernel._memo.get("liveness") or analyze_liveness(kernel)


def _analyze(kernel: Kernel, cfg: ControlFlowGraph) -> LivenessInfo:
    transfer = _block_transfer(kernel, cfg)
    result = BackwardDataflow(cfg, transfer).solve()

    block_out = dict(result.block_out)

    # --- divergence conservatism --------------------------------------------
    pdom = post_dominator_tree(cfg)
    for blk in cfg.blocks:
        term = kernel[blk.last_pc]
        if not term.is_conditional_branch:
            continue
        if len(cfg.successors[blk.index]) < 2:
            continue  # degenerate branch, no divergence
        ip = pdom.immediate(blk.index)
        if ip is None or ip == VIRTUAL_EXIT:
            # No reconvergence point before exit: union over whole suffix
            # handled naturally by may-liveness; skip region widening.
            continue
        region = _branch_region_blocks(cfg, blk.index, ip)
        if not region:
            continue
        # Registers referenced inside the region:
        region_refs: set[int] = set()
        for rb in region:
            for pc in cfg.blocks[rb].pcs:
                region_refs.update(kernel[pc].registers)
        # Values needed at reconvergence that the region touches must stay
        # live throughout every arm (rules 1 and 2 above).
        refs = frozenset(region_refs)
        live_at_ipdom = frozenset(result.block_in[ip])
        pinned = refs & live_at_ipdom
        # Values live out of any arm are pinned across all arms as well.
        arm_live: frozenset[int] = frozenset().union(
            *(result.block_out[rb] for rb in region)
        ) if region else frozenset()
        pinned |= arm_live & refs
        # Values flowing into the divergent region (live out of the branch
        # block, i.e. live into at least one arm) and touched inside it
        # are pinned through every arm — Figure 3's R3 case.
        pinned |= frozenset(result.block_out[blk.index]) & refs
        if not pinned:
            continue
        for rb in region:
            block_out[rb] = block_out[rb] | pinned
        block_out[blk.index] = block_out[blk.index] | pinned

    # --- per-instruction refinement -------------------------------------------
    n = len(kernel)
    live_in: list[frozenset[int]] = [frozenset()] * n
    live_out: list[frozenset[int]] = [frozenset()] * n
    insts = kernel.instructions
    for blk in cfg.blocks:
        current = block_out[blk.index]
        for pc in reversed(blk.pcs):
            inst = insts[pc]
            live_out[pc] = current
            if inst.dsts:
                current = current.difference(inst.dsts)
            if inst.srcs:
                current = current.union(inst.srcs)
            live_in[pc] = current

    return LivenessInfo(
        cfg=cfg,
        live_in=tuple(live_in),
        live_out=tuple(live_out),
        live_count=tuple(
            len(live.union(inst.dsts)) for live, inst in zip(live_in, insts)
        ),
        barrier_live=tuple(
            (pc, live_in[pc].union(inst.dsts))
            for pc, inst in enumerate(insts)
            if inst.is_barrier
        ),
    )
