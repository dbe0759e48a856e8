"""Acquire-region discovery.

An *acquire region* is a maximal range of program points whose
live-register demand exceeds |Bs| — the extended set must be held
throughout.  Regions are computed on the flat instruction list from
per-PC live counts, then widened so region boundaries never split a
basic block's terminator from its block (an acquire/release injected
mid-branch-shadow would not dominate/post-dominate its region), and
merged when separated by fewer than a configurable gap (releasing and
immediately re-acquiring wastes two instructions and an arbitration
round-trip).

Nested regions never arise by construction (maximal ranges on a single
threshold), matching the paper's no-nesting rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cfg.graph import ControlFlowGraph, build_cfg
from repro.isa.kernel import Kernel
from repro.liveness.liveness import LivenessInfo, analyze_liveness


@dataclass(frozen=True)
class AcquireRegion:
    """A [start, end) PC range executed while holding the extended set."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"empty acquire region [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def overlaps(self, other: "AcquireRegion") -> bool:
        return self.start < other.end and other.start < self.end


def _raw_regions(live_count: tuple[int, ...], threshold: int) -> list[AcquireRegion]:
    """Maximal PC ranges where live count exceeds the threshold."""
    regions: list[AcquireRegion] = []
    start = None
    for pc, count in enumerate(live_count):
        if count > threshold:
            if start is None:
                start = pc
        else:
            if start is not None:
                regions.append(AcquireRegion(start, pc))
                start = None
    if start is not None:
        regions.append(AcquireRegion(start, len(live_count)))
    return regions


def _merge_close(regions: list[AcquireRegion], gap: int) -> list[AcquireRegion]:
    if not regions:
        return []
    merged = [regions[0]]
    for region in regions[1:]:
        last = merged[-1]
        if region.start - last.end <= gap:
            merged[-1] = AcquireRegion(last.start, region.end)
        else:
            merged.append(region)
    return merged


def _align_to_blocks(
    regions: list[AcquireRegion], kernel: Kernel, cfg: ControlFlowGraph
) -> list[AcquireRegion]:
    """Snap region boundaries outward so that a region containing any part
    of a loop contains whole loop iterations' high-pressure blocks.

    Concretely: a region that starts or ends strictly inside a basic
    block is fine (straight-line code), but a region boundary may not
    fall *between* a block's last real instruction and its terminator,
    or an injected release would sit after a branch.  We widen the end
    to include the terminator when the region covers the instruction
    immediately before it.
    """
    aligned: list[AcquireRegion] = []
    for region in regions:
        end = region.end
        block = cfg.block_of_pc(end - 1)
        term_pc = block.last_pc
        inst = kernel[term_pc]
        if end == term_pc and (inst.is_branch or inst.is_exit):
            # Region would end right before the terminator; the release
            # would land between the condition and the jump — widen.
            end = term_pc + 1
        aligned.append(AcquireRegion(region.start, end))
    return _merge_close(aligned, gap=0)


def find_acquire_regions(
    kernel: Kernel,
    base_set_size: int,
    liveness: LivenessInfo | None = None,
    merge_gap: int = 3,
    cover_extended_accesses: bool = True,
) -> list[AcquireRegion]:
    """All acquire regions for a base set size, block-aligned and merged.

    With ``cover_extended_accesses`` (the default, used by the pipeline),
    regions are additionally widened so no *definition* of an
    extended-index register (index >= |Bs|) sits outside them — a warp
    cannot physically write an extended register before acquiring a
    section, regardless of the live count at that point.  Uses that
    trail a region are left to the index-compaction pass, which renames
    them into the base set.
    """
    info = liveness or analyze_liveness(kernel)
    raw = _raw_regions(info.live_count, base_set_size)
    if not raw:
        return []
    cfg = info.cfg or build_cfg(kernel)
    merged = _merge_close(raw, merge_gap)
    aligned = _align_to_blocks(merged, kernel, cfg)
    if cover_extended_accesses:
        aligned = cover_extended_defs(kernel, aligned, base_set_size)
    return aligned


def cover_extended_defs(
    kernel: Kernel, regions: list[AcquireRegion], base_set_size: int
) -> list[AcquireRegion]:
    """Widen regions until every extended-index access they can fix is
    covered.

    * An access *before* a region (in the gap since the previous region)
      pulls that region's start back to it — the acquire must precede
      the first extended-register touch (e.g. the definitions that ramp
      pressure up to the peak).
    * A *definition* after the last region covering it pulls the
      preceding region's end forward — a write needs a held section.
    * A trailing *use* is not widened over: index compaction moves the
      value into the base set before the release instead.
    """
    if not regions:
        return []
    widened = sorted(regions, key=lambda r: r.start)
    for _ in range(len(kernel) + 1):
        changed = False
        for pc, inst in enumerate(kernel):
            defines_extended = any(r >= base_set_size for r in inst.dsts)
            if not defines_extended:
                continue  # uses are compaction's job
            if any(r.start <= pc < r.end for r in widened):
                continue
            following = [r for r in widened if r.start > pc]
            preceding = [r for r in widened if r.end <= pc]
            if following:
                nxt = following[0]
                idx = widened.index(nxt)
                widened[idx] = AcquireRegion(pc, nxt.end)
                changed = True
            elif preceding:
                prev = preceding[-1]
                idx = widened.index(prev)
                widened[idx] = AcquireRegion(prev.start, pc + 1)
                changed = True
        widened = _merge_close(sorted(widened, key=lambda r: r.start), 0)
        if not changed:
            return widened
    return widened  # pragma: no cover - bounded by kernel length
