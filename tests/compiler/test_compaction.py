"""Tests for architected register index compaction (§III-A4)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.config import GTX480, GTX480_HALF_RF
from repro.compiler import compaction
from repro.compiler.acquire_release import inject_primitives
from repro.compiler.compaction import (
    CompactionError,
    compact_register_indices,
    verify_compact,
)
from repro.compiler.pipeline import regmutex_compile
from repro.compiler.regions import find_acquire_regions
from repro.harness.experiments import ES_SWEEP
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Opcode
from repro.liveness.liveness import analyze_liveness
from repro.workloads.generator import KernelShape, PressurePhase, generate_kernel


def stranded_value_kernel():
    """A value lives in an extended-set index (R9) across a release: the
    paper's {2, 4, 5, 9} example shape with |Bs| = 6."""
    b = KernelBuilder(regs_per_thread=10, threads_per_cta=64)
    b.ldc(2).ldc(4).ldc(5)
    for r in (0, 1, 3, 6, 7, 8, 9):
        b.ldc(r)
    # High-pressure stretch touching everything (region: all 10 live).
    for i in range(6):
        b.alu(6 + i % 4, (i + 1) % 10, (i + 2) % 10)
    # Kill the high registers except R9 (reduce 6,7,8 into R0).
    b.alu(0, 0, 6)
    b.alu(0, 0, 7)
    b.alu(0, 0, 8)
    b.alu(0, 0, 1)
    b.alu(0, 0, 3)
    # Low-pressure tail: R9 used here, after pressure has dropped.
    b.alu(2, 2, 9)
    b.alu(4, 4, 2)
    b.alu(5, 5, 4)
    b.store(0, 5)
    b.exit()
    return b.build()


class TestCompaction:
    def test_stranded_value_moved_into_base_set(self):
        k = stranded_value_kernel()
        injected = inject_primitives(k, find_acquire_regions(k, 6))
        compacted = compact_register_indices(injected.kernel, 6)
        verify_compact(compacted, 6)  # would raise on failure

    def test_mov_inserted_with_provenance(self):
        k = stranded_value_kernel()
        injected = inject_primitives(k, find_acquire_regions(k, 6))
        compacted = compact_register_indices(injected.kernel, 6)
        movs = [
            i for i in compacted
            if i.opcode is Opcode.MOV and i.comment and "compaction" in i.comment
        ]
        assert movs, "expected at least one compaction MOV"
        for mov in movs:
            assert mov.dsts[0] < 6       # destination inside the base set
            assert mov.srcs[0] >= 6      # source from the extended set

    def test_uses_renamed_after_release(self):
        k = stranded_value_kernel()
        injected = inject_primitives(k, find_acquire_regions(k, 6))
        compacted = compact_register_indices(injected.kernel, 6)
        release_pc = next(
            pc for pc, i in enumerate(compacted) if i.opcode is Opcode.RELEASE
        )
        for pc in range(release_pc + 1, len(compacted)):
            for reg in compacted[pc].srcs:
                info = analyze_liveness(compacted)
                if reg >= 6:
                    # Any extended-index source after the release must be
                    # inside a (re-)acquired region; this kernel has none.
                    pytest.fail(f"pc {pc} still reads extended R{reg}")

    def test_already_compact_is_identity(self):
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=64)
        for r in range(8):
            b.ldc(r)
        b.acquire()
        for i in range(4):
            b.alu(i, (i + 1) % 8, (i + 2) % 8)
        for r in range(4, 8):
            b.alu(0, 0, r)   # extended values die before the release
        b.release()
        b.alu(1, 0, 2)
        b.store(0, 1)
        b.exit()
        k = b.build()
        compacted = compact_register_indices(k, 4)
        assert compacted.instructions == k.instructions

    def test_impossible_compaction_raises(self):
        """More live extended values at the release than free base slots."""
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=64)
        for r in range(8):
            b.ldc(r)
        b.acquire()
        b.alu(7, 6, 5)
        b.release()
        # Everything still live afterwards: 8 live > |Bs| = 4.
        for r in range(8):
            b.alu(0, 0, r)
        b.store(0, 0)
        b.exit()
        with pytest.raises(CompactionError, match="free base slots"):
            compact_register_indices(b.build(), 4)

    def test_verify_compact_detects_violation(self):
        b = KernelBuilder(regs_per_thread=8, threads_per_cta=64)
        for r in range(8):
            b.ldc(r)
        b.release()
        for r in range(8):
            b.alu(0, 0, r)
        b.store(0, 0)
        b.exit()
        with pytest.raises(CompactionError, match="live extended"):
            verify_compact(b.build(), 4)

    def test_bad_base_size_rejected(self):
        k = stranded_value_kernel()
        with pytest.raises(ValueError):
            compact_register_indices(k, 0)

    def test_semantic_equivalence_via_def_use_chains(self):
        """After compaction, the value flowing into the final store is
        computed from the same chain (checked structurally: same opcode
        sequence modulo MOVs and renaming)."""
        k = stranded_value_kernel()
        injected = inject_primitives(k, find_acquire_regions(k, 6))
        compacted = compact_register_indices(injected.kernel, 6)
        original_ops = [i.opcode for i in injected.kernel]
        compacted_ops = [i.opcode for i in compacted if i.opcode is not Opcode.MOV
                         or not (i.comment and "compaction" in i.comment)]
        assert compacted_ops == original_ops


class TestUnsoundRenameDetection:
    def test_use_reachable_from_two_defs_rejected(self):
        """A use of an extended register reachable both from the value
        being compacted and from a different definition (via a branch
        around the release) cannot be renamed; the pass must refuse
        rather than miscompile."""
        b = KernelBuilder(regs_per_thread=10, threads_per_cta=64)
        for r in range(10):
            b.ldc(r)
        b.acquire()
        b.alu(9, 8, 7)                 # def A of R9 inside the region
        # Kill the extended values except R9 so the region can end.
        for r in range(6, 9):
            b.alu(0, 0, r)
        b.setp(1, 0, 2)
        b.branch("skip", 1, taken_probability=0.5)
        b.release()                    # release on the fall-through path
        b.jump("use")
        b.label("skip").alu(9, 0, 1)   # def B of R9, bypassing the release
        b.label("use").alu(2, 2, 9)    # use reachable from A and B
        b.store(0, 2)
        b.exit()
        kernel = b.build()
        with pytest.raises(CompactionError, match="unsound|free base"):
            compact_register_indices(kernel, 6)


def _shadow_digests(kernel):
    """Execute a straight-line kernel on the shadow executor and return
    its (streams, memory) digests — the oracle's equivalence signal."""
    from repro.check.shadow import ShadowState
    from repro.sim.rand import DeterministicRng
    from repro.sim.warp import Warp

    shadow = ShadowState()
    warp = Warp(0, 0, kernel, DeterministicRng(1))
    for inst in kernel:
        shadow.observe(warp, inst)
    return shadow.warp_streams(), shadow.memory_digest()


class TestClobberAwareSlotChoice:
    """Regression for the MRI-Q miscompile the differential oracle
    caught: a base slot that is free at the release point but redefined
    before a renamed use must not receive a moved value."""

    def test_clobbered_first_slot_is_skipped(self):
        b = KernelBuilder(regs_per_thread=6, threads_per_cta=64)
        b.ldc(0)
        b.acquire()
        b.ldc(4)
        b.release()
        b.alu(1, 0, 0)   # redefines R1 — the lowest free slot
        b.alu(3, 4, 1)   # ... before the renamed use of R4
        b.store(0, 3)
        b.exit()
        k = b.build()
        compacted = compact_register_indices(k, 4)
        verify_compact(compacted, 4)
        (mov,) = [
            i for i in compacted
            if i.opcode is Opcode.MOV and "compaction" in (i.comment or "")
        ]
        assert mov.srcs == (4,)
        assert mov.dsts[0] == 2  # NOT slot 1, which i+1 clobbers
        assert _shadow_digests(compacted) == _shadow_digests(k)

    def test_augmenting_path_swap_finds_the_only_valid_pairing(self):
        """R4 can live in slot 2 or 3; R5 only in slot 2.  First-fit
        hands 2 to R4 and dies; the matching must swap."""
        b = KernelBuilder(regs_per_thread=6, threads_per_cta=64)
        b.ldc(0)
        b.ldc(1)
        b.acquire()
        b.ldc(4)
        b.ldc(5)
        b.release()
        b.alu(0, 4, 0)   # R4's last use precedes every slot redefinition
        b.alu(3, 0, 1)   # redefines slot 3
        b.alu(1, 5, 3)   # R5 used after — slot 3 is unsafe for R5
        b.store(0, 1)
        b.exit()
        k = b.build()
        compacted = compact_register_indices(k, 4)
        verify_compact(compacted, 4)
        pairing = {
            i.srcs[0]: i.dsts[0]
            for i in compacted
            if i.opcode is Opcode.MOV and "compaction" in (i.comment or "")
        }
        assert pairing == {4: 3, 5: 2}
        assert _shadow_digests(compacted) == _shadow_digests(k)

    def test_no_safe_slot_raises_instead_of_miscompiling(self):
        b = KernelBuilder(regs_per_thread=6, threads_per_cta=64)
        b.ldc(0)
        b.ldc(1)
        b.ldc(2)
        b.acquire()
        b.ldc(4)
        b.release()
        b.alu(3, 0, 1)   # the only free slot, redefined ...
        b.alu(0, 4, 3)   # ... before R4's renamed use
        b.store(0, 2)
        b.exit()
        with pytest.raises(CompactionError, match="no conflict-free"):
            compact_register_indices(b.build(), 4)


# -- reference oracle for the linear clobber and other-definition checks ----
# The per-query walks the compaction pass used before it computed each
# control-flow fact once per overflow register; kept verbatim (with their
# own successor function) as the specification the fast checks must meet.

def _oracle_successor_pcs(kernel, pc):
    inst = kernel[pc]
    if inst.is_exit:
        return []
    if inst.is_branch:
        targets = [kernel.label_pc(inst.target)]
        if inst.is_conditional_branch and pc + 1 < len(kernel):
            targets.append(pc + 1)
        return targets
    return [pc + 1] if pc + 1 < len(kernel) else []


def _oracle_uses_reached(kernel, start_pc, reg):
    uses = set()
    seen = set()
    stack = [start_pc]
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= len(kernel):
            continue
        seen.add(pc)
        inst = kernel[pc]
        if reg in inst.srcs:
            uses.add(pc)
        if reg in inst.dsts:
            continue
        stack.extend(_oracle_successor_pcs(kernel, pc))
    return uses


def _dst_clobbered(kernel, start_pc, src, dst):
    seen = set()
    stack = [start_pc]
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= len(kernel):
            continue
        seen.add(pc)
        inst = kernel[pc]
        if src in inst.dsts:
            continue
        if dst in inst.dsts:
            for succ in _oracle_successor_pcs(kernel, pc):
                if _oracle_uses_reached(kernel, succ, src):
                    return True
            continue
        stack.extend(_oracle_successor_pcs(kernel, pc))
    return False


def _other_defs_reach(kernel, reg, use_pc, barrier_pc):
    sources = [0] + [
        pc + 1
        for pc, inst in enumerate(kernel)
        if reg in inst.dsts and pc != barrier_pc and pc + 1 < len(kernel)
    ]
    seen = set()
    stack = list(sources)
    while stack:
        pc = stack.pop()
        if pc in seen or pc >= len(kernel):
            continue
        if pc == barrier_pc:
            continue
        seen.add(pc)
        if pc == use_pc:
            return True
        inst = kernel[pc]
        if reg in inst.dsts:
            continue
        stack.extend(_oracle_successor_pcs(kernel, pc))
    return False


@st.composite
def generator_shapes(draw):
    """Register-limited generator shapes on GTX480 (256-thread CTAs,
    more than 21 registers), with divergent inner phases and scrambled
    register indices."""
    low = draw(st.integers(min_value=3, max_value=10))
    high = draw(st.integers(min_value=22, max_value=40))
    return KernelShape(
        name="compaction-prop",
        phases=(
            PressurePhase(low, draw(st.integers(4, 16)),
                          barrier_after=draw(st.booleans())),
            PressurePhase(high, draw(st.integers(4, 24)),
                          loop_trips=draw(st.integers(0, 2)),
                          divergent=draw(st.sampled_from([0.0, 0.5]))),
            PressurePhase(low, draw(st.integers(4, 16))),
        ),
        regs_per_thread=high,
        outer_trips=draw(st.integers(0, 2)),
        scramble_indices=draw(st.booleans()),
        seed=draw(st.integers(min_value=1, max_value=2**30)),
    )


class TestLinearChecksMatchOracle:
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(shape=generator_shapes())
    def test_every_release_point_agrees(self, shape, monkeypatch):
        """At every release point the compiler visits, over the whole
        |Es| sweep on both register files, the clobbered-slot set equals
        the per-slot oracle's and the other-definition reach equals the
        per-use oracle's."""
        clobber_calls, reach_calls = [], []

        def recording(calls, function):
            def wrapper(*args):
                result = function(*args)
                calls.append((args, result))
                return result
            return wrapper

        monkeypatch.setattr(
            compaction, "_clobbered_slots",
            recording(clobber_calls, compaction._clobbered_slots))
        monkeypatch.setattr(
            compaction, "_reached_by_other_defs",
            recording(reach_calls, compaction._reached_by_other_defs))

        kernel = generate_kernel(shape)
        for config in (GTX480, GTX480_HALF_RF):
            for es in (None,) + ES_SWEEP:
                if es is not None and es >= shape.regs_per_thread:
                    continue
                try:
                    regmutex_compile(kernel, config, forced_es=es)
                except CompactionError:
                    pass

        for (k, start_pc, src, _), clobbered in clobber_calls:
            assert clobbered == {
                f for f in k.referenced_registers()
                if _dst_clobbered(k, start_pc, src, f)
            }
        for (k, reg, mov_pc), reached in reach_calls:
            release_pc = next(pc for pc in range(mov_pc, len(k))
                              if k[pc].opcode is Opcode.RELEASE)
            uses = _oracle_uses_reached(k, release_pc + 1, reg)
            # Same order too: the first unsound use names the error.
            assert list(uses) == list(
                compaction._uses_reached(k, release_pc + 1, reg))
            for use_pc in uses:
                assert (use_pc in reached) == _other_defs_reach(
                    k, reg, use_pc, mov_pc)
