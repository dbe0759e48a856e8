"""Tests for divergence-conservative register liveness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Opcode
from repro.liveness.liveness import analyze_liveness, instruction_defs_uses
from repro.workloads.suite import APPLICATIONS, build_app_kernel


class TestDefsUses:
    def test_alu(self):
        from repro.isa.instructions import Instruction
        d, u = instruction_defs_uses(Instruction(Opcode.IADD, (0,), (1, 2)))
        assert d == {0} and u == {1, 2}


class TestStraightLineLiveness:
    def test_value_live_from_def_to_last_use(self):
        b = KernelBuilder(regs_per_thread=3)
        b.ldc(0)          # pc0: def R0
        b.ldc(1)          # pc1: def R1
        b.alu(2, 0, 1)    # pc2: last use of R0, R1
        b.store(2, 2)     # pc3: last use of R2
        b.exit()          # pc4
        info = analyze_liveness(b.build())
        assert 0 in info.live_in[2] and 0 not in info.live_out[2]
        assert 2 in info.live_in[3] and 2 not in info.live_out[3]

    def test_dead_def_not_live_before(self):
        b = KernelBuilder(regs_per_thread=2)
        b.ldc(0)
        b.ldc(1)      # never used
        b.store(0, 0)
        b.exit()
        info = analyze_liveness(b.build())
        assert 1 not in info.live_in[1]
        assert 1 not in info.live_out[1]

    def test_live_count_includes_destination(self):
        b = KernelBuilder(regs_per_thread=2)
        b.ldc(0)       # dst R0, nothing live before
        b.store(0, 0)
        b.exit()
        info = analyze_liveness(b.build())
        assert info.live_count[0] == 1  # the def itself needs a register

    def test_max_live_matches_peak(self, straight_kernel):
        info = analyze_liveness(straight_kernel)
        regs = straight_kernel.metadata.regs_per_thread
        assert info.max_live() == regs


class TestLoopLiveness:
    def test_loop_carried_value_live_through_body(self, loop_kernel):
        info = analyze_liveness(loop_kernel)
        head = loop_kernel.label_pc("head")
        # R0/R1 feed the loop body and the predicate every iteration.
        assert 0 in info.live_in[head]
        assert 1 in info.live_in[head]

    def test_redefined_each_iteration_is_still_live_at_backedge(self, loop_kernel):
        info = analyze_liveness(loop_kernel)
        # The branch pc: everything used next iteration is live out.
        for pc, inst in enumerate(loop_kernel):
            if inst.is_conditional_branch:
                assert 0 in info.live_out[pc]


class TestDivergenceConservatism:
    def test_register_defined_before_branch_used_in_one_arm(self, branch_kernel):
        """R2 (defined before the branch, used only in the then-arm) must be
        live through the else-arm too — Figure 3's R3 case."""
        info = analyze_liveness(branch_kernel)
        else_pc = branch_kernel.label_pc("else_")
        assert 2 in info.live_in[else_pc]

    def test_register_defined_in_arm_used_after_join(self, branch_kernel):
        """R3 (defined in then-arm, used after the join) must be treated as
        live across the else-arm — Figure 3's R2 case."""
        info = analyze_liveness(branch_kernel)
        else_pc = branch_kernel.label_pc("else_")
        assert 3 in info.live_in[else_pc] or 3 in info.live_out[else_pc]

    def test_unrelated_register_not_pinned(self, branch_kernel):
        """R4 (defined and dead within the else-arm) must not leak into the
        then-arm."""
        info = analyze_liveness(branch_kernel)
        then_pc = branch_kernel.label_pc("else_") - 2  # first then-arm inst
        assert 4 not in info.live_in[then_pc]


class TestBarrierQueries:
    def test_live_at_barriers(self):
        b = KernelBuilder(regs_per_thread=4)
        b.ldc(0).ldc(1).ldc(2)
        b.barrier()
        b.alu(3, 0, 1)
        b.store(3, 2)
        b.exit()
        info = analyze_liveness(b.build())
        [(pc, live)] = info.live_at_barriers()
        assert b.build()[pc].is_barrier
        assert live == {0, 1, 2}

    def test_no_barriers(self, straight_kernel):
        assert analyze_liveness(straight_kernel).live_at_barriers() == []


class TestSuiteKernels:
    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    def test_max_live_within_declared_registers(self, app):
        spec = APPLICATIONS[app]
        kernel = build_app_kernel(spec)
        info = analyze_liveness(kernel)
        assert info.max_live() <= spec.regs
        # The generator's rotating-pool construction can undershoot the
        # phase target by a couple of registers (a slot overwritten
        # without an intervening read dies early); what matters for
        # RegMutex is that the peak clearly exceeds Table I's |Bs|.
        assert info.max_live() >= spec.high_pressure - 3
        assert info.max_live() > spec.expected_bs

    @pytest.mark.parametrize("app", [a for a, s in APPLICATIONS.items()
                                     if s.has_barrier])
    def test_barrier_pressure_below_bs(self, app):
        """Deadlock rule 2 must be satisfiable: barrier-point liveness must
        fit in Table I's base set."""
        spec = APPLICATIONS[app]
        info = analyze_liveness(build_app_kernel(spec))
        for _, live in info.live_at_barriers():
            assert len(live) <= spec.expected_bs


class TestLivenessInvariants:
    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_generated_kernels_satisfy_dataflow_equations(self, seed):
        """live_in = uses | (live_out - defs) at every pc, and live_out is
        the union of live_in over instruction-level successors."""
        from repro.workloads.generator import KernelShape, PressurePhase, generate_kernel
        shape = KernelShape(
            name="prop",
            phases=(
                PressurePhase(live_regs=4, length=6, mem_ratio=0.2),
                PressurePhase(live_regs=8, length=5, loop_trips=2),
            ),
            regs_per_thread=8,
            outer_trips=2,
            seed=seed,
        )
        kernel = generate_kernel(shape)
        info = analyze_liveness(kernel)
        for pc, inst in enumerate(kernel):
            d, u = instruction_defs_uses(inst)
            assert info.live_in[pc] >= u | (info.live_out[pc] - d)
            succ_union = frozenset().union(
                *(info.live_in[s] for s in kernel.successors_of_pc(pc))
            ) if kernel.successors_of_pc(pc) else frozenset()
            # May-liveness with divergence pinning: live_out must cover the
            # successor union (equality can be broken by pinning, which only
            # ever adds registers).
            assert info.live_out[pc] >= succ_union


class TestMultipleBarriers:
    def test_each_barrier_reported_with_its_live_set(self):
        b = KernelBuilder(regs_per_thread=6)
        b.ldc(0).ldc(1)
        b.barrier()                  # 2 live
        b.ldc(2).ldc(3).ldc(4)
        b.barrier()                  # 5 live
        for r in range(5):
            b.alu(5, 5 if r else 0, r)
        b.store(5, 5)
        b.exit()
        info = analyze_liveness(b.build())
        barriers = info.live_at_barriers()
        assert len(barriers) == 2
        first, second = barriers
        assert len(first[1]) < len(second[1])


class TestSharedResult:
    def test_result_is_memoized_per_kernel(self, loop_kernel):
        assert analyze_liveness(loop_kernel) is analyze_liveness(loop_kernel)

    def test_explicit_cfg_is_not_memoized(self, loop_kernel):
        from repro.cfg.graph import build_cfg

        info = analyze_liveness(loop_kernel, build_cfg(loop_kernel))
        assert info is not analyze_liveness(loop_kernel)
        assert info.live_in == analyze_liveness(loop_kernel).live_in

    def test_live_sets_cannot_be_assigned(self, loop_kernel):
        info = analyze_liveness(loop_kernel)
        with pytest.raises(TypeError):
            info.live_in[0] = frozenset({99})
        with pytest.raises(TypeError):
            info.live_out[0] = frozenset({99})
        assert 99 not in analyze_liveness(loop_kernel).live_in[0]
