"""Tests for the Kernel container and metadata."""

import pytest

from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Instruction, Opcode
from repro.isa.kernel import Kernel, KernelMetadata


def _mini(insts):
    return Kernel(insts, KernelMetadata(name="t", regs_per_thread=8))


class TestKernelMetadata:
    def test_defaults_valid(self):
        md = KernelMetadata()
        assert md.regs_per_thread > 0
        assert not md.uses_regmutex

    def test_split_must_sum(self):
        with pytest.raises(ValueError, match=r"\|Bs\|"):
            KernelMetadata(regs_per_thread=20, base_set_size=16, extended_set_size=2)

    def test_valid_split(self):
        md = KernelMetadata(regs_per_thread=20, base_set_size=14, extended_set_size=6)
        assert md.uses_regmutex

    def test_zero_extended_set_is_not_regmutex(self):
        md = KernelMetadata(regs_per_thread=20, base_set_size=20, extended_set_size=0)
        assert not md.uses_regmutex

    @pytest.mark.parametrize("field,value", [
        ("regs_per_thread", 0),
        ("threads_per_cta", 0),
        ("shared_mem_per_cta", -1),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            KernelMetadata(**{field: value})


class TestKernel:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Kernel([], KernelMetadata())

    def test_duplicate_label_rejected(self):
        insts = [
            Instruction(Opcode.NOP, label="a"),
            Instruction(Opcode.NOP, label="a"),
            Instruction(Opcode.EXIT),
        ]
        with pytest.raises(ValueError, match="duplicate label"):
            _mini(insts)

    def test_unresolved_target_rejected(self):
        insts = [Instruction(Opcode.JMP, target="nowhere"), Instruction(Opcode.EXIT)]
        with pytest.raises(ValueError, match="nowhere"):
            _mini(insts)

    def test_label_pc(self):
        insts = [
            Instruction(Opcode.NOP),
            Instruction(Opcode.NOP, label="here"),
            Instruction(Opcode.EXIT),
        ]
        k = _mini(insts)
        assert k.label_pc("here") == 1

    def test_referenced_registers(self, straight_kernel):
        refs = straight_kernel.referenced_registers()
        assert refs == set(range(straight_kernel.metadata.regs_per_thread))

    def test_validate_register_bound(self):
        insts = [Instruction(Opcode.IADD, (9,), (0,)), Instruction(Opcode.EXIT)]
        k = Kernel(insts, KernelMetadata(regs_per_thread=4))
        with pytest.raises(ValueError, match="R9"):
            k.validate_register_bound()

    def test_has_barrier(self, straight_kernel):
        assert not straight_kernel.has_barrier()
        b = KernelBuilder(regs_per_thread=2)
        b.ldc(0).barrier().exit()
        assert b.build().has_barrier()

    def test_with_metadata_preserves_instructions(self, straight_kernel):
        k2 = straight_kernel.with_metadata(name="renamed")
        assert k2.name == "renamed"
        assert k2.instructions == straight_kernel.instructions

    def test_exit_pcs(self, straight_kernel):
        (pc,) = straight_kernel.exit_pcs()
        assert straight_kernel[pc].is_exit


class TestSuccessorsOfPc:
    def test_straightline(self, straight_kernel):
        assert straight_kernel.successors_of_pc(0) == (1,)

    def test_exit_has_none(self, straight_kernel):
        (pc,) = straight_kernel.exit_pcs()
        assert straight_kernel.successors_of_pc(pc) == ()

    def test_conditional_branch_two_successors(self, loop_kernel):
        for pc, inst in enumerate(loop_kernel):
            if inst.is_conditional_branch:
                succs = loop_kernel.successors_of_pc(pc)
                assert len(succs) == 2
                assert pc + 1 in succs
                assert loop_kernel.label_pc(inst.target) in succs
                return
        pytest.fail("no conditional branch found")

    def test_jmp_single_successor(self, branch_kernel):
        for pc, inst in enumerate(branch_kernel):
            if inst.opcode is Opcode.JMP:
                assert branch_kernel.successors_of_pc(pc) == (
                    branch_kernel.label_pc(inst.target),
                )
                return
        pytest.fail("no JMP found")


class TestSuccessorTable:
    def test_table_matches_successors_of_pc(self, loop_kernel):
        table = loop_kernel.successor_table
        assert len(table) == len(loop_kernel)
        for pc in range(len(loop_kernel)):
            assert loop_kernel.successors_of_pc(pc) == table[pc]

    def test_built_once(self, branch_kernel):
        assert branch_kernel.successor_table is branch_kernel.successor_table


class TestKernelMemo:
    def test_with_metadata_starts_an_empty_memo(self, branch_kernel):
        branch_kernel.successor_table  # fill the memo
        assert branch_kernel._memo
        renamed = branch_kernel.with_metadata(name="renamed")
        assert renamed._memo == {}
        assert renamed.with_instructions(renamed.instructions)._memo == {}

    def test_equality_ignores_the_memo(self, straight_kernel):
        copy = Kernel(straight_kernel.instructions, straight_kernel.metadata)
        straight_kernel.successor_table
        assert copy == straight_kernel
