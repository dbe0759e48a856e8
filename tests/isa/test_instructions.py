"""Tests for the instruction set definition."""

import pytest

from repro.isa.instructions import (
    Instruction,
    OpClass,
    Opcode,
    OPCODE_CLASS,
    OPCODE_LATENCY,
)


class TestOpcodeTables:
    def test_every_opcode_has_class_and_latency(self):
        for op in Opcode:
            assert op in OPCODE_CLASS
            assert op in OPCODE_LATENCY
            assert OPCODE_LATENCY[op] >= 1

    def test_sfu_slower_than_ialu(self):
        assert OPCODE_LATENCY[Opcode.RSQRT] > OPCODE_LATENCY[Opcode.IADD]

    def test_properties_agree_with_the_tables(self):
        for op in Opcode:
            target = "t" if op in (Opcode.BRA, Opcode.JMP) else None
            inst = Instruction(op, target=target)
            assert inst.op_class is OPCODE_CLASS[op]
            assert inst.latency == OPCODE_LATENCY[op]
            assert inst.is_memory == (
                OPCODE_CLASS[op] in (OpClass.LOAD, OpClass.STORE)
            )
            assert inst.is_regmutex == (OPCODE_CLASS[op] is OpClass.REGMUTEX)

    def test_properties_never_hash_the_opcode(self, monkeypatch):
        """``Enum.__hash__`` is a Python-level call: building an
        instruction and reading its opcode-derived properties makes none."""
        calls = []
        original = Opcode.__hash__

        def counting(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Opcode, "__hash__", counting)
        assert hash(Opcode.IADD) == original(Opcode.IADD) and calls
        calls.clear()
        for op in Opcode:
            target = "t" if op in (Opcode.BRA, Opcode.JMP) else None
            inst = Instruction(op, (0,), (1,), target=target)
            inst.op_class, inst.latency, inst.is_memory, inst.is_regmutex
        assert calls == []


class TestInstruction:
    def test_basic_alu(self):
        inst = Instruction(Opcode.IADD, (0,), (1, 2))
        assert inst.op_class is OpClass.IALU
        assert inst.registers == (0, 1, 2)
        assert not inst.is_branch
        assert not inst.is_memory

    def test_branch_requires_target(self):
        with pytest.raises(ValueError, match="target"):
            Instruction(Opcode.BRA, srcs=(1,))

    def test_jmp_requires_target(self):
        with pytest.raises(ValueError, match="target"):
            Instruction(Opcode.JMP)

    def test_exit_needs_no_target(self):
        inst = Instruction(Opcode.EXIT)
        assert inst.is_exit
        assert not inst.is_branch  # EXIT transfers nowhere

    def test_non_branch_rejects_target(self):
        with pytest.raises(ValueError, match="target"):
            Instruction(Opcode.IADD, (0,), (1,), target="x")

    def test_negative_register_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.IADD, (-1,), ())

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BRA, srcs=(0,), target="t", taken_probability=1.5)

    def test_negative_trip_count_rejected(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.BRA, srcs=(0,), target="t", trip_count=-1)

    def test_classifiers(self):
        assert Instruction(Opcode.BAR_SYNC).is_barrier
        assert Instruction(Opcode.ACQUIRE).is_regmutex
        assert Instruction(Opcode.RELEASE).is_regmutex
        assert Instruction(Opcode.LD_GLOBAL, (0,), (1,)).is_memory
        assert Instruction(Opcode.ST_GLOBAL, (), (0, 1)).is_memory
        assert Instruction(Opcode.BRA, srcs=(0,), target="t").is_conditional_branch
        assert not Instruction(Opcode.JMP, target="t").is_conditional_branch

    def test_with_label(self):
        inst = Instruction(Opcode.IADD, (0,), (1,)).with_label("top")
        assert inst.label == "top"

    def test_renamed_maps_both_operand_lists(self):
        inst = Instruction(Opcode.FFMA, (9,), (9, 3, 4))
        renamed = inst.renamed({9: 1, 4: 0})
        assert renamed.dsts == (1,)
        assert renamed.srcs == (1, 3, 0)

    def test_renamed_keeps_unmapped(self):
        inst = Instruction(Opcode.IADD, (0,), (1, 2))
        assert inst.renamed({}) == inst

    def test_frozen(self):
        inst = Instruction(Opcode.IADD, (0,), (1,))
        with pytest.raises(AttributeError):
            inst.dsts = (5,)
