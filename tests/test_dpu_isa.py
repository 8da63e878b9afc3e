"""Mini DPU ISA: instruction encoding and program building."""

import pytest

from .dpu_oracle import EXTRA_SLOTS, Instruction, IsaError, Opcode, Program


class TestInstruction:
    def test_register_bounds_checked(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.ADD, rd=24)
        with pytest.raises(IsaError):
            Instruction(Opcode.ADD, rs1=-1)

    def test_single_slot_default(self):
        assert Instruction(Opcode.ADD).issue_slots == 1

    def test_mul_is_multi_slot(self):
        assert Instruction(Opcode.MUL).issue_slots == 1 + EXTRA_SLOTS[Opcode.MUL]
        assert Instruction(Opcode.MUL).issue_slots == 32


class TestProgramBuilder:
    def test_emit_returns_index(self):
        p = Program()
        assert p.emit(Instruction(Opcode.HALT)) == 0
        assert p.emit(Instruction(Opcode.HALT)) == 1

    def test_label_binds_next_instruction(self):
        p = Program()
        p.emit(Instruction(Opcode.ADD))
        p.label("here")
        p.emit(Instruction(Opcode.HALT))
        assert p.labels["here"] == 1

    def test_duplicate_label_rejected(self):
        p = Program()
        p.label("x")
        with pytest.raises(IsaError):
            p.label("x")

    def test_branch_resolution(self):
        p = Program()
        p.branch_to(Opcode.JUMP, "end")
        p.emit(Instruction(Opcode.ADD))
        p.label("end")
        p.emit(Instruction(Opcode.HALT))
        p.resolve()
        assert p.instructions[0].imm == 2

    def test_unresolved_label_rejected(self):
        p = Program()
        p.branch_to(Opcode.JUMP, "nowhere")
        with pytest.raises(IsaError):
            p.resolve()

    def test_forward_and_backward_branches(self):
        p = Program()
        p.label("top")
        p.emit(Instruction(Opcode.ADD))
        p.branch_to(Opcode.BNE, "top", rs1=1, rs2=2)
        p.branch_to(Opcode.JUMP, "bottom")
        p.label("bottom")
        p.emit(Instruction(Opcode.HALT))
        p.resolve()
        assert p.instructions[1].imm == 0
        assert p.instructions[2].imm == 3

    def test_len(self):
        p = Program()
        p.emit(Instruction(Opcode.HALT))
        assert len(p) == 1
