"""Functional DPU interpreter: arithmetic, memory, control flow, tasklets."""

import pytest

from .dpu_oracle import Dpu, Instruction, IsaError, Opcode, Program


def run_single(instrs, init=None, **kwargs):
    """Run a short instruction list on tasklet 0 and return the DPU."""
    p = Program()
    for inst in instrs:
        p.emit(inst)
    p.emit(Instruction(Opcode.HALT))
    dpu = Dpu()
    dpu.run(p.resolve(), num_tasklets=1, init_registers={0: init or {}}, **kwargs)
    return dpu


class TestArithmetic:
    def test_addi_and_add(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=5))
        p.emit(Instruction(Opcode.ADDI, rd=2, rs1=0, imm=7))
        p.emit(Instruction(Opcode.ADD, rd=3, rs1=1, rs2=2))
        p.emit(Instruction(Opcode.SW, rs1=0, rs2=3, imm=0))
        p.emit(Instruction(Opcode.HALT))
        dpu.run(p.resolve())
        assert dpu.words(0, 1)[0] == 12

    def test_mul_wraps_32bit(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=0x10000))
        p.emit(Instruction(Opcode.MUL, rd=2, rs1=1, rs2=1))
        p.emit(Instruction(Opcode.SW, rs1=0, rs2=2, imm=0))
        p.emit(Instruction(Opcode.HALT))
        dpu.run(p.resolve())
        assert dpu.words(0, 1)[0] == 0

    def test_sub_wraps(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.SUB, rd=1, rs1=0, rs2=2))  # 0 - r2
        p.emit(Instruction(Opcode.SW, rs1=0, rs2=1, imm=0))
        p.emit(Instruction(Opcode.HALT))
        dpu.run(p.resolve(), init_registers={0: {2: 1}})
        assert dpu.words(0, 1)[0] == 0xFFFFFFFF

    def test_logic_and_shifts(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=0b1100))
        p.emit(Instruction(Opcode.ADDI, rd=2, rs1=0, imm=0b1010))
        p.emit(Instruction(Opcode.AND, rd=3, rs1=1, rs2=2))
        p.emit(Instruction(Opcode.OR, rd=4, rs1=1, rs2=2))
        p.emit(Instruction(Opcode.XOR, rd=5, rs1=1, rs2=2))
        p.emit(Instruction(Opcode.ADDI, rd=6, rs1=0, imm=2))
        p.emit(Instruction(Opcode.SLL, rd=7, rs1=1, rs2=6))
        p.emit(Instruction(Opcode.SRL, rd=8, rs1=1, rs2=6))
        for i, reg in enumerate((3, 4, 5, 7, 8)):
            p.emit(Instruction(Opcode.SW, rs1=0, rs2=reg, imm=4 * i))
        p.emit(Instruction(Opcode.HALT))
        dpu.run(p.resolve())
        values = dpu.words(0, 5)
        assert list(values) == [0b1000, 0b1110, 0b0110, 0b110000, 0b11]


class TestControlFlow:
    def test_countdown_loop(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=10))  # counter
        p.emit(Instruction(Opcode.XOR, rd=2, rs1=2, rs2=2))    # acc = 0
        p.label("loop")
        p.emit(Instruction(Opcode.ADDI, rd=2, rs1=2, imm=1))
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=1, imm=-1))
        p.branch_to(Opcode.BNE, "loop", rs1=1, rs2=0)
        p.emit(Instruction(Opcode.SW, rs1=0, rs2=2, imm=0))
        p.emit(Instruction(Opcode.HALT))
        dpu.run(p.resolve(), init_registers={0: {0: 0}})
        assert dpu.words(0, 1)[0] == 10

    def test_blt_signed_comparison(self):
        dpu = Dpu()
        p = Program()
        # r1 = -1 (signed) < r2 = 1 -> branch taken
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=-1))
        p.emit(Instruction(Opcode.ADDI, rd=2, rs1=0, imm=1))
        p.branch_to(Opcode.BLT, "taken", rs1=1, rs2=2)
        p.emit(Instruction(Opcode.ADDI, rd=3, rs1=0, imm=111))
        p.label("taken")
        p.emit(Instruction(Opcode.SW, rs1=0, rs2=3, imm=0))
        p.emit(Instruction(Opcode.HALT))
        dpu.run(p.resolve(), init_registers={0: {0: 0}})
        assert dpu.words(0, 1)[0] == 0

    def test_infinite_loop_detected(self):
        dpu = Dpu()
        p = Program()
        p.label("spin")
        p.branch_to(Opcode.JUMP, "spin")
        with pytest.raises(IsaError):
            dpu.run(p.resolve(), max_instructions=1000)


class TestMemorySemantics:
    def test_unaligned_load_rejected(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=2))
        p.emit(Instruction(Opcode.LW, rd=2, rs1=1, imm=0))
        p.emit(Instruction(Opcode.HALT))
        with pytest.raises(IsaError):
            dpu.run(p.resolve(), init_registers={0: {0: 0}})

    def test_out_of_range_store_rejected(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.SW, rs1=0, rs2=0, imm=dpu.wram.size))
        p.emit(Instruction(Opcode.HALT))
        with pytest.raises(IsaError):
            dpu.run(p.resolve())


class TestTasklets:
    def test_register_zero_is_tasklet_id(self):
        dpu = Dpu()
        p = Program()
        # each tasklet stores its id at word tid
        p.emit(Instruction(Opcode.ADD, rd=4, rs1=0, rs2=0))
        p.emit(Instruction(Opcode.ADD, rd=4, rs1=4, rs2=4))  # 4*tid
        p.emit(Instruction(Opcode.SW, rs1=4, rs2=0, imm=0))
        p.emit(Instruction(Opcode.HALT))
        dpu.run(p.resolve(), num_tasklets=4)
        values = dpu.words(0, 4)
        assert list(values) == [0, 1, 2, 3]

    def test_tasklet_count_validated(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.HALT))
        with pytest.raises(IsaError):
            dpu.run(p.resolve(), num_tasklets=25)

    def test_run_result_counts(self):
        dpu = Dpu()
        p = Program()
        p.emit(Instruction(Opcode.ADDI, rd=1, rs1=0, imm=1))
        p.emit(Instruction(Opcode.HALT))
        result = dpu.run(p.resolve(), num_tasklets=2)
        assert result.instructions_retired == 4
        assert result.issue_slots == 4
        assert result.cycles > 0
        assert result.time_s == pytest.approx(
            result.cycles / 350e6
        )

    def test_mul_costs_more_slots_than_add(self):
        dpu = Dpu()
        p_add = Program()
        p_add.emit(Instruction(Opcode.ADD, rd=1, rs1=1, rs2=1))
        p_add.emit(Instruction(Opcode.HALT))
        p_mul = Program()
        p_mul.emit(Instruction(Opcode.MUL, rd=1, rs1=1, rs2=1))
        p_mul.emit(Instruction(Opcode.HALT))
        slots_add = dpu.run(p_add.resolve()).issue_slots
        slots_mul = dpu.run(p_mul.resolve()).issue_slots
        assert slots_mul - slots_add == 31
