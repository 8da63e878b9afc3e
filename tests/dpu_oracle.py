"""A functional DPU interpreter: the oracle for ``repro.dpu.ComputeModel``.

The analytic compute model prices a phase from abstract op counts and the
UPMEM pipeline (:class:`repro.dpu.PipelineModel`).  This module grounds
that model in execution: kernels written against a small 32-bit register
ISA run on tasklets that share WRAM, issuing round-robin one instruction
slot at a time, as the revolving pipeline does, and report the issue
slots they used.

The ISA is not bit-exact UPMEM; it keeps UPMEM's cost structure
(single issue, a software-emulated multiply).  WRAM is a bounds-checked
``np.uint8`` array of ``DpuConfig.wram_bytes``; :meth:`Dpu.words` views a
word-aligned range of it as ``np.uint32``.

Kernel register conventions (per tasklet):

* ``r0``  tasklet id (set by :meth:`Dpu.run`);
* ``r1``  number of tasklets (caller-initialized);
* ``r2``  element count n (caller-initialized);
* ``r3+`` scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from repro.config import DpuConfig
from repro.dpu import PipelineModel
from repro.errors import ReproError

NUM_REGISTERS = 24
_MASK32 = 0xFFFFFFFF


class IsaError(ReproError):
    """The interpreter hit an illegal instruction or operand."""


class Opcode(Enum):
    ADD = "add"        # rd = rs1 + rs2
    ADDI = "addi"      # rd = rs1 + imm
    SUB = "sub"        # rd = rs1 - rs2
    MUL = "mul"        # rd = rs1 * rs2 (software-emulated, multi-slot)
    AND = "and"        # rd = rs1 & rs2
    OR = "or"          # rd = rs1 | rs2
    XOR = "xor"        # rd = rs1 ^ rs2
    SLL = "sll"        # rd = rs1 << (rs2 & 31)
    SRL = "srl"        # rd = rs1 >> (rs2 & 31) logical
    LW = "lw"          # rd = wram[rs1 + imm]
    SW = "sw"          # wram[rs1 + imm] = rs2
    BEQ = "beq"        # if rs1 == rs2: pc = imm
    BNE = "bne"        # if rs1 != rs2: pc = imm
    BLT = "blt"        # if rs1 <  rs2 (signed): pc = imm
    JUMP = "jump"      # pc = imm
    HALT = "halt"      # stop this tasklet


#: Extra issue slots charged beyond the first for multi-cycle (emulated)
#: instructions.  MUL matches the UPMEM shift-add emulation cost.
EXTRA_SLOTS: dict[Opcode, int] = {Opcode.MUL: 31}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction. Unused fields stay at their defaults."""

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for name in ("rd", "rs1", "rs2"):
            reg = getattr(self, name)
            if not 0 <= reg < NUM_REGISTERS:
                raise IsaError(
                    f"{self.opcode.value}: register {name}={reg} out of range"
                )

    @property
    def issue_slots(self) -> int:
        """Pipeline issue slots this instruction occupies."""
        return 1 + EXTRA_SLOTS.get(self.opcode, 0)


@dataclass
class Program:
    """A kernel: a flat instruction list with labels.

    ``label()`` marks the next instruction's index; ``branch_to()`` emits
    a branch whose target :meth:`resolve` patches in.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    _pending: list[tuple[int, str]] = field(default_factory=list)

    def emit(self, instruction: Instruction) -> int:
        """Append an instruction; returns its index."""
        self.instructions.append(instruction)
        return len(self.instructions) - 1

    def label(self, name: str) -> None:
        """Bind ``name`` to the index of the next emitted instruction."""
        if name in self.labels:
            raise IsaError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions)

    def branch_to(self, opcode: Opcode, label: str, rs1: int = 0, rs2: int = 0) -> int:
        """Emit a branch/jump whose target label may not exist yet."""
        index = self.emit(Instruction(opcode, rs1=rs1, rs2=rs2, imm=0))
        self._pending.append((index, label))
        return index

    def resolve(self) -> "Program":
        """Patch all pending branch targets; returns self for chaining."""
        for index, label in self._pending:
            if label not in self.labels:
                raise IsaError(f"undefined label {label!r}")
            old = self.instructions[index]
            self.instructions[index] = Instruction(
                old.opcode, rd=old.rd, rs1=old.rs1, rs2=old.rs2,
                imm=self.labels[label],
            )
        self._pending.clear()
        return self

    def __len__(self) -> int:
        return len(self.instructions)


def _signed(value: int) -> int:
    value &= _MASK32
    return value - (1 << 32) if value >= (1 << 31) else value


@dataclass
class TaskletState:
    """Architectural state of one tasklet."""

    tasklet_id: int
    pc: int = 0
    halted: bool = False
    registers: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_REGISTERS, dtype=np.uint32)
    )


@dataclass(frozen=True)
class RunResult:
    """Outcome of a kernel run on one DPU."""

    issue_slots: int
    cycles: float
    time_s: float
    instructions_retired: int


class Dpu:
    """One DPU: tasklets, WRAM and the pipeline timing model."""

    def __init__(self, config: DpuConfig | None = None) -> None:
        self.config = config or DpuConfig()
        self.wram = np.zeros(self.config.wram_bytes, dtype=np.uint8)
        self.pipeline = PipelineModel(self.config)

    def words(self, address: int, count: int) -> np.ndarray:
        """A writable ``np.uint32`` view of ``count`` WRAM words."""
        if address % 4 != 0:
            raise IsaError(f"unaligned word access at {address}")
        if address < 0 or address + 4 * count > self.wram.size:
            raise IsaError(
                f"WRAM access [{address}, {address + 4 * count}) outside "
                f"[0, {self.wram.size})"
            )
        return self.wram[address : address + 4 * count].view(np.uint32)

    def _step(self, program: Program, state: TaskletState) -> int:
        """Execute one instruction of ``state``; returns issue slots used."""
        if state.pc >= len(program.instructions):
            raise IsaError(
                f"tasklet {state.tasklet_id} ran off the end of the kernel"
            )
        inst = program.instructions[state.pc]
        regs = state.registers
        rs1, rs2 = int(regs[inst.rs1]), int(regs[inst.rs2])
        next_pc = state.pc + 1
        op = inst.opcode

        if op is Opcode.ADD:
            regs[inst.rd] = (rs1 + rs2) & _MASK32
        elif op is Opcode.ADDI:
            regs[inst.rd] = (rs1 + inst.imm) & _MASK32
        elif op is Opcode.SUB:
            regs[inst.rd] = (rs1 - rs2) & _MASK32
        elif op is Opcode.MUL:
            regs[inst.rd] = (rs1 * rs2) & _MASK32
        elif op is Opcode.AND:
            regs[inst.rd] = rs1 & rs2
        elif op is Opcode.OR:
            regs[inst.rd] = rs1 | rs2
        elif op is Opcode.XOR:
            regs[inst.rd] = rs1 ^ rs2
        elif op is Opcode.SLL:
            regs[inst.rd] = (rs1 << (rs2 & 31)) & _MASK32
        elif op is Opcode.SRL:
            regs[inst.rd] = rs1 >> (rs2 & 31)
        elif op is Opcode.LW:
            regs[inst.rd] = self.words(rs1 + inst.imm, 1)[0]
        elif op is Opcode.SW:
            self.words(rs1 + inst.imm, 1)[0] = rs2
        elif op is Opcode.BEQ:
            if rs1 == rs2:
                next_pc = inst.imm
        elif op is Opcode.BNE:
            if rs1 != rs2:
                next_pc = inst.imm
        elif op is Opcode.BLT:
            if _signed(rs1) < _signed(rs2):
                next_pc = inst.imm
        elif op is Opcode.JUMP:
            next_pc = inst.imm
        elif op is Opcode.HALT:
            state.halted = True
        else:  # pragma: no cover - enum is exhaustive
            raise IsaError(f"unimplemented opcode {op}")

        state.pc = next_pc
        return inst.issue_slots

    def run(
        self,
        program: Program,
        num_tasklets: int = 1,
        init_registers: dict[int, dict[int, int]] | None = None,
        max_instructions: int = 10_000_000,
    ) -> RunResult:
        """Run ``program`` to completion on ``num_tasklets`` tasklets.

        ``init_registers`` maps tasklet id -> {register: value}; register 0
        is first set to the tasklet id (the UPMEM ``me()`` convention).
        """
        if not 1 <= num_tasklets <= self.config.num_hw_tasklets:
            raise IsaError(
                f"tasklet count {num_tasklets} outside "
                f"[1, {self.config.num_hw_tasklets}]"
            )
        if program._pending:
            raise IsaError("program has unresolved branch labels")
        states = []
        for t in range(num_tasklets):
            state = TaskletState(tasklet_id=t)
            state.registers[0] = t
            for reg, value in (init_registers or {}).get(t, {}).items():
                state.registers[reg] = value & _MASK32
            states.append(state)

        slots = 0
        retired = 0
        while any(not s.halted for s in states):
            for state in states:
                if state.halted:
                    continue
                slots += self._step(program, state)
                retired += 1
                if retired > max_instructions:
                    raise IsaError(
                        "kernel exceeded max_instructions; likely an "
                        "infinite loop"
                    )

        cycles = self.pipeline.cycles_for_slots(slots, num_tasklets)
        return RunResult(
            issue_slots=slots,
            cycles=cycles,
            time_s=cycles * self.config.cycle_time_s,
            instructions_retired=retired,
        )


# -- reference kernels ---------------------------------------------------------
# Word-indexed element loops strided across tasklets: tasklet t handles
# i = t, t + T, t + 2T, ... for i < n.  Bases are WRAM byte addresses.


def _strided_loop(p: Program) -> None:
    """Emit ``i = tid; loop: if not i < n goto done``, then r4 = 4i."""
    p.emit(Instruction(Opcode.ADDI, rd=3, rs1=0, imm=0))
    p.label("loop")
    p.branch_to(Opcode.BLT, "body", rs1=3, rs2=2)
    p.branch_to(Opcode.JUMP, "done")
    p.label("body")
    p.emit(Instruction(Opcode.ADD, rd=4, rs1=3, rs2=3))   # 2i
    p.emit(Instruction(Opcode.ADD, rd=4, rs1=4, rs2=4))   # 4i


def _next_element(p: Program) -> None:
    """Emit ``i += T; goto loop`` and bind ``done``."""
    p.emit(Instruction(Opcode.ADD, rd=3, rs1=3, rs2=1))
    p.branch_to(Opcode.JUMP, "loop")
    p.label("done")


def vector_add_kernel(a_base: int, b_base: int, out_base: int) -> Program:
    """out[i] = a[i] + b[i]."""
    p = Program()
    _strided_loop(p)
    p.emit(Instruction(Opcode.LW, rd=5, rs1=4, imm=a_base))
    p.emit(Instruction(Opcode.LW, rd=6, rs1=4, imm=b_base))
    p.emit(Instruction(Opcode.ADD, rd=7, rs1=5, rs2=6))
    p.emit(Instruction(Opcode.SW, rs1=4, rs2=7, imm=out_base))
    _next_element(p)
    p.emit(Instruction(Opcode.HALT))
    return p.resolve()


def vector_scale_kernel(a_base: int, out_base: int, scale_reg: int = 8) -> Program:
    """out[i] = a[i] * scale, with the caller-set ``scale_reg``."""
    p = Program()
    _strided_loop(p)
    p.emit(Instruction(Opcode.LW, rd=5, rs1=4, imm=a_base))
    p.emit(Instruction(Opcode.MUL, rd=7, rs1=5, rs2=scale_reg))
    p.emit(Instruction(Opcode.SW, rs1=4, rs2=7, imm=out_base))
    _next_element(p)
    p.emit(Instruction(Opcode.HALT))
    return p.resolve()


def reduce_sum_kernel(a_base: int, out_base: int) -> Program:
    """out[tid] = the sum of tasklet tid's stripe of a.

    The caller combines the per-tasklet partials, as UPMEM reduction
    kernels do before a cross-DPU collective.
    """
    p = Program()
    p.emit(Instruction(Opcode.XOR, rd=9, rs1=9, rs2=9))    # acc = 0
    _strided_loop(p)
    p.emit(Instruction(Opcode.LW, rd=5, rs1=4, imm=a_base))
    p.emit(Instruction(Opcode.ADD, rd=9, rs1=9, rs2=5))
    _next_element(p)
    p.emit(Instruction(Opcode.ADD, rd=4, rs1=0, rs2=0))    # 2*tid
    p.emit(Instruction(Opcode.ADD, rd=4, rs1=4, rs2=4))    # 4*tid
    p.emit(Instruction(Opcode.SW, rs1=4, rs2=9, imm=out_base))
    p.emit(Instruction(Opcode.HALT))
    return p.resolve()
