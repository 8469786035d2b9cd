"""Lift a superblock body to optimized single-block IR.

The register and memory dataflow comes straight from
:class:`repro.lift.semantics.InstructionTranslator` — the same
translation the rewriter uses, kept honest by the differential tests.
The lifter's *flag* model, however, is documented as approximate (no
AF/PF, ``imul`` clears CF/OF, variable shifts update only ZF/SF), so
compiled blocks never consume lifted flag values.  Instead, every flag
writer deposits a readonly ``flag_*`` marker call capturing the exact
operand values the interpreter's :class:`~repro.emu.flagops.Flags`
methods would see; codegen replays those methods at block commit.
``flag_materialization`` prunes the markers to the live tail first, so
a block ending in ``cmp``/``test`` typically replays a single update
("batched flag materialization").

Guest state enters through readonly ``reg_in`` markers (one per GPR)
stored into the :class:`GuestState` allocas, and leaves through
``reg_out`` markers; mem2reg then renames everything into SSA and the
dead stores of the approximate flag model fold away under DCE.
"""

from __future__ import annotations

from repro.analysis.flagliveness import ALL_FLAGS, flag_materialization
from repro.ir.builder import IRBuilder
from repro.ir.module import Function
from repro.ir.passes import PassManager, constant_fold, cse, dce, mem2reg
from repro.ir.types import I8, I64, VOID, FunctionType
from repro.ir.values import Constant
from repro.isa.insn import Instruction, Mnemonic
from repro.isa.operands import Imm
from repro.lift.semantics import InstructionTranslator
from repro.lift.state import GuestState
from repro.isa.registers import all_gpr64

_INC_DEC_FLAGS = frozenset({"pf", "af", "zf", "sf", "of"})
_SHIFT_FLAGS = frozenset({"cf", "pf", "zf", "sf"})

# per-pass verification runs in tests/emu/test_jit.py, not per lift
_PIPELINE = PassManager([
    ("mem2reg", mem2reg),
    ("constfold", constant_fold),
    ("cse", cse),
    ("dce", dce),
], verify_each=False)


class _FlagMarkers:
    """Collects ``flag_*`` marker calls with their define sets."""

    def __init__(self, translator: InstructionTranslator,
                 builder: IRBuilder):
        self.translator = translator
        self.builder = builder
        self.specs: list[tuple[frozenset, frozenset, object]] = []

    def _emit(self, kind: str, args, bits: int,
              may: frozenset, definite: frozenset):
        call = self.builder.call(
            VOID, f"flag_{kind}", list(args) + [Constant(I64, bits)],
            readonly=True)
        self.specs.append((may, definite, call))

    def capture(self, insn: Instruction):
        """Emit the marker for ``insn`` (before its translation)."""
        translator = self.translator
        builder = self.builder
        mnemonic = insn.mnemonic
        width = translator._width(insn)
        bits = width * 8

        def read(index):
            return translator.read(insn.operands[index], insn, width)

        if mnemonic is Mnemonic.ADD:
            self._emit("add", (read(0), read(1)), bits,
                       ALL_FLAGS, ALL_FLAGS)
        elif mnemonic in (Mnemonic.SUB, Mnemonic.CMP):
            self._emit("sub", (read(0), read(1)), bits,
                       ALL_FLAGS, ALL_FLAGS)
        elif mnemonic in (Mnemonic.AND, Mnemonic.TEST, Mnemonic.OR,
                          Mnemonic.XOR):
            op = ("and" if mnemonic in (Mnemonic.AND, Mnemonic.TEST)
                  else mnemonic.name.lower())
            result = builder.binop(op, read(0), read(1))
            self._emit("logic", (result,), bits, ALL_FLAGS, ALL_FLAGS)
        elif mnemonic is Mnemonic.IMUL:
            self._emit("imul", (read(0), read(1)), bits,
                       ALL_FLAGS, ALL_FLAGS)
        elif mnemonic is Mnemonic.INC:
            self._emit("inc", (read(0),), bits,
                       _INC_DEC_FLAGS, _INC_DEC_FLAGS)
        elif mnemonic is Mnemonic.DEC:
            self._emit("dec", (read(0),), bits,
                       _INC_DEC_FLAGS, _INC_DEC_FLAGS)
        elif mnemonic is Mnemonic.NEG:
            self._emit("neg", (read(0),), bits, ALL_FLAGS, ALL_FLAGS)
        elif mnemonic in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR):
            amount = insn.operands[1]
            kind = mnemonic.name.lower()
            if isinstance(amount, Imm):
                masked = amount.value & (0x3F if bits == 64 else 0x1F)
                if masked == 0:
                    return  # architecturally no flag update at all
                defined = _SHIFT_FLAGS | ({"of"} if masked == 1
                                          else frozenset())
                self._emit(kind, (read(0),
                                  Constant(I8, amount.value & 0xFF)),
                           bits, defined, defined)
            else:
                # run-time count: may update everything but AF, or
                # nothing at all when the masked count is zero
                count = translator.read(amount, insn, 1)
                self._emit(kind, (read(0), count), bits,
                           _SHIFT_FLAGS | {"of"}, frozenset())

    def prune(self):
        """Erase markers outside the live tail (batched materialization)."""
        keep = set(flag_materialization(
            [(may, definite) for may, definite, _ in self.specs]))
        for index, (_, _, call) in enumerate(self.specs):
            if index not in keep:
                call.erase()


def lift_superblock(body: list[Instruction], start: int) -> Function:
    """Build and optimize the IR function for one superblock body."""
    function = Function(f"sb_{start:x}", FunctionType(VOID, ()))
    block = function.add_block("body")
    builder = IRBuilder(block)
    state = GuestState(builder)
    translator = InstructionTranslator(state, builder)

    for register in all_gpr64():
        value = builder.call(
            I64, "reg_in", [Constant(I64, register.code)],
            name=f"in_{register.name}", readonly=True)
        builder.store(value, state.reg_slots[register.name])

    markers = _FlagMarkers(translator, builder)
    for insn in body:
        markers.capture(insn)
        translator.translate(insn)
    markers.prune()

    for register in all_gpr64():
        builder.call(
            VOID, "reg_out",
            [Constant(I64, register.code),
             state.read_reg(builder, register)],
            readonly=True)
    builder.ret()

    _PIPELINE.run(function)
    return function
