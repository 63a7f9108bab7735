"""End-to-end execution tests for every addressing mode.

Each test runs real code through the full machine and checks both the
architectural result and, where interesting, the specifier-microcode
accounting (which Table 4 is reduced from).
"""

import pytest

from repro.asm import Assembler
from repro.core import compile as replay
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780
from repro.cpu.ebox import IllegalInstruction
from repro.isa.opcodes import opcode_by_mnemonic
from repro.ucode.routines import build_layout


@pytest.fixture
def harness(harness):
    # A leading NOP takes the cold first execution, which never replays,
    # so on the replayed arm every instruction under test must.
    harness.asm.instr("NOP")
    harness.max_interpreted = 1
    return harness


class TestLiteralAndRegister:
    def test_short_literal(self, harness):
        harness.asm.instr("MOVL", "S^#63", "R0")
        harness.asm.instr("HALT")
        harness.run()
        assert harness.reg(0) == 63

    def test_immediate_long(self, harness):
        harness.asm.instr("MOVL", "I^#1000000", "R0")
        harness.asm.instr("HALT")
        harness.run()
        assert harness.reg(0) == 1000000

    def test_immediate_byte_sized(self, harness):
        harness.asm.instr("MOVB", "I^#200", "R0")
        harness.asm.instr("HALT")
        harness.run()
        assert harness.reg(0) & 0xFF == 200

    def test_register(self, harness):
        harness.asm.instr("MOVL", "#7", "R3")
        harness.asm.instr("MOVL", "R3", "R4")
        harness.asm.instr("HALT")
        harness.run()
        assert harness.reg(4) == 7


class TestDeferredModes:
    def test_register_deferred(self, harness):
        harness.asm.instr("MOVAL", "cell", "R1")
        harness.asm.instr("MOVL", "(R1)", "R0")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("cell")
        harness.asm.long(0x1234)
        harness.run()
        assert harness.reg(0) == 0x1234

    def test_autoincrement_advances_by_size(self, harness):
        harness.asm.instr("MOVAL", "data", "R1")
        harness.asm.instr("MOVL", "(R1)+", "R2")
        harness.asm.instr("MOVW", "(R1)+", "R3")
        harness.asm.instr("MOVB", "(R1)+", "R4")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("data")
        harness.asm.long(0x11111111)
        harness.asm.word(0x2222)
        harness.asm.byte(0x33)
        harness.run()
        assert harness.reg(2) == 0x11111111
        assert harness.reg(3) & 0xFFFF == 0x2222
        assert harness.reg(4) & 0xFF == 0x33
        assert harness.reg(1) == harness.asm.symbols["data"] + 7

    def test_autodecrement_predecrements(self, harness):
        harness.asm.instr("MOVAL", "end", "R1")
        harness.asm.instr("MOVL", "-(R1)", "R2")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("data")
        harness.asm.long(0xAAAA)
        harness.asm.label("end")
        harness.run()
        assert harness.reg(2) == 0xAAAA
        assert harness.reg(1) == harness.asm.symbols["data"]

    def test_autoincrement_deferred(self, harness):
        harness.asm.instr("MOVAL", "pointers", "R1")
        harness.asm.instr("MOVL", "@(R1)+", "R2")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("pointers")
        harness.asm.long_ref("target")
        harness.asm.label("target")
        harness.asm.long(0x5555)
        harness.run()
        assert harness.reg(2) == 0x5555
        assert harness.reg(1) == harness.asm.symbols["pointers"] + 4

    def test_displacement_deferred(self, harness):
        harness.asm.instr("MOVAL", "base", "R1")
        harness.asm.instr("MOVL", "@4(R1)", "R2")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("base")
        harness.asm.long(0)
        harness.asm.long_ref("target")
        harness.asm.label("target")
        harness.asm.long(0x7777)
        harness.run()
        assert harness.reg(2) == 0x7777


class TestDisplacementWidths:
    @pytest.mark.parametrize("prefix,offset", [("B^", 8), ("W^", 8), ("L^", 8)])
    def test_forced_widths_agree(self, harness, prefix, offset):
        harness.asm.instr("MOVAL", "base", "R1")
        harness.asm.instr("MOVL", "{}{}(R1)".format(prefix, offset), "R2")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("base")
        harness.asm.long(0, 0)
        harness.asm.label("cell")
        harness.asm.long(0x42)
        harness.run()
        assert harness.reg(2) == 0x42

    def test_negative_displacement(self, harness):
        harness.asm.instr("MOVAL", "after", "R1")
        harness.asm.instr("MOVL", "-4(R1)", "R2")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("cell")
        harness.asm.long(99)
        harness.asm.label("after")
        harness.run()
        assert harness.reg(2) == 99


class TestPCModes:
    def test_pc_relative_read(self, harness):
        harness.asm.instr("MOVL", "value", "R0")  # assembler emits EF mode
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("value")
        harness.asm.long(0xBEEF)
        harness.run()
        assert harness.reg(0) == 0xBEEF

    def test_absolute(self, harness):
        harness.asm.instr("MOVL", "#0xCAFE", "@#0x3000")
        harness.asm.instr("MOVL", "@#0x3000", "R2")
        harness.asm.instr("HALT")
        harness.run()
        assert harness.reg(2) == 0xCAFE


#: PC-relative deferred mode bytes (``@B^``/``@W^``/``@L^label``) by
#: displacement width; the assembler has no syntax for these modes.
_RELATIVE_DEFERRED = {1: 0xBF, 2: 0xDF, 4: 0xFF}


def _pointer_cell(asm, value):
    """Jump over a pointer to a longword ``value``; the pointer sits
    before the code so a hand-encoded displacement can reach back to it."""
    asm.instr("BRB", "code")
    asm.align(4)
    asm.label("pointer")
    asm.long_ref("target")
    asm.label("target")
    asm.long(value)
    asm.label("code")


def _relative_deferred(asm, width):
    """Hand-encode ``@B^pointer`` (``@W^``, ``@L^``): the displacement
    is relative to the PC just past itself."""
    asm.byte(_RELATIVE_DEFERRED[width])
    end = asm.label("displacement") + width
    emit = {1: asm.byte, 2: asm.word, 4: asm.long}[width]
    emit(asm.symbols["pointer"] - end)


class TestPCRelativeDeferred:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_read(self, harness, width):
        _pointer_cell(harness.asm, 0x600DF00D)
        harness.asm.byte(opcode_by_mnemonic("MOVL").code)
        _relative_deferred(harness.asm, width)
        harness.asm.byte(0x50)  # R0
        harness.asm.instr("HALT")
        harness.run()
        assert harness.reg(0) == 0x600DF00D
        counts = harness.machine.events.specifier_counts
        assert counts[("spec1", "displacement_deferred")] == 1

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_write(self, harness, width):
        _pointer_cell(harness.asm, 0)
        harness.asm.byte(opcode_by_mnemonic("MOVL").code, 0x37)  # S^#55
        _relative_deferred(harness.asm, width)
        harness.asm.instr("HALT")
        harness.run()
        assert harness.mem(harness.asm.symbols["target"]) == 55
        counts = harness.machine.events.specifier_counts
        assert counts[("spec26", "displacement_deferred")] == 1

    def test_long_displacement_deferred_write(self, harness):
        harness.asm.instr("MOVAL", "base", "R1")
        harness.asm.instr("MOVL", "S^#55", "@L^4(R1)")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("base")
        harness.asm.long(0)
        harness.asm.long_ref("target")
        harness.asm.label("target")
        harness.asm.long(0)
        harness.run()
        assert harness.mem(harness.asm.symbols["target"]) == 55
        assert harness.reg(1) == harness.asm.symbols["base"]


class TestIndexedModes:
    def test_indexed_scales_by_datatype(self, harness):
        harness.asm.instr("MOVAL", "table", "R1")
        harness.asm.instr("MOVL", "#2", "R2")
        harness.asm.instr("MOVL", "(R1)[R2]", "R3")  # longword: index * 4
        harness.asm.instr("MOVW", "(R1)[R2]", "R4")  # word: index * 2
        harness.asm.instr("MOVB", "(R1)[R2]", "R5")  # byte: index * 1
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("table")
        harness.asm.long(0x10101010, 0x20202020, 0x30303030)
        harness.run()
        assert harness.reg(3) == 0x30303030  # table + 2*4
        assert harness.reg(4) & 0xFFFF == 0x2020  # table + 2*2 = bytes 4..5
        assert harness.reg(5) & 0xFF == 0x10  # table + 2*1 = byte 2

    def test_indexed_displacement(self, harness):
        harness.asm.instr("MOVAL", "table", "R1")
        harness.asm.instr("MOVL", "#1", "R2")
        harness.asm.instr("MOVL", "4(R1)[R2]", "R3")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("table")
        harness.asm.long(1, 2, 3)
        harness.run()
        assert harness.reg(3) == 3

    def test_indexed_write(self, harness):
        harness.asm.instr("MOVAL", "table", "R1")
        harness.asm.instr("MOVL", "#1", "R2")
        harness.asm.instr("MOVL", "#0x77", "(R1)[R2]")
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("table")
        harness.asm.long(0, 0)
        harness.run()
        assert harness.mem(harness.asm.symbols["table"] + 4) == 0x77

    def test_indexed_first_specifier_charges_spec26(self, harness):
        """The paper's microcode-sharing quirk: indexed base calculation
        reports under SPEC2-6, even for first specifiers."""
        harness.asm.instr("MOVAL", "table", "R1")
        harness.asm.instr("CLRL", "R2")
        harness.asm.instr("TSTL", "(R1)[R2]")  # indexed FIRST specifier
        harness.asm.instr("HALT")
        harness.asm.align(4)
        harness.asm.label("table")
        harness.asm.long(5)
        harness.run()
        counts, _ = harness.monitor.board.dump()
        index_routine = harness.machine.layout.index_shared
        from repro.ucode.microword import MicroSlot

        assert counts[index_routine.address(MicroSlot.COMPUTE_A)] >= 1
        # ... while the event counters still record it architecturally as
        # a first specifier (Table 4's "Percent Indexed" SPEC1 column).
        assert harness.machine.events.indexed_specifiers["spec1"] == 1


class TestSideEffectAccounting:
    def test_table4_rows_recorded(self, harness):
        harness.asm.instr("MOVL", "#5", "R0")  # literal + register
        harness.asm.instr("MOVL", "(R0)", "R1")  # register deferred
        harness.asm.instr("HALT")
        harness.run()
        events = harness.machine.events
        assert events.specifier_counts[("spec1", "short_literal")] == 1
        assert events.specifier_counts[("spec26", "register")] >= 1
        assert events.specifier_counts[("spec1", "register_deferred")] == 1

    def test_specifier_bytes_counted(self, harness):
        harness.asm.instr("MOVL", "I^#100000", "R0")  # 5-byte + 1-byte specs
        harness.asm.instr("HALT")
        harness.run()
        assert harness.machine.events.specifier_bytes >= 6


#: Access types an addressing mode cannot serve: (instruction, how many
#: specifiers are counted before the illegal one raises).
_ILLEGAL = {
    "literal written": (("CLRL", "S^#5"), 0),
    "literal modified": (("INCL", "S^#1"), 0),
    "immediate written": (("MOVL", "R0", "I^#1"), 1),
    "register as address": (("MOVAL", "R1", "R2"), 0),
}


class TestIllegalAccess:
    @pytest.mark.parametrize("case", sorted(_ILLEGAL))
    def test_raises_before_counting(self, harness, case):
        instruction, counted = _ILLEGAL[case]
        harness.asm.instr(*instruction)
        harness.asm.instr("HALT")
        with pytest.raises(IllegalInstruction):
            harness.run()
        events = harness.machine.events
        assert sum(events.specifier_counts.values()) == counted


class TestIllegalAccessNeverCompiles:
    @pytest.mark.parametrize("case", sorted(_ILLEGAL))
    def test_no_record_forms(self, case, monkeypatch):
        # Interpreted past its sightings, with a recorder attached from
        # the second on: the raise leaves no record in either cache.
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        recorders = []

        class Recorder(replay.Recorder):
            def __init__(self, layout):
                super().__init__(layout)
                recorders.append(self)

        monkeypatch.setattr(replay, "Recorder", Recorder)
        instruction, _ = _ILLEGAL[case]
        asm = Assembler(origin=0x200)
        asm.instr("NOP")
        asm.instr(*instruction)
        asm.instr("HALT")
        image = asm.assemble()
        opcode = image[1:2]
        layout = build_layout(fresh=True)
        for _ in range(replay._COMPILE_MIN_SIGHTINGS + 1):
            machine = VAX780(monitor=UPCMonitor.build(), layout=layout)
            machine.load_program(image, 0x200)
            with pytest.raises(IllegalInstruction):
                machine.run()
            assert not any(
                record.raw.startswith(opcode)
                for record in machine.ebox._record_cache.values()
            )
        assert any(bytes(recorder.raw[:1]) == opcode for recorder in recorders)
        records = replay._layout_cache(layout)[0]
        assert not any(raw.startswith(opcode) for raw in records)
