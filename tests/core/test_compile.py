"""Unit tests for the replay compiler (:mod:`repro.core.compile`).

White-box coverage of the pieces the differential harness exercises
only in aggregate: the sighting-gated resolve cache, first-write-wins
record formation, the length probe, undecodable opcodes, an instruction
longer than the lookahead probe, the side-effect-free and capped
I-stream lookahead, the env/tracer gates, record immutability, ops
shared across records, and the metrics round-trip.
"""

import os

import pytest

from repro.asm import Assembler
from repro.core import compile as replay
from repro.core.experiment import (
    MachineStats,
    prepare_workload,
    result_from_machine,
    run_workload,
)
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780
from repro.cpu.ebox import IllegalInstruction
from repro.isa.opcodes import OPCODES
from repro.obs.metrics import MetricsRegistry
from repro.ucode.routines import build_layout


def encode(*instrs):
    """Assemble instructions at a fixed origin; returns raw bytes."""
    asm = Assembler(origin=0x200)
    for mnemonic, *operands in instrs:
        asm.instr(mnemonic, *operands)
    return asm.assemble()


@pytest.fixture
def layout():
    # A fresh layout gets fresh (empty) module-level record caches,
    # keyed by its control store; tests never see each other's records.
    return build_layout(fresh=True)


def _machine(layout, *instrs):
    """A machine on ``layout`` with ``instrs`` loaded at 0x200."""
    machine = VAX780(monitor=UPCMonitor.build(), layout=layout)
    machine.load_program(encode(*instrs), 0x200)
    return machine


class TestResolve:
    PROGRAM = (("NOP",), ("ADDL2", "#5", "R1"), ("MOVL", "#2", "R3"), ("HALT",))

    def test_second_sighting_asks_for_a_recording(self, layout, monkeypatch):
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        machine = _machine(layout, *self.PROGRAM)
        machine.run(max_instructions=1)  # the NOP; ADDL2 is next
        ebox = machine.ebox
        assert replay.resolve(ebox) is False  # first sighting: counted
        assert replay.resolve(ebox) is True  # second: record this one
        assert replay.resolve(ebox) is False  # the count restarts
        before = ebox.compile_stats.records_compiled
        ebox._form_record(ebox.compile_stats, "unresolved", ebox.ib._decode_va)
        assert ebox.compile_stats.records_compiled == before + 1
        # Another machine at the same point finds the record by its
        # bytes, although its IB holds the next instruction's too.
        other = _machine(layout, *self.PROGRAM)
        other.run(max_instructions=1)
        record = replay.resolve(other.ebox)
        assert isinstance(record, replay.InstructionRecord)
        assert record.mnemonic == "ADDL2"
        assert record.raw == encode(("ADDL2", "#5", "R1"))
        assert len(other.ebox.ib._bytes) > len(record.raw)

    def test_second_recording_keeps_the_first_record(self, layout, monkeypatch):
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        kept = []
        for _ in range(2):
            machine = _machine(layout, ("MOVL", "#1", "R0"), ("HALT",))
            ebox = machine.ebox
            va = ebox.ib._decode_va
            ebox._form_record(ebox.compile_stats, "unresolved", va)
            kept.append((ebox._record_cache[va], ebox.compile_stats.records_compiled))
        (first, formed), (second, formed_again) = kept
        assert second is first
        assert (formed, formed_again) == (1, 0)
        assert replay._layout_cache(layout)[0][first.raw] is first

    def test_probe_finds_cached_record_under_longer_buffer(self, layout, monkeypatch):
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        machine = _machine(layout, *self.PROGRAM)
        machine.run(max_instructions=1)
        ebox = machine.ebox
        ebox._form_record(ebox.compile_stats, "unresolved", ebox.ib._decode_va)
        records, lengths = replay._layout_cache(layout)[:2]
        raw = encode(("ADDL2", "#5", "R1"))
        record = records[raw]
        # A buffer that continues into the next instruction still finds
        # the record through the length probe; one short of it does not.
        longer = bytearray(raw + encode(("MOVL", "#2", "R3")))
        assert replay._lookup(records, lengths, longer) is record
        assert replay._lookup(records, lengths, bytearray(raw[:-1])) is None

    def test_undecodable_opcode_forms_no_record(self, layout, monkeypatch):
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        byte = next(code for code in range(256) if code not in OPCODES)
        image = encode(("NOP",)) + bytes([byte]) + encode(("HALT",))
        for _ in range(replay._COMPILE_MIN_SIGHTINGS + 1):
            machine = VAX780(monitor=UPCMonitor.build(), layout=layout)
            machine.load_program(image, 0x200)
            with pytest.raises(IllegalInstruction, match="undecodable opcode"):
                machine.run()
            assert machine.ebox.compile_stats.records_compiled == 0
        records = replay._layout_cache(layout)[0]
        assert not any(raw[0] == byte for raw in records)


class TestOversizedInstruction:
    # Three indexed longword-displacement specifiers: 19 bytes, longer
    # than any lookahead probe, so its record is found through the VA
    # cache only.
    ADDL3 = ("ADDL3", "L^8(R1)[R2]", "L^8(R3)[R4]", "L^8(R5)[R6]")

    def _run(self, monkeypatch, no_compile):
        if no_compile:
            monkeypatch.setenv(replay.NO_COMPILE_ENV, "1")
        else:
            monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        asm = Assembler(origin=0x200)
        for register in (1, 3, 5):
            asm.instr("MOVAL", "cells", "R{}".format(register))
        asm.instr("MOVL", "#0", "R2")
        asm.instr("MOVL", "#1", "R4")
        asm.instr("MOVL", "#0", "R6")
        asm.instr("MOVL", "#12", "R7")
        asm.label("loop")
        asm.instr(*self.ADDL3)  # cells[2] += cells[3]
        asm.instr("SOBGTR", "R7", "loop")
        asm.instr("HALT")
        asm.align(4)
        asm.label("cells")
        for value in (0, 0, 100, 7):
            asm.long(value)
        image = asm.assemble()
        monitor = UPCMonitor.build()
        machine = VAX780(monitor=monitor, layout=build_layout(fresh=True))
        machine.load_program(image, 0x200)
        monitor.start()
        machine.run()
        monitor.stop()
        ebox = machine.ebox
        state = (
            [ebox.regs.read(index) for index in range(16)],
            machine.read_virtual(image.index(bytes([100, 0, 0, 0])) + 0x200, 4),
            ebox.cycle_count,
            monitor.board.dump(),
            machine.events,
        )
        return state, ebox

    def test_oversized_instruction_replays_bit_identically(self, monkeypatch):
        compiled, ebox = self._run(monkeypatch, no_compile=False)
        interpreted, _ = self._run(monkeypatch, no_compile=True)
        assert len(encode(self.ADDL3)) > replay._MAX_IMAGE
        assert compiled[1] == 100 + 12 * 7
        oversized = [
            record
            for record in ebox._record_cache.values()
            if len(record.raw) > replay._MAX_IMAGE
        ]
        assert [record.mnemonic for record in oversized] == ["ADDL3"]
        assert ebox.compile_stats.jit_hits >= 10
        assert compiled == interpreted


class TestGates:
    def test_env_gate_disables_compilation(self, monkeypatch):
        monkeypatch.setenv(replay.NO_COMPILE_ENV, "1")
        assert replay.compile_disabled_by_env()
        machine = VAX780(monitor=UPCMonitor.build())
        assert not machine.ebox._compile_active

    def test_env_gate_off_by_default(self, monkeypatch):
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        assert not replay.compile_disabled_by_env()
        machine = VAX780(monitor=UPCMonitor.build())
        assert machine.ebox._compile_active

    def test_tracer_forces_slow_path(self, monkeypatch):
        from repro.obs.trace import Tracer

        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        machine = VAX780(monitor=UPCMonitor.build(), tracer=Tracer())
        assert not machine.ebox._compile_active


class TestLookahead:
    def _machine_after_one_instruction(self):
        monitor = UPCMonitor.build()
        machine = VAX780(monitor=monitor)
        program = encode(
            ("MOVL", "#1", "R0"),
            ("ADDL2", "#2", "R1"),
            ("ADDL2", "#3", "R2"),
            ("ADDL2", "#4", "R3"),
            ("ADDL2", "#5", "R4"),
            ("HALT",),
        )
        machine.load_program(program, 0x200)
        machine.run(max_instructions=1)
        return machine, program

    def test_peek_image_matches_the_loaded_program(self):
        machine, program = self._machine_after_one_instruction()
        ebox = machine.ebox
        image = replay.peek_image(ebox)
        offset = ebox.ib._decode_va - 0x200
        expected = program[offset : offset + replay._MAX_IMAGE]
        assert image is not None
        assert image[: len(expected)] == expected
        assert image.startswith(bytes(ebox.ib._bytes))

    def test_image_ready_validates_the_tail(self):
        machine, program = self._machine_after_one_instruction()
        ebox = machine.ebox
        ib = ebox.ib
        buf = ib._bytes
        offset = ib._decode_va - 0x200
        true_image = program[offset : offset + len(buf) + 2]
        if len(true_image) <= len(buf):
            pytest.skip("IB already buffered the whole remaining stream")
        assert replay._image_ready(ebox, ib, buf, true_image)
        wrong = true_image[:-1] + bytes([true_image[-1] ^ 0xFF])
        assert not replay._image_ready(ebox, ib, buf, wrong)

    def test_lookahead_has_no_side_effects(self):
        machine, _ = self._machine_after_one_instruction()
        ebox = machine.ebox
        tb = machine.memory.tb
        before = (tb.stats.hits, tb.stats.misses, ebox.cycle_count)
        replay.peek_image(ebox)
        after = (tb.stats.hits, tb.stats.misses, ebox.cycle_count)
        assert before == after

    def test_peek_image_stops_at_the_cap(self, layout, monkeypatch):
        # The oversized ADDL3 (19 bytes) at the decode point: the probe
        # and the sightings key it counts under both stop at the cap.
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        addl3 = encode(TestOversizedInstruction.ADDL3)
        machine = _machine(layout, ("NOP",), TestOversizedInstruction.ADDL3, ("HALT",))
        machine.run(max_instructions=1)
        ebox = machine.ebox
        image = replay.peek_image(ebox)
        assert len(addl3) > replay._MAX_IMAGE
        assert image == addl3[: replay._MAX_IMAGE]
        assert replay.resolve(ebox) is False
        sightings = replay._layout_cache(layout)[2]
        assert list(sightings) == [addl3[: replay._MAX_IMAGE]]


def _slot_values(obj):
    return tuple(getattr(obj, slot, None) for slot in type(obj).__slots__)


def _record_state(record):
    """Every slot of a record, templates inside its op list included."""
    ops = getattr(record, "ops", ())
    templates = tuple(_slot_values(op[1]) for op in ops if op[0] == replay.OP_SPEC)
    return _slot_values(record), templates


class TestSharedRecords:
    def test_records_are_immutable_after_compilation(self, monkeypatch):
        # Records are shared by every machine on a layout; running a
        # second machine over them must not change a single slot.
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        replay.clear_record_caches()
        try:
            run_workload(
                "timesharing_light", instructions=3_000, warmup_instructions=500
            )
            records = replay._layout_cache(build_layout())[0]
            assert records
            before = {key: _record_state(record) for key, record in records.items()}
            run_workload(
                "timesharing_light", instructions=3_000, warmup_instructions=500
            )
            after = {key: _record_state(records[key]) for key in before}
            assert after == before
        finally:
            replay.clear_record_caches()


class TestSharedOps:
    def test_records_share_their_ops(self, layout, monkeypatch):
        # Same consume shape (opcode byte, two register specifiers),
        # different instructions: every CONSUME is one shared object.
        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        monkeypatch.setattr(replay, "_COMPILE_MIN_SIGHTINGS", 1)
        movl = encode(("MOVL", "R1", "R0"))
        addl2 = encode(("ADDL2", "R2", "R3"))
        _machine(
            layout, ("NOP",), ("MOVL", "R1", "R0"), ("ADDL2", "R2", "R3"), ("HALT",)
        ).run()
        records = replay._layout_cache(layout)[0]
        first, second = records[movl], records[addl2]
        consumes = [
            [op for op in record.ops if op[0] == replay.OP_CONSUME]
            for record in (first, second)
        ]
        assert len(consumes[0]) == len(consumes[1]) == 3
        for mine, theirs in zip(*consumes):
            assert mine is theirs
        shared = replay._layout_cache(layout)[3]
        table = {id(op) for op in shared.values()}
        assert all(
            id(op) in table for op in first.ops if op[0] != replay.OP_SPEC
        )
        assert not any(op[0] == replay.OP_SPEC for op in shared.values())
        replay.clear_record_caches()
        assert replay._layout_cache(layout)[3] == {}

    def test_sharing_changes_no_counter_or_result(self, monkeypatch):
        # The same run with and without the shared op table: identical
        # replay counters and identical results.
        from repro.core.histogram_io import result_to_json

        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)

        def one_run():
            replay.clear_record_caches()
            kernel, monitor = prepare_workload("educational")
            kernel.run(max_instructions=500)
            baseline = MachineStats.from_machine(kernel.machine)
            kernel.start_measurement()
            kernel.run(max_instructions=2_000)
            kernel.stop_measurement()
            result = result_from_machine(
                kernel.machine, monitor, name="educational",
                stats_baseline=baseline,
            )
            stats = kernel.machine.ebox.compile_stats.to_dict()
            return stats, result_to_json(result, monitor.board)

        try:
            shared_stats, shared_json = one_run()
            monkeypatch.setattr(
                replay.Recorder, "build", lambda self: tuple(self.ops)
            )
            private_stats, private_json = one_run()
        finally:
            replay.clear_record_caches()
        assert shared_stats["records_compiled"] > 0
        assert shared_stats["jit_hits"] > 0
        assert shared_stats == private_stats
        assert shared_json == private_json


class TestMetricsRoundTrip:
    def test_record_and_rebuild(self):
        stats = replay.CompileStats(
            routines_specialized=7,
            records_compiled=3,
            jit_hits=90,
            jit_misses=10,
            fast_cycles=900,
            slow_cycles=100,
        )
        registry = MetricsRegistry()
        replay.record_metrics(registry, stats, active=True)
        rebuilt = replay.stats_from_snapshot(registry.snapshot())
        assert rebuilt["jit_hits"] == 90
        assert rebuilt["active"] == 1
        assert rebuilt["routines_specialized"] == 7
        assert rebuilt["fast_instruction_fraction"] == 0.9
        assert rebuilt["fast_cycle_fraction"] == 0.9

    def test_merged_counters_recompute_fractions(self):
        registry = MetricsRegistry()
        replay.record_metrics(
            registry,
            replay.CompileStats(jit_hits=50, jit_misses=50),
            active=True,
        )
        other = MetricsRegistry()
        replay.record_metrics(
            other,
            replay.CompileStats(jit_hits=100, jit_misses=0),
            active=True,
        )
        registry.merge_snapshot(other.snapshot())
        rebuilt = replay.stats_from_snapshot(registry.snapshot())
        # 150 hits / 200 executions across both workers.
        assert rebuilt["fast_instruction_fraction"] == 0.75

    def test_foreign_snapshot_returns_none(self):
        assert replay.stats_from_snapshot({"counters": {}, "gauges": {}}) is None
