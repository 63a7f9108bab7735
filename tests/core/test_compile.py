"""Unit tests for the replay compiler (:mod:`repro.core.compile`).

White-box coverage of the pieces the differential harness exercises
only in aggregate: the sighting-gated resolve cache, the retry backoff
for chronically short probes, NeverRecord witnesses, the 16-byte image
cap, the side-effect-free I-stream lookahead, the env/tracer gates,
record immutability, and the metrics round-trip.
"""

import os

import pytest

from repro.asm import Assembler
from repro.core import compile as replay
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780
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


class TestResolve:
    def test_two_sightings_before_compiling(self, layout):
        image = encode(("MOVL", "#1", "R0"))
        stats = replay.CompileStats()
        assert replay.resolve(layout, bytearray(image), stats) is None
        assert stats.records_compiled == 0
        record = replay.resolve(layout, bytearray(image), stats)
        assert record is not None and not record.never
        assert record.mnemonic == "MOVL"
        assert bytes(record.raw) == image
        assert stats.records_compiled == 1

    def test_probe_finds_cached_record_under_longer_buffer(self, layout):
        image = encode(("ADDL2", "#5", "R1"))
        replay.resolve(layout, bytearray(image))
        record = replay.resolve(layout, bytearray(image))
        # A buffer that continues into the next instruction still
        # resolves to the same record via the length probe.
        longer = bytearray(image + encode(("MOVL", "#2", "R3")))
        assert replay.resolve(layout, longer) is record

    def test_short_probe_sets_retry_backoff(self, layout):
        image = encode(("MOVL", "I^#305419896", "R0"))  # 7 bytes
        probe = bytearray(image[:3])
        assert replay.resolve(layout, probe) is None  # sighting 1
        assert replay.resolve(layout, probe) is None  # compile attempt
        _, _, sightings = replay._layout_cache(layout)
        key = bytes(probe[: replay._MAX_IMAGE])
        # The failed attempt (ran out of bytes) pushed the counter far
        # negative so the next executions skip recompiling.
        assert sightings[key] == (
            replay._COMPILE_MIN_SIGHTINGS - 1 - replay._RETRY_BACKOFF
        )
        # The full image is a different key and compiles normally.
        replay.resolve(layout, bytearray(image))
        record = replay.resolve(layout, bytearray(image))
        assert record is not None and record.mnemonic == "MOVL"

    def test_never_record_for_unknown_opcode(self, layout):
        # Find a first byte with no execute semantics; the compiler
        # must return a NeverRecord witness rather than raising.
        never = None
        for byte in range(256):
            raw = bytes([byte]) + b"\x00" * (replay._MAX_IMAGE - 1)
            try:
                record = replay.compile_record(layout, raw)
            except replay._NeedMoreBytes:
                continue
            if record.never:
                never = raw
                break
        assert never is not None, "every opcode byte compiled?"
        stats = replay.CompileStats()
        assert replay.resolve(layout, bytearray(never), stats) is None
        witness = replay.resolve(layout, bytearray(never), stats)
        assert witness.never
        assert stats.uncompilable == 1
        assert stats.records_compiled == 0


class TestImageCap:
    def test_take_past_cap_is_uncompilable(self):
        cursor = replay._Cursor(b"\x00" * replay._MAX_IMAGE, 15)
        with pytest.raises(replay._Uncompilable):
            cursor.take(2)

    def test_take_past_buffer_needs_more_bytes(self):
        cursor = replay._Cursor(b"\x00" * 6, 4)
        with pytest.raises(replay._NeedMoreBytes):
            cursor.take(4)  # end 8 <= cap, just not buffered yet

    def test_oversized_instruction_never_compiles(self, layout):
        # Three indexed longword-displacement specifiers: 19 bytes.
        image = encode(
            ("ADDL3", "L^8(R1)[R2]", "L^8(R3)[R4]", "L^8(R5)[R6]")
        )
        assert len(image) > replay._MAX_IMAGE
        record = replay.compile_record(layout, image[: replay._MAX_IMAGE])
        assert record.never


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
        from repro.core.experiment import run_workload

        monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
        replay.clear_record_caches()
        try:
            run_workload(
                "timesharing_light", instructions=3_000, warmup_instructions=500
            )
            records = replay._layout_cache(build_layout())[0]
            assert any(not record.never for record in records.values())
            before = {key: _record_state(record) for key, record in records.items()}
            run_workload(
                "timesharing_light", instructions=3_000, warmup_instructions=500
            )
            after = {key: _record_state(records[key]) for key in before}
            assert after == before
        finally:
            replay.clear_record_caches()


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
