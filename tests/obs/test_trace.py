"""The tracer itself: ring bound, exports, validation, round-trips.

The binary round-trips go through the indexed store of
:mod:`repro.obs.query`, the one binary trace format."""

import io
import json

import pytest

from repro.obs.query import normalize, open_store, write_store
from repro.obs.trace import (
    TRACKS,
    Tracer,
    tracing_enabled,
    validate_chrome,
)


def test_tracing_enabled_is_the_none_test():
    assert not tracing_enabled(None)
    assert tracing_enabled(Tracer())


def test_events_retained_in_order():
    tracer = Tracer()
    tracer.begin("EBOX", 0, "MOVL")
    tracer.instant("MEM", 3, "cache read miss", {"va": 0x200})
    tracer.complete("MEM", 3, "read stall", 6)
    tracer.end("EBOX", 9)
    phases = [event[0] for event in tracer.events()]
    assert phases == ["B", "I", "X", "E"]
    assert len(tracer) == 4
    assert tracer.emitted == 4
    assert tracer.dropped == 0


def test_ring_is_bounded_and_counts_drops():
    tracer = Tracer(capacity=8)
    for cycle in range(20):
        tracer.instant("EBOX", cycle, "tick")
    assert len(tracer) == 8
    assert tracer.emitted == 20
    assert tracer.dropped == 12
    # The ring keeps the most recent events.
    assert [event[2] for event in tracer.events()] == list(range(12, 20))


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_clear_resets_everything():
    tracer = Tracer()
    tracer.begin("UCODE", 0, "routine")
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.emitted == 0
    # A fresh end after clear has no open span to close.
    tracer.end("UCODE", 5)
    payload = tracer.to_chrome()
    assert validate_chrome(payload) == []


def test_chrome_export_validates_and_scales_timestamps():
    tracer = Tracer()
    tracer.begin("EBOX", 0, "MOVL", {"va": 0x100})
    tracer.begin("UCODE", 2, "spec1")
    tracer.end("UCODE", 5)
    tracer.complete("MEM", 5, "read stall", 6)
    tracer.end("EBOX", 11)
    payload = tracer.to_chrome()
    assert validate_chrome(payload) == []
    events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
    # 200ns microcycle: cycle 2 -> 0.4 microseconds.
    ucode_begin = next(e for e in events if e["ph"] == "B" and e["name"] == "spec1")
    assert ucode_begin["ts"] == pytest.approx(0.4)
    assert ucode_begin["args"]["cycle"] == 2
    stall = next(e for e in events if e["ph"] == "X")
    assert stall["dur"] == pytest.approx(1.2)
    assert stall["args"]["cycles"] == 6


def test_chrome_export_has_one_named_thread_per_track():
    payload = Tracer().to_chrome()
    names = {
        event["args"]["name"]
        for event in payload["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    }
    assert names == set(TRACKS)


def test_chrome_export_drops_orphan_ends_after_overflow():
    tracer = Tracer(capacity=4)
    tracer.begin("EBOX", 0, "MOVL")
    for cycle in range(1, 6):
        tracer.instant("MEM", cycle, "tick")  # pushes the B out of the ring
    tracer.end("EBOX", 6)
    payload = tracer.to_chrome()
    assert validate_chrome(payload) == []
    assert not any(
        e["ph"] == "E" for e in payload["traceEvents"] if e["ph"] != "M"
    )


def test_chrome_export_closes_spans_left_open():
    tracer = Tracer()
    tracer.begin("EBOX", 0, "MOVL")
    tracer.begin("UCODE", 1, "exec")  # capture stops mid-instruction
    payload = tracer.to_chrome()
    assert validate_chrome(payload) == []
    synthetic = [
        e for e in payload["traceEvents"] if e["ph"] == "E" and e["name"] == ""
    ]
    assert len(synthetic) == 2


def test_chrome_json_round_trips_through_serialization():
    tracer = Tracer()
    tracer.begin("EBOX", 0, "MOVL")
    tracer.end("EBOX", 4)
    buffer = io.StringIO()
    tracer.write_chrome(buffer)
    payload = json.loads(buffer.getvalue())
    assert validate_chrome(payload) == []
    assert payload["otherData"]["microcycle_ns"] == 200


def test_binary_round_trip(tmp_path):
    tracer = Tracer()
    tracer.begin("EBOX", 0, "MOVL", {"va": 1})
    tracer.instant("IFETCH", 2, "redirect")
    tracer.complete("MEM", 3, "read stall", 6, {"routine": "spec1"})
    tracer.end("EBOX", 9)
    path = tmp_path / "dump.vaxtrace"
    write_store(tracer, str(path))
    # args distil into the aux column; everything else survives.
    records = list(open_store(str(path)).iter_records())
    assert records == list(normalize(tracer.events()))
    assert records[2].aux == "spec1"


def test_binary_round_trip_via_files(tmp_path):
    tracer = Tracer()
    for cycle in range(100):
        tracer.instant("VMS", cycle, "tick", {"n": cycle})
    path = tmp_path / "dump.vaxtrace"
    write_store(tracer, str(path))
    store = open_store(str(path))
    records = list(store.iter_records())
    assert len(store) == len(records) == 100
    assert records[0][:4] == ("I", "VMS", 0, "tick")


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bogus.vaxtrace"
    path.write_bytes(b"NOTATRACE")
    with pytest.raises(ValueError):
        open_store(str(path))


def test_validator_flags_regressing_timestamps():
    payload = {
        "traceEvents": [
            {"name": "a", "ph": "I", "pid": 1, "tid": 1, "ts": 5.0, "args": {}},
            {"name": "b", "ph": "I", "pid": 1, "tid": 1, "ts": 4.0, "args": {}},
        ]
    }
    problems = validate_chrome(payload)
    assert any("regresses" in problem for problem in problems)


def test_validator_flags_unpaired_spans():
    payload = {
        "traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 0.0, "args": {}},
        ]
    }
    assert any("unclosed" in p for p in validate_chrome(payload))
    payload = {
        "traceEvents": [
            {"name": "a", "ph": "E", "pid": 1, "tid": 1, "ts": 0.0, "args": {}},
        ]
    }
    assert any("without open B" in p for p in validate_chrome(payload))
