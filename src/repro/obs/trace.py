"""Cycle-level event tracing: the simulator's logic analyzer.

The hardware monitor answers "*where* did the cycles go"; the tracer
answers "*when*".  Components emit spans and instants into a bounded
ring buffer — instruction boundaries, microroutine entry/exit, read and
write stalls, TB and cache misses, IB activity, context switches,
interrupts — timestamped in EBOX cycles (the 780's 200 ns microcycle).

Design constraints, in order:

1. **Passive.**  Emitting an event only reads simulator state.  Tracing
   on versus off produces bit-identical histograms and CPI (tests
   assert this).
2. **Near-zero cost when off.**  Tracing is off by default (the
   module-level :data:`TRACING_DEFAULT_OFF` contract): a machine built
   without a tracer stores ``None`` and every instrumentation site is a
   single ``is not None`` test on a locally bound attribute, placed on
   per-instruction or per-event paths — never on the per-microcycle
   path.  The perf gate in ``benchmarks/perf/bench_engine.py`` asserts
   the tracing-off overhead on the BENCH_engine workload stays ≤ 2%.
3. **Bounded.**  The ring keeps the most recent ``capacity`` events and
   counts what it dropped; a runaway trace cannot exhaust memory.

Exports: Chrome trace-event JSON (loadable in Perfetto or
``about://tracing``; one track per pipeline stage) and the indexed
binary store of :mod:`repro.obs.query` (:func:`~repro.obs.query.write_store`
/ :func:`~repro.obs.query.open_store`).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, IO, List, Optional, Union

#: The documented default: no tracer is constructed, machines wire
#: ``tracer=None``, and instrumentation sites cost one None-test on an
#: event path.  (A flag rather than a mutable global: enabling tracing
#: means passing a :class:`Tracer` into the run, never flipping shared
#: state that could leak between experiments.)
TRACING_DEFAULT_OFF = True

#: Event phases, Chrome trace-event vocabulary: B(egin)/E(nd) span
#: brackets, X (complete span with duration), I (instant).
PHASE_BEGIN = "B"
PHASE_END = "E"
PHASE_COMPLETE = "X"
PHASE_INSTANT = "I"

#: One track per pipeline stage (plus the OS), rendered as one Chrome
#: "thread" each.  Order fixes the tid assignment, so exports are
#: deterministic.
TRACKS = ("EBOX", "UCODE", "IFETCH", "MEM", "VMS")

#: The 780's microcycle, for converting cycle timestamps to wall-ish
#: time in the Chrome export (ts is in microseconds there).
MICROCYCLE_NS = 200


def tracing_enabled(tracer: Optional["Tracer"]) -> bool:
    """The guard every instrumentation site reduces to."""
    return tracer is not None


class Tracer:
    """A bounded ring buffer of trace events, cycle-timestamped.

    Components call :meth:`instant`, :meth:`complete`, or the
    :meth:`begin`/:meth:`end` pair; analysis calls :meth:`events`,
    :meth:`to_chrome`, or :func:`repro.obs.query.write_store`.
    """

    def __init__(self, capacity: int = 262_144):
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._emitted = 0
        #: open B spans per track, for well-formedness bookkeeping
        self._open_spans: Dict[str, List[str]] = {track: [] for track in TRACKS}

    # -- emission (the simulator side) ---------------------------------

    def instant(self, track: str, ts: int, name: str, args: Optional[dict] = None) -> None:
        """A point event: a cache miss, a redirect, a context switch."""
        self._emitted += 1
        self._events.append((PHASE_INSTANT, track, ts, name, 0, args))

    def complete(
        self, track: str, ts: int, name: str, dur: int, args: Optional[dict] = None
    ) -> None:
        """A span known only at its end: a stall episode, a miss service."""
        self._emitted += 1
        self._events.append((PHASE_COMPLETE, track, ts, name, dur, args))

    def begin(self, track: str, ts: int, name: str, args: Optional[dict] = None) -> None:
        """Open a span (an instruction, a microroutine) on ``track``."""
        self._emitted += 1
        self._open_spans[track].append(name)
        self._events.append((PHASE_BEGIN, track, ts, name, 0, args))

    def end(self, track: str, ts: int, args: Optional[dict] = None) -> None:
        """Close the innermost open span on ``track``."""
        self._emitted += 1
        name = self._open_spans[track].pop() if self._open_spans[track] else ""
        self._events.append((PHASE_END, track, ts, name, 0, args))

    # -- readout (the analysis side) -----------------------------------

    def events(self) -> List[tuple]:
        """The retained events, oldest first, as plain tuples
        ``(phase, track, ts, name, dur, args)``."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def emitted(self) -> int:
        """Total events emitted, including any the ring dropped."""
        return self._emitted

    @property
    def dropped(self) -> int:
        """Events pushed out of the bounded ring (oldest-first)."""
        return self._emitted - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._emitted = 0
        for spans in self._open_spans.values():
            del spans[:]

    # -- Chrome trace-event export -------------------------------------

    def to_chrome(self) -> dict:
        """The Chrome trace-event JSON object (Perfetto/about://tracing).

        One process ("VAX-11/780"), one named thread per pipeline-stage
        track.  ``ts``/``dur`` are microseconds derived from the 200 ns
        microcycle; the raw cycle numbers ride along in ``args``.
        """
        tids = {track: tid for tid, track in enumerate(TRACKS, start=1)}
        trace_events: List[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "VAX-11/780"},
            }
        ]
        for track, tid in tids.items():
            trace_events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
            trace_events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        scale = MICROCYCLE_NS / 1000.0  # cycles -> microseconds
        depth = {track: 0 for track in TRACKS}  # drop orphan E's (ring overflow)
        for phase, track, ts, name, dur, args in self._events:
            if phase == PHASE_BEGIN:
                depth[track] += 1
            elif phase == PHASE_END:
                if depth[track] <= 0:
                    continue
                depth[track] -= 1
            event = {
                "name": name,
                "ph": phase,
                "pid": 1,
                "tid": tids[track],
                "ts": round(ts * scale, 4),
            }
            merged_args = {"cycle": ts}
            if args:
                merged_args.update(args)
            if phase == PHASE_COMPLETE:
                event["dur"] = round(dur * scale, 4)
                merged_args["cycles"] = dur
            event["args"] = merged_args
            trace_events.append(event)
        # Close spans still open when the capture ended (mid-instruction
        # stop): synthesize E's at the last timestamp seen on the track.
        last_ts = 0.0
        for event in trace_events:
            if event["ph"] != "M":
                end_ts = event["ts"] + event.get("dur", 0)
                if end_ts > last_ts:
                    last_ts = end_ts
        for track, open_count in depth.items():
            for _ in range(open_count):
                trace_events.append(
                    {"name": "", "ph": "E", "pid": 1, "tid": tids[track], "ts": last_ts, "args": {}}
                )
        return {
            "traceEvents": trace_events,
            "displayTimeUnit": "ns",
            "otherData": {
                "source": "repro-vax780",
                "microcycle_ns": MICROCYCLE_NS,
                "events_emitted": self._emitted,
                "events_dropped": self.dropped,
            },
        }

    def write_chrome(self, destination: Union[str, IO[str]]) -> None:
        """Serialize :meth:`to_chrome` to a path or text file object."""
        payload = self.to_chrome()
        if hasattr(destination, "write"):
            json.dump(payload, destination)
        else:
            with open(destination, "w") as handle:
                json.dump(payload, handle)


# -- validation (used by tests and the trace CLI) ------------------------


def validate_chrome(payload: dict) -> List[str]:
    """Structural checks on a Chrome trace-event object.

    Returns a list of problems (empty means valid): per-track timestamps
    must be monotonically non-decreasing, and every B must pair with an
    E on the same track, properly nested.
    """
    problems: List[str] = []
    if "traceEvents" not in payload:
        return ["missing traceEvents"]
    last_ts: Dict[int, float] = {}
    open_spans: Dict[int, List[str]] = {}
    for index, event in enumerate(payload["traceEvents"]):
        phase = event.get("ph")
        if phase == "M":
            continue
        tid = event.get("tid")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append("event {} has no numeric ts".format(index))
            continue
        if ts < last_ts.get(tid, float("-inf")):
            problems.append(
                "event {} ts {} regresses on tid {} (last {})".format(
                    index, ts, tid, last_ts[tid]
                )
            )
        last_ts[tid] = ts
        if phase == "B":
            open_spans.setdefault(tid, []).append(event.get("name", ""))
        elif phase == "E":
            if not open_spans.get(tid):
                problems.append("event {} E without open B on tid {}".format(index, tid))
            else:
                open_spans[tid].pop()
        elif phase == "X":
            if event.get("dur", 0) < 0:
                problems.append("event {} has negative dur".format(index))
        elif phase != "I":
            problems.append("event {} has unknown phase {!r}".format(index, phase))
    for tid, spans in open_spans.items():
        for name in spans:
            problems.append("unclosed span {!r} on tid {}".format(name, tid))
    return problems
