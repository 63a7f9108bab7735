"""A cheap structured event channel for the compiled hot path.

The :class:`~repro.obs.trace.Tracer` narrates every microcycle, which
is exactly why attaching one forces the EBOX back onto the interpreted
path — the compiled replay (repro.core.compile) charges whole
instructions at a time and has nothing to say per cycle.  That left the
JIT observability-dark: the faster the simulator got, the less we could
see of *why*.

:class:`EventChannel` is the narrow channel that works *with* the
compiled path enabled.  It records only compile lifecycle events — a
record compiled, an interpreter fallback and its cause — each a single
tuple appended to a bounded ring.  Emission sites sit on the compiler's
own slow paths (resolution, fallback), never inside the replay loop, so
an attached channel leaves the replayed instruction stream
bit-identical (tests assert this).

Events normalize into the same record shape the trace query engine
consumes (:meth:`EventChannel.to_trace_events`), on a synthetic "JIT"
track, so ``repro query`` can answer "why did this instruction fall
back to the interpreter" over either a live channel or a store that
archived one.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import List, Optional, Tuple

#: The synthetic track compile-lifecycle events normalize onto (the five
#: Tracer tracks narrate the pipeline; this one narrates the compiler).
JIT_TRACK = "JIT"

#: Event kinds, in lifecycle order.
KIND_RECORD_FORMED = "record formed"
KIND_FALLBACK = "fallback"

KINDS = (KIND_RECORD_FORMED, KIND_FALLBACK)


class EventChannel:
    """A bounded ring of ``(cycle, kind, label, value)`` tuples.

    ``kind`` is one of :data:`KINDS`; ``label`` is the one categorical
    annotation worth keeping (a mnemonic or a fallback cause);
    ``value`` is a small integer payload (a record's byte length, a
    fallback's VA).  Strictly passive and bounded, like the tracer;
    unlike the tracer, attaching one does not change which execution
    path runs.
    """

    def __init__(self, capacity: int = 65_536):
        if capacity <= 0:
            raise ValueError("channel capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._emitted = 0

    # -- emission (the compiler side) ----------------------------------

    def emit(self, cycle: int, kind: str, label: str, value: int = 0) -> None:
        self._emitted += 1
        self._events.append((cycle, kind, label, value))

    # -- readout -------------------------------------------------------

    def events(self) -> List[Tuple[int, str, str, int]]:
        """Retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def emitted(self) -> int:
        return self._emitted

    @property
    def dropped(self) -> int:
        return self._emitted - len(self._events)

    def clear(self) -> None:
        self._events.clear()
        self._emitted = 0

    def kind_counts(self) -> Counter:
        """How many of each lifecycle kind the ring retains."""
        return Counter(kind for _cycle, kind, _label, _value in self._events)

    def label_counts(self, kind: str) -> Counter:
        """Label histogram for one kind (e.g. fallback causes)."""
        return Counter(
            label
            for _cycle, event_kind, label, _value in self._events
            if event_kind == kind
        )

    def to_trace_events(self) -> List[tuple]:
        """The retained events in :meth:`Tracer.events` tuple shape.

        ``(phase, track, ts, name, dur, args)`` instants on the
        :data:`JIT_TRACK` track — the adapter that lets
        :class:`repro.obs.query.TraceQuery` and the v2 store treat
        lifecycle events exactly like pipeline events.  ``label`` rides
        in ``args`` so the store's aux column picks it up.
        """
        return [
            ("I", JIT_TRACK, cycle, kind, value, {"reason": label} if label else None)
            for cycle, kind, label, value in self._events
        ]


def merged_events(*channels: Optional[EventChannel]) -> List[tuple]:
    """Trace-shaped events from several channels, cycle-ordered."""
    out: List[tuple] = []
    for channel in channels:
        if channel is not None:
            out.extend(channel.to_trace_events())
    out.sort(key=lambda event: event[2])
    return out
