"""Persist and reload measurement results.

The original experiments banked their raw UPC histograms on the measured
machine itself ("the data collected was immediately available on a
machine of sufficient capacity to do the data reduction") and re-analysed
them repeatedly.  This module provides the same workflow: dump a raw
histogram (or a full :class:`~repro.core.experiment.ExperimentResult`) to
JSON, reload it later, and re-run any table against it without re-running
the machine.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Optional

from repro.core.experiment import ExperimentResult, MachineStats
from repro.core.monitor import HistogramBoard
from repro.core.reduction import Reduction, reduce_histogram
from repro.cpu.events import EventCounters
from repro.ucode.routines import MicrocodeLayout, build_layout

FORMAT_VERSION = 1


def histogram_to_dict(board: HistogramBoard) -> Dict:
    """Serialize a histogram board's two banks (sparsely)."""
    counts, stalled = board.dump()
    return {
        "version": FORMAT_VERSION,
        "buckets": board.buckets,
        "counts": {str(i): c for i, c in enumerate(counts) if c},
        "stalled": {str(i): c for i, c in enumerate(stalled) if c},
    }


def histogram_from_dict(payload: Dict) -> HistogramBoard:
    """Rebuild a histogram board from :func:`histogram_to_dict` output."""
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported histogram format {!r}".format(payload.get("version")))
    board = HistogramBoard(buckets=payload["buckets"])
    board.start()
    for bucket, count in payload["counts"].items():
        board.strobe(int(bucket), repeat=count)
    for bucket, count in payload["stalled"].items():
        board.strobe(int(bucket), stalled=True, repeat=count)
    board.stop()
    return board


#: The one EventCounters field whose Counter keys are tuples; on the
#: wire they are ``"position|row"`` strings.
_TUPLE_KEYED = "specifier_counts"


def _events_to_dict(events: EventCounters) -> Dict:
    payload = {}
    for name in events.__dataclass_fields__:
        value = getattr(events, name)
        if name == _TUPLE_KEYED:
            value = {"{}|{}".format(*key): count for key, count in value.items()}
        elif isinstance(value, Counter):
            value = dict(value)
        payload[name] = value
    return payload


def _events_from_dict(payload: Dict) -> EventCounters:
    events = EventCounters()
    for name in events.__dataclass_fields__:
        value = payload[name]
        if name == _TUPLE_KEYED:
            value = {tuple(key.split("|", 1)): count for key, count in value.items()}
        if isinstance(getattr(events, name), Counter):
            getattr(events, name).update(value)
        else:
            setattr(events, name, value)
    return events


def result_to_json(result: ExperimentResult, board: Optional[HistogramBoard] = None) -> str:
    """Serialize an experiment result (optionally with its raw histogram).

    When ``board`` is given the raw banks travel along, so the reloaded
    result can be *re-reduced* against a fresh control-store map; without
    it only the already-reduced matrix is stored.
    """
    payload = {
        "version": FORMAT_VERSION,
        "name": result.name,
        "matrix": result.reduction.matrix,
        "instructions": result.reduction.instructions,
        "total_cycles": result.reduction.total_cycles,
        "routine_cycles": {
            name: list(counts) for name, counts in result.reduction.routine_cycles.items()
        },
        "events": _events_to_dict(result.events),
        "stats": {
            name: getattr(result.stats, name)
            for name in result.stats.__dataclass_fields__
        },
    }
    if board is not None:
        payload["histogram"] = histogram_to_dict(board)
    return json.dumps(payload)


def result_from_json(text: str, layout: Optional[MicrocodeLayout] = None) -> ExperimentResult:
    """Reload an experiment result.

    If the payload carries a raw histogram, it is re-reduced against
    ``layout`` (or a freshly built one); otherwise the stored reduction
    is reconstructed as-is.
    """
    payload = json.loads(text)
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError("unsupported result format {!r}".format(payload.get("version")))
    events = _events_from_dict(payload["events"])
    if "histogram" in payload:
        board = histogram_from_dict(payload["histogram"])
        counts, stalled = board.dump()
        reduction = reduce_histogram(
            counts, stalled, layout if layout is not None else build_layout(), events=events
        )
    else:
        reduction = Reduction(
            matrix=payload["matrix"],
            instructions=payload["instructions"],
            total_cycles=payload["total_cycles"],
            routine_cycles={
                name: tuple(counts)
                for name, counts in payload["routine_cycles"].items()
            },
            events=events,
        )
    stats = MachineStats(**payload["stats"])
    return ExperimentResult(
        name=payload["name"], reduction=reduction, events=events, stats=stats
    )
