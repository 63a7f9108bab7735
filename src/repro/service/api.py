"""The service wire format: specs, runs and errors as plain JSON.

Everything the experiment service ships over HTTP round-trips through
this module.  The conversions are *lossless for declarative payloads*:
a :class:`~repro.core.executor.RunSpec` built from ``MachineConfig``
fields, an :class:`~repro.core.executor.EngineRun` with its result,
sparse histogram and manifest — all survive ``to`` → ``json.dumps`` →
``json.loads`` → ``from`` bit-identically, which is what lets the
concurrent-client tests compare a served result byte-for-byte against
an in-process golden run.

Two shapes need care beyond ``dataclasses.asdict``:

* ``Counter`` objects with tuple keys (the specifier table is keyed by
  ``(position_class, row)``) — JSON objects only take string keys, so
  counters travel as ``[[key, count], ...]`` pairs with tuple keys
  spelled as lists;
* the sparse histogram banks, ``{bucket: count}`` with integer keys —
  same treatment.

``configure`` callables do **not** cross the HTTP boundary: a spec
carrying one is rejected at encode time (:class:`ApiError`).  Ablations
submitted to the service must be declarative ``MachineConfig`` values,
exactly the restriction the process-pool boundary already imposes in
spirit (a closure would also defeat the scheduler's dedupe, whose spec
identity is the config hash).

Errors travel as the envelope :func:`error_envelope` builds —
:class:`~repro.core.executor.EngineError` keeps its constructor extras
(spec name, worker traceback, per-shard status) through the JSON
round-trip via its own ``to_payload``/``from_payload``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict
from typing import Dict, List, Optional, Tuple

from repro.core.executor import EngineError, EngineRun, MachineConfig, RunSpec


class ApiError(ValueError):
    """A payload the wire format cannot (or refuses to) carry."""


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------


def spec_to_payload(spec: RunSpec) -> Dict:
    """A spec as JSON — declarative fields only."""
    if spec.configure is not None:
        raise ApiError(
            "spec {!r} carries a configure callable; the service API only"
            " accepts declarative MachineConfig ablations".format(spec.name)
        )
    return {
        "workload": spec.workload,
        "instructions": spec.instructions,
        "warmup_instructions": spec.warmup_instructions,
        "process_count": spec.process_count,
        "seed_offset": spec.seed_offset,
        "config": None if spec.config is None else asdict(spec.config),
        "label": spec.label,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


#: Every RunSpec field the wire format carries except ``config``:
#: name -> (check, what the check expects).
_SPEC_FIELDS = {
    "workload": (lambda value: isinstance(value, str), "a string"),
    "instructions": (_is_count, "a non-negative integer"),
    "warmup_instructions": (_is_count, "a non-negative integer"),
    "process_count": (lambda value: value is None or _is_count(value),
                      "a non-negative integer or null"),
    "seed_offset": (_is_int, "an integer"),
    "label": (lambda value: value is None or isinstance(value, str),
              "a string or null"),
}


def _refuse(name: str, expected: str, value) -> None:
    raise ApiError("{} must be {}, got {!r}".format(name, expected, value))


def spec_from_payload(payload: Dict) -> RunSpec:
    """A :class:`RunSpec` from its JSON form, type-checked field by field.

    Anything the engine would choke on later (a string instruction
    count, a non-object config) raises :class:`ApiError` here, so the
    service refuses it with a 400 instead of queueing a doomed job.
    Workload names are not checked against the registry: an unknown one
    fails in the worker with an :class:`EngineError` naming the spec.
    """
    if not isinstance(payload, dict):
        raise ApiError("spec payload must be an object, got {!r}".format(payload))
    if "workload" not in payload:
        raise ApiError("spec payload is missing 'workload'")
    fields = dict(payload)
    config = fields.pop("config", None)
    unknown = set(fields) - set(_SPEC_FIELDS)
    if unknown:
        raise ApiError(
            "spec payload has unknown fields: {}".format(", ".join(sorted(unknown)))
        )
    for name, value in fields.items():
        check, expected = _SPEC_FIELDS[name]
        if not check(value):
            _refuse(name, expected, value)
    if config is not None:
        if not isinstance(config, dict):
            _refuse("config", "an object or null", config)
        bad = set(config) - set(MachineConfig.__dataclass_fields__)
        if bad:
            raise ApiError(
                "config payload has unknown fields: {}".format(", ".join(sorted(bad)))
            )
        for name, value in config.items():
            if name == "decode_overlap":
                ok, expected = isinstance(value, bool), "a boolean or null"
            else:
                ok, expected = _is_int(value), "an integer or null"
            if value is not None and not ok:
                _refuse("config." + name, expected, value)
        config = MachineConfig(**config)
    return RunSpec(config=config, **fields)


# ----------------------------------------------------------------------
# counters / histogram banks (non-string keys)
# ----------------------------------------------------------------------


def _counter_to_pairs(counter: Counter) -> List:
    pairs = []
    for key in sorted(counter, key=repr):
        value = counter[key]
        pairs.append([list(key) if isinstance(key, tuple) else key, value])
    return pairs


def _counter_from_pairs(pairs: List) -> Counter:
    counter: Counter = Counter()
    for key, value in pairs:
        counter[tuple(key) if isinstance(key, list) else key] = value
    return counter


def _sparse_to_pairs(sparse: Dict[int, int]) -> List:
    return [[bucket, count] for bucket, count in sorted(sparse.items())]


def _sparse_from_pairs(pairs: List) -> Dict[int, int]:
    return {int(bucket): int(count) for bucket, count in pairs}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

_COUNTER_FIELDS = (
    "opcode_counts",
    "branch_executed",
    "branch_taken",
    "specifier_counts",
    "indexed_specifiers",
    "reads_by_source",
    "writes_by_source",
)


def _events_to_payload(events) -> Dict:
    payload = {}
    for name in events.__dataclass_fields__:
        value = getattr(events, name)
        payload[name] = (
            _counter_to_pairs(value) if name in _COUNTER_FIELDS else value
        )
    return payload


def _events_from_payload(payload: Dict):
    from repro.cpu.events import EventCounters

    events = EventCounters()
    for name, value in payload.items():
        setattr(
            events,
            name,
            _counter_from_pairs(value) if name in _COUNTER_FIELDS else value,
        )
    return events


def result_to_payload(result) -> Dict:
    """An :class:`~repro.core.experiment.ExperimentResult` as JSON."""
    reduction = result.reduction
    return {
        "name": result.name,
        "reduction": {
            "matrix": reduction.matrix,
            "instructions": reduction.instructions,
            "total_cycles": reduction.total_cycles,
            "routine_cycles": {
                name: list(cycles)
                for name, cycles in reduction.routine_cycles.items()
            },
            # reduce_histogram links the run's event counters into the
            # reduction; record whether that link exists so the decode
            # side can restore the same object graph.
            "events_linked": reduction.events is not None,
        },
        "events": _events_to_payload(result.events),
        "stats": asdict(result.stats),
    }


def result_from_payload(payload: Dict):
    from repro.core.experiment import ExperimentResult, MachineStats
    from repro.core.reduction import Reduction

    events = _events_from_payload(payload["events"])
    encoded = payload["reduction"]
    reduction = Reduction(
        matrix=encoded["matrix"],
        instructions=encoded["instructions"],
        total_cycles=encoded["total_cycles"],
        routine_cycles={
            name: tuple(cycles)
            for name, cycles in encoded["routine_cycles"].items()
        },
        events=events if encoded.get("events_linked") else None,
    )
    return ExperimentResult(
        name=payload["name"],
        reduction=reduction,
        events=events,
        stats=MachineStats(**payload["stats"]),
    )


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def run_to_payload(run: EngineRun) -> Dict:
    counts, stalled = run.histogram
    return {
        "spec": spec_to_payload(run.spec),
        "result": result_to_payload(run.result),
        "histogram": {
            "counts": _sparse_to_pairs(counts),
            "stalled": _sparse_to_pairs(stalled),
        },
        "wall_seconds": run.wall_seconds,
        "manifest": None if run.manifest is None else run.manifest.to_dict(),
        "metrics": run.metrics,
        "shard_count": run.shard_count,
        "shards_from_cache": run.shards_from_cache,
    }


def run_from_payload(payload: Dict) -> EngineRun:
    from repro.obs.provenance import RunManifest

    manifest = payload.get("manifest")
    return EngineRun(
        spec=spec_from_payload(payload["spec"]),
        result=result_from_payload(payload["result"]),
        histogram=(
            _sparse_from_pairs(payload["histogram"]["counts"]),
            _sparse_from_pairs(payload["histogram"]["stalled"]),
        ),
        wall_seconds=payload["wall_seconds"],
        manifest=None if manifest is None else RunManifest(**manifest),
        metrics=payload.get("metrics"),
        shard_count=payload.get("shard_count", 1),
        shards_from_cache=payload.get("shards_from_cache", 0),
    )


def run_summary(run: EngineRun, digest: Optional[str] = None) -> Dict:
    """The job-record view of one run: provenance, not payload."""
    manifest = run.manifest
    return {
        "name": run.spec.name,
        "digest": digest,
        "wall_seconds": run.wall_seconds,
        "instructions": run.result.instructions,
        "cpi": run.result.cpi,
        "shard_count": run.shard_count,
        "shards_from_cache": run.shards_from_cache,
        "attached_to": None if manifest is None else manifest.attached_to,
        "resumed_from": None if manifest is None else manifest.resumed_from,
        "attempts": 1 if manifest is None else manifest.attempts,
    }


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------


def error_envelope(error: BaseException) -> Dict:
    """Any exception as a JSON error body; EngineError keeps its extras."""
    if isinstance(error, EngineError):
        return error.to_payload()
    return {
        "type": type(error).__name__,
        "message": str(error),
        "args": [repr(arg) for arg in error.args],
    }


def error_from_envelope(payload: Dict) -> BaseException:
    """Reconstruct the server-side failure; EngineError round-trips."""
    if payload.get("type") == "EngineError":
        return EngineError.from_payload(payload)
    return RuntimeError(
        "{}: {}".format(payload.get("type", "Error"), payload.get("message", ""))
    )
