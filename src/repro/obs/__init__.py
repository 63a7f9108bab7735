"""repro.obs — the observability layer.

The paper's whole method was observability: a passive board watching the
micro-PC without perturbing the machine.  This package turns the same
discipline on the simulator itself:

* :mod:`repro.obs.trace` — cycle-level event tracing into a bounded ring
  buffer, exported as Chrome trace-event JSON (Perfetto-loadable) or
  the indexed store below.  Off by default; near-zero cost when off.
* :mod:`repro.obs.metrics` — typed counters / gauges / histograms plus
  wall-clock self-profiling of the simulator (phase timings,
  instructions/sec, cycles/sec).
* :mod:`repro.obs.query` — the indexed VAXTRACE v2 store and the
  filter/aggregate query engine behind ``repro query`` (live tracers
  and stored captures answer the same questions).
* :mod:`repro.obs.channel` — the bounded compile-lifecycle event
  channel (record formation, interpreter fallbacks) that, unlike a
  tracer, leaves the compiled hot path enabled.
* :mod:`repro.obs.invariants` — counter-identity checking between the
  independent instruments (``repro check``), with subsystem and
  micro-routine localization of any disagreement.
* :mod:`repro.obs.log` — a small structured logger for the CLI and the
  engine (level from ``--verbose``/``-q`` or the ``REPRO_LOG`` env var).
* :mod:`repro.obs.provenance` — run manifests: config hash, seeds, code
  version and timings attached to every :class:`~repro.core.executor.EngineRun`.

Like the monitor, every collector here only *receives* notifications —
nothing in this package holds a reference into the machine, and tracing
on versus off produces bit-identical histograms (asserted by tests).
"""

from repro.obs.channel import EventChannel
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import RunManifest
from repro.obs.query import TraceQuery, open_store, write_store
from repro.obs.trace import Tracer, tracing_enabled

__all__ = [
    "EventChannel",
    "MetricsRegistry",
    "RunManifest",
    "TraceQuery",
    "Tracer",
    "get_logger",
    "open_store",
    "tracing_enabled",
    "write_store",
]
