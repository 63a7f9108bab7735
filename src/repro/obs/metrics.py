"""Typed metrics: counters, gauges, histograms, and phase timers.

The reporting edge used to reach straight into ``EventCounters`` and
``MachineStats`` fields; this module gives those reads one typed,
self-describing surface — and adds the dimension the simulator never
had: wall-clock self-profiling (how fast is the *simulation*, phase by
phase), so BENCH JSONs and ``repro stats`` can report
instructions/second and cycles/second alongside the simulated numbers.

Everything is plain data — a snapshot is a JSON-ready dict — and
deterministic given deterministic inputs (timers obviously measure real
wall time; tests treat those fields as > 0, not as exact values).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Union

Number = Union[int, float]


class MetricTypeError(TypeError):
    """A metric name was re-registered as a different type."""


class Counter:
    """A monotonically increasing count (events, instructions, cycles)."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError("counter {} cannot decrease".format(self.name))
        self.value += amount

    def snapshot(self) -> Number:
        return self.value


class Gauge:
    """A point-in-time value (CPI, instructions/sec, queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def snapshot(self) -> Number:
        return self.value


def percentile(sorted_samples: List[Number], q: Number) -> float:
    """The q-th percentile of an ascending sample list, linearly
    interpolated between order statistics (numpy's default method,
    reimplemented so the toolchain stays stdlib-only)."""
    if not sorted_samples:
        return 0.0
    if len(sorted_samples) == 1:
        return float(sorted_samples[0])
    rank = (q / 100.0) * (len(sorted_samples) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_samples) - 1)
    fraction = rank - low
    return float(
        sorted_samples[low] + (sorted_samples[high] - sorted_samples[low]) * fraction
    )


class Histogram:
    """A distribution: count / sum / min / max / mean, plus percentiles
    over a bounded sample reservoir.

    Deliberately bucket-free — the micro-PC board is the bucketed
    instrument around here; this class summarizes wall-clock samples
    (phase durations, per-run wall seconds).  The first
    :data:`SAMPLE_CAP` observations are retained verbatim so snapshots
    can report p50/p90/p99 (``repro stats`` renders those, not raw
    moments); keep-first is deterministic where reservoir sampling
    would need a seed, and the metrics here see far fewer observations
    than the cap.
    """

    kind = "histogram"

    #: retained observations per histogram; beyond this, percentiles
    #: describe the first SAMPLE_CAP samples (count/sum/min/max stay
    #: exact).
    SAMPLE_CAP = 4096

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.count = 0
        self.sum: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.samples: List[Number] = []

    def observe(self, value: Number) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self.SAMPLE_CAP:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: Number) -> float:
        return percentile(sorted(self.samples), q)

    def snapshot(self) -> Dict[str, Number]:
        ordered = sorted(self.samples)
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.min is not None else 0,
            "max": self.max if self.max is not None else 0,
            "mean": self.mean,
            "p50": percentile(ordered, 50),
            "p90": percentile(ordered, 90),
            "p99": percentile(ordered, 99),
            "samples": list(self.samples),
        }


class MetricsRegistry:
    """Get-or-create registry of typed metrics.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when the name is already registered (raising
    :class:`MetricTypeError` on a type clash), so instrumentation sites
    never need to coordinate registration order.
    """

    def __init__(self):
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get_or_create(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise MetricTypeError(
                "metric {!r} is a {}, requested as {}".format(
                    name, metric.kind, cls.kind
                )
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    @contextmanager
    def timer(self, name: str, help: str = ""):
        """Time a phase into the histogram ``name`` (seconds)."""
        histogram = self.histogram(name, help)
        started = time.perf_counter()
        try:
            yield histogram
        finally:
            histogram.observe(time.perf_counter() - started)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict]:
        """All metrics as a JSON-ready dict, grouped by kind."""
        grouped: Dict[str, Dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            grouped[metric.kind + "s"][name] = metric.snapshot()
        return grouped

    def merge_snapshot(self, snapshot: Dict[str, Dict]) -> None:
        """Fold a worker's snapshot into this registry.

        Counters add; gauges take the incoming value; histograms fold
        their moments.  This is how per-spec self-profiling collected in
        pool workers aggregates on the coordinator.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, stats in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name)
            if stats["count"] == 0:
                continue
            histogram.count += stats["count"]
            histogram.sum += stats["sum"]
            if histogram.min is None or stats["min"] < histogram.min:
                histogram.min = stats["min"]
            if histogram.max is None or stats["max"] > histogram.max:
                histogram.max = stats["max"]
            room = Histogram.SAMPLE_CAP - len(histogram.samples)
            if room > 0:
                histogram.samples.extend(stats.get("samples", [])[:room])


#: Names the resilience layer reports through a policy's registry
#: (see :meth:`repro.core.resilience.ResiliencePolicy.record_report`
#: and :func:`repro.core.executor.execute_spec`).  Pre-registered by
#: :func:`resilience_counters` so dashboards see zeros, not absences.
RESILIENCE_COUNTERS = (
    ("engine.retries", "spec retries performed"),
    ("engine.spec_timeouts", "specs that exceeded their wall-clock budget"),
    ("engine.pool_respawns", "process pools respawned after a death or timeout"),
    ("engine.spec_failures", "specs that failed after their whole retry budget"),
    ("engine.quarantined_objects", "corrupt cache objects quarantined"),
    ("engine.repaired_shards", "shards recomputed by the repair pass"),
)


def resilience_counters(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Pre-register the engine's fault-tolerance counters at zero."""
    registry = registry if registry is not None else MetricsRegistry()
    for name, help_text in RESILIENCE_COUNTERS:
        registry.counter(name, help_text)
    registry.gauge(
        "engine.degraded", "1 when a sweep fell back to in-process execution"
    )
    return registry


def registry_from_result(result, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Expose an :class:`~repro.core.experiment.ExperimentResult` through
    the metrics surface — the typed replacement for ad-hoc
    ``EventCounters``/``MachineStats`` field reads at the reporting edge
    (``repro stats`` renders exactly this).
    """
    registry = registry if registry is not None else MetricsRegistry()
    events = result.events
    stats = result.stats
    reduction = result.reduction

    registry.gauge("sim.cpi", "cycles per average instruction").set(result.cpi)
    registry.counter("sim.instructions", "measured instructions").inc(
        reduction.instructions
    )
    registry.counter("sim.cycles", "measured cycles (both banks)").inc(
        int(reduction.total_cycles)
    )
    for column, cycles in reduction.column_totals().items():
        registry.counter(
            "sim.cycles.{}".format(column), "cycles in the {} column".format(column)
        ).inc(int(cycles))

    registry.counter("events.interrupts_delivered").inc(events.interrupts_delivered)
    registry.counter("events.context_switches").inc(events.context_switches)
    registry.counter("events.page_faults").inc(events.page_faults)
    registry.counter("events.branch_displacements").inc(events.branch_displacements)
    registry.counter("events.instruction_bytes").inc(events.instruction_bytes)

    registry.counter("machine.ib_references").inc(stats.ib_references)
    registry.counter("machine.cache_read_hits").inc(stats.cache_read_hits)
    registry.counter("machine.cache_read_misses").inc(stats.cache_read_misses)
    registry.counter("machine.cache_write_hits").inc(stats.cache_write_hits)
    registry.counter("machine.cache_write_misses").inc(stats.cache_write_misses)
    registry.counter("machine.tb_hits").inc(stats.tb_hits)
    registry.counter("machine.tb_misses").inc(stats.tb_misses)
    registry.counter("machine.write_buffer_writes").inc(stats.write_buffer_writes)
    registry.counter("machine.write_buffer_stall_cycles").inc(
        stats.write_buffer_stall_cycles
    )
    registry.counter("machine.sbi_reads").inc(stats.sbi_reads)
    registry.counter("machine.sbi_writes").inc(stats.sbi_writes)

    instructions = max(1, reduction.instructions)
    registry.gauge("sim.cache_read_misses_per_instruction").set(
        stats.cache_read_misses / instructions
    )
    registry.gauge("sim.tb_misses_per_instruction").set(stats.tb_misses / instructions)
    return registry
