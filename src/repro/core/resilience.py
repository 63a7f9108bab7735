"""Failure policy and structured failure reporting for the engine.

The paper's monitor survived a week of live timesharing because losing
one histogram readout did not abort the experiment; this module gives
the simulator's engine the same property.  A
:class:`ResiliencePolicy` tells the executor's retry loop (behind
every :class:`~repro.core.scheduler.Scheduler` sweep, sharded or not)
how hard to fight for a result — retry budgets with exponential backoff,
per-spec wall-clock timeouts, how many process-pool deaths to tolerate
before degrading to in-process execution — and whether a spec that
still fails should abort the sweep (``on_error="raise"``, the
historical behaviour) or be collected into a structured
:class:`FailureReport` alongside the partial results
(``on_error="collect"``).  Every spec is one task of that loop: its
shard-level self-healing (quarantine and, with a cache, the repair
pass) happens inside the attempt, and the policy's retries wrap the
whole spec.

Everything here is plain data: reports serialize to JSON so an
interrupted or partially-failed sweep leaves a machine-readable account
of what finished, what failed and why — the resume story is simply
re-running the sweep, because the run cache replays every finished
shard and the engine recomputes only what is missing.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

#: Exit status the CLI maps an interrupted sweep to (128 + SIGINT).
INTERRUPT_EXIT_CODE = 130


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff.

    ``max_attempts`` counts every execution, so ``1`` means "no
    retries" (the engine's historical fail-fast behaviour) and ``3``
    means the original try plus two retries.  The delay before retry
    *n* is ``backoff_base * backoff_factor ** (n - 1)`` capped at
    ``backoff_max`` seconds.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def backoff(self, failures: int) -> float:
        """Seconds to wait after the ``failures``-th consecutive failure."""
        if failures <= 0:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (failures - 1),
        )


@dataclass
class SpecFailure:
    """One spec that failed after its whole retry budget.

    ``kind`` is ``"error"`` (the spec raised), ``"timeout"`` (exceeded
    the per-spec wall-clock budget), ``"pool-crash"`` (a pool worker
    died abruptly while the spec was in flight) or ``"interrupted"``.
    A sharded spec's failure also carries its per-shard status map.
    """

    name: str
    index: int
    attempts: int
    kind: str
    error: str
    worker_traceback: str = ""
    shard_status: Dict[int, str] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return asdict(self)

    def engine_error(self):
        """The :class:`~repro.core.executor.EngineError` a raise-mode
        sweep surfaces for this failure."""
        from repro.core.executor import EngineError

        return EngineError(
            self.name, self.worker_traceback or self.error, self.shard_status
        )


@dataclass
class FailureReport:
    """The structured account a fail-soft or interrupted sweep returns."""

    total: int = 0
    completed: List[str] = field(default_factory=list)
    failures: List[SpecFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_respawns: int = 0
    degraded: bool = False
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["failures"] = [failure.to_dict() for failure in self.failures]
        return payload

    def save(self, path: str) -> str:
        """Persist as JSON (the resumable partial-sweep record)."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "FailureReport":
        with open(path) as handle:
            payload = json.load(handle)
        failures = [SpecFailure(**failure) for failure in payload.pop("failures", [])]
        for failure in failures:  # JSON object keys are strings
            failure.shard_status = {
                int(index): status for index, status in failure.shard_status.items()
            }
        report = cls(**payload)
        report.failures = failures
        return report

    def summary(self) -> str:
        """One line for logs: '3/5 completed, 2 failed (1 retry, ...)'."""
        parts = [
            "{}/{} completed".format(len(self.completed), self.total),
        ]
        if self.failures:
            parts.append("{} failed".format(len(self.failures)))
        if self.retries:
            parts.append("{} retries".format(self.retries))
        if self.timeouts:
            parts.append("{} timeouts".format(self.timeouts))
        if self.pool_respawns:
            parts.append("{} pool respawns".format(self.pool_respawns))
        if self.degraded:
            parts.append("degraded to in-process")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts)


@dataclass
class ResiliencePolicy:
    """How the engine should behave when a run misbehaves.

    The default policy reproduces the historical engine exactly: one
    attempt, no timeout, fail-fast ``EngineError``.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) receives the
    retry/timeout/respawn/quarantine counters; ``interrupt_report_path``
    is where a Ctrl-C'd sweep persists its partial
    :class:`FailureReport`.  ``sleep`` exists for tests.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    spec_timeout: Optional[float] = None
    on_error: str = "raise"
    max_pool_respawns: int = 2
    metrics: Optional[object] = None
    interrupt_report_path: Optional[str] = None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self):
        if self.on_error not in ("raise", "collect"):
            raise ValueError(
                "on_error must be 'raise' or 'collect', got {!r}".format(self.on_error)
            )

    @classmethod
    def from_options(
        cls,
        retries: int = 0,
        spec_timeout: Optional[float] = None,
        on_error: str = "raise",
        metrics=None,
        interrupt_report_path: Optional[str] = None,
    ) -> "ResiliencePolicy":
        """The CLI-flag spelling: ``--retries N`` means N *extra* tries."""
        return cls(
            retry=RetryPolicy(max_attempts=max(1, retries + 1)),
            spec_timeout=spec_timeout,
            on_error=on_error,
            metrics=metrics,
            interrupt_report_path=interrupt_report_path,
        )

    def record_report(self, report: FailureReport) -> None:
        """Fold a finished sweep's counters into the metrics registry."""
        if self.metrics is None:
            return
        registry = self.metrics
        registry.counter("engine.retries", "spec retries performed").inc(report.retries)
        registry.counter("engine.spec_timeouts", "specs that exceeded their wall-clock budget").inc(report.timeouts)
        registry.counter("engine.pool_respawns", "process pools respawned after a death or timeout").inc(report.pool_respawns)
        registry.counter("engine.spec_failures", "specs that failed after their whole retry budget").inc(len(report.failures))
        if report.degraded:
            registry.gauge("engine.degraded", "1 when the sweep fell back to in-process execution").set(1)


@dataclass
class SweepResult:
    """What a fail-soft (``on_error="collect"``) sweep returns.

    ``runs`` is index-aligned with the input specs — ``None`` marks a
    spec that failed; its story is in ``report.failures``.
    """

    runs: List[Optional[object]]
    report: FailureReport

    @property
    def results(self) -> List[object]:
        """The successful EngineRuns, input order preserved."""
        return [run for run in self.runs if run is not None]


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep.

    Raised after the engine has cancelled outstanding futures, shut the
    pool down and (when the policy names a path) persisted the partial
    :class:`FailureReport` — so the interrupt is still an interrupt, but
    nothing is orphaned and the sweep is resumable.
    """

    def __init__(self, report: Optional[FailureReport] = None, payloads=None, failures=None, stats=None):
        super().__init__("sweep interrupted")
        self.report = report
        self.payloads = payloads if payloads is not None else {}
        self.failures = failures if failures is not None else {}
        self.stats = stats if stats is not None else {}
