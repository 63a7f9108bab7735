"""Unit tests for the resilience policy and failure-report data model."""

import pytest

from repro.core.resilience import (
    FailureReport,
    ResiliencePolicy,
    RetryPolicy,
    SpecFailure,
    SweepResult,
)
from repro.obs.metrics import MetricsRegistry, resilience_counters


class TestRetryPolicy:
    def test_no_backoff_before_any_failure(self):
        assert RetryPolicy().backoff(0) == 0.0

    def test_exponential_growth(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=60.0)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.4)

    def test_capped_at_backoff_max(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_factor=10.0, backoff_max=2.5)
        assert policy.backoff(5) == 2.5

    def test_default_is_fail_fast(self):
        # One attempt = the engine's historical behaviour.
        assert RetryPolicy().max_attempts == 1


class TestResiliencePolicy:
    def test_from_options_counts_retries_as_extra_attempts(self):
        policy = ResiliencePolicy.from_options(retries=2)
        assert policy.retry.max_attempts == 3

    def test_negative_retries_clamp_to_one_attempt(self):
        assert ResiliencePolicy.from_options(retries=-5).retry.max_attempts == 1

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            ResiliencePolicy(on_error="ignore")

    def test_record_report_feeds_metrics(self):
        registry = resilience_counters(MetricsRegistry())
        policy = ResiliencePolicy(metrics=registry)
        report = FailureReport(
            total=4,
            completed=["a", "b"],
            failures=[
                SpecFailure(name="c", index=2, attempts=3, kind="error", error="boom")
            ],
            retries=5,
            timeouts=1,
            pool_respawns=2,
            degraded=True,
        )
        policy.record_report(report)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.retries"] == 5
        assert snapshot["counters"]["engine.spec_timeouts"] == 1
        assert snapshot["counters"]["engine.pool_respawns"] == 2
        assert snapshot["counters"]["engine.spec_failures"] == 1
        assert snapshot["gauges"]["engine.degraded"] == 1


class TestFailureReport:
    def test_ok_semantics(self):
        assert FailureReport(total=3, completed=["a", "b", "c"]).ok
        assert not FailureReport(
            total=1,
            failures=[
                SpecFailure(name="x", index=0, attempts=1, kind="error", error="e")
            ],
        ).ok
        assert not FailureReport(total=1, interrupted=True).ok

    def test_save_load_roundtrip(self, tmp_path):
        report = FailureReport(
            total=3,
            completed=["a"],
            failures=[
                SpecFailure(
                    name="b",
                    index=1,
                    attempts=2,
                    kind="timeout",
                    error="too slow",
                    worker_traceback="Traceback ...",
                    shard_status={0: "computed", 1: "unfilled"},
                )
            ],
            retries=1,
            timeouts=1,
            interrupted=True,
        )
        path = report.save(str(tmp_path / "report.json"))
        again = FailureReport.load(path)
        assert again == report

    def test_summary_mentions_everything(self):
        report = FailureReport(
            total=5,
            completed=["a", "b", "c"],
            failures=[
                SpecFailure(name="d", index=3, attempts=2, kind="error", error="e")
            ],
            retries=2,
            timeouts=1,
            pool_respawns=1,
            degraded=True,
            interrupted=True,
        )
        text = report.summary()
        for fragment in (
            "3/5 completed",
            "1 failed",
            "2 retries",
            "1 timeouts",
            "1 pool respawns",
            "degraded",
            "interrupted",
        ):
            assert fragment in text


class TestSweepResult:
    def test_results_filters_failed_slots(self):
        sweep = SweepResult(
            runs=["run-a", None, "run-c"],
            report=FailureReport(total=3),
        )
        assert sweep.results == ["run-a", "run-c"]
