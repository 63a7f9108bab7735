"""Compile-lifecycle events: the channel captures record formation and
fallbacks with the compiled path *enabled*, attaching it never perturbs
the machine, and a forced interpreter fallback is loud (warning +
metric)."""

import pytest

from repro.core import compile as replay
from repro.core.experiment import run_workload
from repro.obs.channel import (
    KIND_FALLBACK,
    KIND_RECORD_FORMED,
    EventChannel,
)
from repro.obs.metrics import MetricsRegistry, registry_from_result
from repro.obs.trace import Tracer

INSTRUCTIONS = 3_000
WARMUP = 500


@pytest.fixture(autouse=True)
def _own_the_gates(monkeypatch):
    monkeypatch.delenv(replay.NO_COMPILE_ENV, raising=False)
    replay.clear_record_caches()
    yield
    replay.clear_record_caches()


def channel_run(**kwargs):
    channel = EventChannel()
    metrics = MetricsRegistry()
    result = run_workload(
        "timesharing_light",
        instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
        compile_events=channel,
        metrics=metrics,
        **kwargs,
    )
    compiled = replay.stats_from_snapshot(metrics.snapshot())
    return channel, result, compiled


def reason_tally(compiled, prefix):
    return {
        key.split(".", 1)[1]: value
        for key, value in compiled.items()
        if key.startswith(prefix + ".")
    }


class TestChannelCapture:
    def test_lifecycle_kinds_appear_on_a_hot_run(self):
        channel, _result, _compiled = channel_run()
        kinds = channel.kind_counts()
        assert kinds.get(KIND_RECORD_FORMED, 0) > 0
        assert kinds.get(KIND_FALLBACK, 0) > 0

    def test_fallback_labels_match_the_stats_cause_tally(self):
        channel, _result, compiled = channel_run()
        assert compiled is not None
        causes = reason_tally(compiled, "fallback")
        assert channel.label_counts(KIND_FALLBACK) == causes
        assert set(causes) <= {"byte_mismatch", "unresolved"}

    def test_events_adapt_to_trace_tuples(self):
        channel, _result, _compiled = channel_run()
        events = channel.to_trace_events()
        assert len(events) == len(channel)
        phase, track, ts, name, dur, args = events[0]
        assert phase == "I"
        assert track == "JIT"
        assert isinstance(ts, int)

    def test_channel_is_bounded_and_counts_drops(self):
        channel = EventChannel(capacity=4)
        for cycle in range(10):
            channel.emit(cycle, KIND_RECORD_FORMED, "MOVL")
        assert len(channel) == 4
        assert channel.emitted == 10
        assert channel.dropped == 6


class TestPassivity:
    def test_channel_does_not_perturb_the_run(self):
        channel, observed, _compiled = channel_run()
        assert channel.emitted > 0
        bare = run_workload(
            "timesharing_light",
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
        )
        assert observed.reduction.matrix == bare.reduction.matrix
        assert observed.events.instructions == bare.events.instructions
        assert observed.stats == bare.stats

    def test_compiled_path_stays_active_with_channel(self):
        _channel, _result, compiled = channel_run()
        assert compiled is not None and compiled["active"]
        assert compiled["jit_hits"] > 0


class TestTracerFallback:
    def test_tracer_disables_compile_and_is_metered(self):
        metrics = MetricsRegistry()
        run_workload(
            "timesharing_light",
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
            tracer=Tracer(capacity=1 << 20),
            metrics=metrics,
        )
        snapshot = metrics.snapshot()
        assert snapshot["counters"].get("sim.compile.disabled_by_tracer") == 1
        compiled = replay.stats_from_snapshot(snapshot)
        assert compiled is not None
        assert not compiled.get("active")
        assert compiled.get("disabled_by_tracer") == 1

    def test_fallback_warning_reaches_stderr(self, capsys):
        run_workload(
            "timesharing_light",
            instructions=700,
            warmup_instructions=200,
            tracer=Tracer(capacity=1 << 20),
        )
        err = capsys.readouterr().err
        assert "compiled hot path disabled" in err

    def test_untraced_run_emits_no_fallback_metric(self):
        metrics = MetricsRegistry()
        run_workload(
            "timesharing_light",
            instructions=700,
            warmup_instructions=200,
            metrics=metrics,
        )
        assert (
            "sim.compile.disabled_by_tracer" not in metrics.snapshot()["counters"]
        )
