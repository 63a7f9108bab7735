"""The invariant checker: identities hold on honest runs, a seeded
miscount fault trips exactly the right identity with the right blame."""

import pytest

from repro.obs.invariants import (
    Check,
    CheckReport,
    check_trace,
    run_checked_workload,
)
from repro.testing.faults import FaultPlan, FaultRule

INSTRUCTIONS = 3_000
WARMUP = 500


def test_identity_equality_and_blame():
    ok = Check.identity("cycles.classified", "d", lhs=5, rhs=5)
    bad = Check.identity("cycles.classified", "d", lhs=5, rhs=6)
    assert ok.ok and not bad.ok
    assert bad.blame == "monitor"
    assert bad.to_dict()["ok"] is False


def test_report_rolls_up_failures():
    report = CheckReport(name="x")
    report.checks.append(Check.identity("a", "d", 1, 1))
    assert report.ok
    report.checks.append(Check.identity("b", "d", 1, 2))
    assert not report.ok
    assert [outcome.name for outcome in report.failures] == ["b"]


@pytest.mark.parametrize("workload", ["timesharing_light", "scientific"])
def test_identities_hold_on_honest_runs(workload):
    report, result = run_checked_workload(
        workload, instructions=INSTRUCTIONS, warmup_instructions=WARMUP
    )
    assert report.ok, [outcome.to_dict() for outcome in report.failures]
    assert result.instructions > 0
    names = {outcome.name for outcome in report.checks}
    assert "cycles.classified" in names
    assert "memory.read_miss_split" in names


def test_trace_identities_hold_and_match_counters():
    report, _result = run_checked_workload(
        "timesharing_light",
        instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
        trace=True,
    )
    assert report.ok, [outcome.to_dict() for outcome in report.failures]
    assert not report.skipped
    names = {outcome.name for outcome in report.checks}
    assert {"trace.instructions", "trace.page_faults", "trace.interrupts"} <= names


def test_miscount_fault_trips_the_cycle_identity(tmp_path):
    plan = FaultPlan(
        rules=[FaultRule(site="monitor.dump", action="miscount", times=1)],
        seed=7,
        state_dir=str(tmp_path),
    )
    with plan.active():
        report, _result = run_checked_workload(
            "timesharing_light",
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
        )
    assert not report.ok
    failed = {outcome.name for outcome in report.failures}
    assert failed == {"cycles.classified"}
    (outcome,) = report.failures
    assert outcome.blame == "monitor"
    # Localization names the decode dispatch, the busiest compute-slot
    # bucket, where the phantom stalled cycles landed.
    assert "decode.dispatch" in outcome.detail
    assert "COMPUTE_A" in outcome.detail
    # The phantom count is deterministic in the plan seed.
    assert outcome.actual - outcome.expected == 1007


def test_fault_is_readout_only_not_live_banks(tmp_path):
    """The same run re-reduced from a clean dump must agree with an
    undisturbed run: the miscount damages the readout copy only."""
    plan = FaultPlan(
        rules=[FaultRule(site="monitor.dump", action="miscount", times=1)],
        seed=7,
        state_dir=str(tmp_path),
    )
    with plan.active():
        _report, faulted = run_checked_workload(
            "timesharing_light",
            instructions=INSTRUCTIONS,
            warmup_instructions=WARMUP,
        )
    clean_report, clean = run_checked_workload(
        "timesharing_light", instructions=INSTRUCTIONS, warmup_instructions=WARMUP
    )
    assert clean_report.ok
    # Non-histogram instruments are untouched by the readout fault.
    assert faulted.events.instructions == clean.events.instructions
    assert faulted.stats == clean.stats


def test_trace_identities_skip_when_ring_dropped():
    outcomes, skipped = check_trace([], whole_run_events=None, dropped=3)
    assert outcomes == []
    assert set(skipped) == {
        "trace.instructions",
        "trace.page_faults",
        "trace.interrupts",
    }
    assert all("dropped 3" in reason for reason in skipped.values())


def test_checked_workload_skips_loudly_on_an_overflowed_ring():
    """An undersized ring must surface in ``report.skipped`` — silently
    omitting the trace identities would read as checked-and-passed."""
    report, _result = run_checked_workload(
        "timesharing_light",
        instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
        trace=True,
        tracer_capacity=64,
    )
    assert set(report.skipped) == {
        "trace.instructions",
        "trace.page_faults",
        "trace.interrupts",
    }
    assert all("dropped" in reason for reason in report.skipped.values())
    # the counter identities still ran and still hold
    assert report.ok
    assert any(
        outcome.name == "cycles.classified" for outcome in report.checks
    )


def test_checked_workload_without_tracer_has_no_trace_checks():
    """trace=False is the tracer-absent path: no trace identities run
    and nothing is reported skipped — absence is stated, not implied."""
    report, _result = run_checked_workload(
        "timesharing_light",
        instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
        trace=False,
    )
    assert report.skipped == {}
    assert not any(
        outcome.name.startswith("trace.") for outcome in report.checks
    )


def test_localization_is_silent_when_every_cycle_classifies():
    from repro.core.experiment import prepare_workload
    from repro.obs.invariants import localize_unclassified

    # Raw banks from an honest run: nothing to localize.
    kernel, monitor = prepare_workload("timesharing_light")
    kernel.run(max_instructions=500)
    counts, stalled = monitor.board.dump()
    assert localize_unclassified(counts, stalled, kernel.machine.layout) == ""


class TestCLI:
    def test_check_passes_on_an_honest_workload(self, capsys):
        from repro.cli import main

        assert main([
            "check", "timesharing_light",
            "--instructions", str(INSTRUCTIONS), "--warmup", str(WARMUP),
        ]) == 0
        out = capsys.readouterr().out
        assert "all hold" in out
        assert "cycles.classified" in out

    def test_check_exits_1_and_localizes_under_fault(self, tmp_path, capsys):
        from repro.cli import main

        plan = FaultPlan(
            rules=[FaultRule(site="monitor.dump", action="miscount", times=1)],
            seed=7,
            state_dir=str(tmp_path),
        )
        with plan.active():
            code = main([
                "check", "timesharing_light",
                "--instructions", str(INSTRUCTIONS), "--warmup", str(WARMUP),
            ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL cycles.classified" in out
        assert "blame: monitor" in out
        assert "decode.dispatch" in out

    def test_check_json_emits_the_stable_envelope(self, capsys):
        import json

        from repro.cli import main
        from repro.obs.invariants import SCHEMA_VERSION

        assert main([
            "check", "timesharing_light", "--json",
            "--instructions", str(INSTRUCTIONS), "--warmup", str(WARMUP),
        ]) == 0
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == SCHEMA_VERSION
        assert envelope["command"] == "check"
        assert envelope["ok"] is True
        assert envelope["summary"]["failures"] == 0
        (report,) = envelope["reports"]
        assert report["ok"] is True
        assert {
            check["name"] for check in report["checks"]
        } >= {"cycles.classified", "instructions.opcodes"}
