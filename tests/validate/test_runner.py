"""The refutation runner end to end: every probe's ground truth holds
on the honest machine in every compile mode, a seeded cycle-model skew
is refuted with the right micro-routine blamed, and the CLI exits
non-zero on refutation.
"""

import pytest

from repro.testing.faults import FaultPlan, FaultRule, uninstall
from repro.validate import (
    ALL_MODES,
    RefutationRunner,
    ValidationError,
    build_probes,
    canonical_names,
    execute_probe,
    resolve_metric,
)

PROBES = build_probes()


@pytest.fixture(autouse=True)
def disarmed():
    uninstall()
    yield
    uninstall()


def skew_plan(tmp_path, routine, seed=3):
    return FaultPlan(
        rules=[
            FaultRule(site="costs.skew", action="skew", match=routine, times=-1)
        ],
        seed=seed,
        state_dir=str(tmp_path / "faults"),
    )


class TestResolveMetric:
    def test_unknown_metric_is_loud(self):
        run = execute_probe(PROBES["reg_mov_chain"], "compiled")
        with pytest.raises(ValidationError, match="unknown expectation metric"):
            resolve_metric("nonsense.path", run.reduction, run.events, run.stats)

    def test_routine_metric_reads_both_slots(self):
        run = execute_probe(PROBES["reg_mov_chain"], "compiled")
        cycles = run.metric("routine.decode.dispatch.cycles")
        stalled = run.metric("routine.decode.dispatch.stalled")
        assert cycles > 0 and stalled >= 0


class TestRunnerPlumbing:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="unknown mode"):
            RefutationRunner(modes=("jit",))

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValidationError, match="unknown probe"):
            RefutationRunner(modes=("compiled",), trace=False).run(["nope"])

    def test_crossmode_checks_pin_every_other_arm(self):
        report = RefutationRunner(trace=False).run_probe(PROBES["reg_mov_chain"])
        names = {outcome.name for outcome in report.checks}
        assert "crossmode.compiled" in names
        assert report.ok

    def test_crossmode_names_the_first_divergent_leaf(self, monkeypatch):
        """The arms are compared as serialized results, so a counter the
        probe's expectations never mention still pins the arms."""
        import repro.validate.runner as runner_module

        honest = runner_module.execute_probe

        def drifted(probe, mode, tracer=None):
            run = honest(probe, mode, tracer=tracer)
            if mode == "compiled":
                run.events.page_faults += 1
            return run

        monkeypatch.setattr(runner_module, "execute_probe", drifted)
        report = RefutationRunner(trace=False).run_probe(PROBES["reg_mov_chain"])
        (failure,) = report.failures
        assert failure.name == "crossmode.compiled"
        assert failure.blame == "compile"
        assert failure.detail.startswith("events.page_faults: ")

    def test_tiny_trace_ring_skips_loudly(self):
        runner = RefutationRunner(
            modes=("interpreted",), trace=True, tracer_capacity=8
        )
        report = runner.run_probe(PROBES["reg_mov_chain"])
        assert "trace.instruction_spans" in report.skipped
        assert "dropped" in report.skipped["trace.instruction_spans"]
        # dropped trace must not fail the probe — it is skipped, loudly
        assert report.ok


class TestModelHolds:
    """The acceptance gate: every probe, every mode, traced arm included."""

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_probe_holds_in_all_modes(self, name):
        report = RefutationRunner(modes=ALL_MODES, trace=True).run_probe(
            PROBES[name]
        )
        assert report.ok, [outcome.to_dict() for outcome in report.failures]
        assert not report.skipped

    def test_canonical_set_is_runnable_by_name(self):
        reports = RefutationRunner(modes=("compiled",), trace=False).run(
            canonical_names()
        )
        assert len(reports) == 5
        assert all(report.ok for report in reports)


class TestRefutation:
    def test_skewed_specifier_charge_is_refuted_with_blame(self, tmp_path):
        with skew_plan(tmp_path, "spec1.register").active():
            report = RefutationRunner(modes=("compiled",), trace=False).run_probe(
                PROBES["reg_mov_chain"]
            )
        assert not report.ok
        failed = {outcome.name: outcome for outcome in report.failures}
        assert "matrix.spec1.compute" in failed
        # the bank-level check localizes to the bank, the per-routine
        # check to the exact micro-routine that was skewed
        assert failed["matrix.spec1.compute"].blame == "spec1"
        assert failed["routine.spec1.register.cycles"].blame == "spec1.register"
        # 64 moves, 1 + seed % 4 = 4 phantom cycles per register source
        outcome = failed["matrix.spec1.compute"]
        assert outcome.actual == 64 + 64 * 4

    def test_skewed_execute_charge_blames_the_exec_routine(self, tmp_path):
        with skew_plan(tmp_path, "exec.clrl").active():
            report = RefutationRunner(modes=("compiled",), trace=False).run_probe(
                PROBES["merge_elision"]
            )
        assert not report.ok
        blames = {outcome.blame for outcome in report.failures}
        assert "exec.clrl" in blames

    def test_skew_fools_the_identity_checker_but_not_validate(self, tmp_path):
        """The asymmetry the issue asks for: a wrong charge honestly
        counted passes every counter identity — only the analytic
        ground truth refutes it."""
        from repro.core.experiment import ExperimentResult
        from repro.obs.invariants import check_result

        with skew_plan(tmp_path, "spec1.register").active():
            run = execute_probe(PROBES["reg_mov_chain"], "compiled")
        outcomes = check_result(
            ExperimentResult(
                name="skewed",
                reduction=run.reduction,
                events=run.events,
                stats=run.stats,
            ),
            run.counts,
            run.stalled,
            run.layout,
        )
        assert outcomes
        assert all(outcome.ok for outcome in outcomes), [
            outcome.to_dict() for outcome in outcomes if not outcome.ok
        ]


class TestCLI:
    def test_validate_passes_on_the_honest_machine(self, capsys):
        from repro.cli import main

        code = main(["validate", "--probe", "reg_mov_chain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all hold" in out

    def test_validate_exits_1_and_blames_under_skew(self, tmp_path, capsys):
        from repro.cli import main

        with skew_plan(tmp_path, "spec1.register").active():
            code = main([
                "validate", "--probe", "reg_mov_chain",
                "--mode", "compiled", "--no-trace",
            ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "blame: spec1.register" in out

    def test_validate_json_envelope_under_skew(self, tmp_path, capsys):
        import json

        from repro.cli import main

        with skew_plan(tmp_path, "exec.clrl").active():
            code = main([
                "validate", "--probe", "merge_elision",
                "--mode", "compiled", "--no-trace", "--json",
            ])
        assert code == 1
        envelope = json.loads(capsys.readouterr().out)
        assert envelope["schema"] == "repro.check/v1"
        assert envelope["command"] == "validate"
        assert envelope["ok"] is False
        assert envelope["summary"]["failures"] > 0

    def test_unknown_probe_exits_2(self, capsys):
        from repro.cli import main

        assert main(["validate", "--probe", "nope"]) == 2
        assert "unknown probe" in capsys.readouterr().out

    def test_list_names_the_registry(self, capsys):
        from repro.cli import main

        assert main(["validate", "--list"]) == 0
        out = capsys.readouterr().out
        for name in PROBES:
            assert name in out
        assert "canonical" in out
