"""Unit tests for the deterministic fault-injection harness.

The harness underwrites every recovery test in the suite, so its own
guarantees — determinism, process-safe occurrence budgets, no-op when
disarmed — get direct coverage here.
"""

import os

import pytest

from repro.testing.faults import (
    FAULTS_ENV,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedFault,
    active_plan,
    corrupt_bytes,
    corrupt_file,
    fire,
    uninstall,
)


@pytest.fixture(autouse=True)
def disarmed():
    """Every test starts and ends with no plan installed."""
    uninstall()
    yield
    uninstall()


def plan_with(tmp_path, *rules, seed=0):
    return FaultPlan(rules=list(rules), seed=seed, state_dir=str(tmp_path / "faults"))


class TestPlanPlumbing:
    def test_json_roundtrip(self, tmp_path):
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="crash", match="scientific", times=2),
            FaultRule(site="cache.get", action="bitflip", probability=0.5),
            seed=7,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan

    def test_unknown_action_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault action"):
            FaultRule(site="worker", action="explode")

    def test_finite_times_needs_state_dir(self):
        plan = FaultPlan(rules=[FaultRule(site="worker", action="raise", times=1)])
        with pytest.raises(FaultPlanError, match="state_dir"):
            plan.install()

    def test_install_and_uninstall(self, tmp_path):
        plan = plan_with(tmp_path, FaultRule(site="worker", action="raise", times=-1))
        assert active_plan() is None
        with plan.active():
            assert FAULTS_ENV in os.environ
            assert active_plan().rules == plan.rules
            assert plan.coordinator_pid == os.getpid()
        assert active_plan() is None

    def test_malformed_env_is_loud(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "{not json")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            fire("worker", key="x")


class TestFire:
    def test_disarmed_is_noop(self):
        fire("worker", key="anything")  # must not raise

    def test_times_budget_is_exact(self, tmp_path):
        plan = plan_with(tmp_path, FaultRule(site="worker", action="raise", times=2))
        with plan.active():
            with pytest.raises(InjectedFault):
                fire("worker", key="spec")
            with pytest.raises(InjectedFault):
                fire("worker", key="spec")
            fire("worker", key="spec")  # budget spent: silent

    def test_match_filters_by_key_substring(self, tmp_path):
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="raise", match="scientific", times=-1),
        )
        with plan.active():
            fire("worker", key="educational")
            with pytest.raises(InjectedFault):
                fire("worker", key="scientific")

    def test_site_must_match(self, tmp_path):
        plan = plan_with(tmp_path, FaultRule(site="worker", action="raise", times=-1))
        with plan.active():
            fire("cache.get", key="anything")

    def test_custom_raiser(self, tmp_path):
        plan = plan_with(tmp_path, FaultRule(site="snap", action="raise", times=-1))
        with plan.active():
            with pytest.raises(ValueError, match="injected fault"):
                fire("snap", key="k", raiser=ValueError)

    def test_crash_in_coordinator_degrades_to_raise(self, tmp_path):
        # A crash rule firing in the coordinating process would kill the
        # test harness itself; it must degrade to an exception.
        plan = plan_with(tmp_path, FaultRule(site="worker", action="crash", times=-1))
        with plan.active():
            assert plan.coordinator_pid == os.getpid()
            with pytest.raises(InjectedFault):
                fire("worker", key="spec")

    def test_probability_gate_is_deterministic(self, tmp_path):
        rule = FaultRule(site="worker", action="raise", times=-1, probability=0.5)
        outcomes = {}
        for round_number in range(2):
            plan = plan_with(tmp_path, rule, seed=42)
            fired = set()
            with plan.active():
                for n in range(32):
                    key = "spec-{}".format(n)
                    try:
                        fire("worker", key=key)
                    except InjectedFault:
                        fired.add(key)
            outcomes[round_number] = fired
        assert outcomes[0] == outcomes[1]
        # p=0.5 over 32 keys: statistically certain to be a strict subset
        assert 0 < len(outcomes[0]) < 32

    def test_different_seed_picks_different_victims(self, tmp_path):
        rule = FaultRule(site="worker", action="raise", times=-1, probability=0.5)
        by_seed = {}
        for seed in (1, 2):
            fired = set()
            with plan_with(tmp_path, rule, seed=seed).active():
                for n in range(64):
                    try:
                        fire("worker", key="spec-{}".format(n))
                    except InjectedFault:
                        fired.add(n)
            by_seed[seed] = fired
        assert by_seed[1] != by_seed[2]


class TestCorruption:
    def test_truncate_halves(self, tmp_path):
        plan = plan_with(
            tmp_path, FaultRule(site="cache.get", action="truncate", times=-1)
        )
        with plan.active():
            assert corrupt_bytes("cache.get", "k", b"12345678") == b"1234"

    def test_bitflip_flips_one_middle_bit(self, tmp_path):
        plan = plan_with(
            tmp_path, FaultRule(site="cache.get", action="bitflip", times=-1)
        )
        data = bytes(range(16))
        with plan.active():
            damaged = corrupt_bytes("cache.get", "k", data)
        assert len(damaged) == len(data)
        assert damaged != data
        diff = [i for i in range(len(data)) if damaged[i] != data[i]]
        assert diff == [len(data) // 2]

    def test_disarmed_is_identity(self):
        assert corrupt_bytes("cache.get", "k", b"payload") == b"payload"

    def test_corrupt_file_in_place(self, tmp_path):
        target = tmp_path / "object"
        target.write_bytes(b"stored bytes!")
        plan = plan_with(
            tmp_path, FaultRule(site="cache.stored", action="bitflip", times=1)
        )
        with plan.active():
            assert corrupt_file("cache.stored", "k", str(target))
            # budget spent: second call leaves the file alone
            assert not corrupt_file("cache.stored", "k", str(target))
        assert target.read_bytes() != b"stored bytes!"
        assert len(target.read_bytes()) == len(b"stored bytes!")


class TestCostSkew:
    """The cycle-model perturbation: honest counting of a wrong charge."""

    def test_disarmed_returns_none(self):
        from repro.testing.faults import cost_skew

        assert cost_skew() is None

    def test_armed_names_victim_and_seed_sized_skew(self, tmp_path):
        from repro.testing.faults import cost_skew

        plan = plan_with(
            tmp_path,
            FaultRule(
                site="costs.skew", action="skew", match="spec1.register", times=-1
            ),
            seed=3,
        )
        with plan.active():
            assert cost_skew() == ("spec1.register", 1 + 3 % 4)

    def test_skew_must_name_a_victim_routine(self, tmp_path):
        from repro.testing.faults import cost_skew

        plan = plan_with(
            tmp_path, FaultRule(site="costs.skew", action="skew", times=-1)
        )
        with plan.active():
            with pytest.raises(FaultPlanError, match="victim micro-routine"):
                cost_skew()

    def test_times_budget_counts_machine_bindings(self, tmp_path):
        from repro.testing.faults import cost_skew

        plan = plan_with(
            tmp_path,
            FaultRule(
                site="costs.skew", action="skew", match="exec.clrl", times=1
            ),
        )
        with plan.active():
            assert cost_skew() == ("exec.clrl", 1)
            assert cost_skew() is None  # budget spent

    def test_other_sites_do_not_answer(self, tmp_path):
        from repro.testing.faults import cost_skew

        plan = plan_with(
            tmp_path, FaultRule(site="monitor.dump", action="miscount", times=-1)
        )
        with plan.active():
            assert cost_skew() is None

    def test_armed_skew_disables_the_compiled_path(self, tmp_path):
        """A skewed model must disagree with the analytic expectations
        identically in every mode — the compiled path replays recorded
        charges without consulting the skew, so arming it forces
        interpretation."""
        from repro.validate import execute_probe
        from repro.validate.probes import build_probes

        probe = build_probes()["reg_mov_chain"]
        plan = plan_with(
            tmp_path,
            FaultRule(
                site="costs.skew", action="skew", match="spec1.register", times=-1
            ),
            seed=3,
        )
        with plan.active():
            skewed = execute_probe(probe, "compiled")
        clean = execute_probe(probe, "compiled")
        # 64 register sources, 1 + seed % 4 = 4 extra cycles each, in the
        # "compiled" mode too.
        spec1 = clean.reduction.matrix["spec1"]["compute"]
        assert skewed.reduction.matrix["spec1"]["compute"] == spec1 + 64 * 4


class TestCrossProcess:
    def test_times_budget_shared_across_pool_workers(self, tmp_path):
        # Four forked workers race the same 2-firing budget: exactly two
        # must observe the fault, whatever the interleaving.
        from repro.core.executor import parallel_map

        plan = plan_with(
            tmp_path, FaultRule(site="worker", action="raise", times=2)
        )
        with plan.active():
            outcomes = parallel_map(_fire_once, ["same-key"] * 4, jobs=4)
        assert sum(outcomes) == 2


def _fire_once(key):
    from repro.testing import faults

    try:
        faults.fire("worker", key=key)
    except faults.InjectedFault:
        return 1
    return 0
