"""Engine fault-tolerance tests, driven by the injection harness.

Every recovery scenario ends with the same assertion: the recovered
sweep's payloads are bit-identical to an undisturbed run's.  Retries,
pool respawns, timeouts, degradation to in-process execution and the
sharded repair chain are all exercised against deterministically
injected faults from :mod:`repro.testing.faults`.
"""

import multiprocessing
import os

import pytest

from repro.core.executor import EngineError, RunSpec
from repro.core.scheduler import execute_spec_sharded, run_specs
from repro.core.resilience import (
    ResiliencePolicy,
    RetryPolicy,
    SweepInterrupted,
    SweepResult,
)
from repro.core.runcache import RunCache
from repro.obs.metrics import MetricsRegistry, resilience_counters
from repro.testing import faults
from repro.testing.faults import FaultPlan, FaultRule, InjectedFault

SMALL = dict(instructions=600, warmup_instructions=150)

SPECS = [
    RunSpec(workload="timesharing_light", **SMALL),
    RunSpec(workload="scientific", **SMALL),
]


@pytest.fixture(autouse=True)
def disarmed():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def golden():
    """The undisturbed reference payloads every recovery is judged by."""
    runs = run_specs(SPECS, jobs=1)
    return [(run.histogram, run.result.stats, run.result.events) for run in runs]


def payloads_of(runs):
    return [(run.histogram, run.result.stats, run.result.events) for run in runs]


def plan_with(tmp_path, *rules, seed=0):
    return FaultPlan(rules=list(rules), seed=seed, state_dir=str(tmp_path / "faults"))


def policy_with(retries=1, **kwargs):
    kwargs.setdefault("metrics", resilience_counters(MetricsRegistry()))
    return ResiliencePolicy(retry=RetryPolicy(max_attempts=retries + 1), **kwargs)


def counter(policy, name):
    return policy.metrics.snapshot()["counters"][name]


class TestRetries:
    def test_sequential_retry_recovers_bit_identical(self, tmp_path, golden):
        # times budgets count per (site, key): scope the rule to one
        # spec so exactly one first attempt is lost.
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="raise", match="scientific", times=1),
        )
        policy = policy_with(retries=1)
        events = []
        with plan.active():
            runs = run_specs(
                SPECS, jobs=1, progress=events.append, policy=policy
            )
        assert payloads_of(runs) == golden
        # exactly one spec lost its first attempt, and the manifest says so
        assert sorted(run.manifest.attempts for run in runs) == [1, 2]
        assert counter(policy, "engine.retries") == 1
        assert [e.kind for e in events].count("retry") == 1
        assert "error" not in [e.kind for e in events]

    def test_parallel_retry_recovers_bit_identical(self, tmp_path, golden):
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="raise", match="scientific", times=1),
        )
        policy = policy_with(retries=1)
        with plan.active():
            runs = run_specs(SPECS, jobs=2, policy=policy)
        assert payloads_of(runs) == golden
        by_name = {run.spec.name: run.manifest.attempts for run in runs}
        assert by_name["scientific"] == 2
        assert by_name["timesharing_light"] == 1
        assert counter(policy, "engine.retries") == 1

    def test_retry_budget_exhausts_into_engine_error(self, tmp_path):
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="raise", match="scientific", times=-1),
        )
        policy = policy_with(retries=1)
        with plan.active():
            with pytest.raises(EngineError) as excinfo:
                run_specs(SPECS, jobs=2, policy=policy)
        assert excinfo.value.spec_name == "scientific"
        # the worker-side stack survives: file and line of the raising site
        assert 'File "' in excinfo.value.worker_traceback
        assert "faults.py" in excinfo.value.worker_traceback


class TestSequentialPath:
    def test_jobs_1_never_builds_a_pool(self, monkeypatch, golden):
        # A sequential sweep runs the executor's retry loop in-process;
        # it must not need (or pay for) a process pool.
        import repro.core.executor as executor_module

        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 constructed a process pool")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_pool)
        sweep = run_specs(SPECS, jobs=1, policy=policy_with(on_error="collect"))
        assert payloads_of(sweep.runs) == golden
        assert not sweep.report.degraded


class TestPoolCrashes:
    def test_crashed_worker_is_respawned_and_requeued(self, tmp_path, golden):
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="crash", match="scientific", times=1),
        )
        # the crash charges one attempt to *every* in-flight spec
        policy = policy_with(retries=1)
        with plan.active():
            runs = run_specs(SPECS, jobs=2, policy=policy)
        assert payloads_of(runs) == golden
        assert counter(policy, "engine.pool_respawns") >= 1

    def test_repeated_crashes_degrade_to_in_process(self, tmp_path, golden):
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="crash", match="scientific", times=3),
        )
        policy = policy_with(
            retries=5, max_pool_respawns=1, on_error="collect"
        )
        with plan.active():
            sweep = run_specs(SPECS, jobs=2, policy=policy)
        assert isinstance(sweep, SweepResult)
        assert sweep.report.ok
        assert sweep.report.degraded
        assert payloads_of(sweep.runs) == golden
        assert counter(policy, "engine.pool_respawns") == 2


class TestTimeouts:
    def test_stuck_worker_times_out_and_retry_recovers(self, tmp_path, golden):
        plan = plan_with(
            tmp_path,
            FaultRule(
                site="worker",
                action="hang",
                match="scientific",
                times=1,
                seconds=8.0,
            ),
        )
        policy = policy_with(retries=1, spec_timeout=0.8)
        with plan.active():
            runs = run_specs(SPECS, jobs=2, policy=policy)
        assert payloads_of(runs) == golden
        assert counter(policy, "engine.spec_timeouts") >= 1
        assert counter(policy, "engine.pool_respawns") >= 1

    def test_timed_out_worker_does_not_outlive_the_sweep(self, tmp_path):
        # Recycling the pool abandons the stuck worker; it must be
        # stopped, not left sleeping after run_specs returns.
        plan = plan_with(
            tmp_path,
            FaultRule(
                site="worker", action="hang", match="scientific", times=1,
                seconds=8.0,
            ),
        )
        with plan.active():
            run_specs(SPECS, jobs=2, policy=policy_with(retries=1, spec_timeout=0.8))
        assert multiprocessing.active_children() == []

    def test_raise_mode_exit_does_not_leave_workers(self, tmp_path):
        # One spec fails while the other hangs: the raise-mode early
        # exit abandons the hung worker and must stop it.
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="raise", match="scientific", times=-1),
            FaultRule(
                site="worker", action="hang", match="timesharing_light",
                times=-1, seconds=8.0,
            ),
        )
        with plan.active():
            with pytest.raises(EngineError):
                run_specs(SPECS, jobs=2, policy=policy_with(retries=0))
        assert multiprocessing.active_children() == []


class TestCollectMode:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_partial_results_plus_structured_report(self, tmp_path, golden, jobs):
        plan = plan_with(
            tmp_path,
            FaultRule(site="worker", action="raise", match="scientific", times=-1),
        )
        policy = policy_with(retries=1, on_error="collect")
        with plan.active():
            sweep = run_specs(SPECS, jobs=jobs, policy=policy)
        assert isinstance(sweep, SweepResult)
        assert sweep.runs[1] is None
        assert payloads_of([sweep.runs[0]]) == golden[:1]
        (failure,) = sweep.report.failures
        # Sequential and pooled sweeps share one retry loop, so they
        # report the same failure: the error is the traceback's last line.
        assert (
            failure.name, failure.index, failure.attempts, failure.kind,
            failure.error,
        ) == (
            "scientific", 1, 2, "error",
            "{}.{}: injected fault at site 'worker' (key 'scientific')".format(
                InjectedFault.__module__, InjectedFault.__qualname__
            ),
        )
        assert 'File "' in failure.worker_traceback
        assert sweep.report.completed == ["timesharing_light"]
        assert counter(policy, "engine.spec_failures") == 1


class TestInterrupts:
    def _interrupt_after_first_done(self):
        state = {"done": 0}

        def notify(event):
            if event.kind == "done":
                state["done"] += 1
                if state["done"] == 1:
                    raise KeyboardInterrupt()

        return notify

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_persists_resumable_report(self, tmp_path, jobs):
        report_path = str(tmp_path / "interrupted.json")
        policy = policy_with(retries=0, interrupt_report_path=report_path)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            run_specs(
                SPECS,
                jobs=jobs,
                progress=self._interrupt_after_first_done(),
                policy=policy,
            )
        assert isinstance(excinfo.value, SweepInterrupted)
        report = excinfo.value.report
        assert report.interrupted
        assert len(report.completed) >= 1
        assert os.path.exists(report_path)
        from repro.core.resilience import FailureReport

        persisted = FailureReport.load(report_path)
        assert persisted.interrupted
        assert persisted.completed == report.completed


class TestShardedFailureDiagnostics:
    def test_engine_error_carries_shard_status_map(self, tmp_path):
        # Measurement faulted at every site, repair included: the error
        # must say which shards were filled, which failed, and why.
        spec = RunSpec(workload="timesharing_light", **SMALL)
        cache = RunCache(str(tmp_path / "cache"))
        plan = plan_with(
            tmp_path, FaultRule(site="shard.measure", action="raise", times=-1)
        )
        with plan.active():
            with pytest.raises(EngineError) as excinfo:
                execute_spec_sharded(spec, shards=3, jobs=1, cache=cache)
        message = str(excinfo.value)
        assert "per-shard status" in message
        assert "shard 1/3" in message and "shard 3/3" in message
        assert "unfilled" in message
        assert "repair-chain traceback" in message
        assert 'File "' in message and "faults.py" in message

    def test_worker_traceback_and_cached_status_in_error(self, tmp_path):
        from repro.core.cache_resolution import shard_cache_keys
        from repro.core.executor import shard_boundaries

        spec = RunSpec(workload="timesharing_light", **SMALL)
        cache = RunCache(str(tmp_path / "cache"))
        execute_spec_sharded(spec, shards=3, jobs=1, cache=cache)
        # evict one finished shard so the warm run must recompute it
        boundaries = shard_boundaries(spec.instructions, 3)
        _, shard_keys, _ = shard_cache_keys(spec, boundaries)
        os.unlink(cache._object_path(shard_keys[1]))
        plan = plan_with(
            tmp_path,
            FaultRule(site="shard.task", action="raise", times=-1),
            FaultRule(site="shard.measure", action="raise", times=-1),
        )
        with plan.active():
            with pytest.raises(EngineError) as excinfo:
                execute_spec_sharded(
                    spec, shards=3, jobs=2, cache=RunCache(str(tmp_path / "cache"))
                )
        message = str(excinfo.value)
        assert "from-cache" in message
        assert "worker failed" in message
        assert "worker traceback (shard 2/3)" in message
        assert "faults.py" in message
