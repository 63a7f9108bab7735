"""The Scheduler front door: three-way dedupe with honest provenance.

Each unique config-hash digest executes at most once per scheduler —
duplicates within a sweep attach to the batch primary, duplicates
across concurrent client threads attach to the in-flight ticket,
repeats resolve from the bounded result index, and (with
``run_resolution``) whole runs resolve from the content-addressed cache
across scheduler lifetimes.  Deduplicated runs never fabricate wall
time: they carry zero seconds and ``attached_to``/``resumed_from``
provenance, so aggregating manifests never double-counts the one
execution that actually happened.
"""

import copy
import threading

import pytest

import repro.core.executor as executor_module
from repro.core.executor import RunSpec, execute_spec
from repro.core.scheduler import Scheduler
from repro.core.runcache import RunCache
from repro.obs.metrics import MetricsRegistry


def _spec(**overrides):
    base = dict(workload="educational", instructions=800, warmup_instructions=200)
    base.update(overrides)
    return RunSpec(**base)


def _counter(metrics, name):
    return metrics.snapshot()["counters"].get(name, 0)


@pytest.fixture
def metrics():
    return MetricsRegistry()


class TestBatchDedupe:
    def test_duplicate_specs_execute_once(self, metrics, monkeypatch):
        executions = []
        real = executor_module.execute_spec

        def counting(spec, *args, **kwargs):
            executions.append(spec.name)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(executor_module, "execute_spec", counting)
        scheduler = Scheduler(metrics=metrics)
        runs = scheduler.run_specs([_spec(), _spec(), _spec(seed_offset=1)])
        assert executions == ["educational", "educational"]  # dup collapsed
        assert _counter(metrics, "scheduler.specs.deduped_batch") == 1
        assert _counter(metrics, "scheduler.specs.executed") == 2

    def test_attached_copy_has_honest_provenance(self):
        scheduler = Scheduler()
        runs = scheduler.run_specs([_spec(), _spec()])
        primary, attached = runs
        assert primary.manifest.attached_to is None
        assert primary.wall_seconds > 0.0
        assert attached.manifest.attached_to == primary.manifest.config_hash
        # Wall time is recorded once, at the execution site — an
        # attached run fabricating seconds would double-count it in any
        # aggregation over manifests.
        assert attached.wall_seconds == 0.0
        assert attached.manifest.wall_seconds == 0.0
        # ...but the payload is bit-identical.
        assert attached.histogram == primary.histogram
        assert attached.result.instructions == primary.result.instructions
        # And a private copy: mutating it cannot corrupt the primary.
        assert attached.result is not primary.result

    def test_executing_client_cannot_corrupt_the_index(self):
        scheduler = Scheduler()
        executed = scheduler.run_specs([_spec()])[0]
        instructions = executed.result.events.instructions
        executed.result.events.instructions = -1
        again = scheduler.run_specs([_spec()])[0]
        assert again.result.events.instructions == instructions

    def test_cache_resolved_client_cannot_corrupt_the_index(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        Scheduler(cache=cache, run_resolution=True).run_specs([_spec()])
        revived = Scheduler(cache=cache, run_resolution=True)
        resolved = revived.run_specs([_spec()])[0]
        instructions = resolved.result.events.instructions
        resolved.result.events.instructions = -1
        again = revived.run_specs([_spec()])[0]
        assert again.result.events.instructions == instructions

    def test_label_only_duplicates_keep_their_own_names(self):
        # A label is not part of the digest: the second spec attaches
        # to the first's run but must still come back under its own name.
        scheduler = Scheduler()
        alpha, beta = scheduler.run_specs([_spec(label="alpha"), _spec(label="beta")])
        assert beta.manifest.attached_to == alpha.manifest.config_hash
        for run, name in ((alpha, "alpha"), (beta, "beta")):
            assert run.spec.label == run.spec.name == name
            assert run.result.name == run.manifest.spec_name == name
        plain = scheduler.run_specs([_spec()])[0]
        assert plain.spec.label is None
        assert plain.result.name == plain.manifest.spec_name == "educational"

    def test_order_preserved_around_dedupe(self):
        scheduler = Scheduler()
        specs = [_spec(seed_offset=1), _spec(), _spec(seed_offset=1)]
        runs = scheduler.run_specs(specs)
        assert [run.spec.seed_offset for run in runs] == [1, 0, 1]
        assert runs[2].manifest.attached_to == runs[0].manifest.config_hash


class TestResultIndex:
    def test_repeat_sweep_resolves_from_index(self, metrics):
        scheduler = Scheduler(metrics=metrics)
        first = scheduler.run_specs([_spec()])[0]
        second = scheduler.run_specs([_spec()])[0]
        assert _counter(metrics, "scheduler.specs.executed") == 1
        assert _counter(metrics, "scheduler.specs.resolved_index") == 1
        assert second.manifest.attached_to == first.manifest.config_hash
        assert second.wall_seconds == 0.0
        assert second.histogram == first.histogram

    def test_index_is_bounded_lru(self, metrics, monkeypatch):
        golden = execute_spec(_spec(instructions=400, warmup_instructions=100))

        def fake(spec, *args, **kwargs):
            run = copy.deepcopy(golden)
            run.spec = spec
            return run

        monkeypatch.setattr(executor_module, "execute_spec", fake)
        scheduler = Scheduler(metrics=metrics, result_index_size=2)
        for offset in (1, 2, 3):
            scheduler.run_specs([_spec(seed_offset=offset)])
        assert scheduler.stats_snapshot()["result_index"] == 2
        # Oldest evicted: offset=1 executes again, offset=3 resolves.
        scheduler.run_specs([_spec(seed_offset=3)])
        scheduler.run_specs([_spec(seed_offset=1)])
        assert _counter(metrics, "scheduler.specs.executed") == 4
        assert _counter(metrics, "scheduler.specs.resolved_index") == 1

    def test_raise_mode_abort_publishes_finished_runs(self, metrics):
        from repro.core.executor import EngineError

        scheduler = Scheduler(metrics=metrics)
        with pytest.raises(EngineError) as excinfo:
            scheduler.run_specs([_spec(), _spec(workload="no-such-workload")])
        assert excinfo.value.spec_name == "no-such-workload"
        # The spec that finished before the failure was published, so
        # the next sweep resolves it instead of executing it again.
        again = scheduler.run_specs([_spec()])[0]
        assert _counter(metrics, "scheduler.specs.executed") == 1
        assert _counter(metrics, "scheduler.specs.resolved_index") == 1
        assert again.manifest.attached_to == again.manifest.config_hash
        assert scheduler.stats_snapshot()["inflight"] == 0

    def test_result_for_digest(self):
        scheduler = Scheduler()
        run = scheduler.run_specs([_spec()])[0]
        digest = run.manifest.config_hash
        published = scheduler.result_for(digest)
        # the index publishes its own copy, equal to the client's run
        assert published is not run and published.result is not run.result
        assert published.histogram == run.histogram
        assert published.result.instructions == run.result.instructions
        assert scheduler.result_for("no-such-digest") is None


class TestInflightAttach:
    def test_concurrent_threads_one_execution(self, metrics, monkeypatch):
        golden = execute_spec(_spec(instructions=400, warmup_instructions=100))
        entered = threading.Event()
        release = threading.Event()
        executions = []

        def gated(spec, *args, **kwargs):
            executions.append(spec.name)
            entered.set()
            assert release.wait(30)
            return copy.deepcopy(golden)

        monkeypatch.setattr(executor_module, "execute_spec", gated)
        scheduler = Scheduler(metrics=metrics)
        results = {}

        def client(name):
            results[name] = scheduler.run_specs([_spec()])[0]

        owner = threading.Thread(target=client, args=("owner",))
        owner.start()
        assert entered.wait(30)
        waiter = threading.Thread(target=client, args=("waiter",))
        waiter.start()
        # The waiter must attach to the in-flight ticket, not queue a
        # second execution behind the lock.
        deadline = threading.Event()
        for _ in range(200):
            if _counter(metrics, "scheduler.specs.attached_inflight") == 1:
                break
            deadline.wait(0.02)
        assert _counter(metrics, "scheduler.specs.attached_inflight") == 1
        release.set()
        owner.join(30)
        waiter.join(30)
        assert executions == ["educational"]
        assert _counter(metrics, "scheduler.specs.executed") == 1
        # attached_to names the digest of the submitted spec (the fake
        # execution returns a canned run whose manifest is the golden's).
        from repro.obs.provenance import config_hash

        assert results["waiter"].manifest.attached_to == config_hash(_spec())
        assert results["waiter"].wall_seconds == 0.0
        assert results["waiter"].histogram == results["owner"].histogram
        assert scheduler.stats_snapshot()["inflight"] == 0

    def test_owner_failure_releases_waiters_with_error(self, metrics, monkeypatch):
        from repro.core.executor import EngineError

        entered = threading.Event()
        release = threading.Event()

        def failing(spec, *args, **kwargs):
            entered.set()
            assert release.wait(30)
            raise RuntimeError("injected execution failure")

        monkeypatch.setattr(executor_module, "execute_spec", failing)
        scheduler = Scheduler(metrics=metrics)
        failures = {}

        def client(name):
            try:
                scheduler.run_specs([_spec()])
            except EngineError as error:
                failures[name] = error

        owner = threading.Thread(target=client, args=("owner",))
        owner.start()
        assert entered.wait(30)
        waiter = threading.Thread(target=client, args=("waiter",))
        waiter.start()
        for _ in range(200):
            if _counter(metrics, "scheduler.specs.attached_inflight") == 1:
                break
            threading.Event().wait(0.02)
        release.set()
        owner.join(30)
        waiter.join(30)
        assert "owner" in failures and "waiter" in failures
        assert "injected execution failure" in failures["waiter"].worker_traceback
        # No ticket left dangling for the next client to deadlock on.
        assert scheduler.stats_snapshot()["inflight"] == 0

    def test_abandoned_ticket_error_names_the_spec(self, metrics, monkeypatch):
        # A non-EngineError escaping the owner's batch leaves its tickets
        # to the cleanup path; the attached client's error must still
        # name the spec it was waiting on.
        from repro.core.executor import EngineError

        entered = threading.Event()
        release = threading.Event()

        def interrupted(self, specs, notify, policy):
            entered.set()
            assert release.wait(30)
            raise RuntimeError("owner interrupted")

        monkeypatch.setattr(Scheduler, "_execute_batch", interrupted)
        scheduler = Scheduler(metrics=metrics)
        raised = {}

        def client(name):
            try:
                scheduler.run_specs([_spec()])
            except (EngineError, RuntimeError) as error:
                raised[name] = error

        owner = threading.Thread(target=client, args=("owner",))
        owner.start()
        assert entered.wait(30)
        waiter = threading.Thread(target=client, args=("waiter",))
        waiter.start()
        for _ in range(200):
            if _counter(metrics, "scheduler.specs.attached_inflight") == 1:
                break
            threading.Event().wait(0.02)
        assert _counter(metrics, "scheduler.specs.attached_inflight") == 1
        release.set()
        owner.join(30)
        waiter.join(30)
        assert isinstance(raised["owner"], RuntimeError)
        assert isinstance(raised["waiter"], EngineError)
        assert raised["waiter"].spec_name == _spec().name
        assert scheduler.stats_snapshot()["inflight"] == 0


class TestRunCacheResolution:
    def test_runs_resolve_across_scheduler_lifetimes(self, tmp_path, metrics):
        cache = RunCache(str(tmp_path / "cache"))
        first = Scheduler(cache=cache, run_resolution=True)
        executed = first.run_specs([_spec()])[0]
        # A fresh scheduler (a service restart) over the same cache:
        revived = Scheduler(cache=cache, run_resolution=True, metrics=metrics)
        resolved = revived.run_specs([_spec()])[0]
        assert _counter(metrics, "scheduler.specs.executed") == 0
        assert _counter(metrics, "scheduler.specs.resolved_cache") == 1
        assert resolved.histogram == executed.histogram
        assert resolved.wall_seconds == 0.0
        assert resolved.manifest.resumed_from is not None
        assert resolved.manifest.wall_seconds == 0.0

    def test_no_run_banking_without_opt_in(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        Scheduler(cache=cache, run_resolution=False).run_specs([_spec()])
        assert not any(
            entry.meta.get("kind") == "run" for entry in cache.entries()
        )


class TestCollectMode:
    def test_attached_failures_reported_per_index(self):
        from repro.core.resilience import ResiliencePolicy

        scheduler = Scheduler()
        policy = ResiliencePolicy(on_error="collect")
        outcome = scheduler.run_specs(
            [_spec(workload="no-such-workload"), _spec(workload="no-such-workload")],
            policy=policy,
        )
        assert outcome.runs == [None, None]
        assert outcome.report.total == 2
        kinds = sorted(f.kind for f in outcome.report.failures)
        assert kinds == ["attached", "error"]
        assert sorted(f.index for f in outcome.report.failures) == [0, 1]

    def test_failed_duplicate_and_failed_inflight_ticket_each_reported_once(
        self, metrics, monkeypatch
    ):
        # One sweep holds a failing owner, its duplicate, and a spec
        # another client is executing when the sweep starts and that
        # then fails: every index is reported once, with its own kind.
        from repro.core.executor import EngineError
        from repro.core.resilience import ResiliencePolicy

        entered = threading.Event()
        release = threading.Event()
        real = executor_module.execute_spec

        def gated(spec, *args, **kwargs):
            if spec.seed_offset != 7:
                return real(spec, *args, **kwargs)
            entered.set()
            assert release.wait(30)
            raise RuntimeError("injected in-flight failure")

        monkeypatch.setattr(executor_module, "execute_spec", gated)
        scheduler = Scheduler(metrics=metrics)
        elsewhere = _spec(seed_offset=7)

        def owner():
            with pytest.raises(EngineError):
                scheduler.run_specs([elsewhere])

        other = threading.Thread(target=owner)
        other.start()
        assert entered.wait(30)
        outcome = {}

        def sweep():
            bad = _spec(workload="no-such-workload")
            outcome["result"] = scheduler.run_specs(
                [bad, bad, elsewhere],
                policy=ResiliencePolicy(on_error="collect"),
            )

        client = threading.Thread(target=sweep)
        client.start()
        for _ in range(200):
            if _counter(metrics, "scheduler.specs.attached_inflight") == 1:
                break
            threading.Event().wait(0.02)
        assert _counter(metrics, "scheduler.specs.attached_inflight") == 1
        release.set()
        other.join(30)
        client.join(60)
        result = outcome["result"]
        assert result.runs == [None, None, None]
        assert result.report.total == 3
        assert [(f.index, f.kind) for f in result.report.failures] == [
            (0, "error"), (1, "attached"), (2, "attached"),
        ]
        assert "injected in-flight failure" in (
            result.report.failures[2].worker_traceback
        )
        assert result.report.completed == []
        assert scheduler.stats_snapshot()["inflight"] == 0
