"""Satellite differential: concurrent clients, at-most-once execution.

Two clients submit the same sweep to one service while the first
submission is provably mid-execution.  The dedupe contract under test:

* the engine executes the spec exactly once — counted not by trusting
  the scheduler's own metrics but by an independent ledger: a
  ``shard.measure`` fault rule whose occurrence budget leaves one
  ``O_CREAT | O_EXCL`` marker file per measured span, in every process
  that measures anything;
* the second client attaches to the in-flight ticket
  (``scheduler.specs.attached_inflight == 1``), and its job record says
  so honestly — ``attached_to`` provenance, zero wall seconds;
* both clients fetch results bit-identical to an undisturbed sequential
  execution of the same spec (the golden), so deduplication is
  unobservable in the payload.
"""

import hashlib
import json
import os
import threading

import pytest

from repro.core.executor import RunSpec, execute_spec
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import config_hash
from repro.service import api
from repro.service.client import ServiceClient
from repro.service.server import ExperimentService
from repro.testing.faults import FaultPlan, FaultRule

SPEC = dict(workload="educational", instructions=900, warmup_instructions=200)
SHARDS = 2


def _span_ledger(state_dir):
    """A plan whose only effect is one marker file per measured span."""
    return FaultPlan(
        rules=[
            FaultRule(
                site="shard.measure", action="hang", seconds=0.0, times=100_000
            )
        ],
        state_dir=str(state_dir),
    )


def _markers(state_dir):
    return len(os.listdir(str(state_dir)))


def test_a_whole_run_is_one_measured_span(tmp_path):
    # A whole spec is a one-shard chain: one measured span, keyed at
    # instruction 0, on the same ledger the sharded runs below use.
    ledger = tmp_path / "whole-spans"
    with _span_ledger(ledger).active():
        execute_spec(RunSpec(**SPEC))
    key = hashlib.sha256(
        "shard.measure|{}@0".format(SPEC["workload"]).encode("utf-8")
    ).hexdigest()[:16]
    assert os.listdir(str(ledger)) == ["r0-{}-0".format(key)]


def _result_bytes(run):
    return json.dumps(api.result_to_payload(run.result), sort_keys=True)


@pytest.fixture
def metrics():
    return MetricsRegistry()


@pytest.fixture
def service(metrics):
    svc = ExperimentService(
        shards=SHARDS, concurrency=2, metrics=metrics
    ).start_in_thread()
    yield svc
    svc.shutdown()


@pytest.fixture
def client(service):
    return ServiceClient("http://127.0.0.1:{}".format(service.port))


def test_concurrent_duplicate_sweeps_execute_once(
    tmp_path, service, client, metrics
):
    # Golden: an undisturbed sequential execution, and the span count
    # one execution is *supposed* to produce, measured the same way.
    golden_dir = tmp_path / "golden-spans"
    with _span_ledger(golden_dir).active():
        golden = execute_spec(RunSpec(**SPEC), shards=SHARDS)
    spans_per_execution = _markers(golden_dir)
    assert spans_per_execution > 0

    # Gate the service's one execution path so client A is provably
    # mid-execution (ticket registered, batch started) when B submits.
    entered = threading.Event()
    release = threading.Event()
    real = service.scheduler._execute_batch

    def gated(specs, notify, policy):
        entered.set()
        assert release.wait(60), "test never released the gated batch"
        return real(specs, notify, policy)

    service.scheduler._execute_batch = gated

    service_dir = tmp_path / "service-spans"
    plan = _span_ledger(service_dir).install()
    try:
        job_a = client.submit_sweep([RunSpec(**SPEC)])
        assert entered.wait(60), "client A's sweep never started executing"
        job_b = client.submit_sweep([RunSpec(**SPEC)])

        # B must land on the in-flight ticket before A finishes — the
        # counter moves while the gate is still closed, which is the
        # whole point: attaching never waits for the execution lock.
        for _ in range(500):
            counters = client.stats()["metrics"]["counters"]
            if counters.get("scheduler.specs.attached_inflight", 0) == 1:
                break
            threading.Event().wait(0.02)
        assert (
            client.stats()["metrics"]["counters"][
                "scheduler.specs.attached_inflight"
            ]
            == 1
        )
        release.set()

        record_a = client.wait(job_a["job"], timeout=120)
        record_b = client.wait(job_b["job"], timeout=120)
    finally:
        release.set()
        plan.rules = []
        from repro.testing import faults

        faults.uninstall()
        service.scheduler._execute_batch = real

    # At-most-once, by independent ledger: the service produced exactly
    # one execution's worth of measured spans for two client sweeps.
    assert _markers(service_dir) == spans_per_execution

    # Honest provenance on the attached client's job record.
    digest = config_hash(RunSpec(**SPEC))
    summary_a, summary_b = record_a["runs"][0], record_b["runs"][0]
    assert summary_a["digest"] == summary_b["digest"] == digest
    assert summary_a["attached_to"] is None
    assert summary_a["wall_seconds"] > 0.0
    assert summary_b["attached_to"] == digest
    assert summary_b["wall_seconds"] == 0.0

    # Both clients' fetched payloads are bit-identical to the golden.
    fetched = client.result(digest)
    assert fetched.histogram == golden.histogram
    assert _result_bytes(fetched) == _result_bytes(golden)

    counters = client.stats()["metrics"]["counters"]
    assert counters["scheduler.specs.executed"] == 1
    assert counters["service.jobs.completed"] == 2


def test_overlapping_sweeps_share_the_common_spec(service, client, metrics):
    # Overlap without gating: A and B race freely; whichever order the
    # workers run in, the shared spec executes once (in-flight attach or
    # result-index resolve — both are dedupe) and each unique spec once.
    sweep_a = [RunSpec(**SPEC), RunSpec(seed_offset=1, **SPEC)]
    sweep_b = [RunSpec(seed_offset=1, **SPEC), RunSpec(seed_offset=2, **SPEC)]
    job_a = client.submit_sweep(sweep_a)
    job_b = client.submit_sweep(sweep_b)
    record_a = client.wait(job_a["job"], timeout=120)
    record_b = client.wait(job_b["job"], timeout=120)
    assert record_a["state"] == record_b["state"] == "done"

    counters = client.stats()["metrics"]["counters"]
    assert counters["scheduler.specs.executed"] == 3  # unique digests only
    deduped = counters.get("scheduler.specs.attached_inflight", 0) + counters.get(
        "scheduler.specs.resolved_index", 0
    )
    assert deduped == 1

    # The shared spec: both clients hold the same digest, and exactly
    # one of the two run summaries carries execution wall time.
    shared = config_hash(RunSpec(seed_offset=1, **SPEC))
    summaries = [
        run
        for record in (record_a, record_b)
        for run in record["runs"]
        if run["digest"] == shared
    ]
    assert len(summaries) == 2
    executed = [s for s in summaries if s["attached_to"] is None]
    attached = [s for s in summaries if s["attached_to"] == shared]
    assert len(executed) == 1 and len(attached) == 1
    assert attached[0]["wall_seconds"] == 0.0

    # Payload equality across clients for the shared digest.
    run = client.result(shared)
    assert run.spec.seed_offset == 1
    assert run.result.instructions > 0
