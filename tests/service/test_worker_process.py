"""The service's persistent worker process: where served runs execute.

Under ``repro serve`` simulations run in worker processes the service's
scheduler owns for its lifetime, so the failures a worker can have — a
hang, a crash — are the ones the executor's retry loop already survives
for pooled CLI sweeps: a hung spec is preempted at its wall-clock
budget, a dead worker is respawned, and either way the job completes
bit-identically while the server keeps answering.  Shutdown joins the
workers, and a worker whose server is killed outright exits on its own.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.executor import RunSpec, execute_spec
from repro.core.cache_resolution import store_run
from repro.core.resilience import ResiliencePolicy
from repro.core.runcache import RunCache
from repro.obs.provenance import config_hash
from repro.service import api
from repro.service.client import ServiceClient
from repro.service.server import ExperimentService
from repro.testing import faults
from repro.testing.faults import FaultPlan, FaultRule

SPEC = RunSpec(workload="educational", instructions=900, warmup_instructions=200)

#: Longer than a first run takes, worker start included, even on a
#: slow CI host; far shorter than the injected hang.
SPEC_TIMEOUT_S = 10.0
HANG_S = 120.0


@pytest.fixture(autouse=True)
def disarmed():
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def golden():
    return execute_spec(SPEC)


def _serve(**kwargs):
    kwargs.setdefault("persistent_workers", True)
    service = ExperimentService(**kwargs).start_in_thread()
    return service, ServiceClient("http://127.0.0.1:{}".format(service.port))


def _result_bytes(run):
    return json.dumps(api.result_to_payload(run.result), sort_keys=True)


def _assert_bit_identical(client, golden):
    fetched = client.result(config_hash(SPEC))
    assert fetched.histogram == golden.histogram
    assert _result_bytes(fetched) == _result_bytes(golden)


def _alive(pid):
    """Running, and not a zombie waiting for whoever adopted it."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def test_runs_execute_in_a_worker_that_shutdown_joins(golden):
    service, client = _serve()
    try:
        record = client.wait(client.submit_sweep([SPEC])["job"], timeout=120)
        assert record["state"] == "done"
        pid = record["runs"][0]["pid"]
        assert pid in [child.pid for child in multiprocessing.active_children()]
        _assert_bit_identical(client, golden)
    finally:
        service.shutdown()
    assert multiprocessing.active_children() == []
    assert not _alive(pid)


def test_hung_cold_spec_is_preempted_and_retried(tmp_path, golden):
    plan = FaultPlan(
        rules=[FaultRule(site="worker", action="hang", seconds=HANG_S, times=1)],
        state_dir=str(tmp_path / "faults"),
    )
    service, client = _serve(
        policy=ResiliencePolicy.from_options(retries=1, spec_timeout=SPEC_TIMEOUT_S)
    )
    try:
        with plan.active():
            started = time.monotonic()
            record = client.wait(client.submit_sweep([SPEC])["job"], timeout=HANG_S)
            elapsed = time.monotonic() - started
        assert record["state"] == "done"
        assert record["runs"][0]["attempts"] == 2
        assert elapsed < HANG_S / 2
        _assert_bit_identical(client, golden)
        counters = client.stats()["metrics"]["counters"]
        assert counters["engine.spec_timeouts"] == 1
        assert counters["engine.pool_respawns"] >= 1
    finally:
        service.shutdown()
    assert multiprocessing.active_children() == []


def test_worker_crash_during_a_cold_job_is_survived(tmp_path, golden):
    plan = FaultPlan(
        rules=[FaultRule(site="worker", action="crash", times=1)],
        state_dir=str(tmp_path / "faults"),
    )
    service, client = _serve(policy=ResiliencePolicy.from_options(retries=1))
    try:
        with plan.active():
            record = client.wait(client.submit_sweep([SPEC])["job"], timeout=120)
        assert client.healthz()["ok"] is True
        assert record["state"] == "done"
        assert record["runs"][0]["pid"] != os.getpid()
        _assert_bit_identical(client, golden)
        counters = client.stats()["metrics"]["counters"]
        assert counters["engine.pool_respawns"] >= 1
    finally:
        service.shutdown()
    assert multiprocessing.active_children() == []


def test_embedded_service_runs_in_process_by_default(golden):
    service, client = _serve(persistent_workers=False)
    try:
        record = client.wait(client.submit_sweep([SPEC])["job"], timeout=120)
        assert record["runs"][0]["pid"] == os.getpid()
        assert multiprocessing.active_children() == []
        _assert_bit_identical(client, golden)
    finally:
        service.shutdown()


def test_run_banked_without_a_pid_resolves(tmp_path, golden):
    # A cache written before manifests recorded the executing process:
    # the banked run's manifest has no ``pid`` attribute at all.
    cache = RunCache(str(tmp_path / "cache"))
    banked = execute_spec(SPEC)
    del banked.manifest.pid
    store_run(cache, SPEC, banked)
    service, client = _serve(cache=RunCache(cache.root))
    try:
        record = client.wait(client.submit_sweep([SPEC])["job"], timeout=120)
        assert record["state"] == "done"
        assert record["runs"][0]["pid"] is None
        _assert_bit_identical(client, golden)
    finally:
        service.shutdown()


def _serve_process(tmp_path, **popen):
    """``repro serve`` in its own process, after one run: (server, worker pid)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "-q", "serve", "--port", "0", "--no-cache"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=str(tmp_path), **popen,
    )
    try:
        line = server.stdout.readline()
        client = ServiceClient(line.strip().rsplit("http://", 1)[1])
        record = client.wait(client.submit_sweep([SPEC])["job"], timeout=120)
        worker = record["runs"][0]["pid"]
        assert worker != server.pid and _alive(worker)
    except BaseException:
        server.kill()
        server.wait()
        server.stdout.close()
        raise
    return server, worker


def test_sigint_stops_a_background_server_and_joins_its_worker(tmp_path):
    # A server started with ``&`` from a non-interactive shell (a CI
    # step) inherits SIGINT as ignored; SIGINT must still stop it.
    server, worker = _serve_process(
        tmp_path, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)
    )
    try:
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=30) == 0
    finally:
        server.kill()
        server.wait()
        server.stdout.close()
    assert not _alive(worker)


def test_worker_exits_when_its_server_is_killed(tmp_path):
    server, worker = _serve_process(tmp_path)
    server.send_signal(signal.SIGKILL)
    server.wait()
    server.stdout.close()
    deadline = time.monotonic() + 30
    while _alive(worker) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not _alive(worker)
