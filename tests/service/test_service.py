"""The experiment service: HTTP/JSON round-trips over one scheduler.

An in-process :class:`~repro.service.server.ExperimentService` on an
ephemeral port, driven through the real :class:`ServiceClient` — the
same stack ``repro serve`` / ``repro submit`` use, minus the argparse.
"""

import json
import socket

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.executor import EngineError, MachineConfig, RunSpec, execute_spec
from repro.service import api
from repro.service.client import ClientError, ServiceClient
from repro.service.server import ExperimentService

SPEC = dict(workload="educational", instructions=900, warmup_instructions=200)


@pytest.fixture(scope="module")
def service():
    svc = ExperimentService(concurrency=2).start_in_thread()
    yield svc
    svc.shutdown()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient("http://127.0.0.1:{}".format(service.port))


@pytest.fixture(scope="module")
def golden():
    return execute_spec(RunSpec(**SPEC))


BAD_REQUEST = b"HTTP/1.1 400 Bad Request"


def post_sweeps(port, body: bytes, content_length=None) -> bytes:
    """POST raw ``body`` to ``/sweeps`` and return the status line."""
    if content_length is None:
        content_length = str(len(body))
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            b"POST /sweeps HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: " + content_length.encode("latin-1")
            + b"\r\n\r\n" + body
        )
        sock.shutdown(socket.SHUT_WR)
        response = b"".join(iter(lambda: sock.recv(65536), b""))
    return response.split(b"\r\n", 1)[0]


class TestWireFormat:
    def test_spec_round_trip(self):
        spec = RunSpec(
            workload="educational",
            instructions=1000,
            warmup_instructions=100,
            seed_offset=3,
            config=MachineConfig(cache_size_bytes=4096, decode_overlap=True),
            label="ablated",
        )
        clone = api.spec_from_payload(
            json.loads(json.dumps(api.spec_to_payload(spec)))
        )
        assert clone == spec

    def test_configure_callable_is_refused(self):
        spec = RunSpec(workload="educational", configure=lambda machine: None)
        with pytest.raises(api.ApiError, match="configure"):
            api.spec_to_payload(spec)

    def test_unknown_spec_fields_are_refused(self):
        with pytest.raises(api.ApiError, match="unknown"):
            api.spec_from_payload({"workload": "educational", "bogus": 1})

    def test_run_round_trip_is_lossless(self, golden):
        payload = json.loads(json.dumps(api.run_to_payload(golden)))
        clone = api.run_from_payload(payload)
        # The decoded run re-encodes to the identical JSON document —
        # the byte-identity the concurrent-client differential rests on.
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            api.run_to_payload(clone), sort_keys=True
        )
        assert clone.histogram == golden.histogram
        assert clone.result.instructions == golden.result.instructions
        assert clone.result.cpi == golden.result.cpi
        assert clone.result.events.opcode_counts == golden.result.events.opcode_counts
        assert clone.result.events.specifier_counts == (
            golden.result.events.specifier_counts  # tuple keys survived
        )
        assert clone.manifest.config_hash == golden.manifest.config_hash
        # reduce_histogram links the events into the reduction; the
        # decoded object graph keeps that identity.
        assert clone.result.reduction.events is clone.result.events


class TestRoutes:
    def test_healthz(self, client):
        assert client.healthz() == {"ok": True}

    def test_submit_wait_fetch(self, client, golden):
        accepted = client.submit_sweep([RunSpec(**SPEC)])
        assert accepted["job"].startswith("j-")
        record = client.wait(accepted["job"])
        assert record["state"] == "done"
        assert len(record["runs"]) == 1
        summary = record["runs"][0]
        assert summary["digest"] == accepted["digests"][0]
        assert summary["instructions"] == golden.result.instructions
        run = client.result(summary["digest"])
        assert run.histogram == golden.histogram
        assert json.dumps(api.result_to_payload(run.result), sort_keys=True) == (
            json.dumps(api.result_to_payload(golden.result), sort_keys=True)
        )

    def test_duplicate_sweep_attaches_not_reexecutes(self, client):
        first = client.wait(client.submit_sweep([RunSpec(**SPEC)])["job"])
        again = client.wait(client.submit_sweep([RunSpec(**SPEC)])["job"])
        summary = again["runs"][0]
        assert summary["attached_to"] == first["runs"][0]["digest"]
        assert summary["wall_seconds"] == 0.0
        stats = client.stats()
        counters = stats["metrics"]["counters"]
        assert counters["scheduler.specs.executed"] == 1
        assert counters["scheduler.specs.resolved_index"] >= 1

    def test_job_listing_and_stats_shape(self, client):
        jobs = client.jobs()
        assert jobs and all(job["job"].startswith("j-") for job in jobs)
        stats = client.stats()
        assert set(stats) >= {"inflight", "result_index", "jobs", "metrics"}

    def test_evicted_job_records_are_counted(self, monkeypatch):
        import repro.service.server as server_module

        monkeypatch.setattr(server_module, "MAX_JOB_RECORDS", 2)
        service = ExperimentService().start_in_thread()
        try:
            client = ServiceClient("http://127.0.0.1:{}".format(service.port))
            assert client.stats()["metrics"]["counters"]["service.jobs.evicted"] == 0
            for _ in range(3):
                client.wait(client.submit_sweep([RunSpec(**SPEC)])["job"])
            stats = client.stats()
            assert stats["jobs"]["records"] == 2
            assert stats["metrics"]["counters"]["service.jobs.evicted"] == 1
        finally:
            service.shutdown()

    def test_unknown_job_404(self, client):
        with pytest.raises(ClientError) as caught:
            client.job("j-999999")
        assert caught.value.status == 404

    def test_unknown_digest_404(self, client):
        with pytest.raises(ClientError) as caught:
            client.result_payload("f" * 64)
        assert caught.value.status == 404

    def test_unknown_route_404(self, client):
        with pytest.raises(ClientError) as caught:
            client.request("GET", "/nope")
        assert caught.value.status == 404

    def test_malformed_body_400(self, client):
        with pytest.raises(ClientError) as caught:
            client.request("POST", "/sweeps", {"specs": []})
        assert caught.value.status == 400
        with pytest.raises(ClientError) as caught:
            client.request("POST", "/sweeps", {"specs": [{"bogus": 1}]})
        assert caught.value.status == 400

    @pytest.mark.parametrize(
        "body, content_length",
        [
            (b'{"specs": []}', "twelve"),
            (b'{"specs": []}', "-5"),
            ({"config": 5}, None),
            ({"config": []}, None),
            ({"config": {"cache_size_bytes": "8k"}}, None),
            ({"config": {"decode_overlap": 1}}, None),
            ({"instructions": "abc"}, None),
            ({"instructions": -1}, None),
            ({"instructions": True}, None),
            ({"warmup_instructions": 1.5}, None),
            ({"process_count": "2"}, None),
            ({"seed_offset": None}, None),
            ({"workload": 7}, None),
            ({"label": ["x"]}, None),
        ],
        ids=[
            "length-not-int", "length-negative", "config-int", "config-list",
            "config-str-field", "config-int-overlap", "instructions-str",
            "instructions-negative", "instructions-bool", "warmup-float",
            "process-count-str", "seed-null", "workload-int", "label-list",
        ],
    )
    def test_bad_input_is_a_400_and_creates_no_job(
        self, service, client, body, content_length
    ):
        if isinstance(body, dict):
            body = json.dumps({"specs": [dict(SPEC, **body)]}).encode("utf-8")
        jobs_before = len(client.jobs())
        assert post_sweeps(service.port, body, content_length) == BAD_REQUEST
        assert len(client.jobs()) == jobs_before

    def test_deeply_nested_body_is_a_400_not_a_500(self, service, client):
        # Past the JSON decoder's recursion limit the body is undecodable
        # like any malformed one, not a server fault.
        depth = 100_000
        body = b'{"specs": ' + b"[" * depth + b"]" * depth + b"}"
        jobs_before = len(client.jobs())
        assert post_sweeps(service.port, body) == BAD_REQUEST
        assert len(client.jobs()) == jobs_before

    def test_get_on_sweeps_405(self, client):
        with pytest.raises(ClientError) as caught:
            client.request("GET", "/sweeps")
        assert caught.value.status == 405


class TestErrorEnvelope:
    def test_failed_job_reconstructs_engine_error(self, client):
        accepted = client.submit_sweep(
            [RunSpec(workload="no-such-workload", instructions=100)]
        )
        record = client.wait(accepted["job"])
        assert record["state"] == "failed"
        envelope = record["error"]
        assert envelope["type"] == "EngineError"
        error = api.error_from_envelope(envelope)
        assert isinstance(error, EngineError)
        assert error.spec_name == "no-such-workload"
        assert error.worker_traceback  # the server-side traceback survives
        # The job counter tells the failure story too.
        assert client.stats()["metrics"]["counters"]["service.jobs.failed"] >= 1

    def test_collect_mode_reports_instead_of_failing(self, client):
        accepted = client.submit_sweep(
            [
                RunSpec(workload="no-such-workload", instructions=100),
                RunSpec(**SPEC),
            ],
            on_error="collect",
        )
        record = client.wait(accepted["job"])
        assert record["state"] == "done"
        assert record["report"]["total"] == 2
        assert [f["name"] for f in record["report"]["failures"]] == [
            "no-such-workload"
        ]
        assert [run["name"] for run in record["runs"]] == ["educational"]

    def test_job_whose_summary_raises_fails_and_the_queue_drains_on(
        self, monkeypatch
    ):
        # Summarizing a finished run can raise (a run resolved from an
        # older cache, say); that must fail the job, not the queue's one
        # worker task, or every later job would wait forever.
        svc = ExperimentService(concurrency=1).start_in_thread()
        own = ServiceClient("http://127.0.0.1:{}".format(svc.port))
        real = api.run_summary
        raised = []

        def summary_raising_once(run, digest=None):
            if not raised:
                raised.append(digest)
                raise AttributeError("manifest without a field")
            return real(run, digest)

        monkeypatch.setattr(api, "run_summary", summary_raising_once)
        try:
            spec = RunSpec(**SPEC)
            first = own.wait(own.submit_sweep([spec])["job"], timeout=120)
            assert first["state"] == "failed"
            assert first["error"]["type"] == "AttributeError"
            second = own.wait(own.submit_sweep([spec])["job"], timeout=60)
            assert second["state"] == "done"
        finally:
            svc.shutdown()


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
COUNTS = st.integers(min_value=0, max_value=1 << 40)
#: A well-typed value for every field the wire format carries.
WELL_TYPED = {
    "workload": st.text(max_size=12),
    "instructions": COUNTS,
    "warmup_instructions": COUNTS,
    "process_count": st.none() | COUNTS,
    "seed_offset": st.integers(),
    "label": st.none() | st.text(max_size=12),
    "config": st.none() | st.fixed_dictionaries(
        {},
        optional={
            name: st.none()
            | (st.booleans() if name == "decode_overlap" else st.integers())
            for name in MachineConfig.__dataclass_fields__
        },
    ),
}
#: Specs the service accepts, and spec-shaped dicts with any field
#: missing, mistyped or unknown.
SPEC_PAYLOADS = st.fixed_dictionaries(
    {"workload": WELL_TYPED["workload"]},
    optional={name: WELL_TYPED[name] for name in WELL_TYPED if name != "workload"},
) | st.fixed_dictionaries(
    {},
    optional=dict(
        {name: strategy | JSON_VALUES for name, strategy in WELL_TYPED.items()},
        bogus=JSON_VALUES,
    ),
)


def _is_object(body: bytes) -> bool:
    try:
        return isinstance(json.loads(body.decode("utf-8")), dict)
    except (UnicodeDecodeError, ValueError, RecursionError):
        return False


class TestInputFuzz:
    """The service's input boundary under arbitrary input.  Only bodies
    the service must refuse are fuzzed: an accepted spec would run."""

    @settings(max_examples=400, deadline=None)
    @given(payload=JSON_VALUES | SPEC_PAYLOADS)
    def test_spec_payload_decodes_or_is_refused(self, payload):
        from repro.obs.provenance import config_hash

        try:
            spec = api.spec_from_payload(payload)
        except api.ApiError:
            return
        wire = json.loads(json.dumps(api.spec_to_payload(spec)))
        clone = api.spec_from_payload(wire)
        assert clone == spec
        assert config_hash(clone) == config_hash(spec)

    @pytest.fixture(scope="class")
    def fresh(self):
        svc = ExperimentService(concurrency=1).start_in_thread()
        yield svc, ServiceClient("http://127.0.0.1:{}".format(svc.port))
        svc.shutdown()

    @settings(max_examples=150, deadline=None)
    @given(
        body=st.binary(max_size=256).filter(lambda body: not _is_object(body))
        | JSON_VALUES.filter(lambda value: not isinstance(value, dict)).map(
            lambda value: json.dumps(value).encode("utf-8")
        )
    )
    def test_non_object_bodies_are_a_400_and_create_no_job(self, fresh, body):
        service, client = fresh
        assert post_sweeps(service.port, body) == BAD_REQUEST
        assert client.jobs() == []
