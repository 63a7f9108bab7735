"""The experiment service: an asyncio job queue over the scheduler.

``repro serve`` runs one :class:`ExperimentService`: a small HTTP/JSON
API (stdlib only — ``asyncio.start_server`` and a minimal HTTP/1.1
reader) in front of one long-lived
:class:`~repro.core.scheduler.Scheduler`.  Sweeps submitted by any
number of concurrent clients funnel through the same scheduler call the
CLI ``composite``/``sweep`` paths use, so a served job is retried,
timed out and fault-reported exactly like a CLI run — one orchestration
code path, not two.

Routes::

    POST /sweeps            {"specs": [...], "on_error": "raise"}
                            -> 202 {"job": "j-000001", "digests": [...]}
    GET  /jobs/{id}         job record: state, per-run summaries, error
    GET  /jobs              every job record, oldest first
    GET  /results/{digest}  one completed run, full JSON payload
    GET  /stats             scheduler occupancy + metric counters + jobs
    GET  /healthz           {"ok": true}

Concurrency model: requests are served on the event loop; each accepted
job goes onto an :class:`asyncio.Queue` drained by ``concurrency``
worker tasks, and each worker hands the blocking scheduler call to a
thread pool (``run_in_executor``).  Under ``repro serve``
(``persistent_workers=True``) the simulations themselves run in the
scheduler's persistent worker processes (``jobs`` of them, spawned on
the first job that executes anything), so a cold run never holds the
GIL the HTTP thread needs to answer index hits and fetches; the
scheduler thread only waits, resolves dedupe and unpickles results.
Shutdown (:meth:`ExperimentService.shutdown`, SIGINT or SIGTERM) stops
and joins those workers, and a worker whose server was killed outright
exits on its own.  Spawned workers re-import the owner's ``__main__``,
so a script that embeds a service with persistent workers must guard
its entry point with ``if __name__ == "__main__"``, and a program read
from stdin, which has no file to re-import, is refused.  An embedded
service without them (the constructor's default) runs simulations on
the scheduler's thread, as a CLI ``--jobs 1`` sweep does, and ``jobs >
1`` then builds a pool per sweep.  Dedupe between concurrently-running
jobs is the scheduler's: overlapping digests attach to the in-flight
ticket instead of executing twice, repeat sweeps resolve from the
bounded result index, and (when a cache is configured) whole runs
resolve from the content-addressed :class:`~repro.core.runcache.RunCache`
across server restarts.  A job every one of whose specs attached or
resolved finishes in state ``done`` like any other — its run summaries
carry the ``attached_to``/``resumed_from`` provenance and zero wall
seconds.

The server binds before it accepts (``port=0`` asks the OS for an
ephemeral port, published in :attr:`ExperimentService.port`), and
:meth:`start_in_thread`/:meth:`shutdown` give tests and the CLI clients
a service embedded in their own process.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.core.scheduler import Scheduler
from repro.obs.log import get_logger
from repro.service import api

#: Request bodies past this size are refused (413) before parsing.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Job records kept, oldest evicted first (the run payloads they point
#: at live in the scheduler's own bounded index, not here).
MAX_JOB_RECORDS = 512


class _Job:
    """One submitted sweep and everything a client can ask about it."""

    __slots__ = (
        "id", "specs", "digests", "on_error", "state", "submitted_at",
        "started_at", "finished_at", "runs", "error", "report",
    )

    def __init__(self, job_id: str, specs: List, digests: List[str], on_error: str):
        self.id = job_id
        self.specs = specs
        self.digests = digests
        self.on_error = on_error
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.runs: List[Dict] = []
        self.error: Optional[Dict] = None
        self.report: Optional[Dict] = None

    def record(self) -> Dict:
        payload = {
            "job": self.id,
            "state": self.state,
            "on_error": self.on_error,
            "digests": self.digests,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "runs": self.runs,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.report is not None:
            payload["report"] = self.report
        return payload


class ServiceError(Exception):
    """An HTTP-level refusal: carries the status and the JSON body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class ExperimentService:
    """The asyncio job queue + HTTP front end over one Scheduler."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        scheduler: Optional[Scheduler] = None,
        jobs: int = 1,
        shards: int = 1,
        cache=None,
        policy=None,
        metrics=None,
        concurrency: int = 2,
        result_index_size: int = 256,
        persistent_workers: bool = False,
    ):
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
        self.host = host
        self.port = port
        self.metrics = metrics
        self.concurrency = max(1, concurrency)
        self.scheduler = scheduler if scheduler is not None else Scheduler(
            jobs=jobs,
            shards=shards,
            cache=cache,
            policy=policy,
            metrics=metrics,
            result_index_size=result_index_size,
            # run-level cache resolution: dedupe that survives restarts
            run_resolution=cache is not None,
            persistent_workers=persistent_workers,
        )
        # registered up front so /stats reads 0 before the first eviction
        self._evicted = metrics.counter(
            "service.jobs.evicted",
            "job records dropped past MAX_JOB_RECORDS, oldest first",
        )
        self._log = get_logger("repro.service")
        self._jobs: "Dict[str, _Job]" = {}
        self._jobs_order: List[str] = []
        self._next_id = 0
        self._jobs_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: Optional[asyncio.Queue] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._failure: Optional[BaseException] = None

    # -- job bookkeeping ---------------------------------------------------

    def _new_job(self, specs, digests, on_error: str) -> _Job:
        with self._jobs_lock:
            self._next_id += 1
            job = _Job("j-{:06d}".format(self._next_id), specs, digests, on_error)
            self._jobs[job.id] = job
            self._jobs_order.append(job.id)
            while len(self._jobs_order) > MAX_JOB_RECORDS:
                dropped = self._jobs_order.pop(0)
                self._jobs.pop(dropped, None)
                self._evicted.inc()
            self.metrics.counter(
                "service.jobs.submitted", "sweeps accepted by POST /sweeps"
            ).inc()
        return job

    def job_record(self, job_id: str) -> Optional[Dict]:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            return None if job is None else job.record()

    def job_records(self) -> List[Dict]:
        with self._jobs_lock:
            return [self._jobs[job_id].record() for job_id in self._jobs_order]

    # -- executing one job -------------------------------------------------

    def _run_job(self, job: _Job) -> None:
        """The blocking body handed to the thread pool: one scheduler
        call, then the job record is rewritten from its outcome."""
        from repro.core.resilience import ResiliencePolicy, SweepResult

        policy = self.scheduler.policy
        if job.on_error == "collect":
            base = policy if policy is not None else ResiliencePolicy()
            policy = ResiliencePolicy(
                retry=base.retry,
                spec_timeout=base.spec_timeout,
                on_error="collect",
                max_pool_respawns=base.max_pool_respawns,
                metrics=base.metrics,
            )
        try:
            outcome = self.scheduler.run_specs(job.specs, policy=policy)
            if isinstance(outcome, SweepResult):
                runs = outcome.runs
                job.report = outcome.report.to_dict()
            else:
                runs = outcome
            # summarizing stays inside the try: a run resolved from an
            # older cache must fail its job, not the worker task
            job.runs = [
                api.run_summary(run, digest)
                for run, digest in zip(runs, job.digests)
                if run is not None
            ]
        except Exception as error:  # noqa: BLE001 — every failure becomes JSON
            job.error = api.error_envelope(error)
            job.state = "failed"
            self.metrics.counter(
                "service.jobs.failed", "sweeps that raised instead of finishing"
            ).inc()
            return
        job.state = "done"
        self.metrics.counter(
            "service.jobs.completed", "sweeps finished and published"
        ).inc()

    async def _worker(self, executor: ThreadPoolExecutor) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            job.state = "running"
            job.started_at = time.time()
            try:
                await loop.run_in_executor(executor, self._run_job, job)
            finally:
                job.finished_at = time.time()
                self._queue.task_done()

    # -- HTTP plumbing -----------------------------------------------------

    async def _read_request(self, reader: asyncio.StreamReader):
        head = await reader.readuntil(b"\r\n\r\n")
        request_line, _, header_block = head.partition(b"\r\n")
        try:
            method, target, _version = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            raise ServiceError(400, "malformed request line")
        headers = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = headers.get("content-length", "0") or "0"
        if not length.isdecimal():  # a sign or junk: int() or readexactly fails
            raise ServiceError(400, "malformed Content-Length")
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target.split("?", 1)[0], body

    @staticmethod
    def _respond(writer: asyncio.StreamWriter, status: int, payload: Dict) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request",
                   404: "Not Found", 405: "Method Not Allowed",
                   413: "Payload Too Large", 500: "Internal Server Error"}
        body = json.dumps(payload).encode("utf-8")
        head = (
            "HTTP/1.1 {} {}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: {}\r\n"
            "Connection: close\r\n\r\n"
        ).format(status, reasons.get(status, "Status"), len(body))
        writer.write(head.encode("latin-1") + body)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                status, payload = self._route(method, path, body)
            except ServiceError as refusal:
                status, payload = refusal.status, {"error": refusal.message}
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            except Exception as error:  # noqa: BLE001 — keep the server up
                status, payload = 500, {"error": repr(error)}
            self._respond(writer, status, payload)
            await writer.drain()
        finally:
            writer.close()

    def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            return 200, {"ok": True}
        if path == "/stats":
            payload = self.scheduler.stats_snapshot()
            with self._jobs_lock:
                payload["jobs"] = {
                    "records": len(self._jobs_order),
                    "queued": self._queue.qsize() if self._queue else 0,
                }
            return 200, payload
        if path == "/sweeps":
            if method != "POST":
                raise ServiceError(405, "POST /sweeps")
            return self._route_submit(body)
        if path == "/jobs":
            return 200, {"jobs": self.job_records()}
        if path.startswith("/jobs/"):
            record = self.job_record(path[len("/jobs/"):])
            if record is None:
                raise ServiceError(404, "no such job")
            return 200, record
        if path.startswith("/results/"):
            digest = path[len("/results/"):]
            run = self.scheduler.result_for(digest)
            if run is None:
                raise ServiceError(404, "no completed run for that digest")
            return 200, api.run_to_payload(run)
        raise ServiceError(404, "unknown route")

    def _route_submit(self, body: bytes):
        from repro.obs.provenance import config_hash

        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, "body is not valid JSON: {}".format(error))
        if not isinstance(payload, dict) or not isinstance(
            payload.get("specs"), list
        ) or not payload["specs"]:
            raise ServiceError(400, "body must be {\"specs\": [spec, ...]}")
        on_error = payload.get("on_error", "raise")
        if on_error not in ("raise", "collect"):
            raise ServiceError(400, "on_error must be 'raise' or 'collect'")
        try:
            specs = [api.spec_from_payload(item) for item in payload["specs"]]
        except api.ApiError as error:
            raise ServiceError(400, str(error))
        digests = [config_hash(spec) for spec in specs]
        job = self._new_job(specs, digests, on_error)
        self._queue.put_nowait(job)
        self._log.info("job accepted", job=job.id, specs=len(specs))
        return 202, {"job": job.id, "digests": digests}

    # -- lifecycle ---------------------------------------------------------

    async def _main(self, announce=None) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        executor = ThreadPoolExecutor(
            max_workers=self.concurrency, thread_name_prefix="repro-service"
        )
        workers = [
            asyncio.ensure_future(self._worker(executor))
            for _ in range(self.concurrency)
        ]
        self._log.info(
            "serving", host=self.host, port=self.port, workers=self.concurrency
        )
        if threading.current_thread() is threading.main_thread():
            # SIGINT and SIGTERM both shut down cleanly: the worker
            # processes are joined, not orphaned.  SIGINT is handled
            # here, not left to KeyboardInterrupt, because a server
            # started in the background of a non-interactive shell
            # inherits SIGINT as ignored.
            for signum in (signal.SIGINT, signal.SIGTERM):
                self._loop.add_signal_handler(signum, self._stop.set)
        if announce is not None:
            announce(self)
        self._ready.set()
        try:
            async with server:
                await self._stop.wait()
        finally:
            for worker in workers:
                worker.cancel()
            executor.shutdown(wait=False)
            self.scheduler.close()

    def run(self, announce=None) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            asyncio.run(self._main(announce=announce))
        except KeyboardInterrupt:
            self._log.info("service interrupted")

    def start_in_thread(self, timeout: float = 10.0) -> "ExperimentService":
        """Serve on a daemon thread; returns once the port is bound."""

        def body():
            try:
                asyncio.run(self._main())
            except BaseException as error:  # noqa: BLE001 — surfaced below
                self._failure = error
                self._ready.set()

        self._thread = threading.Thread(target=body, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service did not come up within {}s".format(timeout))
        if self._failure is not None:
            raise RuntimeError("service failed to start") from self._failure
        return self

    def shutdown(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)
