"""The scheduling layer: what runs, in what order, and what never runs.

Top layer of the engine split (scheduler / executor / cache-resolution).
The :mod:`~repro.core.executor` knows how to run one unit of work; the
:mod:`~repro.core.cache_resolution` layer knows what is already banked;
this module decides, along one orchestration path:

* the :class:`Scheduler` is the only front door.  Every CLI command
  that runs a sweep (``composite``, ``sweep``, ``stats``), the
  experiment service and the module-level :func:`run_specs` (a sweep
  through a short-lived Scheduler) call ``Scheduler.run_specs``, so one
  code path decides what executes, whoever the client is;
* what it executes is the sweep's owned specs, each one task of the
  executor's one retry loop,
  :func:`~repro.core.executor._run_pool_tasks`, which runs them
  in-process for ``jobs <= 1`` and ``jobs`` at a time across a process
  pool otherwise.  A task is one spec measured by
  :func:`~repro.core.executor.execute_spec` as a chain of ``shards``
  resumable spans (one span unless the scheduler was given more), so
  retries, timeouts, crash respawn and interrupt reports apply to every
  spec alike.  How a spec runs — build, warm-up, measure, merge — lives
  in the executor; this module only decides which specs run.

A spec's identity is its :func:`~repro.obs.provenance.config_hash` (the
determinism guarantee makes equal hashes mean bit-identical results),
and every index of a sweep resolves through one *ticket* for its
digest, taken in this order:

1. a repeat of an earlier index of the same sweep shares that index's
   ticket;
2. the bounded **result index** of completed runs (newest-kept LRU) —
   a repeat sweep resolves instantly;
3. the **in-flight registry** — a concurrent client submitting an
   already-running spec *attaches* to the running ticket and receives
   the same payload when it lands, instead of enqueueing a duplicate
   execution;
4. the content-addressed **RunCache** (run-level objects, see
   :func:`~repro.core.cache_resolution.load_cached_run`) — dedupe
   that survives server restarts;
5. otherwise the sweep owns a new ticket and executes the spec; one
   settle step then publishes each finished run (so even an aborted
   sweep keeps what it finished) or hands the ticket its failure.

Deduplicated runs carry honest provenance: their manifests mark
``attached_to`` (or ``resumed_from`` for cache hits) and report zero
wall seconds — wall-clock time is recorded once, at the site that
actually executed, never fabricated onto attachments.  Sweep-level
timing is recorded once here (``scheduler.sweep.seconds``).

Thread model: the Scheduler is thread-safe; registry bookkeeping sits
under one lock and actual engine execution is serialized under another
(the simulator's memoized layout/program caches are process-global and
unproven under concurrent in-process mutation, and process pools must
not be forked from several threads at once; a scheduler with persistent
workers lends its one pool to one sweep at a time).  Attached clients
block on a ticket event, not on the execution lock, so waiting is free.
"""

from __future__ import annotations

import copy
import functools
import multiprocessing
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache_resolution import load_cached_run, store_run
from repro.core.executor import (
    EngineError,
    EngineRun,
    ProgressCallback,
    ProgressEvent,
    RunSpec,
    WorkerPool,
    _execute_guarded,
    _ignore_progress,
    _record_healing,
    _run_pool_tasks,
)

def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    policy=None,
):
    """Execute ``specs``, ``jobs`` at a time; results keep spec order.

    A sweep through a short-lived :class:`Scheduler`, so it has the
    front door's contract: each unique configuration executes once and
    a duplicate comes back as an attached copy.  ``jobs <= 1`` runs
    in-process (no pool, no pickling requirement) through the same
    retry loop as a pooled sweep
    (:func:`~repro.core.executor._run_pool_tasks`); parallel execution
    produces bit-identical payloads, just faster.

    ``progress`` receives a :class:`ProgressEvent` when each spec is
    dispatched, retried, completed or failed — the CLI renders these as
    live per-workload status lines.

    ``policy`` (a :class:`~repro.core.resilience.ResiliencePolicy`)
    governs the failure behaviour; the default is one attempt, no
    timeout, and a failing spec raises :class:`EngineError` naming the
    spec and carrying the worker-side traceback.  With
    ``policy.on_error == "collect"`` the sweep is fail-soft: the return
    value is a :class:`~repro.core.resilience.SweepResult` whose
    ``runs`` list has ``None`` at failed indices and whose ``report``
    tells the story.  A ``KeyboardInterrupt`` mid-sweep cancels
    outstanding work, persists the partial report when the policy names
    a path, and re-raises as
    :class:`~repro.core.resilience.SweepInterrupted`.
    """
    return Scheduler(jobs=jobs).run_specs(specs, progress=progress, policy=policy)


# ----------------------------------------------------------------------
# the multi-client scheduler
# ----------------------------------------------------------------------


class _Ticket:
    """How one unique digest resolves: to a run or an error, once its
    ``event`` is set.  A ticket for a run already in hand (an index hit,
    a cache revival) is born set; an owner's ticket sits in the
    in-flight registry until its sweep settles it."""

    __slots__ = ("digest", "event", "run", "error")

    def __init__(self, digest: str, run: Optional[EngineRun] = None):
        self.digest = digest
        self.event = threading.Event()
        self.run = run
        self.error: Optional[BaseException] = None
        if run is not None:
            self.event.set()


class Scheduler:
    """The front door over the executor and the cache.

    One instance serves every client — CLI commands and the
    module-level :func:`run_specs` construct a short-lived one per
    sweep; the experiment service keeps one for its whole lifetime and
    feeds it from many worker threads.  Each call to :meth:`run_specs`
    gives every index a ticket (batch duplicate → result index →
    in-flight attach → run cache → owned, in that order), executes the
    owned specs through the executor's retry loop (each one
    :func:`~repro.core.executor.execute_spec` call over ``shards``
    shards; progress events are per spec), settles every owned ticket so
    concurrent and future clients dedupe against it, and hands each
    index a private copy.

    ``run_resolution`` additionally banks and resolves whole runs in
    the content-addressed cache (the service turns this on; shard-level
    caching inside ``execute_spec`` is independent of it).

    Where the work runs: by default as the CLI has always run it — a
    ``jobs=1`` sweep in-process, ``jobs > 1`` on a pool built for that
    call.  With ``persistent_workers`` (``repro serve``) the scheduler
    owns a :class:`~repro.core.executor.WorkerPool` of ``jobs`` workers
    for its lifetime, ``jobs=1`` included, and every sweep borrows it:
    simulations stay off the owner's interpreter, where they would
    compete with its request threads for the GIL, and retries,
    ``spec_timeout`` preemption, crash respawn and degradation apply to
    them as to any pooled sweep.  Those workers are spawned, not forked:
    the owner already runs threads, which a forked child would inherit
    in whatever state they held, and a spawned worker reads the
    environment (fault plans included) when it starts.  :meth:`close`
    stops them.
    """

    def __init__(
        self,
        jobs: int = 1,
        shards: int = 1,
        cache=None,
        policy=None,
        metrics=None,
        result_index_size: int = 256,
        run_resolution: bool = False,
        persistent_workers: bool = False,
    ):
        self.jobs = jobs
        self.shards = shards
        self.cache = cache
        self.policy = policy
        self.metrics = metrics
        self.result_index_size = max(1, result_index_size)
        self.run_resolution = run_resolution
        self._pool = (
            WorkerPool(jobs, multiprocessing.get_context("spawn"))
            if persistent_workers
            else None
        )
        #: registry + index bookkeeping
        self._lock = threading.Lock()
        #: serializes actual engine execution across client threads
        self._exec_lock = threading.Lock()
        self._inflight: Dict[str, _Ticket] = {}
        self._index: "OrderedDict[str, EngineRun]" = OrderedDict()

    def close(self) -> None:
        """Stop and join the persistent workers (a no-op without them)."""
        if self._pool is not None:
            self._pool.close()

    # -- metrics helpers ---------------------------------------------------

    def _count(self, name: str, description: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name, description).inc(amount)

    def stats_snapshot(self) -> Dict:
        """Registry + index occupancy and (when wired) the counters."""
        with self._lock:
            payload = {
                "inflight": len(self._inflight),
                "result_index": len(self._index),
                "result_index_size": self.result_index_size,
            }
        if self.metrics is not None:
            payload["metrics"] = self.metrics.snapshot()
        return payload

    # -- the result index --------------------------------------------------

    def _index_put(self, digest: str, run: EngineRun) -> None:
        """Publish a completed run; oldest entries fall off the end."""
        self._index[digest] = run
        self._index.move_to_end(digest)
        while len(self._index) > self.result_index_size:
            self._index.popitem(last=False)

    def result_for(self, digest: str) -> Optional[EngineRun]:
        """Look one completed run up by its config-hash digest —
        the ``GET /results/{digest}`` primitive.  Falls back to the
        run cache when the index has rotated the entry out (a revived
        run carries ``resumed_from`` provenance, as in :meth:`run_specs`)."""
        with self._lock:
            run = self._index.get(digest)
            if run is not None:
                self._index.move_to_end(digest)
                return run
        if self.run_resolution and self.cache is not None:
            return load_cached_run(self.cache, digest)
        return None

    # -- one sweep ---------------------------------------------------------

    @staticmethod
    def _client_copy(
        run: EngineRun, spec: RunSpec, attached_to: Optional[str]
    ) -> EngineRun:
        """A client's private view of a run: one deep copy, so clients
        cannot corrupt each other's payloads or the index, named after
        the spec that asked for it (a label is not part of the digest,
        so specs differing only by label share one run).

        A run the client attached to instead of executing carries
        honest provenance: zero wall seconds (the work happened once,
        elsewhere — copying the executor's timing would double-count it
        in any aggregation over manifests) and ``attached_to`` naming
        the digest it deduplicated against."""
        client = copy.deepcopy(run)
        client.spec = spec
        client.result.name = spec.name
        if client.manifest is not None:
            client.manifest.spec_name = spec.name
        if attached_to is not None:
            client.wall_seconds = 0.0
            if client.manifest is not None:
                client.manifest.wall_seconds = 0.0
                client.manifest.attached_to = attached_to
        return client

    def _ticket_for(self, digest: str) -> Tuple[_Ticket, bool]:
        """The ticket the first index of ``digest`` in a sweep resolves
        through (result index → in-flight attach → run cache → a new
        owned ticket), and whether the index attaches to work done
        elsewhere.  Called under ``self._lock``."""
        held = self._index.get(digest)
        if held is not None:
            self._index.move_to_end(digest)
            self._count(
                "scheduler.specs.resolved_index",
                "specs resolved from the bounded result index",
            )
            return _Ticket(digest, held), True
        ticket = self._inflight.get(digest)
        if ticket is not None:
            self._count(
                "scheduler.specs.attached_inflight",
                "specs attached to an already-running job instead"
                " of executing a duplicate",
            )
            return ticket, True
        if self.run_resolution and self.cache is not None:
            run = load_cached_run(self.cache, digest)
            if run is not None:
                self._index_put(digest, run)
                self._count(
                    "scheduler.specs.resolved_cache",
                    "specs resolved whole from the run cache",
                )
                return _Ticket(digest, run), False
        ticket = self._inflight[digest] = _Ticket(digest)
        return ticket, False

    def _execute_batch(self, specs: List[Optional[RunSpec]], notify, policy):
        """The one path that actually executes work: the executor's
        retry loop over the sweep's owned specs, each one
        :func:`~repro.core.executor._execute_guarded` task.

        ``specs`` is the whole sweep, with ``None`` at every index that
        resolves without executing, so progress events and the returned
        ``(runs, report)`` carry sweep-local indices; ``runs`` holds
        ``None`` wherever nothing finished.  A raise-mode sweep stops at
        its first failure and still returns the runs that finished
        (the report names the failure); a ``KeyboardInterrupt`` saves
        the partial report when the policy names a path and raises
        :class:`~repro.core.resilience.SweepInterrupted`."""
        from repro.core.resilience import FailureReport, SweepInterrupted

        task = functools.partial(_execute_guarded, shards=self.shards, cache=self.cache)
        total = len(specs)
        runs: List[Optional[EngineRun]] = [None] * total
        report = FailureReport(total=total)

        def describe(index):
            return specs[index].name

        def on_start(index):
            notify(ProgressEvent("start", index, total, specs[index].name))

        def on_done(index, payload):
            notify(
                ProgressEvent(
                    "done", index, total, specs[index].name,
                    wall_seconds=payload[1].wall_seconds,
                )
            )

        def on_retry(index, attempt, kind, error):
            notify(ProgressEvent("retry", index, total, specs[index].name, error=error))

        def absorb(payloads, failures, stats):
            for index, (payload, attempts) in payloads.items():
                run = payload[1]
                if run.manifest is not None:
                    run.manifest.attempts = attempts
                    _record_healing(policy, run.manifest)
                runs[index] = run
            report.retries += stats["retries"]
            report.timeouts += stats["timeouts"]
            report.pool_respawns += stats["pool_respawns"]
            report.degraded = stats["degraded"]
            report.failures.extend(failures[index] for index in sorted(failures))
            report.completed = [
                spec.name for spec, run in zip(specs, runs) if run is not None
            ]

        tasks = [(index, spec) for index, spec in enumerate(specs) if spec is not None]
        try:
            payloads, failures, stats = _run_pool_tasks(
                task, tasks, min(self.jobs, len(tasks)), policy, describe,
                on_start=on_start, on_done=on_done, on_retry=on_retry,
                pool=self._pool,
            )
        except SweepInterrupted as stop:
            absorb(stop.payloads, stop.failures, stop.stats)
            report.interrupted = True
            if policy.interrupt_report_path:
                report.save(policy.interrupt_report_path)
            policy.record_report(report)
            raise SweepInterrupted(report=report) from stop
        absorb(payloads, failures, stats)
        for failure in report.failures:
            notify(
                ProgressEvent(
                    "error", failure.index, total, failure.name, error=failure.error
                )
            )
        policy.record_report(report)
        return runs, report

    def _settle(self, specs: List[RunSpec], owned: Dict[int, _Ticket], outcome) -> None:
        """Fulfil every ticket this sweep owns from the batch
        ``outcome`` (``None`` when the batch raised): publish a finished
        run to the index, hand a failed spec its error, and tell the
        rest that the sweep stopped before they completed.  With
        ``run_resolution`` the finished runs are banked afterwards, so
        a failing cache write cannot strand a waiting client."""
        runs, report = outcome if outcome is not None else ([None] * len(specs), None)
        failed = {} if report is None else {f.index: f for f in report.failures}
        with self._lock:
            for index, ticket in owned.items():
                name = specs[index].name
                if runs[index] is not None:
                    self._count(
                        "scheduler.specs.executed",
                        "specs this scheduler actually executed",
                    )
                    self._index_put(ticket.digest, runs[index])
                    ticket.run = runs[index]
                elif index in failed:
                    ticket.error = failed[index].engine_error()
                elif failed:
                    first = report.failures[0]
                    ticket.error = EngineError(
                        name,
                        "the executing sweep aborted on {!r} before this spec"
                        " completed:\n{}".format(
                            first.name, first.worker_traceback or first.error
                        ),
                    )
                else:
                    ticket.error = EngineError(
                        name,
                        "the executing sweep was interrupted before this spec"
                        " completed",
                    )
                ticket.event.set()
                del self._inflight[ticket.digest]
        if self.run_resolution and self.cache is not None:
            for index in owned:
                if runs[index] is not None:
                    store_run(self.cache, specs[index], runs[index])

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
        policy=None,
    ):
        """Run one client's sweep through the dedupe-aware front door.

        Results keep spec order.  Every index resolves through one
        ticket: an index hit or a cache revival is a ticket already
        fulfilled, the first index of a new digest owns a ticket the
        sweep executes, and a later index of the same digest — in this
        sweep or in flight for another client — waits on that ticket.
        Each index gets a private copy; one it did not execute comes
        back with zeroed wall time and ``attached_to``/``resumed_from``
        provenance.

        Raise mode (the default policy) raises the first failure as an
        :class:`EngineError` naming the spec; runs that finished before
        it are still published.  Collect mode returns a
        :class:`~repro.core.resilience.SweepResult` whose report covers
        every index once: an executed failure keeps its kind, an index
        that waited on a failed ticket is ``"attached"``.  Thread-safe:
        any number of client threads may call this concurrently and
        each unique digest executes at most once across all of them."""
        from repro.obs.provenance import config_hash
        from repro.core.resilience import (
            FailureReport,
            ResiliencePolicy,
            SpecFailure,
            SweepResult,
        )

        specs = list(specs)
        notify = progress if progress is not None else _ignore_progress
        policy = (
            policy
            if policy is not None
            else (self.policy if self.policy is not None else ResiliencePolicy())
        )
        if policy.metrics is None and self.metrics is not None:
            # retries, timeouts and respawns land beside the dedupe
            # counters (the service's /stats)
            policy = replace(policy, metrics=self.metrics)
        sweep_started = time.perf_counter()

        #: per index: the ticket it resolves through, and whether it
        #: attaches to work done elsewhere
        entries: List[Tuple[_Ticket, bool]] = []
        owned: Dict[int, _Ticket] = {}
        with self._lock:
            first: Dict[str, _Ticket] = {}
            for index, spec in enumerate(specs):
                digest = config_hash(spec)
                if digest in first:
                    entries.append((first[digest], True))
                    self._count(
                        "scheduler.specs.deduped_batch",
                        "duplicate specs within one sweep attached to the"
                        " batch primary",
                    )
                    continue
                ticket, attached = self._ticket_for(digest)
                if not attached and not ticket.event.is_set():
                    owned[index] = ticket  # a new ticket: this sweep executes it
                first[digest] = ticket
                entries.append((ticket, attached))

        outcome = None
        try:
            if owned:
                with self._exec_lock:
                    batch = [
                        spec if index in owned else None
                        for index, spec in enumerate(specs)
                    ]
                    outcome = self._execute_batch(batch, notify, policy)
        finally:
            # Never leave a ticket unfulfilled: attached clients are
            # released even when the batch raises.
            self._settle(specs, owned, outcome)
        runs: List[Optional[EngineRun]] = [None] * len(specs)
        report = outcome[1] if outcome is not None else FailureReport(total=len(specs))
        if policy.on_error == "raise" and report.failures:
            raise owned[report.failures[0].index].error
        for index, (ticket, attached) in enumerate(entries):
            ticket.event.wait()
            if ticket.run is not None:
                runs[index] = self._client_copy(
                    ticket.run, specs[index], ticket.digest if attached else None
                )
            elif policy.on_error == "raise":
                raise ticket.error
            elif attached:
                report.failures.append(
                    SpecFailure(
                        name=specs[index].name,
                        index=index,
                        attempts=0,
                        kind="attached",
                        error=str(ticket.error).splitlines()[0],
                        worker_traceback=ticket.error.worker_traceback,
                    )
                )

        if self.metrics is not None:
            self.metrics.histogram(
                "scheduler.sweep.seconds",
                "wall-clock of one scheduled sweep, recorded once at the"
                " scheduler layer",
            ).observe(time.perf_counter() - sweep_started)
        if policy.on_error == "raise":
            return runs
        report.failures.sort(key=lambda failure: failure.index)
        report.completed = [
            spec.name for spec, run in zip(specs, runs) if run is not None
        ]
        return SweepResult(runs=runs, report=report)
