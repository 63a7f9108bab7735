"""The scheduling layer: what runs, in what order, and what never runs.

Top layer of the engine split (scheduler / executor / cache-resolution).
The :mod:`~repro.core.executor` knows how to run one unit of work; the
:mod:`~repro.core.cache_resolution` layer knows what is already banked;
this module decides, along one orchestration path:

* the :class:`Scheduler` is the front door.  Every CLI command that
  runs a sweep (``composite``, ``sweep``, ``stats``) and the experiment
  service call ``Scheduler.run_specs``, so one code path decides what
  executes, whoever the client is;
* what it executes is a sweep of specs, each one task of the
  executor's one retry loop,
  :func:`~repro.core.executor._run_pool_tasks`, which runs them
  in-process for ``jobs <= 1`` and ``jobs`` at a time across a process
  pool otherwise.  A task is a whole spec (:func:`run_specs`) or, with
  ``shards > 1``, one spec executed in-process as resumable shards
  (:func:`execute_spec_sharded`) — so retries, timeouts, crash respawn
  and interrupt reports apply to sharded specs exactly as to whole
  ones.

The Scheduler deduplicates three ways before spending simulation time.
A spec's identity is its :func:`~repro.obs.provenance.config_hash`
(the determinism guarantee makes equal hashes mean bit-identical
results), and each unique digest is checked against:

1. the server's bounded **result index** of completed jobs (newest-kept
   LRU) — a repeat sweep resolves instantly;
2. the **in-flight registry** — a concurrent client submitting an
   already-running spec *attaches* to the running ticket and receives
   the same payload when it lands, instead of enqueueing a duplicate
   execution;
3. the content-addressed **RunCache** (run-level objects, see
   :func:`~repro.core.cache_resolution.resolve_cached_run`) — dedupe
   that survives server restarts.

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
import traceback
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cache_resolution import (
    load_cached_shard,
    load_cached_snapshot,
    resolve_cached_run,
    shard_cache_keys,
    store_boundary_snapshot,
    store_run,
    store_shard,
)
from repro.core.executor import (
    EngineError,
    EngineRun,
    ProgressCallback,
    ProgressEvent,
    RunSpec,
    ShardResult,
    WorkerPool,
    _execute_spec_guarded,
    _ignore_progress,
    _run_pool_tasks,
    _spec_configure,
    execute_spec,
    shard_boundaries,
)
from repro.testing import faults


def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    policy=None,
):
    """Execute ``specs``, ``jobs`` at a time; results keep spec order.

    ``jobs <= 1`` runs in-process (no pool, no pickling requirement)
    through the same retry loop as a pooled sweep
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
    return _sweep(_execute_spec_guarded, specs, jobs, progress, policy)


def _sweep(task, specs: Sequence[RunSpec], jobs: int, progress, policy, pool=None):
    """:func:`run_specs` with the guarded pool task ``task(spec)`` as a
    parameter: whole specs (:func:`_execute_spec_guarded`) or sharded
    ones (:func:`_execute_sharded_guarded`) share one retry loop, which
    borrows ``pool`` (a :class:`~repro.core.executor.WorkerPool`) when
    the caller owns one."""
    from repro.core.resilience import (
        FailureReport,
        ResiliencePolicy,
        SweepInterrupted,
        SweepResult,
    )

    specs = list(specs)
    total = len(specs)
    notify = progress if progress is not None else _ignore_progress
    policy = policy if policy is not None else ResiliencePolicy()
    results: List[Optional[EngineRun]] = [None] * total
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
            results[index] = run
        report.retries += stats["retries"]
        report.timeouts += stats["timeouts"]
        report.pool_respawns += stats["pool_respawns"]
        report.degraded = stats["degraded"]
        report.failures.extend(failures[index] for index in sorted(failures))
        report.completed = [
            spec.name for spec, run in zip(specs, results) if run is not None
        ]

    tasks = list(enumerate(specs))
    try:
        payloads, failures, stats = _run_pool_tasks(
            task, tasks, min(jobs, total), policy, describe,
            on_start=on_start, on_done=on_done, on_retry=on_retry, pool=pool,
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
    if report.failures and policy.on_error == "raise":
        raise report.failures[0].engine_error()
    if policy.on_error == "collect":
        return SweepResult(runs=results, report=report)
    return results


# ----------------------------------------------------------------------
# intra-workload sharding
# ----------------------------------------------------------------------
#
# One workload's N-instruction measurement splits into K resumable
# shards at instruction boundaries i*N//K.  Everything the measurement
# produces is additive — monitor banks, event counters, hardware stats —
# so each shard records its *delta* and merging the deltas in order is
# bit-identical to the uninterrupted run (asserted by the equivalence
# tests, like the composite case).
#
# Simulation is inherently serial (shard i+1 starts from shard i's end
# state), so a sharded run executes in-process: each maximal run of
# missing shards is one chain from the deepest cached boundary snapshot
# at or below its first shard, banking a machine snapshot at every
# boundary it passes.  The speedup comes from the content-addressed
# cache — finished shards replay instantly on re-runs and a chain starts
# as deep as the cache allows — while parallelism is across specs: the
# Scheduler hands each sharded spec to the executor's retry loop as one
# task, so ``jobs`` sharded specs run at once with the same retries,
# timeouts and crash recovery as whole specs.  Boundary offsets are
# absolute instruction counts, so different shard counts share the
# snapshots they have in common (a 2-way split reuses a 4-way split's
# midpoint).
#
# Fault tolerance rides the same structure: a corrupt cached shard or
# snapshot is quarantined (RunCache.quarantine) and treated as a miss,
# and whatever a failed chain left unfilled is recomputed by one repair
# pass from the deepest healthy snapshot — the determinism guarantee
# makes the repaired shards bit-identical to what the failed chain
# would have produced.


def _shard_name(spec: RunSpec, index: int, shards: int) -> str:
    return "{}[shard {}/{}]".format(spec.name, index + 1, shards)


def _open_chain_kernel(
    spec: RunSpec,
    boundaries: List[int],
    start_index: int,
    cache,
    snapshot_keys: Dict[int, str],
    chash: str,
):
    """Open a measuring kernel for a chain that wants to start at
    ``start_index``.

    Restores the deepest *healthy* cached boundary snapshot at or below
    the requested index — corrupt candidates are quarantined and the
    search continues shallower — falling back to a fresh build + warmup
    at instruction 0.  Returns ``(kernel, anchor_index,
    resumed_digest)``; the caller's chain must run from ``anchor_index``
    (which may be below ``start_index``, recomputing spans whose results
    are already known, because simulation state is only reachable by
    simulating)."""
    # Resolved at call time so tests can patch the one well-known
    # ``repro.core.experiment.prepare_workload`` seam.
    from repro.core import experiment

    if cache is not None:
        for candidate in range(start_index, -1, -1):
            key = snapshot_keys[boundaries[candidate]]
            if not cache.has(key):
                continue
            kernel, digest = load_cached_snapshot(cache, key)
            if kernel is not None:
                return kernel, candidate, digest
    kernel, _ = experiment.prepare_workload(
        spec.workload,
        process_count=spec.process_count,
        seed_offset=spec.seed_offset,
        configure=_spec_configure(spec),
    )
    kernel.run(max_instructions=spec.warmup_instructions)
    kernel.start_measurement()
    if cache is not None and not cache.has(snapshot_keys[0]):
        store_boundary_snapshot(cache, snapshot_keys[0], kernel, spec.name, chash, 0)
    return kernel, 0, None


def _run_shard_chain(
    spec: RunSpec,
    boundaries: List[int],
    start_index: int,
    end_index: int,
    results: List[Optional[ShardResult]],
    cache,
    shard_keys: List[str],
    snapshot_keys: Dict[int, str],
    chash: str,
    notify: ProgressCallback,
    shards: int,
    chain_compile: list,
) -> Optional[str]:
    """Execute a contiguous run of shards in-process.

    Starts from the deepest healthy cached boundary snapshot (or a
    fresh build + warmup when none survives), emits every missing shard
    result and boundary snapshot into the cache as it passes, and
    returns the digest of the snapshot it resumed from, if any.  Spans
    whose results are already filled are simulated through without
    re-storing — the chain needs their end state, not their numbers.
    The chain machine's ``(compile_stats, compile_active)`` is appended
    to ``chain_compile`` before any shard runs, so a failed chain's
    replay work is counted too."""
    from repro.core.executor import _measure_span

    kernel, anchor, resumed_digest = _open_chain_kernel(
        spec, boundaries, start_index, cache, snapshot_keys, chash
    )
    ebox = kernel.machine.ebox
    chain_compile.append((ebox.compile_stats, ebox._compile_active))
    for index in range(anchor, end_index + 1):
        span = boundaries[index + 1] - boundaries[index]
        name = _shard_name(spec, index, shards)
        notify(ProgressEvent("start", index, shards, name))
        histogram, events, stats, wall = _measure_span(
            kernel, span, fault_key="{}@{}".format(spec.name, boundaries[index])
        )
        if results[index] is None:
            shard = ShardResult(
                index=index,
                shard_count=shards,
                start_instruction=boundaries[index],
                instructions=span,
                histogram=histogram,
                events=events,
                stats=stats,
                wall_seconds=wall,
            )
            results[index] = shard
            if cache is not None:
                store_shard(cache, shard_keys[index], shard, spec.name, chash)
        notify(ProgressEvent("done", index, shards, name, wall_seconds=wall))
        next_boundary = boundaries[index + 1]
        if cache is not None and index + 1 < shards:
            key = snapshot_keys[next_boundary]
            if not cache.has(key):
                store_boundary_snapshot(
                    cache, key, kernel, spec.name, chash, next_boundary
                )
    return resumed_digest


def _merge_shard_results(
    spec: RunSpec, shard_results: List[ShardResult]
):
    """Merge shard deltas into one ExperimentResult + sparse histogram.

    The same readout-side machinery the composite uses:
    :meth:`HistogramBoard.merge_from` sums the banks,
    :meth:`EventCounters.merge_from` and :meth:`MachineStats.merge_from`
    sum the companion channels, and one reduction runs over the summed
    banks — bit-identical to reducing the uninterrupted run."""
    from repro.core.experiment import ExperimentResult, MachineStats
    from repro.core.monitor import HistogramBoard
    from repro.core.reduction import reduce_histogram
    from repro.cpu.events import EventCounters
    from repro.ucode.routines import build_layout
    from repro.workloads import profile_by_name

    board = HistogramBoard()
    merged_events = EventCounters()
    merged_stats = MachineStats()
    for shard in shard_results:
        board.merge_from(HistogramBoard.from_sparse(*shard.histogram))
        merged_events.merge_from(shard.events)
        merged_stats.merge_from(shard.stats)
    counts, stalled = board.dump()
    reduction = reduce_histogram(counts, stalled, build_layout(), events=merged_events)
    result = ExperimentResult(
        name=profile_by_name(spec.workload).name,
        reduction=reduction,
        events=merged_events,
        stats=merged_stats,
    )
    if spec.label is not None or spec.config is not None:
        result.name = spec.name
    return result, board.dump_sparse()


def _shard_status_map(results: List[Optional[ShardResult]]) -> Dict[int, str]:
    """Per-shard outcome: the diagnosable face of a partial failure."""
    return {
        index: "unfilled"
        if shard is None
        else ("from-cache" if shard.from_cache else "computed")
        for index, shard in enumerate(results)
    }


def _shard_failure_text(
    results: List[Optional[ShardResult]],
    chain_failure: Optional[str],
    repair_failure: Optional[str],
) -> str:
    """Compose the EngineError body for a sharded failure: the
    per-shard status map first, then every traceback we hold."""
    shards = len(results)
    lines = ["sharded execution left shards unfilled; per-shard status:"]
    for index, status in _shard_status_map(results).items():
        lines.append("  shard {}/{}: {}".format(index + 1, shards, status))
    if chain_failure:
        lines.append("chain traceback:\n{}".format(chain_failure))
    if repair_failure:
        lines.append("repair-chain traceback:\n{}".format(repair_failure))
    return "\n".join(lines)


def _missing_runs(results: List[Optional[ShardResult]]) -> List[Tuple[int, int]]:
    """Maximal runs ``(first, last)`` of consecutive unfilled shards."""
    runs: List[Tuple[int, int]] = []
    for index, shard in enumerate(results):
        if shard is not None:
            continue
        if runs and runs[-1][1] == index - 1:
            runs[-1] = (runs[-1][0], index)
        else:
            runs.append((index, index))
    return runs


def _record_healing(policy, manifest) -> None:
    """Fold a sharded run's self-healing into the policy's metrics."""
    if policy.metrics is None or manifest.shards <= 1:
        return
    policy.metrics.counter(
        "engine.quarantined_objects", "corrupt cache objects quarantined"
    ).inc(manifest.quarantined_objects)
    policy.metrics.counter(
        "engine.repaired_shards", "shards recomputed by the repair pass"
    ).inc(manifest.repaired_shards)


def _chain_compile_metrics(chain_compile) -> Optional[Dict]:
    """The chain machines' compile diagnostics, summed, as the same
    ``sim.compile.*`` metrics snapshot an unsharded run reports (``None``
    when every shard came from the cache and no machine ran)."""
    from repro.core.compile import CompileStats, record_metrics
    from repro.obs.metrics import MetricsRegistry

    if not chain_compile:
        return None
    totals = CompileStats()
    for stats, _active in chain_compile:
        totals.merge_from(stats)
    registry = MetricsRegistry()
    record_metrics(
        registry, totals, active=any(active for _stats, active in chain_compile)
    )
    return registry.snapshot()


def execute_spec_sharded(
    spec: RunSpec,
    shards: int,
    cache=None,
    progress: Optional[ProgressCallback] = None,
    policy=None,
) -> EngineRun:
    """Execute one spec as ``shards`` resumable shards, in-process.

    With a ``cache`` (a :class:`~repro.core.runcache.RunCache`):
    finished shards replay instantly, and each maximal run of missing
    shards executes as one chain from the deepest cached boundary
    snapshot at or below its first shard.  Without a cache the whole
    measurement runs as one chain.  Either way the merged result is
    bit-identical to :func:`~repro.core.executor.execute_spec` (the
    equivalence tests assert it), and the returned :class:`EngineRun`
    carries shard provenance in its manifest.  Parallelism, retries and
    timeouts are the caller's: the :class:`Scheduler` runs each sharded
    spec as one task of the executor's retry loop.

    The path is self-healing: corrupt or unpicklable cached objects are
    quarantined and recomputed, whatever a failed chain left unfilled
    falls to one repair pass, and the manifest records how much healing
    happened (``quarantined_objects``, ``repaired_shards``; with a
    ``policy`` carrying metrics, the matching ``engine.*`` counters).
    Only when the repair pass fails too does :class:`EngineError`
    surface — its message carries the per-shard status map and both
    chain tracebacks, so a partial cache failure is diagnosable from the
    error alone.  ``progress`` names the individual shards.

    Timing note: this function is the *execution site* for a sharded
    run, so wall-clock is recorded here exactly once.  A spec that
    never reaches execution — deduplicated against an in-flight job or
    resolved whole from the cache by the :class:`Scheduler` — gets zero
    wall seconds and ``attached_to``/``resumed_from`` provenance, never
    a copy of this timing.
    """
    from repro.obs.provenance import RunManifest
    from repro.workloads import profile_by_name

    shards = max(1, min(shards, spec.instructions or 1))
    if shards <= 1:
        return execute_spec(spec)
    notify = progress if progress is not None else _ignore_progress
    started = time.perf_counter()
    profile = profile_by_name(spec.workload)
    manifest = RunManifest.for_spec(spec, profile_seed=profile.seed)
    boundaries = shard_boundaries(spec.instructions, shards)
    chash, shard_keys, snapshot_keys = shard_cache_keys(spec, boundaries)
    stats_before = cache.stats() if cache is not None else None

    results: List[Optional[ShardResult]] = [None] * shards
    if cache is not None:
        for index in range(shards):
            shard = load_cached_shard(cache, shard_keys[index])
            if shard is None:
                continue
            results[index] = shard
            name = _shard_name(spec, index, shards)
            notify(ProgressEvent("start", index, shards, name))
            notify(ProgressEvent("done", index, shards, name))

    resumed_digest: Optional[str] = None
    chain_compile: list = []

    def fill() -> Optional[str]:
        """One pass: a chain per run of unfilled shards.  Returns the
        first failed chain's traceback, if any."""
        nonlocal resumed_digest
        failure = None
        for first, last in _missing_runs(results):
            try:
                digest = _run_shard_chain(
                    spec, boundaries, first, last, results, cache,
                    shard_keys, snapshot_keys, chash, notify, shards,
                    chain_compile,
                )
            except Exception:
                failure = failure or traceback.format_exc()
                continue
            if resumed_digest is None:
                resumed_digest = digest
        return failure

    chain_failure = fill()
    repair_failure = None
    repaired = 0
    unfilled = results.count(None)
    if unfilled:
        # Repair pass: what a chain that faulted midway left unfilled
        # gets one more chain per run, from the snapshots it banked.
        repair_failure = fill()
        repaired = unfilled - results.count(None)
    if None in results:
        raise EngineError(
            spec.name,
            _shard_failure_text(results, chain_failure, repair_failure),
            shard_status=_shard_status_map(results),
        )

    result, histogram = _merge_shard_results(spec, results)
    wall = time.perf_counter() - started
    cached_count = sum(1 for shard in results if shard.from_cache)
    manifest.wall_seconds = wall
    manifest.instructions_measured = result.instructions
    manifest.cycles_measured = result.stats.cycles
    manifest.shards = shards
    manifest.shards_from_cache = cached_count
    manifest.resumed_from = resumed_digest
    manifest.repaired_shards = repaired
    if cache is not None:
        stats_after = cache.stats()
        manifest.cache_stats = {
            name: stats_after[name] - stats_before[name] for name in stats_before
        }
        manifest.quarantined_objects = manifest.cache_stats["quarantined"]
        cache.flush_stats()
    if policy is not None:
        _record_healing(policy, manifest)
    metrics = _chain_compile_metrics(chain_compile)
    if metrics is not None:
        from repro.core.compile import stats_from_snapshot

        manifest.compile = stats_from_snapshot(metrics)
    return EngineRun(
        spec=spec,
        result=result,
        histogram=histogram,
        wall_seconds=wall,
        manifest=manifest,
        metrics=metrics,
        shard_count=shards,
        shards_from_cache=cached_count,
    )


def _execute_sharded_guarded(spec: RunSpec, shards: int, cache) -> Tuple:
    """Pool task for one sharded spec (cf.
    :func:`~repro.core.executor._execute_spec_guarded`): fires the
    ``worker`` fault site and ships a failure back as data, per-shard
    status map included."""
    try:
        faults.fire("worker", key=spec.name)
        return ("ok", execute_spec_sharded(spec, shards, cache=cache))
    except EngineError as error:
        return ("error", spec.name, error.worker_traceback, error.shard_status)
    except Exception:
        return ("error", spec.name, traceback.format_exc())


# ----------------------------------------------------------------------
# the multi-client scheduler
# ----------------------------------------------------------------------


class _Ticket:
    """One in-flight unique spec: who runs it, and who is waiting."""

    __slots__ = ("digest", "spec_name", "event", "run", "error")

    def __init__(self, digest: str, spec_name: str):
        self.digest = digest
        self.spec_name = spec_name
        self.event = threading.Event()
        self.run: Optional[EngineRun] = None
        self.error: Optional[BaseException] = None


class Scheduler:
    """The front door over the executor and the cache.

    One instance serves every client — CLI commands construct a
    short-lived one per invocation; the experiment service keeps one
    for its whole lifetime and feeds it from many worker threads.  Each
    call to :meth:`run_specs` partitions its sweep into specs that must
    execute and specs that resolve without executing (result index →
    in-flight attach → run cache, in that order), executes the
    remainder through the executor's retry loop (each spec whole, or
    through :func:`execute_spec_sharded` when ``shards > 1``; progress
    events are per spec either way), and publishes every completed run
    so concurrent and future clients dedupe against it.

    ``run_resolution`` additionally banks and resolves whole runs in
    the content-addressed cache (the service turns this on; shard-level
    caching inside ``execute_spec_sharded`` is independent of it).

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
        run cache when the index has rotated the entry out."""
        with self._lock:
            run = self._index.get(digest)
            if run is not None:
                self._index.move_to_end(digest)
                return run
        if self.run_resolution and self.cache is not None:
            from repro.core.runcache import cache_key

            blob_key = cache_key("run", config=digest)
            import pickle

            blob = self.cache.get(blob_key)
            if blob is not None:
                try:
                    return pickle.loads(blob)
                except Exception as exc:
                    self.cache.quarantine(
                        blob_key, reason="unpicklable run: {}".format(exc)
                    )
        return None

    # -- deduplicated provenance -------------------------------------------

    @staticmethod
    def _attached_copy(run: EngineRun, digest: str) -> EngineRun:
        """A client's view of a run it did not execute.

        Deep-copied so clients cannot corrupt each other's payloads,
        with honest provenance: zero wall seconds (the work happened
        once, elsewhere — copying the executor's timing would
        double-count it in any aggregation over manifests) and
        ``attached_to`` naming the digest it deduplicated against."""
        attached = copy.deepcopy(run)
        attached.wall_seconds = 0.0
        if attached.manifest is not None:
            attached.manifest.wall_seconds = 0.0
            attached.manifest.attached_to = digest
        return attached

    # -- execution ---------------------------------------------------------

    def _execute_batch(self, specs: List[RunSpec], notify, policy):
        """The one orchestration path that actually executes work: the
        executor's retry loop over whole specs, or over sharded specs
        when ``shards > 1`` — either way the :func:`run_specs` contract
        (a runs list, or a :class:`~repro.core.resilience.SweepResult`
        in collect mode)."""
        task = (
            _execute_spec_guarded
            if self.shards <= 1
            else functools.partial(
                _execute_sharded_guarded, shards=self.shards, cache=self.cache
            )
        )
        return _sweep(task, specs, self.jobs, notify, policy, pool=self._pool)

    @staticmethod
    def _failure_error(spec: RunSpec, report) -> EngineError:
        """Rebuild the EngineError a collect-mode failure would have
        raised, for ticket fulfilment."""
        if report is not None:
            for failure in report.failures:
                if failure.name == spec.name:
                    return failure.engine_error()
        return EngineError(spec.name, "spec failed (no report available)")

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
        policy=None,
    ):
        """Run one client's sweep through the dedupe-aware front door.

        Same contract as the module-level :func:`run_specs` (order
        preserved; collect mode returns a
        :class:`~repro.core.resilience.SweepResult`), except that specs
        resolvable without executing come back as attached copies with
        zeroed wall time and ``attached_to``/``resumed_from``
        provenance.  Thread-safe: any number of client threads may call
        this concurrently and each unique digest executes at most once
        across all of them."""
        from repro.obs.provenance import config_hash
        from repro.core.resilience import (
            FailureReport,
            ResiliencePolicy,
            SpecFailure,
            SweepResult,
        )

        specs = list(specs)
        total = len(specs)
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

        resolved: Dict[int, EngineRun] = {}
        waiters: Dict[int, _Ticket] = {}
        batch_attach: Dict[int, int] = {}
        owners: List[int] = []
        tickets: Dict[int, _Ticket] = {}
        digests = [config_hash(spec) for spec in specs]

        with self._lock:
            seen: Dict[str, int] = {}
            for index, (spec, digest) in enumerate(zip(specs, digests)):
                if digest in seen:
                    batch_attach[index] = seen[digest]
                    self._count(
                        "scheduler.specs.deduped_batch",
                        "duplicate specs within one sweep attached to the"
                        " batch primary",
                    )
                    continue
                seen[digest] = index
                held = self._index.get(digest)
                if held is not None:
                    self._index.move_to_end(digest)
                    resolved[index] = self._attached_copy(held, digest)
                    self._count(
                        "scheduler.specs.resolved_index",
                        "specs resolved from the bounded result index",
                    )
                    continue
                ticket = self._inflight.get(digest)
                if ticket is not None:
                    waiters[index] = ticket
                    self._count(
                        "scheduler.specs.attached_inflight",
                        "specs attached to an already-running job instead"
                        " of executing a duplicate",
                    )
                    continue
                if self.run_resolution and self.cache is not None:
                    run = resolve_cached_run(self.cache, spec)
                    if run is not None:
                        self._index_put(digest, run)
                        resolved[index] = run
                        self._count(
                            "scheduler.specs.resolved_cache",
                            "specs resolved whole from the run cache",
                        )
                        continue
                ticket = _Ticket(digest, spec.name)
                self._inflight[digest] = ticket
                tickets[index] = ticket
                owners.append(index)

        # Progress remap: owner-batch events carry batch-local indices;
        # clients expect sweep-local ones.
        if len(owners) == total and not batch_attach:
            batch_notify = notify
        else:
            def batch_notify(event: ProgressEvent) -> None:
                notify(replace(event, index=owners[event.index], total=total))

        owner_runs: Dict[int, Optional[EngineRun]] = {}
        batch_report = None
        try:
            if owners:
                try:
                    with self._exec_lock:
                        outcome = self._execute_batch(
                            [specs[index] for index in owners], batch_notify, policy
                        )
                except EngineError as error:
                    # Raise-mode batch failure: hand attached clients the
                    # *actual* error before it propagates — the ticket
                    # whose spec failed gets the real traceback, the rest
                    # learn the sweep aborted around them.
                    with self._lock:
                        for index, ticket in tickets.items():
                            if specs[index].name == error.spec_name:
                                ticket.error = error
                            else:
                                ticket.error = EngineError(
                                    specs[index].name,
                                    "the executing sweep aborted on "
                                    "{!r} before this spec completed:\n{}".format(
                                        error.spec_name, error.worker_traceback
                                    ),
                                )
                            ticket.event.set()
                            if self._inflight.get(ticket.digest) is ticket:
                                del self._inflight[ticket.digest]
                    raise
                if isinstance(outcome, SweepResult):
                    batch_runs, batch_report = outcome.runs, outcome.report
                else:
                    batch_runs = outcome
                with self._lock:
                    for position, index in enumerate(owners):
                        run = batch_runs[position]
                        owner_runs[index] = run
                        ticket = tickets.get(index)
                        if run is not None:
                            self._count(
                                "scheduler.specs.executed",
                                "specs this scheduler actually executed",
                            )
                            if self.run_resolution and self.cache is not None:
                                store_run(self.cache, specs[index], run)
                            self._index_put(digests[index], run)
                            if ticket is not None:
                                ticket.run = run
                        elif ticket is not None:
                            ticket.error = self._failure_error(
                                specs[index], batch_report
                            )
                        if ticket is not None:
                            ticket.event.set()
                            if self._inflight.get(ticket.digest) is ticket:
                                del self._inflight[ticket.digest]
        finally:
            # Never leave a ticket unfulfilled: a raise/interrupt on the
            # executing thread must release every attached client.
            abandoned = [
                ticket for ticket in tickets.values() if not ticket.event.is_set()
            ]
            if abandoned:
                with self._lock:
                    for ticket in abandoned:
                        if ticket.error is None and ticket.run is None:
                            ticket.error = EngineError(
                                ticket.spec_name, "the executing sweep was"
                                " interrupted before this spec completed"
                            )
                        ticket.event.set()
                        if self._inflight.get(ticket.digest) is ticket:
                            del self._inflight[ticket.digest]

        # Attached clients: wait for the executing thread's verdict.
        waiter_failures: Dict[int, BaseException] = {}
        for index, ticket in waiters.items():
            ticket.event.wait()
            if ticket.run is not None:
                resolved[index] = self._attached_copy(ticket.run, ticket.digest)
            else:
                waiter_failures[index] = ticket.error or EngineError(
                    specs[index].name, "attached job failed without a traceback"
                )

        # In-batch duplicates mirror whatever their primary produced —
        # the payload on success, the failure otherwise (a collect-mode
        # report must account for every sweep index, duplicates included).
        for index, primary in batch_attach.items():
            source = resolved.get(primary)
            if source is None:
                source = owner_runs.get(primary)
            if source is not None:
                resolved[index] = self._attached_copy(source, digests[index])
            elif primary in waiter_failures:
                waiter_failures[index] = waiter_failures[primary]
            elif primary in owner_runs:
                waiter_failures[index] = self._failure_error(
                    specs[index], batch_report
                )

        if self.metrics is not None:
            self.metrics.histogram(
                "scheduler.sweep.seconds",
                "wall-clock of one scheduled sweep, recorded once at the"
                " scheduler layer",
            ).observe(time.perf_counter() - sweep_started)

        runs: List[Optional[EngineRun]] = [None] * total
        for index in range(total):
            if index in owner_runs:
                runs[index] = owner_runs[index]
            elif index in resolved:
                runs[index] = resolved[index]

        if policy.on_error == "raise":
            if waiter_failures:
                raise waiter_failures[min(waiter_failures)]
            return runs

        # Collect mode: extend the batch report to cover the whole
        # sweep — attached specs count as completed (or inherit their
        # primary's failure), and totals/indices are sweep-local.
        report = batch_report if batch_report is not None else FailureReport()
        report.total = total
        remapped = []
        for failure in report.failures:
            if failure.index < len(owners):
                failure.index = owners[failure.index]
            remapped.append(failure)
        for index, error in sorted(waiter_failures.items()):
            remapped.append(
                SpecFailure(
                    name=specs[index].name,
                    index=index,
                    attempts=0,
                    kind="attached",
                    error=str(error).splitlines()[0] if str(error) else "attached job failed",
                    worker_traceback=getattr(error, "worker_traceback", ""),
                )
            )
        report.failures = remapped
        report.completed = [
            spec.name for spec, run in zip(specs, runs) if run is not None
        ]
        return SweepResult(runs=runs, report=report)
