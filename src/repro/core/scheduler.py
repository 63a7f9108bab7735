"""The scheduling layer: what runs, in what order, and what never runs.

Top layer of the engine split (scheduler / executor / cache-resolution).
The :mod:`~repro.core.executor` knows how to run one unit of work; the
:mod:`~repro.core.cache_resolution` layer knows what is already banked;
this module decides.  Two entry shapes share one orchestration path:

* the module functions :func:`run_specs` and
  :func:`execute_spec_sharded` — the historical engine API, re-exported
  by the :mod:`repro.core.engine` facade and bit-identical to it;
* the :class:`Scheduler` — the multi-client front door used by the CLI
  ``composite``/``sweep`` commands and the experiment service alike.
  Every client's sweep funnels through ``Scheduler.run_specs``, so
  there is one code path deciding execution, not one per client.

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
not be forked from several threads at once).  Attached clients block
on a ticket event, not on the execution lock, so waiting is free.
"""

from __future__ import annotations

import copy
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
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
    _execute_shard_task_guarded,
    _ignore_progress,
    _pool_context,
    _run_pool_tasks,
    _spec_configure,
    _tb_summary,
    execute_spec,
    shard_boundaries,
)


def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    policy=None,
):
    """Execute ``specs``, ``jobs`` at a time; results keep spec order.

    ``jobs <= 1`` runs sequentially in-process (no pool, no pickling
    requirement) and is the reference behaviour: parallel execution
    produces bit-identical payloads, just faster.

    ``progress`` receives a :class:`ProgressEvent` when each spec is
    dispatched, retried, completed or failed — the CLI renders these as
    live per-workload status lines.

    ``policy`` (a :class:`~repro.core.resilience.ResiliencePolicy`)
    governs the failure behaviour; the default reproduces the
    historical engine exactly — one attempt, no timeout, and a failing
    spec raises :class:`EngineError` naming the spec and carrying the
    worker-side traceback.  With ``policy.on_error == "collect"`` the
    sweep is fail-soft: the return value is a
    :class:`~repro.core.resilience.SweepResult` whose ``runs`` list has
    ``None`` at failed indices and whose ``report`` tells the story.
    A ``KeyboardInterrupt`` mid-sweep cancels outstanding work, persists
    the partial report when the policy names a path, and re-raises as
    :class:`~repro.core.resilience.SweepInterrupted`.
    """
    from repro.core.executor import _execute_spec_guarded
    from repro.core.resilience import (
        FailureReport,
        ResiliencePolicy,
        SpecFailure,
        SweepInterrupted,
        SweepResult,
    )

    specs = list(specs)
    total = len(specs)
    notify = progress if progress is not None else _ignore_progress
    policy = policy if policy is not None else ResiliencePolicy()
    max_attempts = policy.retry.max_attempts

    results: List[Optional[EngineRun]] = [None] * total
    report = FailureReport(total=total)

    def interrupted(cause):
        report.interrupted = True
        report.completed = [
            spec.name for spec, run in zip(specs, results) if run is not None
        ]
        if policy.interrupt_report_path:
            report.save(policy.interrupt_report_path)
        policy.record_report(report)
        raise SweepInterrupted(report=report) from cause

    def conclude():
        report.completed = [
            spec.name for spec, run in zip(specs, results) if run is not None
        ]
        policy.record_report(report)
        if report.failures and policy.on_error == "raise":
            first = min(report.failures, key=lambda failure: failure.index)
            raise EngineError(first.name, first.worker_traceback or first.error)
        if policy.on_error == "collect":
            return SweepResult(runs=results, report=report)
        return results

    if jobs <= 1 or total <= 1:
        try:
            for index, spec in enumerate(specs):
                notify(ProgressEvent("start", index, total, spec.name))
                attempt = 1
                while True:
                    try:
                        run = execute_spec(spec)
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        worker_tb = traceback.format_exc()
                        if attempt < max_attempts:
                            report.retries += 1
                            notify(
                                ProgressEvent(
                                    "retry", index, total, spec.name, error=str(exc)
                                )
                            )
                            policy.sleep(policy.retry.backoff(attempt))
                            attempt += 1
                            continue
                        notify(
                            ProgressEvent(
                                "error", index, total, spec.name, error=str(exc)
                            )
                        )
                        report.failures.append(
                            SpecFailure(
                                name=spec.name,
                                index=index,
                                attempts=attempt,
                                kind="error",
                                error=str(exc),
                                worker_traceback=worker_tb,
                            )
                        )
                        break
                    if run.manifest is not None:
                        run.manifest.attempts = attempt
                    results[index] = run
                    notify(
                        ProgressEvent(
                            "done", index, total, spec.name,
                            wall_seconds=run.wall_seconds,
                        )
                    )
                    break
                if report.failures and policy.on_error == "raise":
                    break
        except KeyboardInterrupt as exc:
            interrupted(exc)
        return conclude()

    workers = min(jobs, total)

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

    def absorb(payloads):
        for index, (payload, attempts) in payloads.items():
            run = payload[1]
            if run.manifest is not None:
                run.manifest.attempts = attempts
            results[index] = run

    tasks = [(index, spec) for index, spec in enumerate(specs)]
    try:
        payloads, failures, stats = _run_pool_tasks(
            _execute_spec_guarded, tasks, workers, policy, describe,
            on_start=on_start, on_done=on_done, on_retry=on_retry,
        )
    except SweepInterrupted as stop:
        absorb(stop.payloads)
        report.retries += stop.stats.get("retries", 0)
        report.timeouts += stop.stats.get("timeouts", 0)
        report.pool_respawns += stop.stats.get("pool_respawns", 0)
        report.failures.extend(
            stop.failures[index] for index in sorted(stop.failures)
        )
        interrupted(stop)
    absorb(payloads)
    report.retries += stats["retries"]
    report.timeouts += stats["timeouts"]
    report.pool_respawns += stats["pool_respawns"]
    report.degraded = stats["degraded"]
    for index in sorted(failures):
        failure = failures[index]
        notify(ProgressEvent("error", index, total, failure.name, error=failure.error))
        report.failures.append(failure)
    return conclude()


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
# state), so a cold sharded run executes as one in-process chain that
# banks a machine snapshot at every boundary.  The parallelism and the
# speedup come from the content-addressed cache: finished shards replay
# instantly on re-runs, and shards whose start-boundary snapshot is
# already cached fan out across the process pool.  Boundary offsets are
# absolute instruction counts, so different shard counts share the
# snapshots they have in common (a 2-way split reuses a 4-way split's
# midpoint).
#
# Fault tolerance rides the same structure: a corrupt cached shard or
# snapshot is quarantined (RunCache.quarantine) and treated as a miss,
# and any shard a pool worker failed to produce is recomputed by an
# in-process repair chain from the deepest healthy snapshot — the
# determinism guarantee makes the repaired shards bit-identical to what
# the lost worker would have returned.


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
    # The fresh build goes through the engine facade so tests (and
    # callers) can patch one well-known prepare_workload seam.
    from repro.core import engine as _engine

    if cache is not None:
        for candidate in range(start_index, -1, -1):
            key = snapshot_keys[boundaries[candidate]]
            if not cache.has(key):
                continue
            kernel, digest = load_cached_snapshot(cache, key)
            if kernel is not None:
                return kernel, candidate, digest
    kernel, _ = _engine.prepare_workload(
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
) -> Optional[str]:
    """Execute a contiguous run of shards in-process.

    Starts from the deepest healthy cached boundary snapshot (or a
    fresh build + warmup when none survives), emits every missing shard
    result and boundary snapshot into the cache as it passes, and
    returns the digest of the snapshot it resumed from, if any.  Spans
    whose results are already filled are simulated through without
    re-storing — the chain needs their end state, not their numbers."""
    from repro.core.executor import _measure_span

    kernel, anchor, resumed_digest = _open_chain_kernel(
        spec, boundaries, start_index, cache, snapshot_keys, chash
    )
    for index in range(anchor, end_index + 1):
        span = boundaries[index + 1] - boundaries[index]
        name = "{}[shard {}/{}]".format(spec.name, index + 1, shards)
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


def _shard_status_map(
    results: List[Optional[ShardResult]],
    worker_failures: Dict[int, Tuple[str, str]],
    shards: int,
) -> Dict[int, str]:
    """Per-shard outcome: the diagnosable face of a partial failure."""
    status = {}
    for index in range(shards):
        shard = results[index]
        if shard is not None:
            status[index] = "from-cache" if shard.from_cache else "computed"
        elif index in worker_failures:
            status[index] = "worker failed: {}".format(worker_failures[index][0])
        else:
            status[index] = "unfilled"
    return status


def _shard_failure_text(
    results: List[Optional[ShardResult]],
    worker_failures: Dict[int, Tuple[str, str]],
    chain_failure: Optional[str],
    repair_failure: Optional[str],
    shards: int,
) -> str:
    """Compose the EngineError body for a sharded failure: the
    per-shard status map first, then every traceback we hold."""
    status = _shard_status_map(results, worker_failures, shards)
    lines = ["sharded execution left shards unfilled; per-shard status:"]
    for index in sorted(status):
        lines.append("  shard {}/{}: {}".format(index + 1, shards, status[index]))
    for index in sorted(worker_failures):
        _, worker_tb = worker_failures[index]
        if worker_tb:
            lines.append(
                "worker traceback (shard {}/{}):\n{}".format(
                    index + 1, shards, worker_tb
                )
            )
    if chain_failure:
        lines.append("chain traceback:\n{}".format(chain_failure))
    if repair_failure:
        lines.append("repair-chain traceback:\n{}".format(repair_failure))
    return "\n".join(lines)


def _empty_cache_stats() -> Dict[str, int]:
    from repro.core.runcache import RunCache

    return {name: 0 for name in RunCache.STAT_FIELDS}


def execute_spec_sharded(
    spec: RunSpec,
    shards: int,
    jobs: int = 1,
    cache=None,
    progress: Optional[ProgressCallback] = None,
    policy=None,
) -> EngineRun:
    """Execute one spec as ``shards`` resumable shards.

    With a ``cache`` (a :class:`~repro.core.runcache.RunCache`):
    finished shards replay instantly, shards whose start-boundary
    snapshot is cached run from it — in parallel across the process pool
    when ``jobs > 1`` — and only the rest execute as an in-process chain
    from the deepest cached snapshot.  Without a cache the whole
    measurement runs as one chain.  Either way the merged result is
    bit-identical to :func:`~repro.core.executor.execute_spec` (the
    equivalence tests assert it), and the returned :class:`EngineRun`
    carries shard provenance in its manifest.

    The path is self-healing: corrupt or unpicklable cached objects are
    quarantined and recomputed, a dead pool worker's shards fall to an
    in-process repair chain, and the manifest records how much healing
    happened (``quarantined_objects``, ``repaired_shards``).  Only when
    even the repair chain fails does :class:`EngineError` surface — its
    message carries the per-shard status map and every collected
    traceback, so a partial cache/pool failure is diagnosable from the
    error alone.

    Cache traffic is accounted fleet-wide: every pool worker ships its
    per-process hit/miss counters back with its shard and flushes them
    to the cache's persistent ledger, and the manifest's ``cache_stats``
    aggregates workers + coordinator — the per-process counters alone
    silently undercount under the worker fleet.

    Timing note: this function is the *execution site* for a sharded
    run, so wall-clock is recorded here exactly once.  A spec that
    never reaches execution — deduplicated against an in-flight job or
    resolved whole from the cache by the :class:`Scheduler` — gets zero
    wall seconds and ``attached_to``/``resumed_from`` provenance, never
    a copy of this timing.
    """
    from repro.core.resilience import ResiliencePolicy
    from repro.obs.provenance import RunManifest
    from repro.workloads import profile_by_name

    shards = max(1, min(shards, spec.instructions or 1))
    if shards <= 1:
        return execute_spec(spec)
    policy = policy if policy is not None else ResiliencePolicy()
    notify = progress if progress is not None else _ignore_progress
    started = time.perf_counter()
    profile = profile_by_name(spec.workload)
    manifest = RunManifest.for_spec(spec, profile_seed=profile.seed)
    boundaries = shard_boundaries(spec.instructions, shards)
    chash, shard_keys, snapshot_keys = shard_cache_keys(spec, boundaries)
    quarantined_before = cache.quarantined_objects() if cache is not None else 0
    coordinator_before = cache.stats() if cache is not None else None
    worker_cache_stats = _empty_cache_stats()
    worker_flushes = 0

    results: List[Optional[ShardResult]] = [None] * shards
    if cache is not None:
        for index in range(shards):
            shard = load_cached_shard(cache, shard_keys[index])
            if shard is None:
                continue
            results[index] = shard
            name = "{}[shard {}/{}]".format(spec.name, index + 1, shards)
            notify(ProgressEvent("start", index, shards, name))
            notify(ProgressEvent("done", index, shards, name))

    #: index -> (summary, worker traceback) for shards lost to workers
    worker_failures: Dict[int, Tuple[str, str]] = {}
    chain_failure: Optional[str] = None
    resumed_digest: Optional[str] = None
    pool_respawns = 0

    def run_chain(start_index: int, end_index: int) -> None:
        nonlocal resumed_digest
        digest = _run_shard_chain(
            spec, boundaries, start_index, end_index, results, cache,
            shard_keys, snapshot_keys, chash, notify, shards,
        )
        if resumed_digest is None:
            resumed_digest = digest

    def collect(index: int, payload: Tuple) -> None:
        nonlocal worker_flushes
        if payload[0] == "error":
            _, name, worker_tb = payload
            summary = _tb_summary(worker_tb)
            notify(ProgressEvent("error", index, shards, name, error=summary))
            worker_failures[index] = (summary, worker_tb)
            return
        results[index] = payload[1]
        if len(payload) > 2 and payload[2]:
            worker_flushes += 1
            for name, value in payload[2].items():
                if name in worker_cache_stats:
                    worker_cache_stats[name] += value
        notify(
            ProgressEvent(
                "done",
                index,
                shards,
                "{}[shard {}/{}]".format(spec.name, index + 1, shards),
                wall_seconds=payload[1].wall_seconds,
            )
        )

    missing = [index for index in range(shards) if results[index] is None]
    if missing:
        can_restore = set()
        if cache is not None:
            can_restore = {
                index
                for index in missing
                if cache.has(snapshot_keys[boundaries[index]])
            }
        chain_needed = [index for index in missing if index not in can_restore]
        chain_span: Optional[Tuple[int, int]] = None
        if chain_needed:
            chain_span = (chain_needed[0], chain_needed[-1])
        # Shards inside the chain interval fall out of the chain's pass
        # for free; only snapshot-backed shards outside it fan out.
        chain_cover = set(range(chain_span[0], chain_span[1] + 1)) if chain_span else set()
        worker_indices = sorted(can_restore - chain_cover)
        worker_tasks = [
            {
                "cache_root": cache.root,
                "index": index,
                "shard_count": shards,
                "start": boundaries[index],
                "instructions": boundaries[index + 1] - boundaries[index],
                "snapshot_key": snapshot_keys[boundaries[index]],
                "shard_key": shard_keys[index],
                "end_snapshot_key": snapshot_keys.get(boundaries[index + 1])
                if index + 1 < shards
                else None,
                "spec_name": spec.name,
                "config_hash": chash,
            }
            for index in worker_indices
        ]

        if worker_tasks and jobs > 1:
            workers = min(jobs, len(worker_tasks))
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())
            futures = {}
            joined = False
            try:
                for task in worker_tasks:
                    notify(
                        ProgressEvent(
                            "start",
                            task["index"],
                            shards,
                            "{}[shard {}/{}]".format(
                                spec.name, task["index"] + 1, shards
                            ),
                        )
                    )
                    futures[pool.submit(_execute_shard_task_guarded, task)] = task[
                        "index"
                    ]
                if chain_span is not None:
                    try:
                        run_chain(*chain_span)
                    except KeyboardInterrupt:
                        raise
                    except Exception:
                        chain_failure = traceback.format_exc()
                try:
                    for future in as_completed(futures):
                        collect(futures[future], future.result())
                    joined = True
                except BrokenProcessPool:
                    # One dead worker poisons every outstanding future;
                    # whatever did not finish falls to the repair chain.
                    pool_respawns += 1
                    for future, index in futures.items():
                        if results[index] is None and index not in worker_failures:
                            worker_failures[index] = (
                                "process-pool worker died while the shard "
                                "was in flight",
                                "",
                            )
            finally:
                # Join the workers once every shard has come back; a
                # crash or an interrupt abandons whatever is in flight.
                pool.shutdown(wait=joined, cancel_futures=True)
        else:
            for task in worker_tasks:
                notify(
                    ProgressEvent(
                        "start",
                        task["index"],
                        shards,
                        "{}[shard {}/{}]".format(spec.name, task["index"] + 1, shards),
                    )
                )
                collect(task["index"], _execute_shard_task_guarded(task))
            if chain_span is not None:
                try:
                    run_chain(*chain_span)
                except KeyboardInterrupt:
                    raise
                except Exception:
                    chain_failure = traceback.format_exc()

    # Repair pass: anything still unfilled — a failed worker, a corrupt
    # snapshot, a faulted chain — is recomputed as one in-process chain
    # from the deepest healthy snapshot.  Determinism makes the repaired
    # shards bit-identical to what the lost workers would have produced.
    repaired = 0
    unfilled = [index for index in range(shards) if results[index] is None]
    if unfilled:
        try:
            run_chain(min(unfilled), max(unfilled))
        except KeyboardInterrupt:
            raise
        except Exception:
            raise EngineError(
                spec.name,
                _shard_failure_text(
                    results, worker_failures, chain_failure,
                    traceback.format_exc(), shards,
                ),
                shard_status=_shard_status_map(results, worker_failures, shards),
            )
        repaired = sum(1 for index in unfilled if results[index] is not None)

    still_unfilled = [index for index in range(shards) if results[index] is None]
    if still_unfilled:
        raise EngineError(
            spec.name,
            _shard_failure_text(results, worker_failures, chain_failure, None, shards),
            shard_status=_shard_status_map(results, worker_failures, shards),
        )

    result, histogram = _merge_shard_results(spec, results)
    wall = time.perf_counter() - started
    cached_count = sum(1 for shard in results if shard.from_cache)
    quarantined = (
        cache.quarantined_objects() - quarantined_before if cache is not None else 0
    )
    manifest.wall_seconds = wall
    manifest.instructions_measured = result.instructions
    manifest.cycles_measured = result.stats.cycles
    manifest.shards = shards
    manifest.shards_from_cache = cached_count
    manifest.resumed_from = resumed_digest
    manifest.quarantined_objects = quarantined
    manifest.repaired_shards = repaired
    if cache is not None:
        coordinator_after = cache.stats()
        combined = {
            name: coordinator_after[name] - coordinator_before[name]
            for name in coordinator_before
        }
        for name, value in worker_cache_stats.items():
            combined[name] = combined.get(name, 0) + value
        combined["workers"] = worker_flushes
        manifest.cache_stats = combined
        cache.flush_stats()
    if policy.metrics is not None:
        policy.metrics.counter(
            "engine.quarantined_objects", "corrupt cache objects quarantined"
        ).inc(quarantined)
        policy.metrics.counter(
            "engine.repaired_shards", "shards recomputed by the repair chain"
        ).inc(repaired)
        policy.metrics.counter(
            "engine.pool_respawns",
            "process pools respawned after a death or timeout",
        ).inc(pool_respawns)
    return EngineRun(
        spec=spec,
        result=result,
        histogram=histogram,
        wall_seconds=wall,
        manifest=manifest,
        metrics=None,
        shard_count=shards,
        shards_from_cache=cached_count,
    )


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
    """The multi-client front door over the executor and the cache.

    One instance serves every client — CLI commands construct a
    short-lived one per invocation; the experiment service keeps one
    for its whole lifetime and feeds it from many worker threads.  Each
    call to :meth:`run_specs` partitions its sweep into specs that must
    execute and specs that resolve without executing (result index →
    in-flight attach → run cache, in that order), executes the
    remainder through the one orchestration path shared with the
    historical API, and publishes every completed run so concurrent and
    future clients dedupe against it.

    ``run_resolution`` additionally banks and resolves whole runs in
    the content-addressed cache (the service turns this on; shard-level
    caching inside ``execute_spec_sharded`` is independent of it).
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
    ):
        self.jobs = jobs
        self.shards = shards
        self.cache = cache
        self.policy = policy
        self.metrics = metrics
        self.result_index_size = max(1, result_index_size)
        self.run_resolution = run_resolution
        #: registry + index bookkeeping
        self._lock = threading.Lock()
        #: serializes actual engine execution across client threads
        self._exec_lock = threading.Lock()
        self._inflight: Dict[str, _Ticket] = {}
        self._index: "OrderedDict[str, EngineRun]" = OrderedDict()

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
        """The one orchestration path that actually executes work.

        Unsharded sweeps go through :func:`run_specs` (pool or
        sequential); ``shards > 1`` runs each spec through
        :func:`execute_spec_sharded` with the composite's historical
        collect/raise semantics.  Both shapes return the
        :func:`run_specs` contract: a runs list, or a
        :class:`~repro.core.resilience.SweepResult` in collect mode."""
        if self.shards <= 1:
            return run_specs(specs, jobs=self.jobs, progress=notify, policy=policy)

        from repro.core.resilience import FailureReport, SpecFailure, SweepResult

        total = len(specs)
        runs: List[Optional[EngineRun]] = [None] * total
        report = FailureReport(total=total)
        for index, spec in enumerate(specs):
            try:
                runs[index] = execute_spec_sharded(
                    spec, shards=self.shards, jobs=self.jobs, cache=self.cache,
                    progress=notify, policy=policy,
                )
            except KeyboardInterrupt:
                raise
            except EngineError as error:
                if policy.on_error != "collect":
                    raise
                report.failures.append(
                    SpecFailure(
                        name=spec.name,
                        index=index,
                        attempts=1,
                        kind="error",
                        error=str(error).splitlines()[0],
                        worker_traceback=error.worker_traceback,
                    )
                )
        report.completed = [run.spec.name for run in runs if run is not None]
        if policy.on_error == "collect":
            policy.record_report(report)
            return SweepResult(runs=runs, report=report)
        return runs

    @staticmethod
    def _failure_error(spec: RunSpec, report) -> EngineError:
        """Rebuild the EngineError a collect-mode failure would have
        raised, for ticket fulfilment."""
        if report is not None:
            for failure in report.failures:
                if failure.name == spec.name:
                    return EngineError(
                        failure.name, failure.worker_traceback or failure.error
                    )
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
        # clients expect sweep-local ones.  Shard-level events (total ==
        # shard count, names carry the spec) pass through untouched.
        if self.shards > 1 or (len(owners) == total and not batch_attach):
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
