"""The execution layer: how one spec runs.

This is the bottom layer of the engine split (scheduler / executor /
cache-resolution).  Everything here answers one question — *given a
fully-described piece of work, execute it and ship the payload back* —
and nothing here decides what work should run, in what order, or
whether it can be skipped.  Those decisions belong to
:mod:`repro.core.scheduler`; what can be *reused* instead of executed
belongs to :mod:`repro.core.cache_resolution`.

Contents:

* the declarative work descriptions (:class:`RunSpec`,
  :class:`MachineConfig`) and the payloads they produce
  (:class:`EngineRun`, :class:`ShardResult`);
* :func:`execute_spec` — the one function that measures a spec, as a
  chain of ``shards`` resumable spans (one span for a whole run):
  build and warm-up, measure, merge, manifest and metrics; and
  :func:`_execute_guarded`, the pool task that wraps it;
* :func:`_run_pool_tasks` — the one retry loop, for sequential and
  pooled sweeps alike: retries with backoff, wall-clock timeouts
  enforced by pool recycling, ``BrokenProcessPool`` respawn and
  requeue, degradation to in-process execution, interrupt handling;
* :class:`WorkerPool` — the process pool that loop runs on: built per
  call for a CLI sweep with ``jobs > 1``, or owned for its lifetime by
  the experiment service's scheduler and lent to every call.

Every payload crosses the process boundary by value, so everything in
this module must pickle — including :class:`EngineError`, whose
``__reduce__`` keeps the constructor extras (spec name, worker
traceback, per-shard status map) intact across the pool boundary.
"""

from __future__ import annotations

import copy
import gc
import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cache_resolution import (
    load_cached_shard,
    load_cached_snapshot,
    shard_cache_keys,
    store_boundary_snapshot,
    store_shard,
)
from repro.core.experiment import ExperimentResult, MachineStats
from repro.cpu.events import EventCounters
from repro.testing import faults


class EngineError(RuntimeError):
    """A spec failed inside a pool worker.

    Carries *which* spec died and the worker-side traceback — a bare
    ``BrokenProcessPool`` or a re-raised exception with a coordinator
    stack tells you neither.  A failed measurement additionally carries
    the per-shard status map (``shard_status``), so a partial sharded
    failure is diagnosable from the error alone.

    The extras are constructor arguments, which breaks the default
    exception pickling contract (``args`` holds the *formatted message*,
    not the constructor arguments), so ``__reduce__`` re-ships the
    originals explicitly: the error round-trips through the process-pool
    boundary — and the service's JSON envelope
    (:func:`to_payload` / :func:`from_payload`) — without losing
    ``.args``, ``.spec_name``, ``.worker_traceback`` or
    ``.shard_status``.
    """

    def __init__(
        self,
        spec_name: str,
        worker_traceback: str,
        shard_status: Optional[Dict[int, str]] = None,
    ):
        super().__init__(
            "spec {!r} failed in worker:\n{}".format(spec_name, worker_traceback)
        )
        self.spec_name = spec_name
        self.worker_traceback = worker_traceback
        self.shard_status: Dict[int, str] = dict(shard_status) if shard_status else {}

    def __reduce__(self):
        return (
            self.__class__,
            (self.spec_name, self.worker_traceback, self.shard_status),
        )

    def to_payload(self) -> Dict:
        """The JSON error envelope the service API ships."""
        return {
            "type": "EngineError",
            "message": str(self),
            "args": [str(arg) for arg in self.args],
            "spec_name": self.spec_name,
            "worker_traceback": self.worker_traceback,
            "shard_status": {str(k): v for k, v in self.shard_status.items()},
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "EngineError":
        """Rebuild from :meth:`to_payload` output; ``.args`` and the
        extras survive the JSON round-trip."""
        status = {
            (int(key) if key.lstrip("-").isdigit() else key): value
            for key, value in (payload.get("shard_status") or {}).items()
        }
        return cls(
            payload.get("spec_name", "?"),
            payload.get("worker_traceback", ""),
            status or None,
        )


@dataclass(frozen=True)
class ProgressEvent:
    """One engine progress notification (see the scheduler's
    ``run_specs``).

    ``kind`` is ``"start"`` (the spec was dispatched), ``"done"``
    (finished, ``wall_seconds`` filled in), ``"retry"`` (an attempt
    failed and the resilience policy is retrying; ``error`` holds the
    summary) or ``"error"`` (failed for good, ``error`` holds the
    summary line; the full traceback rides the :class:`EngineError` or
    :class:`~repro.core.resilience.FailureReport` that follows).
    """

    kind: str
    index: int
    total: int
    name: str
    wall_seconds: float = 0.0
    error: Optional[str] = None


#: The shape run_specs notifies: callback(event) -> None.
ProgressCallback = Callable[[ProgressEvent], None]


def _ignore_progress(event: ProgressEvent) -> None:
    """The default progress sink: drop the event."""


@dataclass(frozen=True)
class MachineConfig:
    """A declarative, picklable machine configuration for ablation runs.

    Each field is an optional override of the 11/780 baseline; ``None``
    means "leave the baseline alone".  This is the process-pool-safe
    replacement for the ``configure(machine)`` closures the examples
    used to build inline.
    """

    #: cache data size (the real machine: 8 KB, 2-way, write-through)
    cache_size_bytes: Optional[int] = None
    #: translation-buffer entries per half (the real machine: 64+64)
    tb_half_entries: Optional[int] = None
    #: write-buffer drain latency in cycles (the real machine: 6)
    wb_drain_cycles: Optional[int] = None
    #: overlap I-Decode with the previous instruction (the 11/750 trick)
    decode_overlap: Optional[bool] = None
    #: float-execute slowdown applied when no FPA is fitted
    float_slowdown: Optional[int] = None

    def apply(self, machine) -> None:
        """Apply the overrides to a freshly built machine (pre-boot)."""
        from repro.memory.cache import Cache
        from repro.memory.tb import TranslationBuffer
        from repro.memory.write_buffer import WriteBuffer

        memory = machine.memory
        if self.cache_size_bytes is not None:
            memory.cache = Cache(size_bytes=self.cache_size_bytes)
        if self.tb_half_entries is not None:
            memory.tb = TranslationBuffer(half_entries=self.tb_half_entries)
        if self.wb_drain_cycles is not None:
            memory.write_buffer = WriteBuffer(drain_cycles=self.wb_drain_cycles)
        if self.decode_overlap is not None:
            machine.ebox.decode_overlap = self.decode_overlap
        if self.float_slowdown is not None:
            machine.ebox.float_slowdown = self.float_slowdown

    def describe(self) -> str:
        """A short human-readable tag for sweep tables."""
        parts = []
        if self.cache_size_bytes is not None:
            parts.append("cache={}KB".format(self.cache_size_bytes // 1024))
        if self.tb_half_entries is not None:
            parts.append("tb={0}+{0}".format(self.tb_half_entries))
        if self.wb_drain_cycles is not None:
            parts.append("wb_drain={}".format(self.wb_drain_cycles))
        if self.decode_overlap is not None:
            parts.append("decode_overlap={}".format(self.decode_overlap))
        if self.float_slowdown is not None:
            parts.append("float_slowdown={}".format(self.float_slowdown))
        return ",".join(parts) or "baseline"


@dataclass(frozen=True)
class RunSpec:
    """One monitored measurement run, fully described by value.

    A spec must pickle: keep ``configure`` a module-level function (or
    ``None``) and express ablations with :class:`MachineConfig`.  When
    both are given, ``config`` applies first.
    """

    workload: str
    instructions: int = 30_000
    warmup_instructions: int = 3_000
    process_count: Optional[int] = None
    seed_offset: int = 0
    config: Optional[MachineConfig] = None
    configure: Optional[Callable] = None
    label: Optional[str] = None

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        if self.config is not None:
            return "{}[{}]".format(self.workload, self.config.describe())
        return self.workload


@dataclass
class EngineRun:
    """What one executed spec ships back to the coordinator."""

    spec: RunSpec
    result: ExperimentResult
    #: raw sparse dump of the histogram board, (counts, stalled_counts)
    #: as {bucket: count} dicts — the wire format used to verify that
    #: parallel and sequential runs agree byte for byte.
    histogram: Tuple[Dict[int, int], Dict[int, int]]
    wall_seconds: float
    #: provenance manifest (repro.obs.provenance.RunManifest)
    manifest: Optional[object] = None
    #: worker-side self-profiling, a MetricsRegistry.snapshot() dict
    metrics: Optional[Dict] = None
    #: intra-workload sharding provenance: how many resumable shards the
    #: measurement was split into, and how many replayed from the cache.
    shard_count: int = 1
    shards_from_cache: int = 0


def _spec_configure(spec: RunSpec):
    """Build the effective configure callable (inside the worker)."""
    config, configure = spec.config, spec.configure
    if config is None and configure is None:
        return None

    def apply(machine):
        if config is not None:
            config.apply(machine)
        if configure is not None:
            configure(machine)

    return apply


def _pool_context():
    """Prefer fork (cheap, shares the warmed program cache); fall back
    to the platform default elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: How often a pool worker checks that its owner is still alive.
_OWNER_POLL_S = 1.0


def _init_worker(owner: int) -> None:
    """Pool-worker initializer.  A Ctrl-C at the terminal reaches the
    whole process group, and the owner, not each worker, decides what an
    interrupt stops, so workers ignore SIGINT.  A worker also exits once
    ``owner`` is no longer its parent: an owner killed outright (SIGKILL,
    the OOM killer) runs no shutdown, and a worker waiting on the call
    queue would otherwise wait forever, reparented to init."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_owner, args=(owner,), name="owner-watch", daemon=True
    ).start()


def _exit_with_owner(owner: int) -> None:
    while os.getppid() == owner:
        time.sleep(_OWNER_POLL_S)
    os._exit(1)


class WorkerPool:
    """A process pool that outlives the sweeps it runs.

    :func:`_run_pool_tasks` and :func:`parallel_map` build one for a
    single call (a CLI sweep with ``jobs > 1``, forked); a long-lived
    owner (the experiment service's
    :class:`~repro.core.scheduler.Scheduler`) keeps one for its lifetime
    instead and lends it to every call, so simulations run off the
    owner's interpreter without a pool start per sweep.  The
    workers start on first use, from ``mp_context``, and ignore SIGINT
    and exit with their owner (:func:`_init_worker`).  :meth:`respawn`
    swaps in a fresh pool after a crash or a timeout; :meth:`close`
    stops the workers and joins them, after which the pool refuses
    work.
    """

    def __init__(self, workers: int, mp_context):
        if mp_context.get_start_method() != "fork":
            missing = _missing_main_path()
            if missing is not None:
                raise ValueError(
                    "a {} worker pool re-imports __main__ from {!r}, which does not"
                    " exist (a program read from stdin?): run the program from a"
                    " file with an `if __name__ == \"__main__\"` guard".format(
                        mp_context.get_start_method(), missing
                    )
                )
        self.workers = max(1, workers)
        self.mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._closed = False
        self._lock = threading.Lock()

    def executor(self) -> ProcessPoolExecutor:
        """The live pool, started on first use."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the worker pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self.mp_context,
                    initializer=_init_worker,
                    initargs=(os.getpid(),),
                )
            return self._executor

    def respawn(self) -> None:
        """Terminate the workers and everything they were running; the
        next :meth:`executor` call starts fresh ones."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            _terminate_pool(executor)

    def close(self) -> None:
        """Stop the workers for good and join them: idle workers exit
        cleanly, busy ones are terminated."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is None:
            return
        if executor._pending_work_items:
            _terminate_pool(executor)
        else:
            executor.shutdown(wait=True)


def _missing_main_path() -> Optional[str]:
    """The path a spawned worker would re-import ``__main__`` from, if
    no file is there (``<stdin>`` for ``python -``); else None."""
    main = sys.modules.get("__main__")
    if getattr(getattr(main, "__spec__", None), "name", None):
        return None  # re-imported by module name (``python -m``)
    path = getattr(main, "__file__", None)
    if path is None:
        return None  # ``python -c`` and interactive sessions re-import nothing
    if not os.path.isabs(path) and multiprocessing.process.ORIGINAL_DIR is not None:
        path = os.path.join(multiprocessing.process.ORIGINAL_DIR, path)
    return None if os.path.exists(path) else path


def _tb_summary(worker_tb: str) -> str:
    """The last line of a traceback — the one-line progress summary."""
    return worker_tb.strip().splitlines()[-1] if worker_tb else ""


def _run_pool_tasks(
    fn,
    tasks: Sequence[Tuple[int, object]],
    workers: int,
    policy,
    describe: Callable[[int], str],
    on_start=None,
    on_done=None,
    on_retry=None,
    pool: Optional[WorkerPool] = None,
):
    """Run guarded tasks through a process pool under a resilience policy.

    ``tasks`` is ``[(task_id, arg), ...]`` and ``fn(arg)`` must return a
    guarded payload (``("ok", ...)`` or ``("error", name, traceback)``,
    optionally followed by the spec's per-shard status map).
    Returns ``(payloads, failures, stats)``: ``payloads[task_id]`` is
    ``(payload, attempts)``, ``failures[task_id]`` a
    :class:`~repro.core.resilience.SpecFailure`, and ``stats`` the
    retry/timeout/respawn/degradation counters.

    Three fault classes the bare executor does not survive are handled
    here:

    * a task *raising* — retried with exponential backoff up to the
      policy's attempt budget;
    * a worker *dying abruptly* (``BrokenProcessPool``) — the pool is
      respawned and everything that was in flight requeued; since the
      culprit is unknowable from outside, the crash is charged as one
      attempt against every in-flight task;
    * a task *exceeding its wall-clock budget* — a stuck worker cannot
      be reclaimed individually, so the pool is recycled; the slow task
      is charged an attempt, the innocents requeue for free.

    After ``policy.max_pool_respawns`` recycles the pool is abandoned
    and the remainder runs in-process (degraded mode: retries still
    apply, timeouts cannot preempt).  Without a ``pool``, ``workers <=
    1`` runs every task through that same in-process loop from the
    start, with no pool at all and without counting as degraded, and
    ``workers > 1`` builds a pool for this call alone.

    A borrowed ``pool`` (a :class:`WorkerPool`) runs the tasks, at most
    ``workers`` at a time, even for ``workers == 1``; a recycle swaps in
    fresh workers through :meth:`WorkerPool.respawn`, and the pool stays
    up for the owner's next call.  A pool built for the call has its
    workers joined before returning.  Either way, workers left with work
    in flight — recycled, interrupted, or left by a raise-mode early
    exit — are terminated (:func:`_terminate_pool`), so none outlives
    the work it was given.  A ``KeyboardInterrupt`` re-raises as
    :class:`~repro.core.resilience.SweepInterrupted` carrying everything
    that already finished.
    """
    from repro.core.resilience import SpecFailure, SweepInterrupted

    pending = deque((tid, arg, 1, 0.0) for tid, arg in tasks)
    payloads: Dict[int, Tuple] = {}
    failures: Dict[int, object] = {}
    stats = {"retries": 0, "timeouts": 0, "pool_respawns": 0, "degraded": False}
    max_attempts = policy.retry.max_attempts
    stop_on_failure = policy.on_error == "raise"
    inflight: Dict = {}

    def notify_start(tid, attempt):
        if on_start is not None and attempt == 1:
            on_start(tid)

    def record_success(tid, payload, attempt):
        payloads[tid] = (payload, attempt)
        if on_done is not None:
            on_done(tid, payload)

    def fail_or_retry(
        tid, arg, attempt, kind, error, tb="", shard_status=None
    ) -> bool:
        """Requeue with backoff, or record the final failure (-> True)."""
        if attempt < max_attempts:
            stats["retries"] += 1
            if on_retry is not None:
                on_retry(tid, attempt, kind, error)
            delay = policy.retry.backoff(attempt)
            pending.append((tid, arg, attempt + 1, time.monotonic() + delay))
            return False
        failures[tid] = SpecFailure(
            name=describe(tid),
            index=tid,
            attempts=attempt,
            kind=kind,
            error=error,
            worker_traceback=tb,
            shard_status=shard_status or {},
        )
        return True

    def settle(tid, arg, attempt, payload):
        """Record a guarded payload: a success, or a failed attempt."""
        if payload[0] == "ok":
            record_success(tid, payload, attempt)
        else:
            tb = payload[2]
            fail_or_retry(
                tid, arg, attempt, "error", _tb_summary(tb), tb, *payload[3:]
            )

    def recycle(reason_futures, kind, error):
        """The pool is unusable: replace its workers, charge
        ``reason_futures`` a failed attempt, requeue the innocents for
        free."""
        nonlocal executor
        stats["pool_respawns"] += 1
        pool.respawn()
        victims = list(inflight.items())
        inflight.clear()
        for future, (tid, arg, attempt, _) in victims:
            if future in reason_futures:
                fail_or_retry(tid, arg, attempt, kind, error)
            else:
                pending.appendleft((tid, arg, attempt, 0.0))
        if stats["pool_respawns"] > policy.max_pool_respawns:
            stats["degraded"] = True
            executor = None
        else:
            executor = pool.executor()

    def release():
        """Terminate workers left with work in flight; close a pool
        built for this call."""
        if pool is None:
            return
        if inflight:
            pool.respawn()
        if owned:
            pool.close()

    owned = pool is None and workers > 1
    if owned:
        pool = WorkerPool(workers, _pool_context())
    executor = pool.executor() if pool is not None else None
    try:
        while pending or inflight:
            if stop_on_failure and failures:
                break
            now = time.monotonic()
            if executor is None:
                # In-process: a sequential sweep, or no pool left to
                # trust.  Retries still apply; timeouts cannot preempt.
                tid, arg, attempt, not_before = pending.popleft()
                if not_before > now:
                    policy.sleep(not_before - now)
                notify_start(tid, attempt)
                settle(tid, arg, attempt, fn(arg))
                continue
            # Dispatch one task per idle worker; a task whose backoff
            # stamp is still in the future stays queued.
            if pending and len(inflight) < workers:
                waiting = []
                while pending and len(inflight) < workers:
                    tid, arg, attempt, not_before = pending.popleft()
                    if not_before > now:
                        waiting.append((tid, arg, attempt, not_before))
                        continue
                    deadline = (
                        now + policy.spec_timeout if policy.spec_timeout else 0.0
                    )
                    future = executor.submit(fn, arg)
                    inflight[future] = (tid, arg, attempt, deadline)
                    notify_start(tid, attempt)
                for entry in reversed(waiting):
                    pending.appendleft(entry)
            if not inflight:
                # Everything left is backing off; sleep to the earliest
                # stamp instead of spinning.
                wake = min(entry[3] for entry in pending)
                policy.sleep(max(0.0, wake - time.monotonic()))
                continue
            horizons = [meta[3] for meta in inflight.values() if meta[3]]
            horizons += [entry[3] for entry in pending if entry[3]]
            timeout = (
                max(0.0, min(horizons) - time.monotonic()) + 0.02
                if horizons
                else None
            )
            done, _ = wait(list(inflight), timeout=timeout, return_when=FIRST_COMPLETED)
            broken = False
            for future in done:
                meta = inflight.pop(future)
                tid, arg, attempt, _ = meta
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    inflight[future] = meta  # recycle() charges it below
                    broken = True
                    break
                except Exception as exc:
                    fail_or_retry(
                        tid, arg, attempt, "error", str(exc), traceback.format_exc()
                    )
                    continue
                settle(tid, arg, attempt, payload)
            if broken:
                recycle(
                    set(inflight),
                    "pool-crash",
                    "a process-pool worker died while the task was in flight",
                )
                continue
            if policy.spec_timeout:
                now = time.monotonic()
                expired = {
                    future
                    for future, meta in inflight.items()
                    if meta[3] and meta[3] <= now
                }
                if expired:
                    stats["timeouts"] += len(expired)
                    recycle(
                        expired,
                        "timeout",
                        "task exceeded the {:.3g}s wall-clock budget".format(
                            policy.spec_timeout
                        ),
                    )
    except KeyboardInterrupt:
        release()
        raise SweepInterrupted(payloads=payloads, failures=failures, stats=stats)
    release()  # in flight only after a raise-mode early exit
    return payloads, failures, stats


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon ``pool``: cancel what is queued, then terminate and join
    its worker processes.

    ``shutdown(wait=False)`` alone leaves a stuck or still-busy worker
    running after the sweep returns.  Killing one loses only work the
    caller already gave up on: a spec run with a cache does write to
    it, but every cache write is an atomic rename, so a killed writer
    leaves no torn object behind."""
    processes = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        process.terminate()
    for process in processes:
        process.join()


# ----------------------------------------------------------------------
# measuring one spec: a chain of resumable shards
# ----------------------------------------------------------------------
#
# One spec's N-instruction measurement splits into K shards at
# instruction boundaries i*N//K; a whole run is the one-shard case.
# Everything the measurement produces is additive — monitor banks, event
# counters, hardware stats — so each shard records its *delta* and
# merging the deltas in order is bit-identical to the uninterrupted run
# (asserted by the equivalence tests, like the composite case).
#
# Simulation is inherently serial (shard i+1 starts from shard i's end
# state), so a spec executes in-process: each maximal run of missing
# shards is one chain from the deepest cached boundary snapshot at or
# below its first shard, banking a machine snapshot at every boundary
# it passes.  The speedup comes from the content-addressed cache —
# finished shards replay instantly on re-runs and a chain starts as
# deep as the cache allows — while parallelism is across specs: the
# Scheduler hands each spec to the retry loop as one task, so ``jobs``
# specs run at once.  Boundary offsets are absolute instruction counts,
# so different shard counts share the snapshots they have in common (a
# 2-way split reuses a 4-way split's midpoint).
#
# Fault tolerance rides the same structure: a corrupt cached shard or
# snapshot is quarantined (RunCache.quarantine) and treated as a miss,
# and with a cache, whatever a failed chain left unfilled is recomputed
# by one repair pass from the deepest healthy snapshot — the
# determinism guarantee makes the repaired shards bit-identical to what
# the failed chain would have produced.


@dataclass
class ShardResult:
    """One shard's measured delta; everything in it is additive."""

    index: int
    shard_count: int
    #: measured-instruction offset where this shard began
    start_instruction: int
    instructions: int
    #: sparse (counts, stalled_counts) delta of the histogram banks
    histogram: Tuple[Dict[int, int], Dict[int, int]]
    events: EventCounters
    stats: MachineStats
    wall_seconds: float = 0.0
    #: True when this shard was replayed from the run cache
    from_cache: bool = False


def shard_boundaries(instructions: int, shards: int) -> List[int]:
    """Instruction offsets splitting ``instructions`` into ``shards``.

    ``i*N//K`` spreads any remainder evenly and makes boundaries shared
    between different shard counts coincide exactly, so their cached
    snapshots are interchangeable."""
    if shards < 1:
        raise ValueError("shard count must be >= 1, got {}".format(shards))
    return [instructions * i // shards for i in range(shards + 1)]


def _sparse_delta(after: Dict[int, int], before: Dict[int, int]) -> Dict[int, int]:
    """Per-bucket difference of two sparse dumps (counts only grow)."""
    return {
        bucket: count - before.get(bucket, 0)
        for bucket, count in after.items()
        if count - before.get(bucket, 0)
    }


def _measure_span(kernel, instructions: int, fault_key: Optional[str] = None):
    """Run ``instructions`` measured instructions; return the delta.

    The kernel must already be measuring.  Returns ``(histogram_delta,
    events_delta, stats_delta, wall_seconds)`` — the additive
    contribution of exactly this span, independent of where in the
    measurement it sits.  ``fault_key`` names this span to the
    fault-injection harness (site ``shard.measure``)."""
    if fault_key is not None:
        faults.fire("shard.measure", key=fault_key)
    machine = kernel.machine
    board = machine.monitor.board
    counts_before, stalled_before = board.dump_sparse()
    events_before = copy.deepcopy(machine.events)
    stats_before = MachineStats.from_machine(machine)
    started = time.perf_counter()
    kernel.run(max_instructions=instructions)
    wall = time.perf_counter() - started
    counts_after, stalled_after = board.dump_sparse()
    histogram = (
        _sparse_delta(counts_after, counts_before),
        _sparse_delta(stalled_after, stalled_before),
    )
    return (
        histogram,
        machine.events.minus(events_before),
        MachineStats.from_machine(machine).minus(stats_before),
        wall,
    )


def _shard_name(spec: RunSpec, index: int, shards: int) -> str:
    return "{}[shard {}/{}]".format(spec.name, index + 1, shards)


class _Chains:
    """What every chain of one spec's measurement shares: the shard
    boundaries and their cache keys, what a fresh build attaches, the
    shard results filled so far, and what the chain machines recorded.
    """

    def __init__(
        self, spec: RunSpec, shards: int, cache, notify, tracer, compile_events
    ):
        from repro.obs.metrics import MetricsRegistry

        self.spec = spec
        self.shards = shards
        self.cache = cache
        self.notify = notify
        self.tracer = tracer
        self.compile_events = compile_events
        self.boundaries = shard_boundaries(spec.instructions, shards)
        self.chash, self.shard_keys, self.snapshot_keys = shard_cache_keys(
            spec, self.boundaries
        )
        self.results: List[Optional[ShardResult]] = [None] * shards
        self.metrics = MetricsRegistry()
        #: (compile_stats, active, disabled_by_tracer) per chain machine
        self.compile: list = []
        #: wall seconds, instructions and cycles of every measured span
        self.measure_seconds = 0.0
        self.measured_instructions = 0
        self.measured_cycles = 0


def _open_chain_kernel(chains: _Chains, start_index: int):
    """Open a measuring kernel for a chain that wants to start at
    ``start_index``.

    Restores the deepest *healthy* cached boundary snapshot at or below
    the requested index — corrupt candidates are quarantined and the
    search continues shallower — falling back to a fresh build + warmup
    at instruction 0, timed into ``phase.build.seconds`` and
    ``phase.warmup.seconds``.  Returns ``(kernel, anchor_index,
    resumed_digest)``; the caller's chain must run from ``anchor_index``
    (which may be below ``start_index``, recomputing spans whose results
    are already known, because simulation state is only reachable by
    simulating)."""
    # Resolved at call time so tests can patch the one well-known
    # ``repro.core.experiment.prepare_workload`` seam.
    from repro.core import experiment

    spec, cache = chains.spec, chains.cache
    if cache is not None:
        for candidate in range(start_index, -1, -1):
            key = chains.snapshot_keys[chains.boundaries[candidate]]
            if not cache.has(key):
                continue
            kernel, digest = load_cached_snapshot(cache, key)
            if kernel is not None:
                return kernel, candidate, digest
    started = time.perf_counter()
    kernel, _ = experiment.prepare_workload(
        spec.workload,
        process_count=spec.process_count,
        seed_offset=spec.seed_offset,
        configure=_spec_configure(spec),
        tracer=chains.tracer,
        compile_events=chains.compile_events,
    )
    built = time.perf_counter()
    kernel.run(max_instructions=spec.warmup_instructions)
    chains.metrics.histogram(
        "phase.build.seconds", "machine + kernel + workload construction"
    ).observe(built - started)
    chains.metrics.histogram(
        "phase.warmup.seconds", "unmeasured warmup instructions"
    ).observe(time.perf_counter() - built)
    kernel.start_measurement()
    key = chains.snapshot_keys[0]
    if cache is not None and not cache.has(key):
        store_boundary_snapshot(cache, key, kernel, spec.name, chains.chash, 0)
    return kernel, 0, None


def _run_shard_chain(
    chains: _Chains, start_index: int, end_index: int
) -> Optional[str]:
    """Execute a contiguous run of shards in-process.

    Starts from the deepest healthy cached boundary snapshot (or a
    fresh build + warmup when none survives), emits every missing shard
    result and boundary snapshot into the cache as it passes, and
    returns the digest of the snapshot it resumed from, if any.  Spans
    whose results are already filled are simulated through without
    re-storing — the chain needs their end state, not their numbers.
    The chain machine's compile stats are noted before any shard runs,
    so a failed chain's replay work is counted too."""
    spec, shards, boundaries, cache = (
        chains.spec, chains.shards, chains.boundaries, chains.cache
    )
    kernel, anchor, resumed_digest = _open_chain_kernel(chains, start_index)
    ebox = kernel.machine.ebox
    chains.compile.append(
        (ebox.compile_stats, ebox._compile_active, ebox._compile_disabled_by_tracer)
    )
    for index in range(anchor, end_index + 1):
        span = boundaries[index + 1] - boundaries[index]
        name = _shard_name(spec, index, shards)
        chains.notify(ProgressEvent("start", index, shards, name))
        histogram, events, stats, wall = _measure_span(
            kernel, span, fault_key="{}@{}".format(spec.name, boundaries[index])
        )
        chains.measure_seconds += wall
        chains.measured_instructions += span
        chains.measured_cycles += stats.cycles
        if chains.results[index] is None:
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
            chains.results[index] = shard
            if cache is not None:
                store_shard(
                    cache, chains.shard_keys[index], shard, spec.name, chains.chash
                )
        chains.notify(ProgressEvent("done", index, shards, name, wall_seconds=wall))
        next_boundary = boundaries[index + 1]
        if cache is not None and index + 1 < shards:
            key = chains.snapshot_keys[next_boundary]
            if not cache.has(key):
                store_boundary_snapshot(
                    cache, key, kernel, spec.name, chains.chash, next_boundary
                )
    if end_index == shards - 1:
        kernel.stop_measurement()
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
    from repro.core.monitor import HistogramBoard
    from repro.core.reduction import reduce_histogram
    from repro.ucode.routines import build_layout

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
        name=spec.name,
        reduction=reduction,
        events=merged_events,
        stats=merged_stats,
    )
    return result, board.dump_sparse()


def _record_run_metrics(chains: _Chains) -> None:
    """The measure phase, simulation speed and ``sim.compile.*`` over
    every chain machine (nothing when every shard came from the
    cache)."""
    from repro.core.compile import CompileStats, record_metrics

    if not chains.compile:
        return
    metrics, seconds = chains.metrics, chains.measure_seconds
    metrics.histogram("phase.measure.seconds", "measured instructions").observe(seconds)
    if seconds > 0:
        metrics.gauge(
            "speed.instructions_per_second", "simulated instructions / wall second"
        ).set(chains.measured_instructions / seconds)
        metrics.gauge(
            "speed.cycles_per_second", "simulated cycles / wall second"
        ).set(chains.measured_cycles / seconds)
    totals = CompileStats()
    for stats, _active, _traced in chains.compile:
        totals.merge_from(stats)
    record_metrics(
        metrics,
        totals,
        active=any(active for _stats, active, _traced in chains.compile),
        disabled_by_tracer=any(traced for _stats, _active, traced in chains.compile),
    )


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
    """Compose the EngineError body for a failed spec: the per-shard
    status map first, then every traceback we hold."""
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


def execute_spec(
    spec: RunSpec,
    shards: int = 1,
    cache=None,
    progress: Optional[ProgressCallback] = None,
    policy=None,
    tracer=None,
    compile_events=None,
) -> EngineRun:
    """Measure one spec, in-process, as ``shards`` resumable shards.

    The one function that measures a spec: a whole run is one chain —
    a fresh build and warm-up, one measured span, and the merge.  With
    a ``cache`` (a :class:`~repro.core.runcache.RunCache`): finished
    shards replay instantly, and each maximal run of missing shards
    executes as one chain from the deepest cached boundary snapshot at
    or below its first shard.  Whatever the shard count, the merged
    result is bit-identical to the uninterrupted run (the equivalence
    tests assert it).  Parallelism, retries and timeouts are the
    caller's: the :class:`~repro.core.scheduler.Scheduler` runs each
    spec as one task of the retry loop (:func:`_execute_guarded`).

    The returned :class:`EngineRun` carries a
    :class:`~repro.obs.provenance.RunManifest` (config hash, seeds,
    code version, timings, shard provenance) and a metrics snapshot:
    ``phase.build.seconds`` and ``phase.warmup.seconds`` per fresh
    build, ``phase.measure.seconds`` over the measured spans, the
    ``speed.*`` gauges and ``sim.compile.*``.  ``tracer`` and
    ``compile_events`` attach to freshly built machines (see
    :func:`~repro.core.experiment.prepare_workload`); a machine restored
    from a cached snapshot runs without them.

    The path is self-healing: corrupt or unpicklable cached objects are
    quarantined and recomputed, and with a cache, whatever a failed
    chain left unfilled falls to one repair pass from the snapshots it
    banked (without one, a repair would only repeat the failed chain
    from scratch; the retry loop above owns that).  The manifest
    records how much healing happened (``quarantined_objects``,
    ``repaired_shards``; with a ``policy`` carrying metrics, the
    matching ``engine.*`` counters).  A failure surfaces as
    :class:`EngineError` — its message carries the per-shard status map
    and every chain traceback, so a partial cache failure is
    diagnosable from the error alone.  ``progress`` names the
    individual shards.

    Timing note: this function is the *execution site*, so wall-clock
    is recorded here exactly once.  A spec that never reaches execution
    — deduplicated against an in-flight job or resolved whole from the
    cache by the Scheduler — gets zero wall seconds and
    ``attached_to``/``resumed_from`` provenance, never a copy of this
    timing.
    """
    from repro.core.compile import stats_from_snapshot
    from repro.obs.provenance import RunManifest
    from repro.workloads import profile_by_name

    shards = max(1, min(shards, spec.instructions or 1))
    notify = progress if progress is not None else _ignore_progress
    started = time.perf_counter()
    profile = profile_by_name(spec.workload)
    manifest = RunManifest.for_spec(spec, profile_seed=profile.seed)
    chains = _Chains(spec, shards, cache, notify, tracer, compile_events)
    results = chains.results
    stats_before = cache.stats() if cache is not None else None

    if cache is not None:
        for index in range(shards):
            shard = load_cached_shard(cache, chains.shard_keys[index])
            if shard is None:
                continue
            results[index] = shard
            name = _shard_name(spec, index, shards)
            notify(ProgressEvent("start", index, shards, name))
            notify(ProgressEvent("done", index, shards, name))

    resumed_digest: Optional[str] = None

    def fill() -> Optional[str]:
        """One pass: a chain per run of unfilled shards.  Returns the
        first failed chain's traceback, if any."""
        nonlocal resumed_digest
        failure = None
        for first, last in _missing_runs(results):
            try:
                digest = _run_shard_chain(chains, first, last)
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
    if unfilled and cache is not None:
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
    _record_run_metrics(chains)
    metrics = chains.metrics.snapshot()
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


def _collect_dead_machines() -> None:
    """Free the machines a finished spec left behind.

    A machine is a reference cycle (kernel, devices, terminal emulator
    and their bound methods), and only a full collection frees a cycle
    that lived long.  Its physical memory sits on demand-zero pages, so
    a dead machine holds only the pages its workload touched (about
    150 KB) plus its objects, not 8 MB; but a process holding a large
    long-lived heap (layout, compiled records) triggers few full
    collections, so a worker running spec after spec would still keep
    dead machines around in numbers that depended on where the
    collector's counters happened to stand.  The end of a spec is where
    a whole machine graph has just died; one full collection there
    (~10 ms) keeps the worker's footprint flat."""
    gc.collect()


def _execute_guarded(spec: RunSpec, shards: int = 1, cache=None) -> Tuple:
    """The pool task for one spec: never raises across the pickle
    boundary.

    Fires the ``worker`` fault site, then :func:`execute_spec`.
    Exceptions re-raised by a future lose their worker stack; shipping
    ``("error", name, traceback_text[, shard_status])`` instead lets the
    coordinator raise an :class:`EngineError` that says exactly which
    spec died, where, and what each shard came to.  Either way the
    machines the spec left behind are collected."""
    try:
        faults.fire("worker", key=spec.name)
        return ("ok", execute_spec(spec, shards, cache=cache))
    except EngineError as error:
        return ("error", spec.name, error.worker_traceback, error.shard_status)
    except Exception:
        return ("error", spec.name, traceback.format_exc())
    finally:
        _collect_dead_machines()


def parallel_map(func: Callable, items: Sequence, jobs: int = 1) -> List:
    """Generic deterministic fan-out: ``[func(x) for x in items]``,
    optionally across a :class:`WorkerPool` built for the call (its
    workers ignore SIGINT and exit with their owner).  ``func`` must be
    a module-level function when ``jobs > 1``.  Order is preserved
    either way."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    pool = WorkerPool(min(jobs, len(items)), _pool_context())
    try:
        return list(pool.executor().map(func, items))
    finally:
        pool.close()
