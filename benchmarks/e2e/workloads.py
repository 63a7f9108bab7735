"""The four workloads of the end-to-end benchmark.

``run.py`` starts this file once per workload, in a child process of
its own.  The work under test runs in processes this child starts
(units, servers); the child itself only drives them and checks their
outputs, so the workload's peak RSS is read from its reaped children:

``tables-cold``
    Fresh interpreters making the calls ``repro composite`` makes at
    its defaults, each printing the Tables 1-9 report.  The path users
    run: imports, layout and workload codegen, the compile tier's
    formation transient, reduction.  No pool, cache, snapshot or
    service.
``steady-sim``
    Fresh processes that build ``educational`` and ``commercial``,
    warm each up, then time ``kernel.run`` over fixed windows.  Host
    time goes to the in-machine layers and superblock-compiled code;
    ``commercial`` keeps a compile change tuned to ``educational``'s
    call-heavy mix honest on decimal and character code.
``ablation-sweep``
    Fresh interpreters each making the call ``repro sweep`` makes:
    ``scientific`` (the largest data footprint) on eight machine
    configurations through ``run_specs(jobs=2)``.  The tiny caches push
    the memory layer onto its miss, SBI and TB-fill paths; the sweep
    also pays process-pool dispatch and result pickling.
``service-replay``
    A ``repro serve --shards 2`` process driven by two closed-loop
    client threads.  A round is one hot sweep of eight executed specs
    plus a fetch of all eight results; every fourth round adds a cold
    sweep that writes shard results and boundary snapshots to the run
    cache.  The server then restarts twice on the same cache and each
    cold spec is revived from disk once.  Little simulation: the
    service, scheduler, run cache and snapshot layers do the work.

The first three repeat their unit until ``--seconds`` have passed (and
at least :attr:`Sizes.min_units` times); ``service-replay`` runs a
number of rounds proportional to ``--seconds``.  Each returns its raw
samples and ``run.py`` summarizes them.  With ``--trace 1`` a workload
runs one unit (one scenario) under cProfile instead, so call counts are
exact, plus the same work untraced for the tracing overhead, and
returns the per-layer ledger.

Every unit's output is checked: repeated reports must match byte for
byte, pool and service results must match an in-process
``execute_spec``, repeated long simulations must end in the same
machine state.  A mismatch is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import layers
from serve import SHARDS
from summary import quartiles
from units import (
    SWEEP_CONFIGS,
    SWEEP_WORKLOAD,
    combined_digest,
    model_counters,
    result_digest,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Client poll interval: ``ServiceClient.wait``'s 50 ms default would
#: hide the latency being measured.
POLL_SECONDS = 0.001

#: A unit that has not finished in this long has hung.
UNIT_TIMEOUT_S = 170

SWEEP_JOBS = 2
SERVICE_WORKLOAD = "educational"
SERVICE_CLIENTS = 2
#: Every this many rounds a client adds a cold sweep.
COLD_EVERY = 4
#: Rounds per client per second of ``--seconds``.
ROUNDS_PER_SECOND = 4.0


@dataclass(frozen=True)
class Sizes:
    """How much work each unit does (tests shrink these)."""

    composite_instructions: int = 10_000
    composite_warmup: int = 2_000
    steady_warmup: int = 30_000
    steady_instructions: int = 32_000
    steady_windows: int = 8
    sweep_instructions: int = 20_000
    sweep_warmup: int = 2_000
    service_instructions: int = 3_000
    service_warmup: int = 500
    min_units: int = 3


class UnitError(RuntimeError):
    """A unit process exited with an error."""


@dataclass
class Context:
    """One workload run: its inputs and its operation ledger."""

    seed: int
    seconds: float
    tmp: str
    sizes: Sizes = field(default_factory=Sizes)
    started: float = field(default_factory=time.monotonic)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation; a false ``ok`` is a failure."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.errors.append(message)
        return ok

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def repeat(self, unit) -> List:
        """Run ``unit()`` until ``seconds`` have passed, at least
        ``min_units`` times; a unit that would end past the deadline
        (judged by the last one) is not started."""
        results = []
        last = 0.0
        while len(results) < self.sizes.min_units or self.elapsed() + last <= self.seconds:
            started = time.monotonic()
            results.append(unit())
            last = time.monotonic() - started
        return results

    def run_unit(self, unit: str, *args: str, profile: Optional[str] = None):
        """Run one ``units.py`` unit in a fresh interpreter; returns
        ``(record, stdout before the record, spawn time)``."""
        command = [sys.executable, os.path.join(HERE, "units.py"), unit,
                   "--seed", str(self.seed), *args]
        if profile is not None:
            command += ["--profile", profile]
        spawned = time.monotonic()
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                              timeout=UNIT_TIMEOUT_S)
        if done.returncode != 0:
            raise UnitError("unit {} exited with {}".format(unit, done.returncode))
        text, _, last = done.stdout.rstrip("\n").rpartition("\n")
        return json.loads(last), text, spawned

    def profile_path(self, name: str) -> str:
        return os.path.join(self.tmp, name + ".prof")


def ms(seconds: float) -> float:
    return seconds * 1000.0


# ----------------------------------------------------------------------
# the per-layer ledger
# ----------------------------------------------------------------------


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def ledger(profiles: List[str], simulated: int, overhead: float, compile_totals=None,
           model=None, executor=None, scheduler=None, service=None, runcache=None) -> Dict:
    """Every per-layer metric, from the merged profiles and the
    counters the workload collected (absent counters read 0)."""
    raw = layers.load_profiles(profiles)
    classify = layers.make_classifier(os.path.join(SRC, "repro"), HERE)
    self_seconds, calls_in = layers.attribute(raw, classify)
    total = sum(self_seconds.values())
    values = {}
    for name in layers.LAYER_NAMES:
        values[name + ".share"] = _frac(self_seconds[name], total)
    for name in layers.LAYER_NAMES:
        values[name + ".calls_in"] = calls_in[name]
    for name in layers.IN_MACHINE:
        values[name + ".ns_per_instr"] = _frac(self_seconds[name], simulated) * 1e9
    values["trace.profiled_s"] = total
    values["trace.instructions"] = simulated
    values["trace.overhead_frac"] = overhead

    c = compile_totals or {}
    values["compile.fast_instr_frac"] = _frac(
        c.get("jit_hits", 0), c.get("jit_hits", 0) + c.get("jit_misses", 0))
    values["compile.superblock_mean_len"] = _frac(
        c.get("superblock_instructions", 0), c.get("superblock_runs", 0))
    values["compile.superblock_deopts"] = c.get("superblock_deopts", 0)
    values["compile.jit_misses"] = c.get("jit_misses", 0)
    values["compile.records_compiled"] = c.get("records_compiled", 0)

    m = model or {}
    instructions = m.get("instructions", 0)
    values["memory.cache_read_miss_per_instr"] = _frac(m.get("cache_read_misses", 0), instructions)
    values["memory.tb_miss_per_instr"] = _frac(m.get("tb_misses", 0), instructions)
    values["memory.wb_stall_cycles_per_instr"] = _frac(m.get("wb_stall_cycles", 0), instructions)
    values["ibuffer.stall_cycles_per_instr"] = _frac(m.get("ib_stall_cycles", 0), instructions)

    e = executor or {}
    busy = e.get("busy_s", 0.0)
    values["executor.busy_s"] = busy
    values["executor.idle_frac"] = max(0.0, 1.0 - _frac(busy, e.get("wall_s", 0.0) * e.get("workers", 1)))
    for phase in ("build", "warmup", "measure"):
        values["executor.{}_frac".format(phase)] = _frac(e.get(phase, 0.0), busy)

    s = scheduler or {}
    for name in ("executed", "resolved_index", "resolved_cache", "attached_inflight"):
        values["scheduler." + name] = s.get(name, 0)
    deduped = sum(s.get(name, 0) for name in
                  ("resolved_index", "resolved_cache", "attached_inflight", "deduped_batch"))
    values["scheduler.dedupe_ratio"] = _frac(deduped, deduped + s.get("executed", 0))

    v = service or {}
    values["service.queue_wait_frac"] = v.get("queue_wait_frac", 0.0)
    values["service.overhead_frac"] = v.get("overhead_frac", 0.0)
    r = runcache or {}
    values["runcache.bytes"] = r.get("bytes", 0)
    values["runcache.objects"] = r.get("objects", 0)
    return values


# ----------------------------------------------------------------------
# tables-cold
# ----------------------------------------------------------------------


def _composite_args(sizes: Sizes):
    return ("--instructions", str(sizes.composite_instructions),
            "--warmup", str(sizes.composite_warmup))


def tables_cold(ctx: Context, trace: bool) -> Dict:
    args = _composite_args(ctx.sizes)
    if trace:
        profile = ctx.profile_path("tables")
        traced, traced_text, traced_spawn = ctx.run_unit("tables", *args, profile=profile)
        plain, plain_text, plain_spawn = ctx.run_unit("tables", *args)
        runs, _, _ = ctx.run_unit("tables-runs", *args)
        ctx.check(traced_text == plain_text, "traced and untraced reports differ")
        ctx.check(runs["digest"] == plain["digest"], "run_specs composite differs from the CLI's")
        overhead = (traced["printed"] - traced_spawn) / (plain["printed"] - plain_spawn) - 1.0
        return {"digest": plain["digest"], "layers": ledger(
            [profile], traced["simulated"], overhead, compile_totals=runs["compile"],
            model=plain["model"], executor=runs["executor"])}

    units = ctx.repeat(lambda: ctx.run_unit("tables", *args))
    first_record, first_text, _ = units[0]
    for record, text, _ in units:
        ctx.check(text == first_text, "a tables-cold report differs from the first")
        ctx.check(record["digest"] == first_record["digest"], "a composite result digest differs")
    return {
        "digest": first_record["digest"],
        "samples": {
            "setup_s": [record["imported"] - spawned for record, _, spawned in units],
            "op_ms": [ms(record["printed"] - spawned) for record, _, spawned in units],
            "sim_ips": [record["simulated"] / record["busy_s"] for record, _, _ in units],
        },
        "details": {"report_s": [record["printed"] - spawned for record, _, spawned in units]},
    }


# ----------------------------------------------------------------------
# steady-sim
# ----------------------------------------------------------------------


def _steady_args(sizes: Sizes):
    return ("--warmup", str(sizes.steady_warmup),
            "--instructions", str(sizes.steady_instructions),
            "--windows", str(sizes.steady_windows))


def _window_ips(records: List[Dict]) -> float:
    """Span throughput, each window timed by the lower quartile of its
    repeats (the fastest, for three).  Windows of one span swing ~3x in
    a fixed pattern, so only whole spans compare, never a median of
    windows; repeating the same span and taking each window's
    undisturbed time keeps a host stall in one repeat out of it."""
    windows = list(zip(*(record["windows"] for record in records)))
    instructions = sum(window[0][0] for window in windows)
    seconds = sum(quartiles([seconds for _, seconds in window])[0] for window in windows)
    return instructions / seconds


def steady_sim(ctx: Context, trace: bool) -> Dict:
    args = _steady_args(ctx.sizes)
    if trace:
        profile = ctx.profile_path("steady")
        traced, _, traced_spawn = ctx.run_unit("steady", *args, profile=profile)
        plain, _, plain_spawn = ctx.run_unit("steady", *args)
        ctx.check(traced["digest"] == plain["digest"], "traced and untraced simulations differ")
        overhead = (traced["done"] - traced_spawn) / (plain["done"] - plain_spawn) - 1.0
        return {"digest": plain["digest"], "layers": ledger(
            [profile], traced["simulated"], overhead, compile_totals=plain["compile"],
            model=plain["model"], executor=plain["executor"])}

    units = ctx.repeat(lambda: ctx.run_unit("steady", *args))
    records = [record for record, _, _ in units]
    for record in records:
        ctx.check(record["states"] == records[0]["states"],
                  "a steady-sim repeat ended in another machine state")
        ctx.check(record["digest"] == records[0]["digest"], "a steady-sim result digest differs")
        ctx.check([w[0] for w in record["windows"]] == [w[0] for w in records[0]["windows"]],
                  "a steady-sim repeat retired other window sizes")
    return {
        "digest": records[0]["digest"],
        "samples": {
            "setup_s": [record["warmed"] - spawned for record, _, spawned in units],
            "op_ms": [ms(record["done"] - spawned) for record, _, spawned in units],
            "sim_ips": [_window_ips(records)],
        },
        "details": {},
    }


# ----------------------------------------------------------------------
# ablation-sweep
# ----------------------------------------------------------------------


def _sweep_args(sizes: Sizes, jobs: int):
    return ("--instructions", str(sizes.sweep_instructions),
            "--warmup", str(sizes.sweep_warmup), "--jobs", str(jobs))


def _check_in_process(ctx: Context, sweep_digests: List[str]) -> None:
    """Baseline and cache 1 KB against an in-process execute_spec."""
    from repro.core.executor import MachineConfig, RunSpec, execute_spec

    for index in (0, 1):
        fields = SWEEP_CONFIGS[index]
        spec = RunSpec(workload=SWEEP_WORKLOAD, instructions=ctx.sizes.sweep_instructions,
                       warmup_instructions=ctx.sizes.sweep_warmup, seed_offset=ctx.seed,
                       config=MachineConfig(**fields) if fields else None)
        ctx.check(result_digest(execute_spec(spec).result) == sweep_digests[index],
                  "pool result for {} differs from in-process execute_spec".format(spec.name))


def ablation_sweep(ctx: Context, trace: bool) -> Dict:
    if trace:
        # Pool workers cannot be profiled from outside: the traced sweep
        # runs in-process (jobs=1); the executor numbers come from an
        # untraced pool sweep.
        profile = ctx.profile_path("sweep")
        traced, _, _ = ctx.run_unit("sweep", *_sweep_args(ctx.sizes, 1), profile=profile)
        plain, _, _ = ctx.run_unit("sweep", *_sweep_args(ctx.sizes, 1))
        pooled, _, _ = ctx.run_unit("sweep", *_sweep_args(ctx.sizes, SWEEP_JOBS))
        for record in (traced, plain):
            ctx.check(record["digests"] == pooled["digests"], "in-process and pool sweeps differ")
        overhead = (traced["done"] - traced["called"]) / (plain["done"] - plain["called"]) - 1.0
        return {"digest": combined_digest(pooled["digests"]), "layers": ledger(
            [profile], traced["simulated"], overhead, compile_totals=plain["compile"],
            model=plain["model"], executor=pooled["executor"])}

    args = _sweep_args(ctx.sizes, SWEEP_JOBS)
    units = ctx.repeat(lambda: ctx.run_unit("sweep", *args))
    records = [record for record, _, _ in units]
    for record in records:
        ctx.check(record["digests"] == records[0]["digests"], "a sweep's results differ")
    _check_in_process(ctx, records[0]["digests"])
    return {
        "digest": combined_digest(records[0]["digests"]),
        "samples": {
            "setup_s": [record["pool_ready"] - spawned for record, _, spawned in units],
            "op_ms": [ms(record["done"] - spawned) for record, _, spawned in units],
            "sim_ips": [record["simulated"] / (record["done"] - record["called"])
                        for record in records],
        },
        "details": {},
    }


# ----------------------------------------------------------------------
# service-replay
# ----------------------------------------------------------------------


class Server:
    """A ``repro serve`` process (or the traced launcher) on a free
    port, up once ``/healthz`` answers."""

    def __init__(self, ctx: Context, cache_dir: str, profile: Optional[str] = None):
        from repro.service.client import ClientError, ServiceClient

        if profile is None:
            command = [sys.executable, "-m", "repro", "-q", "serve", "--port", "0",
                       "--shards", str(SHARDS), "--cache-dir", cache_dir]
        else:
            command = [sys.executable, os.path.join(HERE, "serve.py"), "--port", "0",
                       "--cache-dir", cache_dir, "--profile", profile]
        spawned = time.monotonic()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = self.process.stdout.readline()
            if "http://" not in line:
                raise UnitError("service did not announce its port: {!r}".format(line))
            self.url = line.strip().rsplit("http://", 1)[1]
            self.client = ServiceClient(self.url)
            while True:
                try:
                    self.client.healthz()
                    break
                except (ClientError, OSError):
                    if time.monotonic() - spawned > UNIT_TIMEOUT_S:
                        raise
                    time.sleep(POLL_SECONDS)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - spawned

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def _specs(ctx: Context):
    """The hot sweep (the eight ablation configurations of
    ``educational``) and the cold-spec maker.  One workload keeps
    program generation a one-off per server process."""
    from repro.core.executor import MachineConfig, RunSpec

    sizes = ctx.sizes
    common = {"workload": SERVICE_WORKLOAD, "instructions": sizes.service_instructions,
              "warmup_instructions": sizes.service_warmup}
    hot = [RunSpec(seed_offset=ctx.seed, config=MachineConfig(**fields) if fields else None,
                   **common)
           for fields in SWEEP_CONFIGS]

    def cold(client: int, index: int):
        # hot specs use seed_offset=seed; every cold one gets its own
        return RunSpec(seed_offset=ctx.seed + 1 + client + SERVICE_CLIENTS * index,
                       **common)

    return hot, cold


def _submit_wait(client, specs):
    started = time.monotonic()
    accepted = client.submit_sweep(specs)
    record = client.wait(accepted["job"], timeout=UNIT_TIMEOUT_S, poll=POLL_SECONDS)
    return time.monotonic() - started, accepted["digests"], record


def _job_ok(record, count: int) -> bool:
    return record["state"] == "done" and len(record["runs"]) == count


class _Samples:
    """Service-replay samples; list appends are atomic, so client
    threads share one instance."""

    def __init__(self):
        self.setup_s: List[float] = []
        self.round_ms: List[float] = []
        self.job_ms: List[float] = []
        self.queue_wait_ms: List[float] = []
        self.overhead_ms: List[float] = []
        self.fetch_ms: List[float] = []
        self.cold_ms: List[float] = []
        self.cold_ips: List[float] = []
        self.revive_ms: List[float] = []
        self.busy_s: List[float] = []
        self.cold_specs: List = []
        self.stats: Dict[str, int] = {}

    def add_stats(self, client) -> None:
        counters = client.stats().get("metrics", {}).get("counters", {})
        for name, value in counters.items():
            if name.startswith("scheduler.specs."):
                key = name[len("scheduler.specs."):]
                self.stats[key] = self.stats.get(key, 0) + value


def _server_times(client, record) -> Dict:
    """The job record once the server has stamped ``finished_at``,
    which lands just after the state turns ``done``."""
    while record["finished_at"] is None:
        time.sleep(POLL_SECONDS)
        record = client.job(record["job"])
    return record


def _client_loop(ctx: Context, url: str, client_id: int, hot, hot_digests, cold,
                 samples: _Samples, rounds: int) -> None:
    from repro.service.client import ClientError, ServiceClient

    client = ServiceClient(url)
    for done_rounds in range(rounds):
        try:
            latency, _, record = _submit_wait(client, hot)
            ok = _job_ok(record, len(hot)) and all(run["attached_to"] for run in record["runs"])
            ctx.check(ok, "hot sweep did not resolve from the result index: {}".format(record["state"]))
            samples.job_ms.append(ms(latency))
            fetch_started = time.monotonic()
            for digest in hot_digests:
                fetched = time.monotonic()
                payload = client.result_payload(digest)
                samples.fetch_ms.append(ms(time.monotonic() - fetched))
                ctx.check(payload["result"]["reduction"]["instructions"] > 0,
                          "fetched an empty result")
            samples.round_ms.append(ms(time.monotonic() - fetch_started + latency))
            record = _server_times(client, record)
            samples.queue_wait_ms.append(ms(record["started_at"] - record["submitted_at"]))
            samples.overhead_ms.append(
                ms(latency - (record["finished_at"] - record["started_at"])))
            if done_rounds % COLD_EVERY == COLD_EVERY - 1:
                spec = cold(client_id, done_rounds // COLD_EVERY)
                latency, _, record = _submit_wait(client, [spec])
                if ctx.check(_job_ok(record, 1) and not record["runs"][0]["attached_to"],
                             "cold sweep did not execute"):
                    samples.cold_ms.append(ms(latency))
                    wall = record["runs"][0]["wall_seconds"]
                    samples.busy_s.append(wall)
                    samples.cold_ips.append((spec.instructions + spec.warmup_instructions) / wall)
                    samples.cold_specs.append(spec)
        except (ClientError, OSError, TimeoutError, KeyError) as error:
            ctx.check(False, "client {}: {!r}".format(client_id, error))


def _client_thread(ctx: Context, *args) -> None:
    """Thread boundary: an unexpected error ends this client and is
    counted as a failed operation rather than lost with the thread."""
    try:
        _client_loop(ctx, *args)
    except Exception:  # noqa: BLE001 - recorded below
        ctx.check(False, traceback.format_exc())


def service_scenario(ctx: Context, rounds: int, profile_prefix: Optional[str] = None) -> Dict:
    """One service-replay scenario: serve, populate, ``rounds`` rounds
    per client, two restarts with revivals."""
    from repro.core.runcache import RunCache

    cache_dir = tempfile.mkdtemp(prefix="service-", dir=ctx.tmp)
    samples = _Samples()
    hot, cold = _specs(ctx)
    profiles = []

    def start() -> Server:
        profile = None
        if profile_prefix is not None:
            profile = ctx.profile_path("{}-server{}".format(profile_prefix, len(profiles)))
            profiles.append(profile)
        server = Server(ctx, cache_dir, profile)
        samples.setup_s.append(server.setup_s)
        return server

    started = time.monotonic()
    server = start()
    try:
        latency, hot_digests, record = _submit_wait(server.client, hot)
        ctx.check(_job_ok(record, len(hot)), "populating the hot specs failed")
        samples.busy_s.extend(run["wall_seconds"] for run in record["runs"])
        threads = [
            threading.Thread(target=_client_thread, args=(
                ctx, server.url, client_id, hot, hot_digests, cold, samples, rounds))
            for client_id in range(SERVICE_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        fetched = [server.client.result(digest) for digest in hot_digests]
        samples.add_stats(server.client)
    finally:
        server.stop()
    halves = (samples.cold_specs[0::2], samples.cold_specs[1::2])
    for half in halves:
        server = start()
        try:
            for spec in half:
                latency, _, record = _submit_wait(server.client, [spec])
                ctx.check(_job_ok(record, 1) and bool(record["runs"][0]["resumed_from"]),
                          "a cold spec was not revived from the run cache")
                samples.revive_ms.append(ms(latency))
            samples.add_stats(server.client)
        finally:
            server.stop()
    wall = time.monotonic() - started
    entries = list(RunCache(cache_dir).entries())
    return {
        "samples": samples,
        "wall_s": wall,
        "hot": hot,
        "fetched": fetched,
        "profiles": profiles,
        "runcache": {"bytes": sum(entry.size_bytes for entry in entries),
                     "objects": len(entries)},
        "simulated": (len(hot) + len(samples.cold_specs))
        * (ctx.sizes.service_instructions + ctx.sizes.service_warmup),
    }


def _check_fetched(ctx: Context, scenario: Dict) -> str:
    """Two fetched results against in-process execute_spec; returns the
    digest of all eight hot results."""
    from repro.core.executor import execute_spec

    digests = [result_digest(run.result) for run in scenario["fetched"]]
    for index in (0, len(digests) - 1):
        spec = scenario["hot"][index]
        ctx.check(result_digest(execute_spec(spec).result) == digests[index],
                  "service result for {} differs from in-process execute_spec".format(spec.name))
    return combined_digest(digests)


def _service_fracs(samples: _Samples) -> Dict:
    job = sum(samples.job_ms)
    return {"queue_wait_frac": _frac(sum(samples.queue_wait_ms), job),
            "overhead_frac": _frac(sum(samples.overhead_ms), job)}


def service_replay(ctx: Context, trace: bool) -> Dict:
    # A fixed amount of work per --seconds rather than rounds until a
    # deadline: every cold run stays in the server's index, so a time
    # limit would make peak RSS grow whenever the code got faster.  The
    # traced pass replays the same traffic.
    rounds = max(COLD_EVERY, round(ctx.seconds * ROUNDS_PER_SECOND))
    if trace:
        client_profiles = layers.ThreadProfiles(timer=time.thread_time)
        client_profiles.start()
        traced = service_scenario(ctx, rounds, profile_prefix="service")
        client_profile = ctx.profile_path("service-clients")
        client_profiles.dump(client_profile)
        plain = service_scenario(ctx, rounds)
        digest = _check_fetched(ctx, plain)
        samples = plain["samples"]
        model = model_counters(run.result for run in plain["fetched"])
        return {"digest": digest, "layers": ledger(
            traced["profiles"] + [client_profile], traced["simulated"],
            traced["wall_s"] / plain["wall_s"] - 1.0, model=model,
            executor={"busy_s": sum(samples.busy_s), "wall_s": plain["wall_s"], "workers": 1},
            scheduler=traced["samples"].stats, service=_service_fracs(samples),
            runcache=traced["runcache"])}

    scenario = service_scenario(ctx, rounds)
    digest = _check_fetched(ctx, scenario)
    samples = scenario["samples"]
    return {
        "digest": digest,
        "samples": {"setup_s": samples.setup_s, "op_ms": samples.round_ms,
                    "sim_ips": samples.cold_ips},
        "details": {
            "job_ms": samples.job_ms,
            "fetch_ms": samples.fetch_ms,
            "cold_job_ms": samples.cold_ms,
            "revive_ms": samples.revive_ms,
            "queue_wait_ms": samples.queue_wait_ms,
            "overhead_ms": samples.overhead_ms,
        },
    }


WORKLOADS = {
    "tables-cold": tables_cold,
    "steady-sim": steady_sim,
    "ablation-sweep": ablation_sweep,
    "service-replay": service_replay,
}


def child_env(tmp: str) -> Dict[str, str]:
    """The environment of every benchmark process: the default one, with
    ``src`` importable and the run cache and temp files inside ``tmp``.
    No other ``REPRO_*`` variable reaches the program."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "repro-cache")
    env["TMPDIR"] = tmp
    return env


def peak_rss_mb() -> float:
    """The largest RSS among the processes under test: every unit and
    server this process started and reaped, with the pool workers each
    of them reaped.  This process is left out: its output checks and
    load-generating clients are the harness's work."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def run(name: str, ctx: Context, trace: bool) -> Dict:
    """Run one workload in this process; the record ``run.py`` reads."""
    try:
        record = WORKLOADS[name](ctx, trace)
    except (UnitError, subprocess.TimeoutExpired, OSError) as error:
        ctx.check(False, "{}: {!r}".format(name, error))
        record = {}
    if "samples" in record:
        record["samples"]["peak_rss_mb"] = [peak_rss_mb()]
    record.update(attempted=ctx.attempted, failed=ctx.failed, errors=ctx.errors)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one end-to-end benchmark workload")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args(argv)
    ctx = Context(seed=args.seed, seconds=args.seconds, tmp=args.tmp)
    print(json.dumps(run(args.workload, ctx, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
