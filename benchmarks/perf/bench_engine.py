#!/usr/bin/env python3
"""Engine throughput benchmark: the composite, sequential vs parallel.

Times a fixed five-workload composite (the paper's headline experiment)
three ways and writes ``BENCH_engine.json`` at the repository root:

* **cold** — one sequential composite in a fresh interpreter, paying
  one-time costs (workload program assembly, layout build) exactly as a
  user's first run does;
* **warm** — the same composite re-run in-process, the steady-state
  single-thread throughput an ablation sweep sees;
* **parallel** — the composite fanned out over a process pool
  (``--jobs``, default ``os.cpu_count()``), verified bit-identical to
  the sequential run before its timing is reported.

The fixed configuration (4000 measured instructions per workload, 1000
warmup) matches the measurement this repository's seed commit clocked
at 6766 instructions/second single-thread, recorded below as the
baseline the ≥1.25× target is judged against.

The full run also gates the telemetry layer with two arms measured in
the *same* bench run (the old gate compared against a stale constant
recorded on a different build and went negative): a bare composite
(no metrics registry, no tracer) versus the engine's usual
instrumented composite.  The instrumented, tracing-off arm must stay
within 2% of the bare arm.  A tracer-attached arm is also timed and
reported — informationally, since an attached tracer forces the
interpreted path by design and its cost is therefore expected to be
large, not budgeted.

The full run also times the replay compiler (``repro.core.compile``):
the warm composite re-runs with ``REPRO_NO_COMPILE=1`` in the same
process, is verified bit-identical, and the report's ``compiled``
block records both arms' throughput, the speedup, and the JIT's
``sim.compile.*`` counters.

The full run also times intra-workload sharding: one workload split
into ``SHARD_COUNT`` resumable shards through the snapshot/run-cache
machinery, cold (populating a fresh cache) and warm (replaying every
finished shard from it), both verified bit-identical to the unsharded
run.  The warm figure is the cache's value proposition: re-running a
measured experiment costs deserialization, not simulation.

Run:  PYTHONPATH=src python benchmarks/perf/bench_engine.py [--jobs N]
      [--smoke]   (tiny run: sequential/parallel, traced/untraced,
                   sharded/unsharded and compiled/interpreted
                   bit-identity, trace-export validity, and the
                   steady-state compiled-throughput ratchet — the CI
                   gate)
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The benchmark's fixed measurement configuration.
INSTRUCTIONS_PER_WORKLOAD = 4_000
WARMUP_INSTRUCTIONS = 1_000

#: Single-thread instructions/second of the seed commit on this fixed
#: configuration (cold, fresh interpreter), measured on the reference
#: container.  The optimization target is >= 1.25x this figure.
SEED_BASELINE_INSTRUCTIONS_PER_SECOND = 6_766

#: Tracing-off budget: the instrumented composite (metrics registry
#: attached, no tracer — what the engine always runs) must stay within
#: this percentage of a bare composite timed in the same bench run.
TRACING_OFF_BUDGET_PERCENT = 2.0

#: Perf-smoke ratchet (CI): the steady-state compiled-path throughput
#: floor.  Deliberately conservative against slow CI containers — the
#: point is to catch the compiled path silently degrading to
#: interpreted speed, not to pin this container's figure.
SMOKE_MIN_WARM_IPS = 12_000
#: Perf-smoke ratchet (CI): steady-state compiled throughput must beat
#: the interpreted path by at least this factor, measured as
#: interleaved rounds on two long-warmed kernels (every hot record is
#: replayed by the op-loop by the end of warmup; see
#: ``_steady_state_ab``).  The gate sits below the committed
#: steady-state ratio so a regression of the replay toward interpreted
#: speed (1.0x) fails loudly.
SMOKE_MIN_COMPILED_SPEEDUP = 1.50

#: Steady-state A/B configuration: instructions of warmup per arm (long
#: enough that record compilation has died down and the measured rounds
#: replay compiled records), measured instructions per round, and
#: interleaved rounds per arm.
STEADY_WARMUP_INSTRUCTIONS = 100_000
STEADY_ROUND_INSTRUCTIONS = 20_000
STEADY_ROUNDS = 3

#: Shards for the single-workload sharding benchmark.
SHARD_COUNT = 4
SHARD_WORKLOAD = "educational"


def _measure_composite(instructions, warmup, jobs):
    from repro.core.executor import RunSpec
    from repro.core.scheduler import run_specs
    from repro.core.experiment import composite
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    specs = [
        RunSpec(
            workload=name, instructions=instructions, warmup_instructions=warmup
        )
        for name in COMPOSITE_WORKLOAD_NAMES
    ]
    started = time.perf_counter()
    runs = run_specs(specs, jobs=jobs)
    result = composite([run.result for run in runs])
    wall = time.perf_counter() - started
    return result, wall, runs


def _equal(result_a, result_b) -> bool:
    from repro.core.histogram_io import result_to_json

    return result_to_json(result_a) == result_to_json(result_b)


def _measure_sharded(instructions, warmup, shards, cache):
    from repro.core.executor import RunSpec, execute_spec

    spec = RunSpec(
        workload=SHARD_WORKLOAD,
        instructions=instructions,
        warmup_instructions=warmup,
    )
    started = time.perf_counter()
    run = execute_spec(spec, shards=shards, cache=cache)
    wall = time.perf_counter() - started
    return run, wall


def _measure_plain_composite(instructions, warmup):
    """The bare arm: five sequential ``run_workload`` calls with no
    metrics registry, no manifests, no tracer — the simulator without
    the telemetry layer's per-run plumbing.  Same phases as the
    instrumented arm (build + boot + warmup + measure per workload)."""
    from repro.core.experiment import composite, run_workload
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    started = time.perf_counter()
    results = [
        run_workload(name, instructions=instructions, warmup_instructions=warmup)
        for name in COMPOSITE_WORKLOAD_NAMES
    ]
    wall = time.perf_counter() - started
    return composite(results), wall


def _measure_phase_ips(runs, instructions):
    """Instructions/second over the measured phases alone, summed from
    the workers' self-profiling — the steady-state simulation speed,
    with per-workload build/boot/warmup wall time excluded."""
    total = 0.0
    for run in runs:
        if run.metrics:
            phase = run.metrics.get("histograms", {}).get("phase.measure.seconds")
            if phase:
                total += phase["sum"]
    return instructions / total if total else None


class _no_compile:
    """Context manager: force ``REPRO_NO_COMPILE=1`` for machines built
    inside the block (the env var is read at machine construction)."""

    def __enter__(self):
        self._saved = os.environ.get("REPRO_NO_COMPILE")
        os.environ["REPRO_NO_COMPILE"] = "1"

    def __exit__(self, *exc):
        if self._saved is None:
            del os.environ["REPRO_NO_COMPILE"]
        else:
            os.environ["REPRO_NO_COMPILE"] = self._saved


def _steady_state_ab(warmup, instructions, rounds):
    """Interleaved compiled-vs-interpreted A/B at simulation steady state.

    Builds one kernel per arm, warms each until record compilation has
    died down, then times ``rounds``
    alternating measurement rounds *continuing on the same kernels* —
    compiled, interpreted, compiled, ... — so both arms see the same
    machine-load drift.  Best round per arm is reported: scheduler
    noise only ever slows a run down.  Returns ``(compiled_ips,
    interpreted_ips, stats, identical)`` where ``identical`` asserts
    both kernels retired the same instructions to bit-identical
    architectural state (cycle count and register file).
    """
    import pickle

    from repro.core.compile import clear_record_caches
    from repro.core.experiment import prepare_workload

    def build(no_compile):
        clear_record_caches()
        if no_compile:
            with _no_compile():
                kernel, _ = prepare_workload(SHARD_WORKLOAD)
        else:
            kernel, _ = prepare_workload(SHARD_WORKLOAD)
        kernel.run(max_instructions=warmup)
        return kernel

    compiled_kernel = build(False)
    interpreted_kernel = build(True)
    best = {"c": 0.0, "i": 0.0}
    for _ in range(rounds):
        for label, kernel in (("c", compiled_kernel), ("i", interpreted_kernel)):
            started = time.perf_counter()
            n = kernel.run(max_instructions=instructions)
            wall = time.perf_counter() - started
            best[label] = max(best[label], n / wall)
    ce = compiled_kernel.machine.ebox
    ie = interpreted_kernel.machine.ebox
    identical = ce.cycle_count == ie.cycle_count and pickle.dumps(
        ce.regs
    ) == pickle.dumps(ie.regs)
    return best["c"], best["i"], ce.compile_stats, identical


def _timed_workload(instructions, warmup, tracer=None):
    """One warm educational run; returns (result, measured-phase ips).

    Only the measured phase is timed — build/boot/warmup wall time is
    excluded — so two arms compared through this helper differ only in
    how they execute instructions, not in construction noise."""
    from repro.core.experiment import prepare_workload, result_from_machine
    from repro.core.experiment import MachineStats

    kernel, monitor = prepare_workload("educational", tracer=tracer)
    kernel.run(max_instructions=warmup)
    baseline = MachineStats.from_machine(kernel.machine)
    kernel.start_measurement()
    started = time.perf_counter()
    kernel.run(max_instructions=instructions)
    wall = time.perf_counter() - started
    kernel.stop_measurement()
    result = result_from_machine(
        kernel.machine, monitor, name="educational", stats_baseline=baseline
    )
    return result, result.instructions / wall


def smoke(jobs: int) -> int:
    """CI gate: tiny composite, sequential vs parallel must be
    identical; a traced run must be bit-identical to an untraced one
    (the tracer is passive) with a valid Chrome export; a K=3 sharded
    run must be bit-identical to the unsharded reference; and the
    steady-state compiled path must clear the throughput floor and the
    compiled-vs-interpreted speedup ratchet."""
    from repro.core.executor import RunSpec, execute_spec
    from repro.core.experiment import run_workload
    from repro.obs.trace import Tracer, validate_chrome

    sequential, seq_wall, _ = _measure_composite(600, 150, jobs=1)
    parallel, par_wall, _ = _measure_composite(600, 150, jobs=jobs)
    if not _equal(sequential, parallel):
        print("FAIL: parallel composite differs from sequential", file=sys.stderr)
        return 1

    tracer = Tracer()
    traced, traced_board = run_workload(
        "educational",
        instructions=600,
        warmup_instructions=150,
        tracer=tracer,
        return_board=True,
    )
    plain, plain_board = run_workload(
        "educational", instructions=600, warmup_instructions=150, return_board=True
    )
    if traced_board.dump_sparse() != plain_board.dump_sparse() or not _equal(
        traced, plain
    ):
        print("FAIL: tracing perturbed the measurement", file=sys.stderr)
        return 1
    problems = validate_chrome(tracer.to_chrome())
    if problems:
        print(
            "FAIL: trace export invalid: {}".format("; ".join(problems[:5])),
            file=sys.stderr,
        )
        return 1

    shard_spec = RunSpec(
        workload=SHARD_WORKLOAD, instructions=600, warmup_instructions=150
    )
    unsharded = execute_spec(shard_spec)
    sharded = execute_spec(shard_spec, shards=3)
    if sharded.histogram != unsharded.histogram or not _equal(
        sharded.result, unsharded.result
    ):
        print("FAIL: sharded run differs from unsharded", file=sys.stderr)
        return 1

    # Replay-compiler bit-identity: a compiled measured run must produce
    # the same result object as an interpreted one.
    compiled_result, _ = _timed_workload(2_500, 500)
    with _no_compile():
        interpreted_result, _ = _timed_workload(2_500, 500)
    if not _equal(compiled_result, interpreted_result):
        print("FAIL: compiled run differs from interpreted", file=sys.stderr)
        return 1

    # Replay-compiler ratchet: steady-state compiled throughput must
    # clear the absolute floor and beat the interpreted path, measured
    # as interleaved rounds on two long-warmed kernels.
    compiled_ips, interpreted_ips, steady_stats, identical = _steady_state_ab(
        STEADY_WARMUP_INSTRUCTIONS, STEADY_ROUND_INSTRUCTIONS, STEADY_ROUNDS
    )
    if not identical:
        print(
            "FAIL: steady-state compiled kernel diverged from interpreted",
            file=sys.stderr,
        )
        return 1
    if steady_stats.records_compiled == 0:
        print("FAIL: replay compiler never compiled a record", file=sys.stderr)
        return 1
    if compiled_ips < SMOKE_MIN_WARM_IPS:
        print(
            "FAIL: steady-state compiled throughput {:.0f} ips below the {} "
            "floor".format(compiled_ips, SMOKE_MIN_WARM_IPS),
            file=sys.stderr,
        )
        return 1
    if compiled_ips < SMOKE_MIN_COMPILED_SPEEDUP * interpreted_ips:
        print(
            "FAIL: compiled path {:.0f} ips is not {:.2f}x the interpreted "
            "{:.0f} ips".format(
                compiled_ips, SMOKE_MIN_COMPILED_SPEEDUP, interpreted_ips
            ),
            file=sys.stderr,
        )
        return 1

    print(
        "smoke OK: jobs={} bit-identical to sequential "
        "(seq {:.2f}s, par {:.2f}s, {} instructions); "
        "tracing passive ({} events, valid Chrome export); "
        "3-shard merge bit-identical; "
        "steady-state compiled {:.0f} ips vs interpreted {:.0f} ips "
        "({:.2f}x, {} records compiled), bit-identical".format(
            jobs,
            seq_wall,
            par_wall,
            sequential.instructions,
            len(tracer),
            compiled_ips,
            interpreted_ips,
            compiled_ips / interpreted_ips,
            steady_stats.records_compiled,
        )
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    parser.add_argument(
        "--smoke", action="store_true", help="fast equality-only check (CI)"
    )
    parser.add_argument(
        "--output", default=os.path.join(REPO_ROOT, "BENCH_engine.json")
    )
    args = parser.parse_args()

    if args.smoke:
        return smoke(max(2, args.jobs))

    from repro.obs.metrics import registry_from_result

    # The cold figure represents a user's first run under default
    # settings.
    cold_result, cold_wall, _ = _measure_composite(
        INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
    )
    # Parallel also runs under default settings; each pool worker is a
    # fresh process that compiles its own records.
    parallel_result, parallel_wall, _ = _measure_composite(
        INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=args.jobs
    )
    if not _equal(cold_result, parallel_result):
        print("FAIL: parallel composite differs from sequential", file=sys.stderr)
        return 1
    # Warm (compiled) and interpreted arms run as adjacent interleaved
    # trials so both see the same machine load — container throughput
    # drifts by tens of percent over minutes, so arms measured far
    # apart produce garbage ratios.  Best wall of three per arm:
    # scheduler noise only ever slows a run down.  The first warm trial
    # pays the full record-compilation cost; the best-of-three is the
    # converged figure.
    warm_result = warm_wall = warm_runs = None
    interpreted_result = interpreted_wall = interpreted_runs = None
    for _ in range(3):
        trial = _measure_composite(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
        )
        if warm_wall is None or trial[1] < warm_wall:
            warm_result, warm_wall, warm_runs = trial
        with _no_compile():
            trial = _measure_composite(
                INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
            )
        if interpreted_wall is None or trial[1] < interpreted_wall:
            interpreted_result, interpreted_wall, interpreted_runs = trial
    if not _equal(interpreted_result, warm_result):
        print("FAIL: interpreted composite differs from compiled", file=sys.stderr)
        return 1

    # Intra-workload sharding: one workload, SHARD_COUNT shards, cold
    # (fresh cache populated) then warm (every shard replayed from it).
    from repro.core.executor import RunSpec, execute_spec
    from repro.core.runcache import RunCache

    cache_root = tempfile.mkdtemp(prefix="bench-repro-cache-")
    try:
        cache = RunCache(cache_root)
        unsharded_run = execute_spec(
            RunSpec(
                workload=SHARD_WORKLOAD,
                instructions=INSTRUCTIONS_PER_WORKLOAD,
                warmup_instructions=WARMUP_INSTRUCTIONS,
            )
        )
        sharded_cold, sharded_cold_wall = _measure_sharded(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, SHARD_COUNT, cache
        )
        sharded_warm, sharded_warm_wall = _measure_sharded(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, SHARD_COUNT, cache
        )
        sharded_identical = (
            sharded_cold.histogram == unsharded_run.histogram
            and sharded_warm.histogram == unsharded_run.histogram
            and _equal(sharded_cold.result, unsharded_run.result)
            and _equal(sharded_warm.result, unsharded_run.result)
        )
        cache_bytes = cache.total_bytes()
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    if not sharded_identical:
        print("FAIL: sharded run differs from unsharded", file=sys.stderr)
        return 1
    if sharded_warm.shards_from_cache != SHARD_COUNT:
        print(
            "FAIL: warm sharded re-run replayed {}/{} shards from cache".format(
                sharded_warm.shards_from_cache, SHARD_COUNT
            ),
            file=sys.stderr,
        )
        return 1

    instructions = cold_result.instructions
    warm_ips = instructions / warm_wall

    # Telemetry arms, measured in this same run and interleaved so both
    # see the same machine load: a bare composite (no metrics, no
    # manifests, no tracer) against the engine's instrumented composite.
    # Best of two trials per arm.
    plain_result, plain_wall = None, None
    instrumented_wall = None
    for _ in range(2):
        candidate = _measure_plain_composite(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS
        )
        if plain_wall is None or candidate[1] < plain_wall:
            plain_result, plain_wall = candidate
        candidate_wall = _measure_composite(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, jobs=1
        )[1]
        if instrumented_wall is None or candidate_wall < instrumented_wall:
            instrumented_wall = candidate_wall
    if not _equal(plain_result, cold_result):
        print("FAIL: bare composite differs from instrumented", file=sys.stderr)
        return 1
    plain_ips = instructions / plain_wall
    instrumented_ips = instructions / instrumented_wall
    tracing_off_overhead_percent = (plain_ips - instrumented_ips) / plain_ips * 100.0

    # Tracer-attached arm (informational): the tracer forces the
    # interpreted path by design, so this measures tracing's full cost,
    # not a budgeted overhead.  Measured-phase time only, interleaved,
    # best of two per arm.
    from repro.obs.trace import Tracer

    traced_ips, untraced_ips = None, None
    for _ in range(2):
        candidate = _timed_workload(
            INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS, tracer=Tracer()
        )[1]
        if traced_ips is None or candidate > traced_ips:
            traced_ips = candidate
        candidate = _timed_workload(INSTRUCTIONS_PER_WORKLOAD, WARMUP_INSTRUCTIONS)[1]
        if untraced_ips is None or candidate > untraced_ips:
            untraced_ips = candidate
    tracing_on_overhead_percent = (untraced_ips - traced_ips) / untraced_ips * 100.0

    interpreted_ips = instructions / interpreted_wall
    warm_phase_ips = _measure_phase_ips(warm_runs, instructions)
    interpreted_phase_ips = _measure_phase_ips(interpreted_runs, instructions)

    # Steady-state A/B: the compiled-path figure on long-warmed kernels
    # with interleaved rounds (the short composite arms above never
    # leave the compilation transient, so their ratio understates the
    # compiled path).
    steady_compiled_ips, steady_interpreted_ips, steady_stats, steady_identical = (
        _steady_state_ab(
            STEADY_WARMUP_INSTRUCTIONS, STEADY_ROUND_INSTRUCTIONS, STEADY_ROUNDS
        )
    )
    if not steady_identical:
        print(
            "FAIL: steady-state compiled kernel diverged from interpreted",
            file=sys.stderr,
        )
        return 1

    # The typed metrics surface: the composite's simulated counters plus
    # the per-run wall-clock self-profiling folded in from the workers.
    registry = registry_from_result(warm_result)
    for run in warm_runs:
        if run.metrics:
            registry.merge_snapshot(run.metrics)
    from repro.core.compile import stats_from_snapshot

    compile_stats = stats_from_snapshot(registry.snapshot())
    report = {
        "config": {
            "instructions_per_workload": INSTRUCTIONS_PER_WORKLOAD,
            "warmup_instructions": WARMUP_INSTRUCTIONS,
            "workloads": 5,
            "jobs": args.jobs,
            "cpu_count": os.cpu_count(),
        },
        "measured_instructions": instructions,
        "sequential": {
            "cold_wall_seconds": round(cold_wall, 3),
            "cold_instructions_per_second": round(instructions / cold_wall, 1),
            "warm_wall_seconds": round(warm_wall, 3),
            "warm_instructions_per_second": round(instructions / warm_wall, 1),
        },
        "parallel": {
            "wall_seconds": round(parallel_wall, 3),
            "instructions_per_second": round(instructions / parallel_wall, 1),
            "speedup_vs_cold_sequential": round(cold_wall / parallel_wall, 2),
            "bit_identical_to_sequential": True,
        },
        "seed_baseline": {
            "instructions_per_second": SEED_BASELINE_INSTRUCTIONS_PER_SECOND,
            "cold_speedup": round(
                (instructions / cold_wall) / SEED_BASELINE_INSTRUCTIONS_PER_SECOND, 2
            ),
            "warm_speedup": round(
                (instructions / warm_wall) / SEED_BASELINE_INSTRUCTIONS_PER_SECOND, 2
            ),
        },
        "sharded": {
            "workload": SHARD_WORKLOAD,
            "shards": SHARD_COUNT,
            "instructions": sharded_cold.result.instructions,
            "cold_wall_seconds": round(sharded_cold_wall, 3),
            "warm_wall_seconds": round(sharded_warm_wall, 4),
            "warm_shards_from_cache": sharded_warm.shards_from_cache,
            "warm_speedup_vs_cold": round(sharded_cold_wall / sharded_warm_wall, 1),
            "cache_bytes": cache_bytes,
            "bit_identical_to_unsharded": True,
        },
        "telemetry": {
            "bare_instructions_per_second": round(plain_ips, 1),
            "instrumented_instructions_per_second": round(instrumented_ips, 1),
            "tracing_off_overhead_percent": round(tracing_off_overhead_percent, 2),
            "budget_percent": TRACING_OFF_BUDGET_PERCENT,
            "within_budget": tracing_off_overhead_percent
            <= TRACING_OFF_BUDGET_PERCENT,
            "tracing_on_overhead_percent": round(tracing_on_overhead_percent, 2),
            "tracing_on_note": "an attached tracer forces the interpreted "
            "path by design; its cost is reported, not budgeted",
        },
        "compiled": {
            "warm_instructions_per_second": round(warm_ips, 1),
            "interpreted_instructions_per_second": round(interpreted_ips, 1),
            "speedup": round(warm_ips / interpreted_ips, 2),
            "measured_phase_instructions_per_second": round(
                warm_phase_ips, 1
            )
            if warm_phase_ips
            else None,
            "interpreted_measured_phase_instructions_per_second": round(
                interpreted_phase_ips, 1
            )
            if interpreted_phase_ips
            else None,
            "measured_phase_speedup": round(warm_phase_ips / interpreted_phase_ips, 2)
            if warm_phase_ips and interpreted_phase_ips
            else None,
            "bit_identical_to_interpreted": True,
            "steady_state": {
                "workload": SHARD_WORKLOAD,
                "warmup_instructions": STEADY_WARMUP_INSTRUCTIONS,
                "round_instructions": STEADY_ROUND_INSTRUCTIONS,
                "rounds_per_arm": STEADY_ROUNDS,
                "compiled_instructions_per_second": round(steady_compiled_ips, 1),
                "interpreted_instructions_per_second": round(
                    steady_interpreted_ips, 1
                ),
                "speedup": round(steady_compiled_ips / steady_interpreted_ips, 2),
                "bit_identical_to_interpreted": True,
                "records_compiled": steady_stats.records_compiled,
            },
            "stats": compile_stats,
        },
        "metrics": registry.snapshot(),
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print("\nwrote {}".format(args.output))
    if tracing_off_overhead_percent > TRACING_OFF_BUDGET_PERCENT:
        print(
            "FAIL: tracing-off overhead {:.2f}% exceeds the {:.1f}% budget "
            "(instrumented {:.0f} ips vs bare {:.0f} ips in this run)".format(
                tracing_off_overhead_percent,
                TRACING_OFF_BUDGET_PERCENT,
                warm_ips,
                plain_ips,
            ),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
