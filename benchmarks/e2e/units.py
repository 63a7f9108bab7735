"""Fresh-interpreter units of the end-to-end benchmark.

Each invocation is one thing a user starts from a shell:

``tables``
    What ``repro composite`` does at its defaults: the five-workload
    composite, then the CLI's table printer (the tables go to stdout).
``tables-runs``
    The same five specs through ``run_specs`` so that their
    ``EngineRun`` metrics (phase timings, compile counters) are visible;
    the composite hides them.  Used by the traced pass only.
``steady``
    Two long simulations: ``educational`` and ``commercial`` built,
    warmed, then measured in fixed windows.
``sweep``
    What ``repro sweep`` does: eight machine configurations of
    ``scientific`` through the engine facade's ``run_specs``.

The last stdout line is a JSON record.  Its timestamps are
``time.monotonic()`` readings, which the parent compares with its own
spawn time (the clock is system-wide on Linux).  ``--profile PATH``
runs the unit under cProfile and writes the profile to ``PATH``.

Run by ``workloads.py``; by hand: ``PYTHONPATH=src python
benchmarks/e2e/units.py tables --seed 0``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

#: The eight ablation points: the baseline and seven shrunken memory
#: hierarchies (cache 1 KB and 256 B, TB half 2 entries, and both
#: shrunk together, once with a 12-cycle write-buffer drain).  Each
#: shrunken point multiplies the baseline's read misses per instruction
#: by 2-4 or its TB misses by 6-12, so the memory layer's miss, SBI and
#: TB-fill paths carry the sweep; milder points (cache 2-16 KB, TB half
#: 8-16) leave the memory layer's share of host time where
#: ``steady-sim`` has it.
SWEEP_CONFIGS = (
    {},
    {"cache_size_bytes": 1024},
    {"cache_size_bytes": 256},
    {"tb_half_entries": 2},
    {"cache_size_bytes": 1024, "tb_half_entries": 8},
    {"cache_size_bytes": 512, "tb_half_entries": 4},
    {"cache_size_bytes": 256, "tb_half_entries": 2},
    {"cache_size_bytes": 512, "tb_half_entries": 4, "wb_drain_cycles": 12},
)

SWEEP_WORKLOAD = "scientific"
STEADY_WORKLOADS = ("educational", "commercial")


def result_digest(result) -> str:
    """sha256 of ``result_to_json``, keys sorted: decoded payloads
    (service fetches) rebuild counters in another key order."""
    from repro.core.histogram_io import result_to_json

    canonical = json.dumps(json.loads(result_to_json(result)), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def combined_digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def model_counters(results) -> dict:
    """Modelled hardware counters summed over ``results``."""
    totals = {"instructions": 0, "cache_read_misses": 0, "tb_misses": 0,
              "wb_stall_cycles": 0, "ib_stall_cycles": 0}
    for result in results:
        totals["instructions"] += result.instructions
        totals["cache_read_misses"] += result.stats.cache_read_misses
        totals["tb_misses"] += result.stats.tb_misses
        totals["wb_stall_cycles"] += result.stats.write_buffer_stall_cycles
        totals["ib_stall_cycles"] += result.reduction.column_totals()["ibstall"]
    return totals


COMPILE_FIELDS = ("jit_hits", "jit_misses", "records_compiled", "superblock_runs",
                  "superblock_instructions", "superblock_deopts")


def compile_counters(stats_dicts) -> dict:
    """Compile-tier counters summed over per-machine stats dicts."""
    totals = {name: 0 for name in COMPILE_FIELDS}
    for stats in stats_dicts:
        for name in COMPILE_FIELDS:
            totals[name] += (stats or {}).get(name, 0)
    return totals


def run_compile_counters(runs) -> dict:
    from repro.core.compile import stats_from_snapshot

    return compile_counters(stats_from_snapshot(run.metrics or {}) for run in runs)


def executor_numbers(runs, wall: float, workers: int) -> dict:
    """Busy time and phase split from each ``EngineRun``'s metrics."""
    phases = {"build": 0.0, "warmup": 0.0, "measure": 0.0}
    for run in runs:
        histograms = (run.metrics or {}).get("histograms", {})
        for phase in phases:
            phases[phase] += histograms.get("phase.{}.seconds".format(phase), {}).get("sum", 0.0)
    return {"busy_s": sum(run.wall_seconds for run in runs), "wall_s": wall,
            "workers": workers, **phases}


def unit_tables(args) -> dict:
    import repro.cli
    from repro.core.experiment import run_composite_experiment
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    imported = time.monotonic()
    busy = []

    def progress(event):
        if event.kind == "done":
            busy.append(event.wall_seconds)

    result = run_composite_experiment(
        args.instructions, args.warmup, seed_offset=args.seed, progress=progress
    )
    repro.cli._print_all_tables(result)
    sys.stdout.flush()
    printed = time.monotonic()
    return {
        "imported": imported,
        "printed": printed,
        "busy_s": sum(busy),
        "simulated": len(COMPOSITE_WORKLOAD_NAMES) * (args.instructions + args.warmup),
        "digest": result_digest(result),
        "model": model_counters([result]),
    }


def unit_tables_runs(args) -> dict:
    from repro.core.engine import RunSpec, run_specs
    from repro.core.experiment import composite
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    specs = [
        RunSpec(workload=name, instructions=args.instructions,
                warmup_instructions=args.warmup, seed_offset=args.seed)
        for name in COMPOSITE_WORKLOAD_NAMES
    ]
    started = time.monotonic()
    runs = run_specs(specs)
    wall = time.monotonic() - started
    return {
        "digest": result_digest(composite([run.result for run in runs])),
        "executor": executor_numbers(runs, wall, workers=1),
        "compile": run_compile_counters(runs),
    }


def unit_steady(args) -> dict:
    from repro.core.experiment import MachineStats, prepare_workload, result_from_machine

    imported = time.monotonic()
    phases = {"build": 0.0, "warmup": 0.0, "measure": 0.0}
    machines = []
    for name in STEADY_WORKLOADS:
        started = time.monotonic()
        kernel, monitor = prepare_workload(name, seed_offset=args.seed)
        phases["build"] += time.monotonic() - started
        machines.append((name, kernel, monitor))
    for _, kernel, _ in machines:
        started = time.monotonic()
        kernel.run(max_instructions=args.warmup)
        phases["warmup"] += time.monotonic() - started
    warmed = time.monotonic()
    windows = []
    results = []
    states = []
    for name, kernel, monitor in machines:
        baseline = MachineStats.from_machine(kernel.machine)
        kernel.start_measurement()
        for _ in range(args.windows):
            started = time.monotonic()
            executed = kernel.run(max_instructions=args.instructions // args.windows)
            windows.append((executed, time.monotonic() - started))
        kernel.stop_measurement()
        results.append(result_from_machine(kernel.machine, monitor, name=name, stats_baseline=baseline))
        ebox = kernel.machine.ebox
        states.append({"cycle_count": ebox.cycle_count, "registers": ebox.regs.snapshot()})
    done = time.monotonic()
    phases["measure"] = sum(seconds for _, seconds in windows)
    digests = [result_digest(result) for result in results]
    return {
        "imported": imported,
        "warmed": warmed,
        "done": done,
        "windows": windows,
        "simulated": len(machines) * args.warmup + sum(executed for executed, _ in windows),
        "states": states,
        "digest": combined_digest(digests + [json.dumps(states, sort_keys=True)]),
        "model": model_counters(results),
        "compile": compile_counters(kernel.machine.ebox.compile_stats.to_dict()
                                    for _, kernel, _ in machines),
        "executor": {"busy_s": sum(phases.values()), "wall_s": done - imported,
                     "workers": 1, **phases},
    }


def unit_sweep(args) -> dict:
    from repro.core.engine import MachineConfig, RunSpec, run_specs

    imported = time.monotonic()
    specs = [
        RunSpec(workload=SWEEP_WORKLOAD, instructions=args.instructions,
                warmup_instructions=args.warmup, seed_offset=args.seed,
                config=MachineConfig(**fields) if fields else None)
        for fields in SWEEP_CONFIGS
    ]
    first_start = []

    def progress(event):
        if event.kind == "start" and not first_start:
            first_start.append(time.monotonic())

    called = time.monotonic()
    runs = run_specs(specs, jobs=args.jobs, progress=progress)
    done = time.monotonic()
    return {
        "imported": imported,
        "pool_ready": first_start[0],
        "called": called,
        "done": done,
        "simulated": len(specs) * (args.instructions + args.warmup),
        "digests": [result_digest(run.result) for run in runs],
        "model": model_counters([run.result for run in runs]),
        "compile": run_compile_counters(runs),
        "executor": executor_numbers(runs, done - called, workers=args.jobs),
    }


UNITS = {
    "tables": unit_tables,
    "tables-runs": unit_tables_runs,
    "steady": unit_steady,
    "sweep": unit_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("unit", choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--instructions", type=int, default=10_000)
    parser.add_argument("--warmup", type=int, default=2_000)
    parser.add_argument("--windows", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--profile", default=None)
    args = parser.parse_args(argv)
    profiles = None
    if args.profile:
        from layers import ThreadProfiles

        profiles = ThreadProfiles()
        profiles.start()
    record = UNITS[args.unit](args)
    if profiles is not None:
        profiles.dump(args.profile)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
