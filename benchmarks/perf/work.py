#!/usr/bin/env python3
"""Host work per simulated instruction: CPython bytecodes and calls.

Wall-clock throughput on a shared host swings by more than the changes
it has to judge.  This tool counts work instead, the way nanoBench pins
a measured state and counts events: each workload runs in a fresh
interpreter, warms up for a fixed number of instructions outside the
count, then runs a fixed window under ``sys.settrace`` with opcode
tracing on.  Every Python frame the window enters counts as one call,
and every bytecode it executes counts as one bytecode.  C code (builtins,
``bytearray`` slicing, ``dict`` lookups) is invisible, so the counts are
a proxy for time, not a measure of it.

Three arms pin the replay compiler's record caches, which are
process-global and so the main source of run-to-run drift:

``interpreted``    ``REPRO_NO_COMPILE=1``: the per-microcycle path.
``compiled-cold``  the first machine in the process, emptied of records
                   after its warm-up: a snapshot round trip drops its
                   per-EBox caches and ``clear_record_caches()`` the
                   layout-wide ones, so the window pays for forming
                   every record it replays.
``compiled-warm``  a second machine of the same workload in the same
                   process, built after the first ran warm-up + window:
                   the layout-wide record caches are already full.

Each child runs with ``PYTHONHASHSEED=0``, a private program bank and
the garbage collector off during the window, so two runs on one tree
give identical counts.  The output holds counts only (no timings), so
two runs can be compared byte for byte.

Run (writes JSON to ``--out``, else stdout)::

    python3 benchmarks/perf/work.py [--workload NAME ...] [--arm ARM ...]
        [--warmup N] [--window N] [--out PATH] [--baseline PATH]

``--baseline`` names an earlier output, typically taken by running this
file from a checkout of the parent commit; its counts are embedded and
the relative change of each per-instruction figure is reported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ARMS = ("interpreted", "compiled-cold", "compiled-warm")
WARMUP = 30_000
WINDOW = 10_000


def count_window(kernel, instructions: int):
    """``(instructions run, calls, bytecodes)`` of one counted window."""
    counts = [0, 0]

    def local(frame, event, arg):
        if event == "opcode":
            counts[1] += 1
        return local

    def on_call(frame, event, arg):
        counts[0] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    gc.collect()
    gc.disable()
    sys.settrace(on_call)
    try:
        executed = kernel.run(max_instructions=instructions)
    finally:
        sys.settrace(None)
        gc.enable()
    return executed, counts[0], counts[1]


def child(workload: str, arm: str, warmup: int, window: int) -> dict:
    """One arm of one workload, in this (fresh) interpreter."""
    from repro.core import snapshot
    from repro.core.compile import clear_record_caches
    from repro.core.experiment import prepare_workload

    clear_record_caches()
    kernel, _ = prepare_workload(workload)
    if arm == "compiled-warm":
        kernel.run(max_instructions=warmup + window)
        kernel, _ = prepare_workload(workload)
    kernel.run(max_instructions=warmup)
    if arm == "compiled-cold":
        kernel = snapshot.restore(snapshot.capture(kernel))
        clear_record_caches()
    kernel.start_measurement()
    executed, calls, bytecodes = count_window(kernel, window)
    return {
        "instructions": executed,
        "calls": calls,
        "bytecodes": bytecodes,
        "calls_per_instr": round(calls / executed, 2),
        "bytecodes_per_instr": round(bytecodes / executed, 1),
    }


def run_child(workload: str, arm: str, warmup: int, window: int, bank: str) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = bank
    if arm == "interpreted":
        env["REPRO_NO_COMPILE"] = "1"
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", workload, arm,
         "--warmup", str(warmup), "--window", str(window)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out)


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT, check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def relative_change(counts: dict, baseline: dict) -> dict:
    """Per workload and arm, the change of each per-instruction figure."""
    delta = {}
    for workload, arms in counts.items():
        for arm, cell in arms.items():
            base = baseline.get(workload, {}).get(arm)
            if base is None:
                continue
            delta.setdefault(workload, {})[arm] = {
                key: round(cell[key] / base[key] - 1.0, 4)
                for key in ("bytecodes_per_instr", "calls_per_instr")
            }
    return delta


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=COMPOSITE_WORKLOAD_NAMES)
    parser.add_argument("--arm", action="append", choices=ARMS)
    parser.add_argument("--warmup", type=int, default=WARMUP)
    parser.add_argument("--window", type=int, default=WINDOW)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    parser.add_argument("--child", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(*args.child, args.warmup, args.window)))
        return 0

    workloads = args.workload or list(COMPOSITE_WORKLOAD_NAMES)
    arms = args.arm or list(ARMS)
    counts = {}
    with tempfile.TemporaryDirectory(prefix="work-bank-") as bank:
        for workload in workloads:
            for arm in arms:
                cell = run_child(workload, arm, args.warmup, args.window, bank)
                counts.setdefault(workload, {})[arm] = cell
                print("{:<18} {:<14} {:>8.1f} bytecodes/instr {:>6.2f} calls/instr".format(
                    workload, arm, cell["bytecodes_per_instr"], cell["calls_per_instr"]),
                    file=sys.stderr)
    report = {
        "tool": "benchmarks/perf/work.py",
        "commit": commit(),
        "python": "{}.{}".format(*sys.version_info[:2]),
        "warmup": args.warmup,
        "window": args.window,
        "counts": counts,
    }
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        report["baseline"] = {key: baseline[key] for key in ("commit", "counts")}
        report["change"] = relative_change(counts, baseline["counts"])
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
