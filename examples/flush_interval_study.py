#!/usr/bin/env python3
"""The study the paper's Table 7 was meant to inform.

"The context-switch figure is useful in setting the 'flush' interval in
cache and translation buffer simulations" (Section 3.4, pointing at the
companion Clark & Emer TB paper).  This example performs that study:

1. capture a virtual reference trace from a live workload run (with real
   context-switch points);
2. replay it through the trace-driven TB simulator across a sweep of
   synthetic flush intervals and TB sizes;
3. show where the measured context-switch headway sits on the curve.

The replay sweeps are independent trace simulations, so they go through
the experiment engine's :func:`parallel_map` — ``jobs > 1`` replays the
sweep points on a process pool with identical results in identical
order.

Run:  python examples/flush_interval_study.py [instructions] [jobs]
"""

import sys

from repro.core.executor import parallel_map
from repro.core.monitor import UPCMonitor
from repro.cpu import VAX780
from repro.memory.tracesim import (
    TraceRecorder,
    flush_interval_sweep,
    simulate_cache,
    simulate_tb,
)
from repro.vms import VMSKernel
from repro.workloads import RemoteTerminalEmulator, generate_program, profile_by_name


def capture_trace(budget):
    profile = profile_by_name("timesharing_light")
    machine = VAX780(monitor=UPCMonitor.build())
    kernel = VMSKernel(machine, terminal_period_cycles=11_000, quantum_ticks=3)
    for variant in range(3):
        program = generate_program(profile, variant=variant)
        process = kernel.create_process("p{}".format(variant), program.code, program.code_origin)
        kernel.load_into_process(process, program.data_origin, program.data)
    RemoteTerminalEmulator(kernel, users=profile.users, script_name="timesharing")
    kernel.boot()
    kernel.run(max_instructions=2_000)  # warm up
    recorder = TraceRecorder(kernel)
    recorder.start()
    kernel.run(max_instructions=budget)
    return recorder.stop(), machine.events


def _tb_size_point(args):
    """Pool worker: one TB-size replay -> (half_entries, miss_rate)."""
    trace, half = args
    return half, simulate_tb(trace, half_entries=half).miss_rate


def _cache_size_point(args):
    """Pool worker: one cache-size replay -> (size_kb, result)."""
    trace, size_kb = args
    return size_kb, simulate_cache(trace, size_bytes=size_kb * 1024)


def main():
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000
    jobs = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    trace, events = capture_trace(budget)

    refs_per_instr = len(trace) / max(1, events.instructions)
    measured_headway_refs = trace.mean_switch_interval
    print(
        "Captured {} references over {} instructions "
        "({:.2f} refs/instr, real flush interval {:.0f} refs)".format(
            len(trace), events.instructions, refs_per_instr, measured_headway_refs
        )
    )

    print("\nTB miss rate vs. synthetic flush interval (64+64-entry TB)")
    intervals = [500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000]
    sweep = flush_interval_sweep(trace, intervals)
    natural = simulate_tb(trace).miss_rate
    for interval, rate in sweep:
        bar = "#" * int(rate * 2000)
        print("  every {:>6} refs: {:.4f}  {}".format(interval, rate, bar))
    print("  real switch points: {:.4f}  (headway {:.0f} refs)".format(
        natural, measured_headway_refs))

    print("\nTB miss rate vs. TB size (flushing at real switch points)")
    tb_points = parallel_map(
        _tb_size_point, [(trace, half) for half in (16, 32, 64, 128, 256)], jobs=jobs
    )
    for half, rate in tb_points:
        print("  {:>3}+{:<3} entries: {:.4f}".format(half, half, rate))

    print("\nCache read-miss rate vs. size (trace replay, 2-way, 8-byte blocks)")
    cache_points = parallel_map(
        _cache_size_point, [(trace, kb) for kb in (2, 4, 8, 16, 32)], jobs=jobs
    )
    for size_kb, result in cache_points:
        print(
            "  {:>2} KB: {:.4f}  (I {:.4f} / D {:.4f} per reference)".format(
                size_kb,
                result.read_miss_rate,
                result.i_read_misses / result.references,
                result.d_read_misses / result.references,
            )
        )

    print(
        "\nReading: the knee of the flush-interval curve is why Table 7's "
        "6418-instruction switch headway mattered to TB sizing studies."
    )


if __name__ == "__main__":
    main()
