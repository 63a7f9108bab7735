"""Experiment plumbing: run a monitored machine, collect every data
source, merge five workloads into the paper's composite.

An :class:`ExperimentResult` bundles the three channels the paper's
analysis drew on:

* the micro-PC histogram (via its :class:`~repro.core.reduction.Reduction`),
* the companion event counters (the stand-in for the cache study and
  "other measurements"),
* machine-side statistics (cache/TB/write-buffer/IB counters).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.monitor import UPCMonitor
from repro.core.reduction import Reduction, reduce_histogram
from repro.cpu.events import EventCounters
from repro.cpu.machine import VAX780


@dataclass
class MachineStats:
    """Hardware-side counters the monitor cannot see."""

    ib_references: int = 0
    ib_bytes_delivered: int = 0
    cache_read_hits: int = 0
    cache_read_misses: int = 0
    cache_i_read_misses: int = 0
    cache_d_read_misses: int = 0
    cache_write_hits: int = 0
    cache_write_misses: int = 0
    tb_hits: int = 0
    tb_misses: int = 0
    tb_i_misses: int = 0
    tb_d_misses: int = 0
    tb_process_flushes: int = 0
    write_buffer_writes: int = 0
    write_buffer_stall_cycles: int = 0
    unaligned_reads: int = 0
    unaligned_writes: int = 0
    sbi_reads: int = 0
    sbi_writes: int = 0
    cycles: int = 0

    @classmethod
    def from_machine(cls, machine: VAX780) -> "MachineStats":
        cache = machine.memory.cache.stats
        tb = machine.memory.tb.stats
        wb = machine.memory.write_buffer.stats
        sbi = machine.memory.sbi.stats
        alignment = machine.memory.alignment
        ib = machine.ebox.ib.stats
        return cls(
            ib_references=ib.references,
            ib_bytes_delivered=ib.bytes_delivered,
            cache_read_hits=cache.read_hits,
            cache_read_misses=cache.read_misses,
            cache_i_read_misses=cache.i_read_misses,
            cache_d_read_misses=cache.d_read_misses,
            cache_write_hits=cache.write_hits,
            cache_write_misses=cache.write_misses,
            tb_hits=tb.hits,
            tb_misses=tb.misses,
            tb_i_misses=tb.i_misses,
            tb_d_misses=tb.d_misses,
            tb_process_flushes=tb.process_flushes,
            write_buffer_writes=wb.writes,
            write_buffer_stall_cycles=wb.stall_cycles,
            unaligned_reads=alignment.unaligned_reads,
            unaligned_writes=alignment.unaligned_writes,
            sbi_reads=sbi.read_transactions,
            sbi_writes=sbi.write_transactions,
            cycles=machine.ebox.cycle_count,
        )

    def merge_from(self, other: "MachineStats") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def minus(self, baseline: "MachineStats") -> "MachineStats":
        """Field-wise difference: stats accumulated since ``baseline``.

        Used to restrict hardware counters to the measurement interval
        (the monitor gates itself; the cache/TB/IB counters cannot)."""
        delta = MachineStats()
        for name in self.__dataclass_fields__:
            setattr(delta, name, getattr(self, name) - getattr(baseline, name))
        return delta


@dataclass
class ExperimentResult:
    """Everything one measurement run (or a composite) produced."""

    name: str
    reduction: Reduction
    events: EventCounters
    stats: MachineStats

    @property
    def instructions(self) -> int:
        return self.reduction.instructions

    @property
    def cpi(self) -> float:
        return self.reduction.cpi


def result_from_machine(
    machine: VAX780,
    monitor: UPCMonitor,
    name: str = "run",
    stats_baseline: Optional[MachineStats] = None,
) -> ExperimentResult:
    """Dump the monitor and collect all channels after a run.

    ``stats_baseline`` (a snapshot taken when measurement started)
    restricts the hardware counters to the measurement interval."""
    counts, stalled = monitor.board.dump()
    reduction = reduce_histogram(counts, stalled, machine.layout, events=machine.events)
    stats = MachineStats.from_machine(machine)
    if stats_baseline is not None:
        stats = stats.minus(stats_baseline)
    return ExperimentResult(
        name=name,
        reduction=reduction,
        events=machine.events,
        stats=stats,
    )


def prepare_workload(
    profile_name: str,
    process_count: Optional[int] = None,
    seed_offset: int = 0,
    configure=None,
    tracer=None,
    compile_events=None,
):
    """Build one workload's machine, through boot, ready to run.

    Everything :func:`run_workload` does before the first instruction
    executes: build a monitored machine, apply the ablation hook, boot
    the mini-VMS kernel, create the profile's process population, attach
    the RTE as the terminal source.  Returns ``(kernel, monitor)``.

    Shared by :func:`run_workload` and the sharded executor in
    :mod:`repro.core.scheduler`, which snapshots the machine at shard
    boundaries instead of running straight through.
    """
    from repro.vms import VMSKernel
    from repro.workloads import (
        RemoteTerminalEmulator,
        generate_program,
        profile_by_name,
    )

    profile = profile_by_name(profile_name)
    monitor = UPCMonitor.build()
    machine = VAX780(monitor=monitor, tracer=tracer)
    if compile_events is not None:
        machine.attach_compile_events(compile_events)
    if configure is not None:
        # Ablation hook: swap cache/TB/write-buffer geometry or set EBOX
        # options before any code runs.
        configure(machine)
    kernel = VMSKernel(machine, terminal_period_cycles=11_000, quantum_ticks=3, seed=profile.seed + seed_offset)

    if process_count is None:
        process_count = max(3, min(6, profile.users // 7))
    for variant in range(process_count):
        program = generate_program(profile, variant=variant)
        process = kernel.create_process(
            "{}.{}".format(profile.name, variant), program.code, program.code_origin
        )
        kernel.load_into_process(process, program.data_origin, program.data)

    script = {
        "educational": "educational",
        "scientific": "scientific",
        "commercial": "commercial",
    }.get(profile.name, "timesharing")
    RemoteTerminalEmulator(kernel, users=profile.users, script_name=script, seed=profile.seed)

    kernel.boot()
    return kernel, monitor


def run_workload(
    profile_name: str,
    instructions: int = 30_000,
    warmup_instructions: int = 3_000,
    process_count: Optional[int] = None,
    seed_offset: int = 0,
    configure=None,
    return_board: bool = False,
    tracer=None,
    metrics=None,
    compile_events=None,
):
    """Run one of the paper's five workloads and collect its histogram.

    Builds a monitored machine, boots the mini-VMS kernel, creates a
    population of generated processes for the profile, attaches the RTE
    as the terminal source (see :func:`prepare_workload`), warms up
    unmeasured, then measures ``instructions`` instructions (the
    stand-in for the paper's one-hour runs).  ``configure(machine)``
    runs before boot, for ablations.

    With ``return_board=True`` the return value is ``(result, board)``,
    exposing the stopped histogram board so callers (the parallel
    engine, equality tests) can dump the raw banks as well.

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) attaches cycle-level
    event tracing to the machine; the tracer is strictly passive, so a
    traced run produces bit-identical results to an untraced one.
    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) collects
    wall-clock self-profiling: per-phase timings and simulation speed.
    ``compile_events`` (a :class:`repro.obs.channel.EventChannel`)
    records compile lifecycle events; unlike ``tracer`` it leaves
    the compiled hot path enabled.
    """
    import time as _time

    from repro.workloads import profile_by_name

    phase_started = _time.perf_counter()

    profile = profile_by_name(profile_name)
    kernel, monitor = prepare_workload(
        profile_name,
        process_count=process_count,
        seed_offset=seed_offset,
        configure=configure,
        tracer=tracer,
        compile_events=compile_events,
    )
    machine = kernel.machine
    if metrics is not None:
        metrics.histogram(
            "phase.build.seconds", "machine + kernel + workload construction"
        ).observe(_time.perf_counter() - phase_started)
        phase_started = _time.perf_counter()
    kernel.run(max_instructions=warmup_instructions)
    if metrics is not None:
        metrics.histogram(
            "phase.warmup.seconds", "unmeasured warmup instructions"
        ).observe(_time.perf_counter() - phase_started)
        phase_started = _time.perf_counter()
    baseline = MachineStats.from_machine(machine)
    kernel.start_measurement()
    kernel.run(max_instructions=instructions)
    kernel.stop_measurement()
    measure_seconds = _time.perf_counter() - phase_started
    result = result_from_machine(
        machine, monitor, name=profile.name, stats_baseline=baseline
    )
    if metrics is not None:
        metrics.histogram(
            "phase.measure.seconds", "measured instructions"
        ).observe(measure_seconds)
        if measure_seconds > 0:
            metrics.gauge(
                "speed.instructions_per_second", "simulated instructions / wall second"
            ).set(result.instructions / measure_seconds)
            metrics.gauge(
                "speed.cycles_per_second", "simulated cycles / wall second"
            ).set(result.stats.cycles / measure_seconds)
        from repro.core import compile as replay

        replay.record_metrics(
            metrics,
            machine.ebox.compile_stats,
            machine.ebox._compile_active,
            disabled_by_tracer=machine.ebox._compile_disabled_by_tracer,
        )
    if return_board:
        return result, monitor.board
    return result


def run_composite_experiment(
    instructions_per_workload: int = 30_000,
    warmup_instructions: int = 3_000,
    workloads: Optional[List[str]] = None,
    jobs: int = 1,
    seed_offset: int = 0,
    process_count: Optional[int] = None,
    overrides: Optional[dict] = None,
    progress=None,
    shards: int = 1,
    cache=None,
    policy=None,
):
    """The paper's headline measurement: the composite of all five
    workloads (the sum of the five UPC histograms).

    ``jobs`` fans the five independent workload runs out over a process
    pool (``jobs=1`` is the in-process reference path; both produce
    bit-identical composites).  ``seed_offset`` and ``process_count``
    apply to every workload; ``overrides`` maps a workload name to a
    dict of per-workload :class:`~repro.core.executor.RunSpec` field
    overrides, e.g. ``{"scientific": {"seed_offset": 3}}``.  ``progress``
    is forwarded to :meth:`~repro.core.scheduler.Scheduler.run_specs`.

    ``shards > 1`` splits each workload's measurement into resumable
    shards (see :func:`~repro.core.scheduler.execute_spec_sharded`);
    ``cache`` (a :class:`~repro.core.runcache.RunCache`) lets repeated
    runs reuse finished shards and boundary snapshots.  The composite
    stays bit-identical whatever the shard count.

    ``policy`` (a :class:`~repro.core.resilience.ResiliencePolicy`)
    governs failure handling; ``None`` keeps the historical
    first-failure-raises behaviour and returns the bare
    :class:`ExperimentResult`.  With ``policy.on_error == "collect"``
    the return value is ``(result, report)`` — the composite of every
    workload that succeeded (``None`` when all failed) plus the
    :class:`~repro.core.resilience.FailureReport`.
    """
    # lazy: the executor and scheduler import this module
    from repro.core.executor import RunSpec
    from repro.core.scheduler import Scheduler
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    names = workloads if workloads is not None else COMPOSITE_WORKLOAD_NAMES
    overrides = overrides or {}
    specs = []
    for name in names:
        fields = {
            "workload": name,
            "instructions": instructions_per_workload,
            "warmup_instructions": warmup_instructions,
            "seed_offset": seed_offset,
            "process_count": process_count,
        }
        fields.update(overrides.get(name, {}))
        specs.append(RunSpec(**fields))
    collect = policy is not None and policy.on_error == "collect"
    # The CLI is just another scheduler client: the same front door the
    # experiment service feeds, sharded or not, one orchestration path.
    scheduler = Scheduler(jobs=jobs, shards=shards, cache=cache, policy=policy)
    outcome = scheduler.run_specs(specs, progress=progress)
    if collect:
        runs = outcome.results
        result = composite([run.result for run in runs]) if runs else None
        return result, outcome.report
    return composite([run.result for run in outcome if run is not None])


def composite(results: List[ExperimentResult], name: str = "composite") -> ExperimentResult:
    """The paper's composite: the *sum* of the per-workload histograms.

    Matrices, events and hardware stats all add; per-instruction views
    recompute from the summed totals, exactly like summing the five UPC
    histograms before reduction.
    """
    if not results:
        raise ValueError("composite of zero experiments")
    merged_matrix = {
        row: {col: 0.0 for col in results[0].reduction.matrix[row]}
        for row in results[0].reduction.matrix
    }
    merged_routines = {}
    total_cycles = 0.0
    instructions = 0
    merged_events = EventCounters()
    merged_stats = MachineStats()
    for result in results:
        for row, columns in result.reduction.matrix.items():
            for column, cycles in columns.items():
                merged_matrix[row][column] += cycles
        for routine, (normal, stalled) in result.reduction.routine_cycles.items():
            previous = merged_routines.get(routine, (0, 0))
            merged_routines[routine] = (previous[0] + normal, previous[1] + stalled)
        total_cycles += result.reduction.total_cycles
        instructions += result.reduction.instructions
        merged_events.merge_from(result.events)
        merged_stats.merge_from(result.stats)
    reduction = Reduction(
        matrix=merged_matrix,
        instructions=instructions,
        total_cycles=total_cycles,
        routine_cycles=merged_routines,
        events=merged_events,
    )
    return ExperimentResult(
        name=name, reduction=reduction, events=merged_events, stats=merged_stats
    )
