"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list-workloads``
    The five workload profiles and their populations.
``diagram``
    Render Figure 1 (the machine's block diagram).
``run WORKLOAD``
    Measure one workload and print the paper's tables.
``composite``
    The headline experiment: measure all five workloads and print every
    table from the summed histograms.  ``--jobs N`` fans the five runs
    out over a process pool with bit-identical results; each run's
    progress renders live on stderr.  ``--shards K`` splits every
    workload's measurement into K resumable shards banked in the
    content-addressed run cache, so re-runs replay finished shards
    instead of re-simulating (``--no-cache`` opts out).
``snapshot save|info``
    Freeze one workload's machine mid-measurement into a versioned,
    digest-checked snapshot file; ``info`` reads the header (never the
    pickle) back out.
``cache info|ls|clear``
    Inspect or empty the content-addressed run cache; ``info`` includes
    the lifetime hit/miss totals aggregated across every process that
    ever touched the cache (the persistent stats ledger).
``serve`` / ``submit`` / ``poll``
    The experiment service: ``serve`` runs the asyncio job queue behind
    the HTTP/JSON API, ``submit`` posts a sweep (``--wait`` polls it to
    completion, ``--check`` re-validates the fetched results), and
    ``poll`` inspects jobs or the scheduler's dedupe statistics.
    Concurrent clients submitting overlapping sweeps execute each
    unique spec at most once.
``sweep WORKLOAD PARAM VALUES...``
    Design-space sweep of one machine parameter (``cache_kb`` /
    ``tb_half`` / ``wb_drain``) against the baseline, optionally
    parallel with ``--jobs``.
``opcodes WORKLOAD``
    The Clark & Levy-style per-opcode frequency report.
``listing``
    Dump the control-store layout (the analyst's address map).
``trace WORKLOAD``
    Run one workload with cycle-level tracing attached and export the
    capture as Chrome trace-event JSON (loadable in Perfetto or
    ``about://tracing``) or the indexed on-disk store (``--format
    store``) that ``repro query`` reads.
``query EXPRESSION``
    Ask questions of a trace: ``repro query "stall cycles where
    track=MEM and routine=SPEC_FETCH"`` against a stored trace
    (``--trace``) or a fresh in-process traced run (``--workload``).
    ``--jit`` captures compile-lifecycle events (record formation,
    interpreter fallbacks) with the compiled hot path still enabled.
``check [WORKLOAD]``
    Evaluate every counter identity (cycle classification, instruction
    counts, miss splits, and with ``--trace`` the trace-vs-counter
    identities) and localize any failure to its subsystem; exit 1 on a
    broken invariant.
``stats [WORKLOAD]``
    Run one workload (or the composite) and report the typed metrics
    surface: simulated counters, derived gauges, wall-clock
    self-profiling, replay-compiler diagnostics, and per-run
    provenance manifests.

Diagnostics go to stderr through :mod:`repro.obs.log`; the threshold is
``-v``/``--verbose`` (debug), ``-q``/``--quiet`` (warnings only), or the
``REPRO_LOG`` environment variable.  Command output (the tables) stays
on stdout.
"""

from __future__ import annotations

import argparse

from repro.core import tables
from repro.core.reduction import COLUMNS, ROWS
from repro.core.report import matrix_to_text
from repro.obs.log import DEBUG, WARN, emit, get_logger, set_level


def _print_all_tables(result) -> None:
    emit(
        "\n{}: {} instructions, CPI {:.3f}\n".format(
            result.name, result.instructions, result.cpi
        )
    )

    table1 = tables.table1(result)
    emit("Table 1: opcode group frequency (percent)")
    for group, percent in sorted(table1.items(), key=lambda kv: -kv[1]):
        emit("  {:<12} {:6.2f}".format(group, percent))

    table2 = tables.table2(result)
    emit("\nTable 2: PC-changing instructions (% of instr / % taken)")
    for row, cells in table2.items():
        if cells["percent_of_instructions"] > 0:
            emit(
                "  {:<14} {:6.1f} {:6.1f}".format(
                    row, cells["percent_of_instructions"], cells["percent_taken"]
                )
            )

    table3 = tables.table3(result)
    emit(
        "\nTable 3: {:.3f} first + {:.3f} other specifiers, "
        "{:.3f} branch displacements per instruction".format(
            table3["spec1"], table3["spec26"], table3["branch_displacements"]
        )
    )

    table4 = tables.table4(result)
    emit("\nTable 4: specifier modes (percent of all specifiers)")
    for row, cells in table4.items():
        emit("  {:<22} {:6.2f}".format(row, cells["total"]))

    table5 = tables.table5(result)
    emit("\nTable 5: reads {:.3f} / writes {:.3f} per instruction".format(
        table5["total"]["reads"], table5["total"]["writes"]))

    table6 = tables.table6(result)
    emit("Table 6: average instruction {:.2f} bytes".format(table6["total_bytes"]))

    table7 = tables.table7(result)
    emit("\nTable 7: headways (instructions between events)")
    for event, headway in table7.items():
        emit("  {:<28} {:8.0f}".format(event, headway))

    emit()
    table8 = tables.table8(result)
    emit(
        matrix_to_text(
            {row: table8[row] for row in ROWS + ["total"]},
            COLUMNS + ["total"],
            "Table 8: cycles per average instruction",
        )
    )

    table9 = tables.table9(result)
    emit("\nTable 9: execute cycles within each group")
    for row, cells in table9.items():
        emit("  {:<12} {:8.2f}".format(row, cells["total"]))

    sec41 = tables.sec41_istream(result)
    sec42 = tables.sec42_cache_tb(result)
    emit(
        "\nSec 4.1: {:.2f} IB refs/instr at {:.2f} bytes/ref".format(
            sec41["ib_references_per_instruction"], sec41["bytes_per_reference"]
        )
    )
    emit(
        "Sec 4.2: {:.3f} cache read misses/instr; {:.4f} TB misses/instr "
        "at {:.1f} cycles each".format(
            sec42["cache_read_misses_per_instruction"],
            sec42["tb_misses_per_instruction"],
            sec42["cycles_per_tb_miss"],
        )
    )


def _progress_printer(log):
    """A run_specs progress callback rendering per-workload status."""

    def notify(event) -> None:
        position = "[{}/{}]".format(event.index + 1, event.total)
        if event.kind == "start":
            log.info("{} {} started".format(position, event.name))
        elif event.kind == "done":
            log.info(
                "{} {} done".format(position, event.name),
                seconds=event.wall_seconds,
            )
        elif event.kind == "retry":
            log.warn(
                "{} {} retrying".format(position, event.name), error=event.error
            )
        else:
            log.error(
                "{} {} failed".format(position, event.name), error=event.error
            )

    return notify


def cmd_list_workloads(_args) -> int:
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES, PROFILES

    for name in COMPOSITE_WORKLOAD_NAMES:
        profile = PROFILES[name]
        emit("{:<20} {:>3} users  {}".format(name, profile.users, profile.description))
    return 0


def cmd_diagram(_args) -> int:
    from repro.core.monitor import UPCMonitor
    from repro.cpu import VAX780

    emit(VAX780(monitor=UPCMonitor.build()).block_diagram())
    return 0


def cmd_run(args) -> int:
    from repro.core.experiment import run_workload

    result = run_workload(
        args.workload,
        instructions=args.instructions,
        warmup_instructions=args.warmup,
    )
    _print_all_tables(result)
    return 0


def cmd_composite(args) -> int:
    from repro.core.experiment import run_composite_experiment
    from repro.core.resilience import INTERRUPT_EXIT_CODE, ResiliencePolicy
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    log = get_logger("repro.composite")
    cache = None
    if args.shards > 1 and not args.no_cache:
        from repro.core.runcache import RunCache

        cache = RunCache.default(args.cache_dir)
    policy = ResiliencePolicy.from_options(
        retries=args.retries,
        spec_timeout=args.spec_timeout,
        on_error=args.on_error,
        interrupt_report_path=args.interrupt_report,
    )
    log.info(
        "measuring {} workloads".format(len(COMPOSITE_WORKLOAD_NAMES)),
        jobs=args.jobs,
        shards=args.shards,
    )
    ledger_before = cache.persistent_totals() if cache is not None else None
    try:
        outcome = run_composite_experiment(
            instructions_per_workload=args.instructions,
            warmup_instructions=args.warmup,
            jobs=args.jobs,
            progress=_progress_printer(log),
            shards=args.shards,
            cache=cache,
            policy=policy,
        )
    except KeyboardInterrupt as interrupt:
        report = getattr(interrupt, "report", None)
        if report is not None:
            log.error("composite interrupted: {}".format(report.summary()))
            if policy.interrupt_report_path:
                log.error(
                    "partial report saved", path=policy.interrupt_report_path
                )
        else:
            log.error("composite interrupted")
        return INTERRUPT_EXIT_CODE
    report = None
    if args.on_error == "collect":
        result, report = outcome
    else:
        result = outcome
    if report is not None and not report.ok:
        for failure in report.failures:
            log.error(
                "workload failed", name=failure.name, kind=failure.kind,
                attempts=failure.attempts, error=failure.error,
            )
        log.error("composite incomplete: {}".format(report.summary()))
    if result is not None:
        _print_all_tables(result)
    if cache is not None:
        # The ledger, not this process's counters: with --jobs > 1 the
        # cache traffic happens in pool workers, which flush it there.
        cache.flush_stats()
        totals = cache.persistent_totals()
        log.info(
            "run cache {}".format(cache.root),
            hits=totals["hits"] - ledger_before["hits"],
            misses=totals["misses"] - ledger_before["misses"],
            puts=totals["puts"] - ledger_before["puts"],
            quarantined=cache.quarantined_objects(),
        )
    return 0 if report is None or report.ok else 1


def cmd_snapshot(args) -> int:
    import json

    from repro.core.snapshot import MachineSnapshot

    log = get_logger("repro.snapshot")
    if args.action == "info":
        header = MachineSnapshot.read_header(args.path)
        emit(json.dumps(header, indent=2, sort_keys=True))
        return 0

    # save: build + warm up + measure into the snapshot point, then freeze.
    from repro.core.experiment import prepare_workload
    from repro.core.snapshot import capture

    log.info(
        "building snapshot",
        workload=args.workload,
        instructions=args.instructions,
        warmup=args.warmup,
    )
    kernel, _ = prepare_workload(args.workload)
    kernel.run(max_instructions=args.warmup)
    kernel.start_measurement()
    kernel.run(max_instructions=args.instructions)
    snapshot = capture(kernel, label=args.workload)
    path = args.output or "{}_{}.snap".format(args.workload, args.instructions)
    snapshot.save(path)
    emit(
        "wrote {} ({} bytes compressed, digest {})".format(
            path, snapshot.compressed_bytes, snapshot.digest[:16]
        )
    )
    return 0


def cmd_cache(args) -> int:
    from repro.core.runcache import RunCache

    cache = RunCache.default(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        emit("removed {} cached objects from {}".format(removed, cache.root))
        return 0
    entries = list(cache.entries())
    if args.action == "ls":
        for entry in entries:
            meta = entry.meta
            emit(
                "{}  {:>10}  {:<8} {}".format(
                    entry.key[:16],
                    entry.size_bytes,
                    meta.get("kind", "?"),
                    "{} @{}".format(meta.get("spec", "?"), meta.get("instruction", meta.get("start", "?"))),
                )
            )
        return 0
    by_kind = {}
    for entry in entries:
        kind = entry.meta.get("kind", "?")
        count, size = by_kind.get(kind, (0, 0))
        by_kind[kind] = (count + 1, size + entry.size_bytes)
    emit("cache root: {}".format(cache.root))
    emit("objects:    {} ({} bytes)".format(len(entries), sum(e.size_bytes for e in entries)))
    for kind, (count, size) in sorted(by_kind.items()):
        emit("  {:<10} {:>5} objects, {:>10} bytes".format(kind, count, size))
    quarantined = cache.quarantined_objects()
    if quarantined:
        emit("quarantined: {} corrupt objects (objects/quarantine/)".format(quarantined))
    # Lifetime traffic from the persistent ledger: every process that
    # touched this cache — CLI runs, service jobs, pool workers —
    # flushed its counters here.  The in-process stats of this (fresh)
    # CLI invocation would read all zeros and silently undercount.
    totals = cache.persistent_totals()
    emit(
        "lifetime:   {} hits / {} misses / {} puts / {} quarantined "
        "({} flushes)".format(
            totals["hits"], totals["misses"], totals["puts"],
            totals["quarantined"], totals["flushes"],
        )
    )
    return 0


def cmd_serve(args) -> int:
    from repro.core.resilience import ResiliencePolicy
    from repro.service.server import ExperimentService

    cache = None
    if not args.no_cache:
        from repro.core.runcache import RunCache

        cache = RunCache.default(args.cache_dir)
    policy = ResiliencePolicy.from_options(
        retries=args.retries, spec_timeout=args.spec_timeout
    )
    service = ExperimentService(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        shards=args.shards,
        cache=cache,
        policy=policy,
        concurrency=args.concurrency,
        result_index_size=args.result_index,
        # simulations run off the interpreter that answers HTTP
        persistent_workers=True,
    )

    def announce(bound):
        # On stdout so scripts (and the CI smoke leg) can scrape the
        # port even when --port 0 asked the OS to pick one.
        emit("service listening on http://{}:{}".format(bound.host, bound.port))
        import sys

        sys.stdout.flush()

    service.run(announce=announce)
    return 0


def _submit_specs(args):
    """The sweep a ``repro submit`` invocation describes."""
    from repro.core.executor import RunSpec
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    names = args.workloads or list(COMPOSITE_WORKLOAD_NAMES)
    return [
        RunSpec(
            workload=name,
            instructions=args.instructions,
            warmup_instructions=args.warmup,
        )
        for name in names
    ]


def cmd_submit(args) -> int:
    import json

    from repro.service.client import ClientError, ServiceClient

    log = get_logger("repro.submit")
    client = ServiceClient(args.url)
    specs = _submit_specs(args)
    try:
        accepted = client.submit_sweep(specs, on_error=args.on_error)
    except ClientError as error:
        log.error("submission refused", status=error.status)
        log.error(str(error))
        return 1
    job_id = accepted["job"]
    log.info("job accepted", job=job_id, specs=len(specs))
    if not args.wait:
        emit(json.dumps(accepted, indent=2))
        return 0
    record = client.wait(job_id, timeout=args.timeout)
    if args.json:
        emit(json.dumps(record, indent=2, sort_keys=True))
    if record["state"] != "done":
        log.error("job failed", job=job_id)
        error = record.get("error", {})
        if error.get("worker_traceback"):
            log.error(error["worker_traceback"].rstrip())
        elif error.get("message"):
            log.error(error["message"])
        return 1
    failed = 0
    for summary in record["runs"]:
        provenance = "executed"
        if summary.get("attached_to"):
            provenance = "attached"
        elif summary.get("resumed_from"):
            provenance = "from-cache"
        line = "{:<24} CPI {:6.3f}  {:>8} instr  {:7.2f}s  {}".format(
            summary["name"], summary["cpi"], summary["instructions"],
            summary["wall_seconds"], provenance,
        )
        if args.check:
            from repro.obs.invariants import check_result

            result = client.result(summary["digest"]).result
            checks = check_result(result)
            broken = [check for check in checks if not check.ok]
            failed += len(broken)
            line += "  [{} identities {}]".format(
                len(checks), "ok" if not broken else "BROKEN"
            )
            if not args.json:
                emit(line)
            for check in broken:
                log.error("identity broken", name=check.name, blame=check.blame)
        elif not args.json:
            emit(line)
    report = record.get("report")
    if report is not None and report.get("failures"):
        for failure in report["failures"]:
            log.error(
                "spec failed", name=failure["name"], kind=failure["kind"],
                error=failure["error"],
            )
        return 1
    return 0 if not failed else 1


def cmd_poll(args) -> int:
    import json

    from repro.service.client import ClientError, ServiceClient

    log = get_logger("repro.poll")
    client = ServiceClient(args.url)
    try:
        if args.stats:
            emit(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.job is None:
            emit(json.dumps({"jobs": client.jobs()}, indent=2, sort_keys=True))
            return 0
        record = (
            client.wait(args.job, timeout=args.timeout)
            if args.wait
            else client.job(args.job)
        )
    except ClientError as error:
        log.error(str(error))
        return 1
    emit(json.dumps(record, indent=2, sort_keys=True))
    return 0 if record["state"] != "failed" else 1


#: ``sweep`` parameter name -> MachineConfig field constructor
_SWEEP_PARAMS = {
    "cache_kb": lambda v: {"cache_size_bytes": int(v) * 1024},
    "tb_half": lambda v: {"tb_half_entries": int(v)},
    "wb_drain": lambda v: {"wb_drain_cycles": int(v)},
}


def cmd_sweep(args) -> int:
    from repro.core.executor import MachineConfig, RunSpec
    from repro.core.scheduler import Scheduler

    log = get_logger("repro.sweep")
    make_fields = _SWEEP_PARAMS[args.param]
    configs = [None] + [MachineConfig(**make_fields(value)) for value in args.values]
    specs = [
        RunSpec(
            workload=args.workload,
            instructions=args.instructions,
            warmup_instructions=args.warmup,
            config=config,
        )
        for config in configs  # baseline first, then the sweep points
    ]
    log.info(
        "sweeping {} over {}={}".format(
            args.workload, args.param, ",".join(str(v) for v in args.values)
        ),
        jobs=args.jobs,
    )
    runs = Scheduler(jobs=args.jobs).run_specs(specs, progress=_progress_printer(log))
    header = "{:<40} {:>7} {:>8} {:>8} {:>9} {:>9}".format(
        "configuration", "CPI", "rstall/i", "wstall/i", "ibstall/i", "memmgmt/i"
    )
    emit(header)
    emit("-" * len(header))
    for run in runs:
        result = run.result
        columns = result.reduction.column_totals()
        instructions = max(1, result.instructions)
        emit(
            "{:<40} {:7.3f} {:8.3f} {:8.3f} {:9.3f} {:9.3f}".format(
                result.name,
                result.cpi,
                columns["rstall"] / instructions,
                columns["wstall"] / instructions,
                columns["ibstall"] / instructions,
                result.reduction.row_totals()["memmgmt"] / instructions,
            )
        )
    return 0


def cmd_opcodes(args) -> int:
    from repro.core.experiment import run_workload
    from repro.core.opcode_report import coverage_count, frequency_cost_contrast

    result = run_workload(
        args.workload, instructions=args.instructions, warmup_instructions=args.warmup
    )
    emit(frequency_cost_contrast(result, top=args.top))
    emit()
    emit(
        "{} distinct opcodes cover 90% of dynamic execution".format(
            coverage_count(result, 90.0)
        )
    )
    return 0


def cmd_listing(_args) -> int:
    from repro.ucode.routines import build_layout

    emit(build_layout().store.listing())
    return 0


def cmd_trace(args) -> int:
    import json

    from repro.core.experiment import run_workload
    from repro.obs.trace import Tracer, validate_chrome

    log = get_logger("repro.trace")
    tracer = Tracer(capacity=args.capacity)
    log.info(
        "tracing workload",
        workload=args.workload,
        instructions=args.instructions,
        capacity=args.capacity,
    )
    result = run_workload(
        args.workload,
        instructions=args.instructions,
        warmup_instructions=args.warmup,
        tracer=tracer,
    )
    stem = args.output or "trace_{}".format(args.workload)
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    written = []
    if args.format == "json":
        payload = tracer.to_chrome()
        for problem in validate_chrome(payload):
            log.warn("trace validation", problem=problem)
        path = stem + ".json"
        with open(path, "w") as handle:
            json.dump(payload, handle)
        written.append(path)
    else:
        from repro.obs.query import write_store

        path = stem + ".vaxtrace"
        footer = write_store(
            tracer,
            path,
            meta={
                "workload": args.workload,
                "instructions": args.instructions,
                "warmup_instructions": args.warmup,
            },
        )
        written.append(path)
        log.info(
            "store written",
            segments=len(footer["segments"]),
            records=footer["record_count"],
        )
    emit(
        "{}: {} instructions, CPI {:.3f}".format(
            result.name, result.instructions, result.cpi
        )
    )
    emit(
        "captured {} events ({} emitted, {} dropped by the ring)".format(
            len(tracer), tracer.emitted, tracer.dropped
        )
    )
    for path in written:
        emit("wrote {}".format(path))
    return 0


def cmd_query(args) -> int:
    import json

    from repro.obs.query import QueryError, open_store, parse_query

    log = get_logger("repro.query")
    try:
        plan = parse_query(args.expression)
    except QueryError as error:
        log.error(str(error))
        return 2

    if args.trace:
        source = open_store(args.trace)
        log.info(
            "querying store",
            path=args.trace,
            segments=len(getattr(source, "footer", {}).get("segments", ()))
            or "in-memory",
        )
    elif args.workload:
        from repro.core.experiment import run_workload

        if args.jit:
            from repro.obs.channel import EventChannel

            channel = EventChannel(capacity=args.capacity)
            run_workload(
                args.workload,
                instructions=args.instructions,
                warmup_instructions=args.warmup,
                compile_events=channel,
            )
            source = channel.to_trace_events()
            log.info(
                "captured compile-lifecycle events",
                emitted=channel.emitted,
                dropped=channel.dropped,
            )
        else:
            from repro.obs.trace import Tracer

            tracer = Tracer(capacity=args.capacity)
            run_workload(
                args.workload,
                instructions=args.instructions,
                warmup_instructions=args.warmup,
                tracer=tracer,
            )
            source = tracer
            if tracer.dropped:
                log.warn(
                    "ring dropped events; aggregates cover a truncated window",
                    dropped=tracer.dropped,
                )
    else:
        log.error("need --trace PATH or --workload NAME to query")
        return 2

    try:
        answer = plan.run(source)
    except QueryError as error:
        log.error(str(error))
        return 2
    scanned = getattr(source, "segments_scanned", None)
    if scanned is not None:
        log.info("segments scanned", scanned=scanned)
    if args.json:
        emit(json.dumps({"query": args.expression, "result": answer}, indent=2))
        return 0
    emit("query: {}".format(args.expression))
    stat_order = ("count", "sum", "min", "max", "mean", "p50", "p90", "p99")
    if isinstance(answer, dict) and set(answer) <= set(stat_order):
        for key in stat_order:
            if key in answer:
                emit("  {:<5} {:>14}".format(key, _format_value(answer[key])))
    elif isinstance(answer, dict):
        width = max((len(str(key)) for key in answer), default=0)
        for key, value in sorted(
            answer.items(), key=lambda kv: (-_numeric(kv[1]), str(kv[0]))
        ):
            if isinstance(value, dict):  # histogram() output
                emit("  {:<{}} {}".format(key, width, _format_cells(value)))
            else:
                emit("  {:<{}} {:>14}".format(str(key), width, _format_value(value)))
    else:
        emit("  {}".format(_format_value(answer)))
    return 0


def _numeric(value) -> float:
    if isinstance(value, dict):
        return float(value.get("sum", value.get("count", 0)))
    return float(value)


def _format_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return "{:.4f}".format(value)
    return str(int(value)) if isinstance(value, float) else str(value)


def _format_cells(cells: dict) -> str:
    return " ".join(
        "{}={}".format(key, _format_value(cells[key]))
        for key in ("count", "sum", "mean", "p50", "p90", "p99")
        if key in cells
    )


def cmd_check(args) -> int:
    from repro.obs.invariants import run_checked_workload
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    log = get_logger("repro.check")
    names = [args.workload] if args.workload else list(COMPOSITE_WORKLOAD_NAMES)
    reports = []
    for name in names:
        log.info(
            "checking workload",
            workload=name,
            instructions=args.instructions,
            trace=args.trace,
        )
        report, _result = run_checked_workload(
            name,
            instructions=args.instructions,
            warmup_instructions=args.warmup,
            trace=args.trace,
            tracer_capacity=args.capacity,
        )
        reports.append(report)

    return _report_checks("check", reports, args.json)


def _report_checks(command: str, reports, as_json: bool) -> int:
    """Emit ``repro check`` / ``repro validate`` reports; exit 1 when any
    check fails.

    ``as_json`` emits the ``repro.check/v1`` envelope.  Text is one line
    per report, one per check (a failing check adds its blame and
    detail), the skips, and one summary line.
    """
    import json

    from repro.obs.invariants import schema_envelope

    if as_json:
        envelope = schema_envelope(command, [report.to_dict() for report in reports])
        emit(json.dumps(envelope, indent=2))
        return 0 if envelope["ok"] else 1

    for report in reports:
        header = "{} {} ({} checks)".format(
            "ok  " if report.ok else "FAIL", report.name, len(report.checks)
        )
        if report.modes:
            header += " [{}] modes={}".format(report.covers, ",".join(report.modes))
        emit(header)
        for check in report.checks:
            emit(
                "  {} {:<32} expected {} actual {}{}".format(
                    "ok  " if check.ok else "FAIL",
                    check.name,
                    _format_value(check.expected),
                    _format_value(check.actual),
                    " ({})".format(check.mode) if check.mode else "",
                )
            )
            if not check.ok:
                if check.blame:
                    emit("       blame: {}".format(check.blame))
                if check.detail:
                    emit("       {}".format(check.detail))
        for name, reason in sorted(report.skipped.items()):
            emit("  skip {:<32} {}".format(name, reason))
    checks = sum(len(report.checks) for report in reports)
    failed = sum(len(report.failures) for report in reports)
    skipped = sum(len(report.skipped) for report in reports)
    summary = "{} checks across {} report(s): {}".format(
        checks, len(reports), "{} FAILED".format(failed) if failed else "all hold"
    )
    if skipped:
        summary += " ({} skipped)".format(skipped)
    emit("\n" + summary)
    return 1 if failed else 0


def cmd_validate(args) -> int:
    """Run the directed validation probes: programs whose event counts
    are known by construction, diffed against the machine in every
    compile mode.  Exit 1 when the machine refutes the model."""
    from repro.validate import (
        ALL_MODES,
        RefutationRunner,
        build_probes,
        canonical_names,
    )

    log = get_logger("repro.validate")
    probes = build_probes()

    if args.list:
        for probe in probes.values():
            marker = "*" if probe.canonical else " "
            emit(
                "{} {:<16} [{:<9}] {}".format(
                    marker, probe.name, probe.covers, probe.title
                )
            )
        emit("\n* = canonical (the CI validation leg runs these)")
        return 0

    if args.probe:
        if args.probe not in probes:
            emit(
                "unknown probe {!r}; `repro validate --list` names them".format(
                    args.probe
                )
            )
            return 2
        names = [args.probe]
    elif args.canonical:
        names = canonical_names()
    else:
        names = list(probes)

    modes = ALL_MODES if args.mode == "all" else (args.mode,)
    runner = RefutationRunner(modes=modes, trace=not args.no_trace)
    reports = []
    for name in names:
        log.info("validating", probe=name, modes=",".join(modes))
        reports.append(runner.run_probe(probes[name]))

    return _report_checks("validate", reports, args.json)


def cmd_stats(args) -> int:
    import json

    from repro.core.executor import RunSpec
    from repro.core.experiment import composite
    from repro.core.scheduler import Scheduler
    from repro.obs.metrics import registry_from_result
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    log = get_logger("repro.stats")
    names = [args.workload] if args.workload else list(COMPOSITE_WORKLOAD_NAMES)
    specs = [
        RunSpec(
            workload=name,
            instructions=args.instructions,
            warmup_instructions=args.warmup,
        )
        for name in names
    ]
    runs = Scheduler(jobs=args.jobs).run_specs(specs, progress=_progress_printer(log))
    result = (
        runs[0].result if len(runs) == 1 else composite([run.result for run in runs])
    )
    registry = registry_from_result(result)
    for run in runs:
        if run.metrics:
            registry.merge_snapshot(run.metrics)
    snapshot = registry.snapshot()
    manifests = [run.manifest.to_dict() for run in runs if run.manifest is not None]
    if args.json:
        emit(
            json.dumps(
                {"name": result.name, "metrics": snapshot, "manifests": manifests},
                indent=2,
            )
        )
        return 0
    emit(
        "{}: {} instructions, CPI {:.3f}\n".format(
            result.name, result.instructions, result.cpi
        )
    )
    emit("counters:")
    for name, value in snapshot["counters"].items():
        emit("  {:<44} {:>14}".format(name, value))
    emit("\ngauges:")
    for name, value in snapshot["gauges"].items():
        emit("  {:<44} {:>14.4f}".format(name, value))
    if snapshot["histograms"]:
        emit("\nself-profiling (count / mean / p50 / p90 / p99 seconds):")
        for name, h in snapshot["histograms"].items():
            emit(
                "  {:<44} {:>4} {:>9.4f} {:>9.4f} {:>9.4f} {:>9.4f}".format(
                    name, h["count"], h["mean"], h["p50"], h["p90"], h["p99"]
                )
            )
    from repro.core.compile import stats_from_snapshot

    compile_stats = stats_from_snapshot(snapshot)
    if compile_stats is not None:
        emit("\ncompiled hot path:")
        if compile_stats.get("active"):
            emit(
                "  {:.1%} of instructions replayed, {:.1%} of cycles; "
                "{} JIT hits / {} misses, {} records compiled".format(
                    compile_stats.get("fast_instruction_fraction", 0.0),
                    compile_stats.get("fast_cycle_fraction", 0.0),
                    compile_stats.get("jit_hits", 0),
                    compile_stats.get("jit_misses", 0),
                    compile_stats.get("records_compiled", 0),
                )
            )
            causes = {
                key.split(".", 1)[1]: value
                for key, value in compile_stats.items()
                if key.startswith("fallback.") and value
            }
            if causes:
                emit(
                    "  fallback causes: "
                    + ", ".join(
                        "{} {}".format(cause, count)
                        for cause, count in sorted(causes.items())
                    )
                )
        elif compile_stats.get("disabled_by_tracer"):
            emit("  disabled: tracer attached forced the interpreted path")
        else:
            emit("  disabled (REPRO_NO_COMPILE or incompatible board)")
    emit("\nprovenance:")
    for manifest in manifests:
        emit(
            "  {:<24} config={} seed={}+{} wall={:.2f}s".format(
                manifest["spec_name"],
                manifest["config_hash"][:12],
                manifest["profile_seed"],
                manifest["seed_offset"],
                manifest["wall_seconds"],
            )
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VAX-11/780 micro-PC histogram study, reproduced",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="debug-level diagnostics on stderr",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="warnings and errors only on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads").set_defaults(func=cmd_list_workloads)
    sub.add_parser("diagram").set_defaults(func=cmd_diagram)

    run_parser = sub.add_parser("run", help="measure one workload")
    run_parser.add_argument("workload")
    run_parser.add_argument("--instructions", type=int, default=10_000)
    run_parser.add_argument("--warmup", type=int, default=2_000)
    run_parser.set_defaults(func=cmd_run)

    composite_parser = sub.add_parser("composite", help="the five-workload composite")
    composite_parser.add_argument("--instructions", type=int, default=10_000)
    composite_parser.add_argument("--warmup", type=int, default=2_000)
    composite_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="fan the workload runs out over N processes (results are "
        "bit-identical to --jobs 1)",
    )
    composite_parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split each workload's measurement into K resumable shards "
        "(results are bit-identical to --shards 1; finished shards are "
        "cached and replayed on re-runs)",
    )
    composite_parser.add_argument(
        "--cache-dir",
        default=None,
        help="run cache root (default $REPRO_CACHE_DIR or .repro-cache)",
    )
    composite_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="shard without caching (one in-process chain, nothing reused)",
    )
    composite_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per workload before declaring it failed "
        "(exponential backoff between attempts)",
    )
    composite_parser.add_argument(
        "--spec-timeout",
        type=float,
        default=None,
        help="per-workload wall-clock budget in seconds; a stuck run "
        "costs one attempt and its pool is recycled",
    )
    composite_parser.add_argument(
        "--on-error",
        choices=("raise", "collect"),
        default="raise",
        help="'raise' aborts on the first failed workload (the default); "
        "'collect' finishes the rest and reports what failed (exit 1)",
    )
    composite_parser.add_argument(
        "--interrupt-report",
        default=".repro-interrupted.json",
        help="where Ctrl-C persists the partial failure report "
        "(the sweep resumes by simply re-running: the cache replays "
        "finished shards)",
    )
    composite_parser.set_defaults(func=cmd_composite)

    snapshot_parser = sub.add_parser(
        "snapshot", help="freeze / inspect a machine snapshot"
    )
    snapshot_sub = snapshot_parser.add_subparsers(dest="action", required=True)
    snapshot_save = snapshot_sub.add_parser(
        "save", help="run a workload and freeze the machine mid-measurement"
    )
    snapshot_save.add_argument("workload")
    snapshot_save.add_argument("--instructions", type=int, default=2_000,
                               help="measured instructions to run before freezing")
    snapshot_save.add_argument("--warmup", type=int, default=500)
    snapshot_save.add_argument(
        "--output", default=None, help="snapshot path (default <workload>_<n>.snap)"
    )
    snapshot_save.set_defaults(func=cmd_snapshot)
    snapshot_info = snapshot_sub.add_parser(
        "info", help="print a snapshot's header (version, digest, machine state)"
    )
    snapshot_info.add_argument("path")
    snapshot_info.set_defaults(func=cmd_snapshot)

    cache_parser = sub.add_parser("cache", help="inspect the run cache")
    cache_sub = cache_parser.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("info", "summary: object counts and bytes by kind"),
        ("ls", "list every cached object"),
        ("clear", "delete every cached object"),
    ):
        action_parser = cache_sub.add_parser(action, help=help_text)
        action_parser.add_argument(
            "--cache-dir",
            default=None,
            help="cache root (default $REPRO_CACHE_DIR or .repro-cache)",
        )
        action_parser.set_defaults(func=cmd_cache)

    serve_parser = sub.add_parser(
        "serve", help="run the experiment service (HTTP/JSON job queue)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8765,
        help="TCP port (0 = ask the OS; the bound port prints on stdout)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes the service keeps for running simulations",
    )
    serve_parser.add_argument(
        "--shards", type=int, default=1,
        help="resumable shards per workload measurement",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None,
        help="run cache root (default $REPRO_CACHE_DIR or .repro-cache)",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="serve without the content-addressed cache (no dedupe "
        "across restarts)",
    )
    serve_parser.add_argument(
        "--concurrency", type=int, default=2,
        help="job worker tasks; overlapping jobs dedupe in-flight",
    )
    serve_parser.add_argument(
        "--result-index", type=int, default=256,
        help="completed runs kept in the bounded result index",
    )
    serve_parser.add_argument("--retries", type=int, default=0)
    serve_parser.add_argument("--spec-timeout", type=float, default=None)
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = sub.add_parser(
        "submit", help="submit a sweep to a running experiment service"
    )
    submit_parser.add_argument(
        "workloads", nargs="*",
        help="workloads to measure (default: the five-workload composite)",
    )
    submit_parser.add_argument("--url", default="http://127.0.0.1:8765")
    submit_parser.add_argument("--instructions", type=int, default=10_000)
    submit_parser.add_argument("--warmup", type=int, default=2_000)
    submit_parser.add_argument(
        "--on-error", choices=("raise", "collect"), default="raise"
    )
    submit_parser.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    submit_parser.add_argument("--timeout", type=float, default=600.0)
    submit_parser.add_argument(
        "--check", action="store_true",
        help="with --wait: fetch each result and evaluate the counter "
        "identities on it (exit 1 on a broken invariant)",
    )
    submit_parser.add_argument(
        "--json", action="store_true", help="emit the job record as JSON"
    )
    submit_parser.set_defaults(func=cmd_submit)

    poll_parser = sub.add_parser(
        "poll", help="inspect service jobs and scheduler statistics"
    )
    poll_parser.add_argument(
        "job", nargs="?", default=None, help="job id (default: list all jobs)"
    )
    poll_parser.add_argument("--url", default="http://127.0.0.1:8765")
    poll_parser.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    poll_parser.add_argument("--timeout", type=float, default=600.0)
    poll_parser.add_argument(
        "--stats", action="store_true",
        help="print GET /stats (dedupe counters, index occupancy) instead",
    )
    poll_parser.set_defaults(func=cmd_poll)

    sweep_parser = sub.add_parser(
        "sweep", help="design-space sweep of one machine parameter"
    )
    sweep_parser.add_argument("workload")
    sweep_parser.add_argument("param", choices=sorted(_SWEEP_PARAMS))
    sweep_parser.add_argument("values", type=int, nargs="+")
    sweep_parser.add_argument("--instructions", type=int, default=6_000)
    sweep_parser.add_argument("--warmup", type=int, default=1_500)
    sweep_parser.add_argument("--jobs", type=int, default=1)
    sweep_parser.set_defaults(func=cmd_sweep)

    opcode_parser = sub.add_parser("opcodes", help="per-opcode frequency report")
    opcode_parser.add_argument("workload")
    opcode_parser.add_argument("--instructions", type=int, default=10_000)
    opcode_parser.add_argument("--warmup", type=int, default=2_000)
    opcode_parser.add_argument("--top", type=int, default=15)
    opcode_parser.set_defaults(func=cmd_opcodes)

    sub.add_parser("listing", help="control-store layout").set_defaults(func=cmd_listing)

    trace_parser = sub.add_parser(
        "trace", help="run one workload with cycle-level tracing and export it"
    )
    trace_parser.add_argument("workload")
    trace_parser.add_argument("--instructions", type=int, default=2_000)
    trace_parser.add_argument("--warmup", type=int, default=500)
    trace_parser.add_argument(
        "--output", default=None, help="output path stem (default trace_<workload>)"
    )
    trace_parser.add_argument(
        "--format",
        choices=("json", "store"),
        default="json",
        help="Chrome trace-event JSON, or the indexed on-disk store that "
        "`repro query --trace` reads",
    )
    trace_parser.add_argument(
        "--capacity",
        type=int,
        default=262_144,
        help="ring-buffer size; older events beyond it are dropped",
    )
    trace_parser.set_defaults(func=cmd_trace)

    query_parser = sub.add_parser(
        "query",
        help='run a trace query, e.g. "stall cycles where track=MEM"',
    )
    query_parser.add_argument(
        "expression",
        help="query text: [count|sum|mean|histogram] <measure> "
        "[where k=v [and k=v]...] [group by name|track|phase|routine]",
    )
    query_parser.add_argument(
        "--trace",
        default=None,
        help="query an existing trace store (written by trace --format store)",
    )
    query_parser.add_argument(
        "--workload",
        default=None,
        help="run this workload traced in-process and query the capture",
    )
    query_parser.add_argument("--instructions", type=int, default=5_000)
    query_parser.add_argument("--warmup", type=int, default=1_000)
    query_parser.add_argument(
        "--jit",
        action="store_true",
        help="capture compile-lifecycle events instead of the cycle trace "
        "(keeps the compiled hot path enabled; query the JIT track)",
    )
    query_parser.add_argument(
        "--capacity",
        type=int,
        default=1_048_576,
        help="capture ring size for --workload runs",
    )
    query_parser.add_argument(
        "--json", action="store_true", help="emit the answer as JSON"
    )
    query_parser.set_defaults(func=cmd_query)

    check_parser = sub.add_parser(
        "check",
        help="evaluate every counter identity; exit 1 on any broken invariant",
    )
    check_parser.add_argument(
        "workload",
        nargs="?",
        default=None,
        help="workload to check (default: all five)",
    )
    check_parser.add_argument("--instructions", type=int, default=10_000)
    check_parser.add_argument("--warmup", type=int, default=2_000)
    check_parser.add_argument(
        "--trace",
        action="store_true",
        help="also run traced and check trace-vs-counter identities",
    )
    check_parser.add_argument(
        "--capacity",
        type=int,
        default=1_048_576,
        help="tracer ring size for --trace runs (a ring that drops events "
        "skips the trace identities)",
    )
    check_parser.add_argument(
        "--json", action="store_true", help="emit the reports as JSON"
    )
    check_parser.set_defaults(func=cmd_check)

    validate_parser = sub.add_parser(
        "validate",
        help="run directed probes with analytically known event counts; "
        "exit 1 when the machine refutes the model",
    )
    validate_parser.add_argument(
        "--probe", default=None, help="run a single probe by name"
    )
    validate_parser.add_argument(
        "--canonical",
        action="store_true",
        help="run only the five canonical probes (the CI validation leg)",
    )
    validate_parser.add_argument(
        "--mode",
        default="all",
        choices=("all", "interpreted", "compiled", "current"),
        help="compile mode(s) to run under; 'current' keeps the caller's "
        "environment (default: both pinned modes)",
    )
    validate_parser.add_argument(
        "--no-trace",
        action="store_true",
        help="skip the traced arm (trace-vs-counter checks)",
    )
    validate_parser.add_argument(
        "--list", action="store_true", help="list the probe registry and exit"
    )
    validate_parser.add_argument(
        "--json", action="store_true", help="emit the reports as JSON"
    )
    validate_parser.set_defaults(func=cmd_validate)

    stats_parser = sub.add_parser(
        "stats", help="metrics + provenance for one workload (or the composite)"
    )
    stats_parser.add_argument("workload", nargs="?", default=None)
    stats_parser.add_argument("--instructions", type=int, default=5_000)
    stats_parser.add_argument("--warmup", type=int, default=1_000)
    stats_parser.add_argument("--jobs", type=int, default=1)
    stats_parser.add_argument(
        "--json", action="store_true", help="emit the snapshot as JSON"
    )
    stats_parser.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    from repro.core.executor import EngineError

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quiet:
        set_level(WARN)
    elif args.verbose:
        set_level(DEBUG)
    try:
        return args.func(args)
    except EngineError as error:
        get_logger("repro").error(
            "engine run failed", spec=error.spec_name
        )
        get_logger("repro").error(error.worker_traceback.rstrip())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
