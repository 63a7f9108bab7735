"""Counter-identity invariant checking: use the counters to *refute*.

The paper's numbers are only trustworthy because independent
instruments agree: the micro-PC histogram, the companion event
counters and the hardware-side statistics all measure the same run,
so identities must hold between them — total cycles is the sum of its
Table 8 classifications, instructions retired is the sum of the
per-opcode counts, a read miss is an I-stream or a D-stream miss.
This module evaluates those identities against any
:class:`~repro.core.experiment.ExperimentResult` (and, when a trace
rode along, between traced-event aggregates and the counters), and on
failure localizes the break to the subsystem — and for histogram
identities the micro-routine — whose numbers disagree.

``repro check`` is the CLI face; the fault-injection site
``monitor.dump`` (action ``miscount``, see
:mod:`repro.testing.faults`) exists so tests and demos can watch a
seeded corruption trip exactly the identity that should catch it.

This module also owns the check vocabulary both refutation commands
report in: a :class:`Check` (what the model expected, what the run
measured, the verdict and whom to blame), a :class:`CheckReport` per
workload run or probe, and :func:`schema_envelope`, the pinned
``repro.check/v1`` JSON wrapper.  ``repro validate``
(:mod:`repro.validate.runner`) builds the same records from its probe
expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Identity names -> the subsystem blamed when the identity breaks.
#: "monitor" is the histogram hardware + readout, "reduction" the data
#: reduction, "cpu.events" the companion counters, "memory.cache" /
#: "memory.tb" the hardware-side statistics, "obs.trace" the tracer.
SUBSYSTEM = {
    "cycles.classified": "monitor",
    "cycles.routines": "reduction",
    "instructions.decode_vs_events": "monitor",
    "instructions.opcodes": "cpu.events",
    "memory.read_miss_split": "memory.cache",
    "memory.tb_miss_split": "memory.tb",
    "trace.instructions": "obs.trace",
    "trace.page_faults": "obs.trace",
    "trace.interrupts": "obs.trace",
}


@dataclass
class Check:
    """One check, evaluated against one run: the record both ``repro
    check`` (a counter identity) and ``repro validate`` (a probe
    expectation or derived check) report.

    ``expected`` is what the model says (a number, or for probes the
    expectation's own wording such as ``"== 64"``), ``actual`` is what
    the run measured and ``ok`` is the verdict.  ``description`` is set
    only on identities and ``mode`` only on probe checks; each is
    emitted only when set.
    """

    name: str
    expected: object
    actual: float
    ok: bool
    blame: str = ""
    detail: str = ""
    description: str = ""
    mode: str = ""

    @classmethod
    def identity(cls, name: str, description: str, lhs, rhs):
        """A counter identity: ``lhs`` must equal ``rhs``; a break is
        blamed on the identity's :data:`SUBSYSTEM`."""
        return cls(
            name,
            expected=lhs,
            actual=rhs,
            ok=lhs == rhs,
            blame=SUBSYSTEM.get(name, "unknown"),
            description=description,
        )

    def to_dict(self) -> dict:
        out = {"name": self.name}
        if self.description:
            out["description"] = self.description
        out.update(expected=self.expected, actual=self.actual, ok=self.ok)
        if self.mode:
            out["mode"] = self.mode
        out.update(blame=self.blame, detail=self.detail)
        return out


@dataclass
class CheckReport:
    """Every check evaluated against one workload run or one probe."""

    name: str
    checks: List[Check] = field(default_factory=list)
    #: checks not evaluated, mapped to why (e.g. trace ring dropped
    #: events) — skipping silently would read as "checked and passed".
    skipped: Dict[str, str] = field(default_factory=dict)
    #: the probe header, set (and emitted) only on ``repro validate``
    #: reports: what the probe is, and the compile modes it ran under.
    title: str = ""
    covers: str = ""
    canonical: bool = False
    modes: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> dict:
        """This report in the stable ``repro.check/v1`` shape (see
        :func:`schema_envelope`)."""
        out = {"name": self.name}
        if self.modes:
            out.update(
                title=self.title,
                covers=self.covers,
                canonical=self.canonical,
                modes=list(self.modes),
            )
        out.update(
            ok=self.ok,
            checks=[check.to_dict() for check in self.checks],
            skipped=dict(self.skipped),
        )
        return out


#: The pinned JSON schema version both ``repro check --json`` and
#: ``repro validate --json`` emit.  Bump only with a migration note;
#: tests/obs/golden/check_schema.json is the contract.
SCHEMA_VERSION = "repro.check/v1"


def schema_envelope(command: str, reports: List[dict]) -> dict:
    """Wrap per-run reports in the stable machine-readable envelope.

    Every report carries ``name`` / ``ok`` / ``checks`` / ``skipped``;
    every check carries ``name`` / ``expected`` / ``actual`` / ``ok`` /
    ``blame`` / ``detail`` (plus command-specific extras: identity
    checks add ``description``, validation checks add ``mode``).
    Consumers key on these fields, never on rendering.
    """
    checks = sum(len(report.get("checks", [])) for report in reports)
    failures = sum(
        1
        for report in reports
        for check in report.get("checks", [])
        if not check["ok"]
    )
    skipped = sum(len(report.get("skipped", {})) for report in reports)
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "ok": all(report["ok"] for report in reports),
        "summary": {
            "reports": len(reports),
            "checks": checks,
            "failures": failures,
            "skipped": skipped,
        },
        "reports": reports,
    }


# ---------------------------------------------------------------------------
# identities over one ExperimentResult
# ---------------------------------------------------------------------------


def check_result(
    result,
    counts: Optional[List[int]] = None,
    stalled: Optional[List[int]] = None,
    layout=None,
) -> List[Check]:
    """Evaluate the counter identities an
    :class:`~repro.core.experiment.ExperimentResult` must satisfy.

    ``counts``/``stalled``/``layout`` — the raw histogram banks and the
    control-store map — are optional; when provided, a failing cycle
    identity is localized to the micro-routine whose buckets hold the
    unclassifiable cycles.
    """
    reduction = result.reduction
    events = result.events
    stats = result.stats

    matrix_total = sum(
        cycles for columns in reduction.matrix.values() for cycles in columns.values()
    )
    classified = Check.identity(
        "cycles.classified",
        "every counted cycle classifies into a Table 8 cell",
        lhs=matrix_total,
        rhs=reduction.total_cycles,
    )
    routine_total = sum(
        normal + stalled_cycles
        for normal, stalled_cycles in reduction.routine_cycles.values()
    )
    routines = Check.identity(
        "cycles.routines",
        "per-routine cycle totals sum to total cycles",
        lhs=routine_total,
        rhs=reduction.total_cycles,
    )
    if counts is not None and stalled is not None and layout is not None:
        detail = localize_unclassified(counts, stalled, layout)
        if detail:
            for check in (classified, routines):
                if not check.ok:
                    check.detail = detail
    decode = Check.identity(
        "instructions.decode_vs_events",
        "decode-dispatch executions equal instructions retired",
        lhs=reduction.instructions,
        rhs=events.instructions,
    )
    if not decode.ok:
        decode.detail = (
            "the monitor's decode-dispatch bucket and the event counter "
            "disagree; both gate on the same measurement interval, so one "
            "instrument miscounted"
        )
    return [
        classified,
        routines,
        decode,
        Check.identity(
            "instructions.opcodes",
            "instructions retired equal the per-opcode count sum",
            lhs=sum(events.opcode_counts.values()),
            rhs=events.instructions,
        ),
        Check.identity(
            "memory.read_miss_split",
            "cache read misses split exactly into I-stream + D-stream",
            lhs=stats.cache_i_read_misses + stats.cache_d_read_misses,
            rhs=stats.cache_read_misses,
        ),
        Check.identity(
            "memory.tb_miss_split",
            "TB misses split exactly into I-stream + D-stream",
            lhs=stats.tb_i_misses + stats.tb_d_misses,
            rhs=stats.tb_misses,
        ),
    ]


def localize_unclassified(
    counts: List[int], stalled: List[int], layout
) -> str:
    """Name the micro-routine responsible for unclassifiable cycles.

    Walks the histogram exactly like the reduction does and collects
    every bucket whose counts contribute to the cycle total but to no
    Table 8 column — stalled-bank entries at compute or IB-wait
    microinstructions, which no legitimate run produces.  Returns a
    human-readable verdict naming the worst offender (empty string when
    every cycle classifies).
    """
    from repro.ucode.microword import MicroSlot

    store = layout.store
    offenders: List[Tuple[int, int, str, str]] = []
    for address in store.used_addresses():
        stalled_count = stalled[address] if address < len(stalled) else 0
        if not stalled_count:
            continue
        routine, slot = store.lookup(address)
        if slot in (MicroSlot.READ, MicroSlot.WRITE):
            continue  # stall banks are legitimate at memory slots
        offenders.append((stalled_count, address, routine.name, slot.name))
    if not offenders:
        return ""
    offenders.sort(reverse=True)
    total = sum(entry[0] for entry in offenders)
    worst_count, address, routine_name, slot_name = offenders[0]
    return (
        "{} unclassifiable stalled cycles across {} bucket(s); worst: "
        "{} cycles at bucket {} — micro-routine {} ({} slot, which "
        "never stalls)".format(
            total, len(offenders), worst_count, address, routine_name, slot_name
        )
    )


# ---------------------------------------------------------------------------
# identities between a trace and the counters
# ---------------------------------------------------------------------------


def check_trace(source, whole_run_events, dropped: int = 0):
    """Identities between traced-event aggregates and event counters.

    ``source`` is anything :class:`repro.obs.query.TraceQuery` accepts;
    ``whole_run_events`` is the :class:`~repro.cpu.events.EventCounters`
    sum over the *entire* run (boot + warmup + measurement + Null
    process), because the tracer is attached from machine construction
    and never gates.  Returns ``(checks, skipped)``; all three
    identities are skipped when the ring dropped events — counts over a
    truncated window prove nothing.
    """
    from repro.obs.query import TraceQuery

    if dropped:
        reason = "trace ring dropped {} events; aggregates not exact".format(dropped)
        return [], {
            "trace.instructions": reason,
            "trace.page_faults": reason,
            "trace.interrupts": reason,
        }
    query = TraceQuery(source)
    return [
        Check.identity(
            "trace.instructions",
            "closed EBOX instruction spans equal instructions retired",
            lhs=query.where(track="EBOX", phase="E").count(),
            rhs=whole_run_events.instructions,
        ),
        Check.identity(
            "trace.page_faults",
            "traced page-fault instants equal the page-fault counter",
            lhs=query.where(track="VMS", name="page fault").count(),
            rhs=whole_run_events.page_faults,
        ),
        Check.identity(
            "trace.interrupts",
            "traced interrupt spans equal interrupts delivered",
            lhs=query.where(track="VMS", name="interrupt", phase="B").count(),
            rhs=whole_run_events.interrupts_delivered,
        ),
    ], {}


# ---------------------------------------------------------------------------
# run-and-check (what `repro check` executes per workload)
# ---------------------------------------------------------------------------


def run_checked_workload(
    profile_name: str,
    instructions: int = 30_000,
    warmup_instructions: int = 3_000,
    trace: bool = False,
    tracer_capacity: int = 1_048_576,
    seed_offset: int = 0,
    process_count: Optional[int] = None,
):
    """Run one workload exactly like
    :func:`~repro.core.experiment.run_workload` and check every
    identity against it.

    Returns ``(report, result)``.  The orchestration is inlined (not a
    call to ``run_workload``) for two reasons: the histogram must be
    dumped exactly once — the ``monitor.dump`` fault site corrupts the
    *readout*, and checking a second, clean readout would hide the
    corruption the checker is supposed to catch — and the whole-run
    event totals need the pre-measurement counter object that
    ``start_measurement`` swaps out.
    """
    from repro.core.experiment import (
        ExperimentResult,
        MachineStats,
        prepare_workload,
    )
    from repro.core.reduction import reduce_histogram
    from repro.cpu.events import EventCounters
    from repro.obs.trace import Tracer

    tracer = Tracer(capacity=tracer_capacity) if trace else None
    kernel, monitor = prepare_workload(
        profile_name,
        process_count=process_count,
        seed_offset=seed_offset,
        tracer=tracer,
    )
    machine = kernel.machine
    kernel.run(max_instructions=warmup_instructions)
    baseline = MachineStats.from_machine(machine)
    pre_events = machine.events  # start_measurement swaps in a fresh set
    kernel.start_measurement()
    kernel.run(max_instructions=instructions)
    kernel.stop_measurement()

    counts, stalled = monitor.board.dump()  # the one (faultable) readout
    reduction = reduce_histogram(
        counts, stalled, machine.layout, events=machine.events
    )
    stats = MachineStats.from_machine(machine).minus(baseline)
    result = ExperimentResult(
        name=profile_name, reduction=reduction, events=machine.events, stats=stats
    )

    report = CheckReport(name=profile_name)
    report.checks.extend(
        check_result(result, counts=counts, stalled=stalled, layout=machine.layout)
    )
    if tracer is not None:
        whole_run = EventCounters()
        whole_run.merge_from(pre_events)
        whole_run.merge_from(machine.events)
        whole_run.merge_from(kernel.null_events)
        trace_checks, trace_skipped = check_trace(
            tracer, whole_run, dropped=tracer.dropped
        )
        report.checks.extend(trace_checks)
        report.skipped.update(trace_skipped)
    return report, result
