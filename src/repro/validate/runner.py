"""Execute probes through the real engine and diff against ground truth.

The :class:`RefutationRunner` runs each :class:`~repro.validate.probes.Probe`
through the normal machine/monitor path — the same
:class:`~repro.core.monitor.UPCMonitor` strobe, the same
:func:`~repro.core.reduction.reduce_histogram` — in both compile modes
(interpreted and compiled), checks the probe's expectations against the
first arm, asserts the other arms serialize (``result_to_json``, the
form the compile differential and the golden digests compare) to the
same document, and re-runs once traced so
:class:`repro.obs.query.TraceQuery` aggregates can be diffed against
the counters too.

Every expectation and derived check becomes a
:class:`repro.obs.invariants.Check` in one
:class:`~repro.obs.invariants.CheckReport` per probe — the records
``repro check`` reports in, so both commands share one JSON shape and
one text renderer.  An :class:`~repro.validate.probes.Expectation`
stays the probe's ground truth: its ``describe()`` is the check's
``expected`` and its ``check()`` the verdict.

On a violated expectation the failure carries blame: the expectation's
own micro-routine when it names one, plus the
:func:`repro.obs.invariants.localize_unclassified` stalled-bank walk
whenever the readout holds cycles no legitimate run produces — the
same localization ``repro check`` uses.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs.invariants import Check, CheckReport, localize_unclassified
from repro.validate.probes import Probe, build_probes

#: Mode name -> environment overrides (None = ensure unset).  ``current``
#: runs under whatever the caller's environment already says — the CI
#: legs use it to validate under an externally pinned mode.
MODES: Dict[str, Dict[str, Optional[str]]] = {
    "interpreted": {"REPRO_NO_COMPILE": "1"},
    "compiled": {"REPRO_NO_COMPILE": None},
    "current": {},
}

ALL_MODES = ("interpreted", "compiled")


class ValidationError(Exception):
    """A probe run could not be executed as specified."""


@contextmanager
def _mode_env(mode: str):
    overrides = MODES[mode]
    saved = {name: os.environ.get(name) for name in overrides}
    try:
        for name, value in overrides.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass
class ProbeRun:
    """The raw observables of one probe execution in one mode."""

    mode: str
    reduction: object
    events: object
    stats: object
    counts: list
    stalled: list
    layout: object
    halted: bool

    def metric(self, path: str) -> float:
        return resolve_metric(path, self.reduction, self.events, self.stats)


def resolve_metric(path: str, reduction, events, stats) -> float:
    """Map an expectation's metric path onto the run's instruments.

    ``instructions`` / ``cycles`` — the reduction totals;
    ``matrix.<row>.<column>`` — one Table 8 cell;
    ``routine.<name>.cycles|stalled`` — per-micro-routine totals;
    ``spec.<class>.<row>`` / ``indexed.<class>`` — specifier tallies;
    ``stats.<field>`` / ``events.<field>`` — hardware-side statistics
    and companion counters.
    """
    if path == "instructions":
        return reduction.instructions
    if path == "cycles":
        return reduction.total_cycles
    parts = path.split(".")
    kind = parts[0]
    if kind == "matrix" and len(parts) == 3:
        return reduction.matrix[parts[1]][parts[2]]
    if kind == "routine" and len(parts) >= 3:
        which = parts[-1]
        name = ".".join(parts[1:-1])
        normal, stalled = reduction.routine_cycles.get(name, (0, 0))
        if which == "cycles":
            return normal
        if which == "stalled":
            return stalled
    if kind == "spec" and len(parts) == 3:
        return events.specifier_counts.get((parts[1], parts[2]), 0)
    if kind == "indexed" and len(parts) == 2:
        return events.indexed_specifiers.get(parts[1], 0)
    if kind == "stats" and len(parts) == 2 and hasattr(stats, parts[1]):
        return getattr(stats, parts[1])
    if kind == "events" and len(parts) == 2 and hasattr(events, parts[1]):
        return getattr(events, parts[1])
    raise ValidationError("unknown expectation metric {!r}".format(path))


def execute_probe(probe: Probe, mode: str, tracer=None) -> ProbeRun:
    """One bare-machine run of ``probe`` under ``mode``'s environment.

    The monitor covers the entire program (no warmup window): a probe's
    ground truth is stated for the whole run.
    """
    from repro.core.experiment import MachineStats
    from repro.core.monitor import UPCMonitor
    from repro.core.reduction import reduce_histogram
    from repro.cpu import VAX780
    from repro.cpu.machine import InterruptRequest

    with _mode_env(mode):
        asm = probe.build()
        image = asm.assemble()
        machine = VAX780(monitor=UPCMonitor.build())
        if tracer is not None:
            machine.attach_tracer(tracer)
        machine.load_program(image, asm.origin)
        for base, length in probe.map_ranges:
            machine.map_range(base, length)
        if probe.interrupt_label:
            machine.interrupts.post(
                InterruptRequest(
                    ipl=probe.interrupt_ipl,
                    vector_va=asm.symbols[probe.interrupt_label],
                )
            )
        machine.monitor.start()
        machine.run(max_instructions=probe.max_instructions)
        machine.monitor.stop()
        counts, stalled = machine.monitor.board.dump()
        reduction = reduce_histogram(
            counts, stalled, machine.layout, events=machine.events
        )
        stats = MachineStats.from_machine(machine)
        return ProbeRun(
            mode=mode,
            reduction=reduction,
            events=machine.events,
            stats=stats,
            counts=counts,
            stalled=stalled,
            layout=machine.layout,
            halted=machine.ebox.halted,
        )


def _decoded_result(probe: Probe, run: ProbeRun) -> dict:
    from repro.core.experiment import ExperimentResult
    from repro.core.histogram_io import result_to_json

    return json.loads(
        result_to_json(
            ExperimentResult(probe.name, run.reduction, run.events, run.stats)
        )
    )


def _first_divergence(a: dict, b: dict, prefix: str = "") -> str:
    """Name the first leaf where two decoded results disagree."""
    for key in sorted(set(a) | set(b)):
        path = "{}.{}".format(prefix, key) if prefix else str(key)
        left, right = a.get(key), b.get(key)
        if isinstance(left, dict) and isinstance(right, dict):
            nested = _first_divergence(left, right, path)
            if nested:
                return nested
            continue
        if left != right:
            return "{}: {!r} != {!r}".format(path, left, right)
    return ""


class RefutationRunner:
    """Run probes, diff against expectations, localize blame."""

    def __init__(
        self,
        modes: Sequence[str] = ALL_MODES,
        trace: bool = True,
        tracer_capacity: int = 1 << 20,
    ):
        unknown = [mode for mode in modes if mode not in MODES]
        if unknown:
            raise ValidationError(
                "unknown mode(s) {} (know {})".format(
                    ", ".join(unknown), ", ".join(MODES)
                )
            )
        self.modes = tuple(modes)
        self.trace = trace
        self.tracer_capacity = tracer_capacity

    def run_probe(self, probe: Probe) -> CheckReport:
        report = CheckReport(
            name=probe.name,
            title=probe.title,
            covers=probe.covers,
            canonical=probe.canonical,
            modes=self.modes,
        )
        runs = [execute_probe(probe, mode) for mode in self.modes]
        anchor = runs[0]

        report.checks.append(
            Check(
                "run.halted",
                expected="== True",
                actual=float(anchor.halted),
                ok=anchor.halted,
                mode=anchor.mode,
                detail="" if anchor.halted else (
                    "the probe hit its {}-instruction budget without "
                    "halting".format(probe.max_instructions)
                ),
            )
        )

        localization = None
        for expectation in probe.expectations:
            actual = anchor.metric(expectation.metric)
            check = Check(
                expectation.metric,
                expected=expectation.describe(),
                actual=actual,
                ok=expectation.check(actual),
                mode=anchor.mode,
                blame=expectation.blame or _blame_from_metric(expectation.metric),
            )
            if not check.ok:
                if localization is None:
                    localization = localize_unclassified(
                        anchor.counts, anchor.stalled, anchor.layout
                    )
                check.detail = localization
            report.checks.append(check)

        # The modes are contractually bit-identical; checking the
        # anchor and pinning the other arms to it checks everything.
        # The arms are compared in the serialization the compile
        # differential and the golden digests use.
        anchor_result = _decoded_result(probe, anchor)
        for run in runs[1:]:
            divergence = _first_divergence(anchor_result, _decoded_result(probe, run))
            report.checks.append(
                Check(
                    "crossmode.{}".format(run.mode),
                    expected="bit-identical to the {} arm".format(anchor.mode),
                    actual=float(not divergence),
                    ok=not divergence,
                    mode=run.mode,
                    blame="" if not divergence else "compile",
                    detail=divergence,
                )
            )

        if self.trace:
            self._check_trace(probe, report)
        return report

    def _check_trace(self, probe: Probe, report: CheckReport) -> None:
        """Diff trace aggregates against the counters: traced EBOX
        instruction spans and UCODE specifier spans must equal what the
        monitor counted.  A tracer forces the interpreted path, so the
        traced arm is its own run."""
        from repro.obs.query import TraceQuery
        from repro.obs.trace import Tracer

        tracer = Tracer(capacity=self.tracer_capacity)
        run = execute_probe(probe, "interpreted", tracer=tracer)
        if tracer.dropped:
            reason = "trace ring dropped {} events; aggregates not exact".format(
                tracer.dropped
            )
            report.skipped["trace.instruction_spans"] = reason
            report.skipped["trace.specifier_spans"] = reason
            return
        query = TraceQuery(tracer)
        spans = query.where(track="EBOX", phase="E").count()
        retired = run.events.instructions
        report.checks.append(
            Check(
                "trace.instruction_spans",
                expected="== {} (instructions retired)".format(retired),
                actual=spans,
                ok=spans == retired,
                mode="traced",
                blame="obs.trace",
            )
        )
        spec_spans = query.where(
            track="UCODE", phase="B", name_in=("spec1", "spec26")
        ).count()
        spec_total = sum(run.events.specifier_counts.values())
        report.checks.append(
            Check(
                "trace.specifier_spans",
                expected="== {} (specifiers processed)".format(spec_total),
                actual=spec_spans,
                ok=spec_spans == spec_total,
                mode="traced",
                blame="obs.trace",
            )
        )

    def run(self, names: Optional[Sequence[str]] = None) -> List[CheckReport]:
        probes = build_probes()
        if names is None:
            names = list(probes)
        missing = [name for name in names if name not in probes]
        if missing:
            raise ValidationError(
                "unknown probe(s): {} (know {})".format(
                    ", ".join(missing), ", ".join(probes)
                )
            )
        return [self.run_probe(probes[name]) for name in names]


def _blame_from_metric(metric: str) -> str:
    parts = metric.split(".")
    if parts[0] == "routine":
        return ".".join(parts[1:-1])
    if parts[0] == "matrix":
        return parts[1]
    if parts[0] == "stats":
        return "memory"
    if parts[0] in ("spec", "indexed"):
        return "cpu.events"
    return ""
