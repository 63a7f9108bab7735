#!/usr/bin/env python3
"""End-to-end benchmark: the Tables 1-9 report, long simulations,
ablation sweeps and the experiment service, timed as users see them.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
                                  [--seconds T] [--trace [0|1]] [--out F]

Each workload (default: all four, see ``workloads.py``) runs in a child
process of its own and repeats its unit for ``--seconds``.  The seed
reaches the program only as ``seed_offset``; no ``REPRO_*`` variable is
set except ``REPRO_CACHE_DIR``, pointed at a scratch directory inside
the checkout.  Every end-to-end metric prints by name with its unit,
median, quartiles and sample count; with ``--trace 1`` a separate traced
pass prints the per-layer ledger instead.  Outputs are checked (see
``workloads.py``), and at the default seed each workload's result digest
must equal the one pinned in ``golden.json``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``; names are
prefixed ``<workload>/`` when more than one workload ran).  ``--out F``
appends the full report to the JSON list in ``F`` for ``compare.py``.
The exit code is 0 when every output checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import layers
import summary
from workloads import HERE, ROOT, SRC, WORKLOADS, child_env

#: The end-to-end metrics: (name, unit, better, bound).  ``bound`` is
#: the share of the parent's median by which a metric may get worse.
#: Ten runs on a shared 2-CPU host spread by up to 0.3 (quartile
#: distance over median) on host-time metrics, so those take the
#: largest bound allowed; peak RSS spreads by up to 0.06.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_q1_ms", "ms", "lower", 0.25),
    ("sim_ips", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

#: Which sample list feeds each metric, and which order statistic of
#: it is the metric's value.  Host interference on a shared machine
#: only ever slows work down, in episodes seconds long that can cover
#: half a run, so a run's median time swings with how much of it the
#: episodes hit.  The lower quartile of times (upper quartile of
#: throughputs) stays with the undisturbed cost.  Set-up is the median
#: of the run's set-ups.
STATISTIC = {
    "setup_s": ("setup_s", "median"),
    "op_q1_ms": ("op_ms", "q1"),
    "sim_ips": ("sim_ips", "q3"),
    "peak_rss_mb": ("peak_rss_mb", "median"),
}

#: What one operation of each workload is (``op_q1_ms``).
OPERATIONS = {
    "tables-cold": "spawn to Tables 1-9 printed, one fresh interpreter",
    "steady-sim": "spawn to both measured spans done, one fresh process",
    "ablation-sweep": "spawn to eight sweep results in hand, one fresh interpreter",
    "service-replay": "hot round: submit 8 executed specs, wait, fetch all 8",
}

DETAIL_UNITS = {"report_s": "s"}

GOLDEN = os.path.join(HERE, "golden.json")

#: A workload child that has not finished in this long has hung.
CHILD_TIMEOUT_S = 175

#: Layers whose share of ``service-replay`` must reach
#: :data:`PIPELINE_MIN_SHARE` and of ``steady-sim`` stay under
#: :data:`PIPELINE_MAX_SHARE`.
PIPELINE_LAYERS = ("runcache", "snapshot", "service", "scheduler")
PIPELINE_MIN_SHARE = 0.3
PIPELINE_MAX_SHARE = 0.02

#: ``(layer, workload, other)``: the layer's share must be higher on
#: the workload than on the other one.
SHARE_PAIRS = (
    ("memory", "ablation-sweep", "steady-sim"),
    ("compile", "steady-sim", "tables-cold"),
)


def run_child(name: str, args, tmp: str) -> dict:
    """Run one workload child; returns its record."""
    command = [sys.executable, os.path.join(HERE, "workloads.py"), name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--tmp", tmp]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT, env=child_env(tmp),
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1,
                "errors": ["{} ran past {} s".format(name, CHILD_TIMEOUT_S)]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"attempted": 1, "failed": 1,
                "errors": ["{} exited with {}".format(name, done.returncode)]}
    return json.loads(lines[-1])


def end_to_end(record: dict) -> dict:
    """The end-to-end metrics of one workload record."""
    samples = record["samples"]
    metrics = {}
    for name, unit, better, bound in END_TO_END:
        source, statistic = STATISTIC[name]
        described = summary.describe(samples[source])
        metrics[name] = {"value": described[statistic], "unit": unit, "better": better,
                         "bound": bound, "statistic": statistic, **described}
    return metrics


def details(record: dict, attempted: int, failed: int) -> dict:
    """Workload-specific samples printed beside the end-to-end metrics,
    and the error rate over every attempted operation."""
    described = {}
    for name, values in record.get("details", {}).items():
        if values:
            unit = DETAIL_UNITS.get(name, "ms")
            described[name] = {"unit": unit, **summary.describe(values)}
    rate = failed / max(1, attempted)
    described["error_rate"] = {"unit": "fraction", "median": rate, "q1": rate, "q3": rate,
                               "n": attempted}
    return described


def per_layer(record: dict) -> dict:
    values = record["layers"]
    return {name: {"value": values[name], "unit": unit, "better": better}
            for name, unit, better in layers.per_layer_metrics()}


def contrast(reports: dict) -> list:
    """What the traced workloads must show to be doing the work they
    were chosen for; returns the violations."""
    problems = []

    def share(workload, *names):
        return sum(reports[workload]["metrics"][name + ".share"]["value"] for name in names)

    for workload, report in reports.items():
        total = share(workload, *layers.LAYER_NAMES)
        if abs(total - 1.0) > 0.01:
            problems.append("{}: layer shares sum to {:.4f}".format(workload, total))
    if "service-replay" in reports:
        pipeline = share("service-replay", *PIPELINE_LAYERS)
        if pipeline < PIPELINE_MIN_SHARE:
            problems.append("service-replay: runcache+snapshot+service+scheduler share "
                            "{:.3f} < {}".format(pipeline, PIPELINE_MIN_SHARE))
    if "steady-sim" in reports:
        pipeline = share("steady-sim", *PIPELINE_LAYERS)
        if pipeline >= PIPELINE_MAX_SHARE:
            problems.append("steady-sim: runcache+snapshot+service+scheduler share "
                            "{:.3f} >= {}".format(pipeline, PIPELINE_MAX_SHARE))

    for layer, high, low in SHARE_PAIRS:
        if high in reports and low in reports and not share(high, layer) > share(low, layer):
            problems.append("{}.share on {} ({:.4f}) is not above {} ({:.4f})".format(
                layer, high, share(high, layer), low, share(low, layer)))
    return problems


ROW = "{:<15} {:<34} {:<12} {:>12} {:>12} {:>12} {:>12} {:>5}  {}"


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else "{:.6g}".format(value)


def _row(workload: str, name: str, unit: str, value, described: dict) -> str:
    """One table row; ``described`` holds quartiles, count and tail
    (empty for per-layer values)."""
    if not described:
        return ROW.format(workload, name, unit, _fmt(value), "", "", "", "", "")
    tail = described.get("tail")
    return ROW.format(
        workload, name, unit, _fmt(value), _fmt(described["q1"]), _fmt(described["median"]),
        _fmt(described["q3"]), described["n"],
        "" if tail is None else "{}={}".format(summary.tail_label(tail["p"]), _fmt(tail["value"])))


def print_report(reports: dict, trace: bool) -> None:
    header = ROW.format("workload", "metric", "unit", "value", "q1", "median", "q3", "n", "tail")
    print(header)
    print("-" * len(header))
    for workload, report in reports.items():
        for name, metric in report["metrics"].items():
            print(_row(workload, name, metric["unit"], metric["value"],
                       {} if trace else metric))
        for name, detail in report.get("details", {}).items():
            print(_row(workload, "  " + name, detail["unit"], detail["median"], detail))
        if not trace:
            print("{:<15}   op = {}".format("", OPERATIONS[workload]))
        for error in report["errors"]:
            print("{:<15}   FAILED: {}".format(workload, error))


def append_out(path: str, report: dict) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)
    runs.append(report)
    with open(path, "w") as handle:
        json.dump(runs, handle, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=None, help="append the full report to this JSON list")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("run.py: no repro sources at {}".format(SRC), file=sys.stderr)
        return 2
    with open(GOLDEN) as handle:
        golden = json.load(handle)

    started_at = time.time()
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch_root)
    reports = {}
    try:
        for name in names:
            record = run_child(name, args, tmp)
            report = {"attempted": record["attempted"], "failed": record["failed"],
                      "errors": list(record["errors"]), "digest": record.get("digest")}
            if args.seed == golden["seed"] and record.get("digest") is not None:
                report["attempted"] += 1
                pinned = golden["digests"].get(name)
                if record["digest"] != pinned:
                    report["failed"] += 1
                    report["errors"].append("result digest {} differs from the pinned {}".format(
                        record["digest"], pinned))
            if "layers" in record:
                report["metrics"] = per_layer(record)
            elif "samples" in record:
                report["metrics"] = end_to_end(record)
                report["details"] = details(record, report["attempted"], report["failed"])
            else:
                report["metrics"] = {}
            reports[name] = report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass

    complete = all(report["metrics"] for report in reports.values())
    problems = contrast(reports) if args.trace and complete else []
    attempted = sum(report["attempted"] for report in reports.values()) + len(problems)
    failed = sum(report["failed"] for report in reports.values()) + len(problems)
    correct = failed == 0 and complete

    print_report(reports, bool(args.trace))
    for problem in problems:
        print("CONTRAST CHECK FAILED: " + problem)
    if args.out:
        append_out(args.out, {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                              "started_at": started_at, "correct": correct,
                              "workloads": reports})
    prefix = len(names) > 1
    metrics = {
        ("{}/{}".format(workload, name) if prefix else name): {"value": metric["value"],
                                                               "unit": metric["unit"]}
        for workload, report in reports.items()
        for name, metric in report["metrics"].items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
