#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` (the parent commit) and ``B.json`` (the change) are the run
lists ``run.py --out`` appends to.  One row per workload and metric
shows each side's median and quartiles: across runs when a side has
several, otherwise within its one run.  Verdicts, for metrics with a
bound (the end-to-end ones):

``worse``       B's median is worse than A's by more than the bound.
``unresolved``  not worse, but a side's spread (quartile distance over
                median) is wider than the bound, and not every B run
                reads better than every A run.
``gain``        the pair rule below holds.
``same``        none of the above.

The pair rule for claiming a gain: run at least 10 pairs, alternating
which side runs first (pair 1 runs A then B, pair 2 B then A, ...),
each pair with its own seed.  B gains on a metric only when it wins at
least 9/10 of all pairs (ties count for neither side), its median
differs from A's by more than A's own quartile distance, and B failed
no more operations than A.  Pairs are matched by position in the two
lists; the table says whether their seeds match and their order
alternates.

The exit code is 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import json
import sys

import summary

PAIRS_NEEDED = 10
WIN_SHARE = 0.9


def side(runs, workload, metric):
    """``(values, (q1, median, q3))`` of one metric on one side."""
    entries = [run["workloads"][workload]["metrics"][metric] for run in runs
               if metric in run["workloads"].get(workload, {}).get("metrics", {})]
    values = [entry["value"] for entry in entries]
    if len(values) >= 2:
        return values, summary.quartiles(values)
    entry = entries[0]
    return values, (entry.get("q1", entry["value"]), entry["value"],
                    entry.get("q3", entry["value"]))


def failures(runs) -> int:
    return sum(report["failed"] for run in runs for report in run["workloads"].values())


def pair_info(a_runs, b_runs):
    """``(pairs, seeds match, order alternates)`` for positional pairs."""
    pairs = list(zip(a_runs, b_runs))
    seeds = all(a["seed"] == b["seed"] for a, b in pairs)
    firsts = [a["started_at"] < b["started_at"] for a, b in pairs]
    alternates = all(x != y for x, y in zip(firsts, firsts[1:]))
    return pairs, seeds, alternates


def verdict(metric: dict, a_values, a_q, b_values, b_q, gain_allowed: bool) -> str:
    """One row's verdict (``-`` for metrics without a bound)."""
    bound = metric.get("bound")
    better = metric["better"]
    if bound is None:
        return "-"
    moved = summary.worse_by(a_q[1], b_q[1], better)
    if moved > bound:
        return "worse"
    spreads = [(q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (a_q, b_q)]
    all_better = all(summary.worse_by(a, b, better) < 0 for a in a_values for b in b_values)
    if max(spreads) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(a_values, b_values))
    won = sum(summary.worse_by(a, b, better) < 0 for a, b in pairs)
    if gain_allowed and won >= WIN_SHARE * len(pairs) and -moved * abs(a_q[1]) > a_q[2] - a_q[0]:
        return "gain"
    return "same"


def wins(metric: dict, a_values, b_values) -> str:
    """``won/pairs`` for B, ties counting for neither side."""
    pairs = list(zip(a_values, b_values))
    won = sum(summary.worse_by(a, b, metric["better"]) < 0 for a, b in pairs)
    return "{}/{}".format(won, len(pairs))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a_runs = json.load(handle)
    with open(argv[1]) as handle:
        b_runs = json.load(handle)
    pairs, seeds_match, alternates = pair_info(a_runs, b_runs)
    pair_ok = len(pairs) >= PAIRS_NEEDED and seeds_match and alternates
    gain_allowed = pair_ok and failures(b_runs) <= failures(a_runs)

    header = "{:<15} {:<34} {:<12} {:>30} {:>30} {:>8} {:>6} {:<10} {}".format(
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict", "wins")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload, report in a_runs[0]["workloads"].items():
        for name, metric in report["metrics"].items():
            if name not in b_runs[0]["workloads"].get(workload, {}).get("metrics", {}):
                print("{:<15} {:<34} missing from B".format(workload, name))
                continue
            a_values, a_q = side(a_runs, workload, name)
            b_values, b_q = side(b_runs, workload, name)
            label = verdict(metric, a_values, a_q, b_values, b_q, gain_allowed)
            worse += label == "worse"
            change = (b_q[1] - a_q[1]) / abs(a_q[1]) if a_q[1] else 0.0
            bound = metric.get("bound")
            print("{:<15} {:<34} {:<12} {:>30} {:>30} {:>+7.1%} {:>6} {:<10} {}".format(
                workload, name, metric["unit"],
                "{:.5g} [{:.5g}, {:.5g}]".format(a_q[1], a_q[0], a_q[2]),
                "{:.5g} [{:.5g}, {:.5g}]".format(b_q[1], b_q[0], b_q[2]),
                change, "" if bound is None else "{:.0%}".format(bound), label,
                wins(metric, a_values, b_values) if pair_ok else ""))
    print()
    print("runs: A {}, B {}; pairs {} (seeds match: {}, order alternates: {}); "
          "failed operations: A {}, B {}".format(
              len(a_runs), len(b_runs), len(pairs), "yes" if seeds_match else "no",
              "yes" if alternates else "no", failures(a_runs), failures(b_runs)))
    if not pair_ok:
        print("no gain can be claimed: the pair rule needs {} alternating pairs "
              "with matching seeds".format(PAIRS_NEEDED))
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main())
