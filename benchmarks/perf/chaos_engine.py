#!/usr/bin/env python3
"""Chaos gate: the engine must survive injected faults bit-identically.

Runs the composite workload twice under a deterministic, deliberately
hostile :class:`~repro.testing.faults.FaultPlan` and asserts the results
equal fault-free golden digests:

* **Sweep chaos** — the five-workload composite with one worker shot
  dead mid-spec, one spec raising on its first attempt, and one spec
  hanging past its wall-clock budget.  The resilience policy (retries +
  timeout + pool respawn) must recover every spec and the composite
  must match the undisturbed run bit for bit.
* **Cache chaos** — a sharded run whose cache writes are corrupted on
  disk as they land (seeded coin-flip per object).  The next run must
  quarantine every rotten object, recompute, and still merge to the
  golden histogram; a third run must replay the healed store clean.

Everything is deterministic: the same plan injects the same faults every
time, so a failure here is a regression, not flake.

Run:  PYTHONPATH=src python benchmarks/perf/chaos_engine.py
"""

import sys
import tempfile

INSTRUCTIONS = 600
WARMUP = 150
SHARDS = 4
SHARD_WORKLOAD = "educational"


def _equal(result_a, result_b):
    from repro.core.histogram_io import result_to_json

    return result_to_json(result_a) == result_to_json(result_b)


def _composite_specs():
    from repro.core.executor import RunSpec
    from repro.workloads import COMPOSITE_WORKLOAD_NAMES

    return [
        RunSpec(
            workload=name, instructions=INSTRUCTIONS, warmup_instructions=WARMUP
        )
        for name in COMPOSITE_WORKLOAD_NAMES
    ]


def sweep_chaos(state_dir):
    from repro.core.scheduler import run_specs
    from repro.core.experiment import composite
    from repro.core.resilience import ResiliencePolicy, RetryPolicy
    from repro.obs.metrics import MetricsRegistry, resilience_counters
    from repro.testing.faults import FaultPlan, FaultRule

    specs = _composite_specs()
    golden_runs = run_specs(specs, jobs=1)
    golden = composite([run.result for run in golden_runs])

    plan = FaultPlan(
        rules=[
            FaultRule(site="worker", action="crash", match="scientific", times=1),
            FaultRule(site="worker", action="raise", match="commercial", times=1),
            FaultRule(
                site="worker",
                action="hang",
                match="educational",
                times=1,
                seconds=6.0,
            ),
        ],
        state_dir=state_dir,
    )
    policy = ResiliencePolicy(
        retry=RetryPolicy(max_attempts=4),
        spec_timeout=1.5,
        metrics=resilience_counters(MetricsRegistry()),
    )
    with plan.active():
        disturbed_runs = run_specs(specs, jobs=4, policy=policy)
    disturbed = composite([run.result for run in disturbed_runs])

    if not _equal(disturbed, golden):
        print("FAIL: chaos composite differs from golden", file=sys.stderr)
        return None
    if [r.histogram for r in disturbed_runs] != [r.histogram for r in golden_runs]:
        print("FAIL: chaos per-workload histograms differ", file=sys.stderr)
        return None
    counters = policy.metrics.snapshot()["counters"]
    if counters["engine.retries"] < 1 or counters["engine.pool_respawns"] < 1:
        print(
            "FAIL: chaos plan did not actually disturb the sweep "
            "(retries={}, respawns={})".format(
                counters["engine.retries"], counters["engine.pool_respawns"]
            ),
            file=sys.stderr,
        )
        return None
    return {
        "retries": counters["engine.retries"],
        "timeouts": counters["engine.spec_timeouts"],
        "pool_respawns": counters["engine.pool_respawns"],
    }


def cache_chaos(state_dir, cache_root):
    from repro.core.executor import RunSpec, execute_spec
    from repro.core.scheduler import execute_spec_sharded
    from repro.core.resilience import ResiliencePolicy
    from repro.core.runcache import RunCache
    from repro.obs.metrics import MetricsRegistry, resilience_counters
    from repro.testing.faults import FaultPlan, FaultRule

    spec = RunSpec(
        workload=SHARD_WORKLOAD,
        instructions=INSTRUCTIONS,
        warmup_instructions=WARMUP,
    )
    golden = execute_spec(spec)

    # Cold run with bit rot injected at write time: a seeded coin-flip
    # corrupts roughly half the stored objects on disk.
    rot_plan = FaultPlan(
        rules=[
            FaultRule(
                site="cache.stored", action="bitflip", times=1, probability=0.5
            )
        ],
        seed=11,
        state_dir=state_dir,
    )
    with rot_plan.active():
        cold = execute_spec_sharded(
            spec, shards=SHARDS, cache=RunCache(cache_root)
        )
    if cold.histogram != golden.histogram or not _equal(cold.result, golden.result):
        print("FAIL: cold sharded run differs from golden", file=sys.stderr)
        return None

    # Warm run against the rotten store: quarantine + recompute must
    # reproduce the golden result exactly.
    policy = ResiliencePolicy(metrics=resilience_counters(MetricsRegistry()))
    warm_cache = RunCache(cache_root)
    warm = execute_spec_sharded(
        spec, shards=SHARDS, cache=warm_cache, policy=policy
    )
    if warm.histogram != golden.histogram or not _equal(warm.result, golden.result):
        print("FAIL: self-healed run differs from golden", file=sys.stderr)
        return None
    quarantined = warm.manifest.quarantined_objects
    if quarantined < 1:
        print(
            "FAIL: rot plan corrupted nothing — the chaos gate is not "
            "exercising quarantine",
            file=sys.stderr,
        )
        return None

    # Healed store: a third run must replay everything clean.
    healed = execute_spec_sharded(spec, shards=SHARDS, cache=RunCache(cache_root))
    if healed.histogram != golden.histogram:
        print("FAIL: healed cache replay differs from golden", file=sys.stderr)
        return None
    if healed.manifest.quarantined_objects != 0:
        print("FAIL: healed cache still quarantining", file=sys.stderr)
        return None
    return {
        "quarantined": quarantined,
        "repaired_shards": warm.manifest.repaired_shards,
        "healed_shards_from_cache": healed.shards_from_cache,
    }


def main():
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        sweep_report = sweep_chaos(scratch + "/sweep-faults")
        if sweep_report is None:
            return 1
        cache_report = cache_chaos(scratch + "/cache-faults", scratch + "/cache")
        if cache_report is None:
            return 1
    print(
        "chaos OK: composite bit-identical under crash+raise+hang "
        "({retries} retries, {timeouts} timeouts, {pool_respawns} pool "
        "respawns)".format(**sweep_report)
    )
    print(
        "chaos OK: sharded run bit-identical under write-time bit rot "
        "({quarantined} quarantined, {repaired_shards} repaired, healed "
        "replay {healed_shards_from_cache}/{shards} from cache)".format(
            shards=SHARDS, **cache_report
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
