"""Differential fault-tolerance tests: recovery must be bit-identical.

The engine's whole fault-tolerance story rests on determinism — a
recomputed spec or shard produces exactly the bytes the lost one would
have.  These tests disturb real runs three ways (worker death, on-disk
cache corruption, snapshot-restore failure) and assert the recovered
output equals the undisturbed golden run bit for bit, with the healing
visible in the manifest and metrics.
"""

import os

import pytest

from repro.core.cache_resolution import shard_cache_keys
from repro.core.executor import RunSpec, shard_boundaries
from repro.core.scheduler import execute_spec_sharded, run_specs
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.runcache import RunCache
from repro.obs.metrics import MetricsRegistry, resilience_counters
from repro.testing import faults
from repro.testing.faults import FaultPlan, FaultRule

SMALL = dict(instructions=600, warmup_instructions=150)
SHARDS = 3

SPEC = RunSpec(workload="timesharing_light", **SMALL)
SPECS = [
    RunSpec(workload="timesharing_light", **SMALL),
    RunSpec(workload="scientific", **SMALL),
]


@pytest.fixture(autouse=True)
def disarmed():
    faults.uninstall()
    yield
    faults.uninstall()


def payload_of(run):
    return (run.histogram, run.result.stats, run.result.events)


def damage_object(cache, key, mode):
    """Corrupt a stored object on disk without touching its .sum."""
    path = cache._object_path(key)
    with open(path, "rb") as handle:
        data = handle.read()
    if mode == "truncate":
        data = data[: len(data) // 2]
    else:
        middle = len(data) // 2
        data = data[:middle] + bytes([data[middle] ^ 0x01]) + data[middle + 1 :]
    with open(path, "wb") as handle:
        handle.write(data)


def metered_policy():
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=3),
        metrics=resilience_counters(MetricsRegistry()),
    )


class TestSweepRecovery:
    def test_crash_and_raise_recover_bit_identical(self, tmp_path):
        golden = [payload_of(run) for run in run_specs(SPECS, jobs=2)]
        plan = FaultPlan(
            rules=[
                FaultRule(site="worker", action="crash", match="scientific", times=1),
                FaultRule(
                    site="worker", action="raise", match="timesharing", times=1
                ),
            ],
            state_dir=str(tmp_path / "faults"),
        )
        policy = metered_policy()
        with plan.active():
            disturbed = run_specs(SPECS, jobs=2, policy=policy)
        assert [payload_of(run) for run in disturbed] == golden
        counters = policy.metrics.snapshot()["counters"]
        assert counters["engine.retries"] >= 1
        assert counters["engine.pool_respawns"] >= 1
        assert counters["engine.spec_failures"] == 0


class TestShardedSelfHealing:
    def _cold_golden(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache"))
        golden = execute_spec_sharded(SPEC, shards=SHARDS, jobs=1, cache=cache)
        boundaries = shard_boundaries(SPEC.instructions, SHARDS)
        _, shard_keys, snapshot_keys = shard_cache_keys(SPEC, boundaries)
        return cache, golden, boundaries, shard_keys, snapshot_keys

    def test_corrupt_shard_and_snapshot_are_quarantined_and_recomputed(
        self, tmp_path
    ):
        cache, golden, boundaries, shard_keys, snapshot_keys = self._cold_golden(
            tmp_path
        )
        # rot both the middle shard's result and the snapshot the worker
        # path would resume it from
        damage_object(cache, shard_keys[1], "bitflip")
        damage_object(cache, snapshot_keys[boundaries[1]], "truncate")

        warm_cache = RunCache(cache.root)
        policy = metered_policy()
        recovered = execute_spec_sharded(
            SPEC, shards=SHARDS, jobs=1, cache=warm_cache, policy=policy
        )
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.quarantined_objects >= 2
        assert recovered.manifest.repaired_shards >= 1
        assert warm_cache.quarantined_objects() >= 2
        counters = policy.metrics.snapshot()["counters"]
        assert counters["engine.quarantined_objects"] >= 2
        assert counters["engine.repaired_shards"] >= 1
        # the recompute healed the store: a third run replays clean
        healed = execute_spec_sharded(
            SPEC, shards=SHARDS, jobs=1, cache=RunCache(cache.root)
        )
        assert payload_of(healed) == payload_of(golden)
        assert healed.manifest.quarantined_objects == 0
        assert healed.shards_from_cache == SHARDS

    def test_injected_snapshot_restore_failure_recovers(self, tmp_path):
        cache, golden, boundaries, shard_keys, snapshot_keys = self._cold_golden(
            tmp_path
        )
        # evict one finished shard so the warm run must restore a
        # snapshot — then make that restore fail once
        for suffix in ("", ".sum", ".json"):
            try:
                os.unlink(cache._object_path(shard_keys[1]) + suffix)
            except FileNotFoundError:
                pass
        plan = FaultPlan(
            rules=[FaultRule(site="snapshot.restore", action="raise", times=1)],
            state_dir=str(tmp_path / "faults"),
        )
        policy = metered_policy()
        with plan.active():
            recovered = execute_spec_sharded(
                SPEC, shards=SHARDS, jobs=1, cache=RunCache(cache.root), policy=policy
            )
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.repaired_shards >= 1

    def test_parallel_shard_workers_survive_injected_crash(self, tmp_path):
        cache, golden, boundaries, shard_keys, snapshot_keys = self._cold_golden(
            tmp_path
        )
        # evict two shard results; their snapshots are cached, so they
        # fan out to pool workers — where one task is shot dead
        for index in (1, 2):
            for suffix in ("", ".sum", ".json"):
                try:
                    os.unlink(cache._object_path(shard_keys[index]) + suffix)
                except FileNotFoundError:
                    pass
        plan = FaultPlan(
            rules=[FaultRule(site="shard.task", action="crash", times=1)],
            state_dir=str(tmp_path / "faults"),
        )
        policy = metered_policy()
        with plan.active():
            recovered = execute_spec_sharded(
                SPEC, shards=SHARDS, jobs=2, cache=RunCache(cache.root), policy=policy
            )
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.repaired_shards >= 1
