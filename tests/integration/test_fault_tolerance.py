"""Differential fault-tolerance tests: recovery must be bit-identical.

The engine's whole fault-tolerance story rests on determinism — a
recomputed spec or shard produces exactly the bytes the lost one would
have.  These tests disturb real runs four ways (worker death, on-disk
cache corruption, snapshot-restore failure, a fault mid-chain) and
assert the recovered output equals the undisturbed golden run bit for
bit, with the healing visible in the manifest and metrics.
"""

import hashlib
import operator
import os
import pickle
import zlib

import pytest

from repro.core.cache_resolution import (
    load_cached_run,
    load_cached_shard,
    load_cached_snapshot,
    run_cache_key,
    shard_cache_keys,
)
from repro.core.executor import RunSpec, execute_spec, shard_boundaries
from repro.core.scheduler import Scheduler, run_specs
from repro.core.resilience import ResiliencePolicy, RetryPolicy
from repro.core.runcache import CACHE_DIR_ENV, RunCache
from repro.core.snapshot import SNAPSHOT_VERSION, MachineSnapshot
from repro.obs.metrics import MetricsRegistry, resilience_counters
from repro.obs.provenance import config_hash
from repro.testing import faults
from repro.testing.faults import FaultPlan, FaultRule
from repro.workloads import codegen, profile_by_name

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


class _RaisesKeyErrorWhenUnpickled:
    def __reduce__(self):
        return operator.getitem, ({}, "field from another build")


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


def replace_object(cache, key, blob):
    """Swap the object under ``key`` for ``blob``, digest-valid."""
    for suffix in ("", ".sum", ".json"):
        try:
            os.unlink(cache._object_path(key) + suffix)
        except FileNotFoundError:
            pass
    cache.put(key, blob)


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
        golden = execute_spec(SPEC, shards=SHARDS, cache=cache)
        boundaries = shard_boundaries(SPEC.instructions, SHARDS)
        _, shard_keys, snapshot_keys = shard_cache_keys(SPEC, boundaries)
        return cache, golden, boundaries, shard_keys, snapshot_keys

    def test_corrupt_shard_and_snapshot_are_quarantined_and_recomputed(
        self, tmp_path
    ):
        cache, golden, boundaries, shard_keys, snapshot_keys = self._cold_golden(
            tmp_path
        )
        # rot both the middle shard's result and the snapshot a chain
        # would resume it from
        damage_object(cache, shard_keys[1], "bitflip")
        damage_object(cache, snapshot_keys[boundaries[1]], "truncate")

        warm_cache = RunCache(cache.root)
        policy = metered_policy()
        recovered = execute_spec(
            SPEC, shards=SHARDS, cache=warm_cache, policy=policy
        )
        assert payload_of(recovered) == payload_of(golden)
        # the first chain already resumes from the deepest healthy
        # snapshot, so healing needs no repair pass
        assert recovered.manifest.quarantined_objects >= 2
        assert recovered.manifest.repaired_shards == 0
        assert warm_cache.quarantined_objects() >= 2
        counters = policy.metrics.snapshot()["counters"]
        assert counters["engine.quarantined_objects"] >= 2
        assert counters["engine.repaired_shards"] == 0
        # the recompute healed the store: a third run replays clean
        healed = execute_spec(
            SPEC, shards=SHARDS, cache=RunCache(cache.root)
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
            recovered = execute_spec(
                SPEC, shards=SHARDS, cache=RunCache(cache.root), policy=policy
            )
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.quarantined_objects >= 1
        assert recovered.manifest.repaired_shards == 0

    def _plant_midpoint_snapshot(self, tmp_path, make_blob):
        """A cold 2-shard run, then shard 2/2's result evicted and the
        midpoint snapshot replaced by ``make_blob(original_snapshot)``:
        a warm run must restore that snapshot (or recover without it)."""
        cache = RunCache(str(tmp_path / "cache"))
        golden = execute_spec(SPEC, 2, cache=cache)
        boundaries = shard_boundaries(SPEC.instructions, 2)
        _, shard_keys, snapshot_keys = shard_cache_keys(SPEC, boundaries)
        key = snapshot_keys[boundaries[1]]
        original = MachineSnapshot.from_bytes(cache.get(key))
        for evicted in (shard_keys[1], key):
            for suffix in ("", ".sum", ".json"):
                os.unlink(cache._object_path(evicted) + suffix)
        cache.put(key, make_blob(original))
        return cache, golden, key

    def _assert_recomputed(self, cache, golden, key):
        recovered = execute_spec(SPEC, 2, cache=RunCache(cache.root))
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.quarantined_objects == 1
        # the recomputed boundary landed in the vacated slot
        rebuilt = MachineSnapshot.from_bytes(RunCache(cache.root).get(key))
        assert rebuilt.version == SNAPSHOT_VERSION

    def test_snapshot_raising_while_unpickled_is_quarantined(self, tmp_path):
        # A digest-valid snapshot whose pickle raises KeyError on load,
        # as a pickle from an incompatible build can: it must be
        # quarantined like any damage, not fail the chain and the repair
        # pass alike.
        def poisoned(original):
            raw = pickle.dumps(_RaisesKeyErrorWhenUnpickled())
            return MachineSnapshot(
                payload=zlib.compress(raw),
                digest=hashlib.sha256(raw).hexdigest(),
                meta=original.meta,
            ).to_bytes()

        self._assert_recomputed(*self._plant_midpoint_snapshot(tmp_path, poisoned))

    def test_version_1_snapshot_is_quarantined_and_recomputed(self, tmp_path):
        # A cache written before the snapshot format went to version 2.
        def version_1(original):
            return MachineSnapshot(
                payload=original.payload,
                digest=original.digest,
                meta=original.meta,
                version=1,
            ).to_bytes()

        self._assert_recomputed(*self._plant_midpoint_snapshot(tmp_path, version_1))

    def test_version_2_snapshot_is_quarantined_and_recomputed(self, tmp_path):
        # A cache written before the IB kept an event horizon: version 2
        # pickled an IB without ``_wake``, so restoring one would run a
        # machine whose prefetcher never fetches.  It must be refused,
        # counted as a miss and recomputed, never restored.
        def version_2(original):
            return MachineSnapshot(
                payload=original.payload,
                digest=original.digest,
                meta=original.meta,
                version=2,
            ).to_bytes()

        cache, golden, key = self._plant_midpoint_snapshot(tmp_path, version_2)
        reader = RunCache(cache.root)
        assert load_cached_snapshot(reader, key) == (None, None)
        assert (reader.misses, reader.hits, reader.quarantined) == (1, 0, 1)
        assert cache.get(key) is None  # moved aside, not left to restore
        recovered = execute_spec(SPEC, 2, cache=RunCache(cache.root))
        assert payload_of(recovered) == payload_of(golden)
        rebuilt = MachineSnapshot.from_bytes(RunCache(cache.root).get(key))
        assert rebuilt.version == SNAPSHOT_VERSION == 3

    def test_mid_chain_fault_is_filled_by_the_repair_pass(self, tmp_path):
        _, golden, _, _, _ = self._cold_golden(tmp_path)
        # shard 2/3 faults once: the first chain banks shard 1/3 and the
        # boundary snapshot, and the repair pass resumes from it
        plan = FaultPlan(
            rules=[
                FaultRule(site="shard.measure", action="raise", match="@200", times=1)
            ],
            state_dir=str(tmp_path / "faults"),
        )
        policy = metered_policy()
        with plan.active():
            recovered = execute_spec(
                SPEC, shards=SHARDS, cache=RunCache(str(tmp_path / "cold")),
                policy=policy,
            )
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.repaired_shards == 2
        assert policy.metrics.snapshot()["counters"]["engine.repaired_shards"] == 2

    def test_parallel_shard_workers_survive_injected_crash(self, tmp_path):
        # sharded specs are tasks of the executor's retry loop: a dead
        # worker respawns the pool and its spec is retried
        golden = [payload_of(run) for run in run_specs(SPECS)]
        plan = FaultPlan(
            rules=[FaultRule(site="worker", action="crash", match="scientific", times=1)],
            state_dir=str(tmp_path / "faults"),
        )
        policy = metered_policy()
        scheduler = Scheduler(
            jobs=2, shards=SHARDS, cache=RunCache(str(tmp_path / "cache"))
        )
        with plan.active():
            recovered = scheduler.run_specs(SPECS, policy=policy)
        assert [payload_of(run) for run in recovered] == golden
        assert all(run.shard_count == SHARDS for run in recovered)
        assert policy.metrics.snapshot()["counters"]["engine.pool_respawns"] >= 1


def _bad_blob(kind, bad):
    """A digest-valid entry for ``kind`` that must not be used: bytes
    that do not decode, or a pickle of the wrong type (for a snapshot,
    a well-framed snapshot whose pickled kernel is a dict)."""
    if bad == "undecodable":
        return b"bytes no decoder reads"
    raw = pickle.dumps({"foreign": kind})
    if kind != "snapshot":
        return raw
    return MachineSnapshot(
        payload=zlib.compress(raw), digest=hashlib.sha256(raw).hexdigest()
    ).to_bytes()


class TestForeignObjectsHeal:
    """Every banked kind goes through one typed load, so an entry that
    does not decode, or decodes to the wrong type, is quarantined once
    and recomputed bit-identically, whatever its kind."""

    def _shard(self, root, blob, monkeypatch):
        golden = execute_spec(SPEC, SHARDS, cache=RunCache(root))
        boundaries = shard_boundaries(SPEC.instructions, SHARDS)
        _, shard_keys, _ = shard_cache_keys(SPEC, boundaries)
        key = shard_keys[1]
        replace_object(RunCache(root), key, blob)
        recovered = execute_spec(SPEC, SHARDS, cache=RunCache(root))
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.quarantined_objects == 1
        return key, lambda cache: load_cached_shard(cache, key)

    def _snapshot(self, root, blob, monkeypatch):
        # shard 2/2 evicted, so the warm run must restore the midpoint
        golden = execute_spec(SPEC, 2, cache=RunCache(root))
        boundaries = shard_boundaries(SPEC.instructions, 2)
        _, shard_keys, snapshot_keys = shard_cache_keys(SPEC, boundaries)
        key = snapshot_keys[boundaries[1]]
        for suffix in ("", ".sum", ".json"):
            os.unlink(RunCache(root)._object_path(shard_keys[1]) + suffix)
        replace_object(RunCache(root), key, blob)
        recovered = execute_spec(SPEC, 2, cache=RunCache(root))
        assert payload_of(recovered) == payload_of(golden)
        assert recovered.manifest.quarantined_objects == 1
        return key, lambda cache: load_cached_snapshot(cache, key)[0]

    def _run(self, root, blob, monkeypatch):
        golden = Scheduler(cache=RunCache(root), run_resolution=True).run_specs([SPEC])
        digest = config_hash(SPEC)
        key = run_cache_key(digest)
        replace_object(RunCache(root), key, blob)
        metrics = MetricsRegistry()
        recovered = Scheduler(
            cache=RunCache(root), run_resolution=True, metrics=metrics
        ).run_specs([SPEC])
        assert [payload_of(run) for run in recovered] == [
            payload_of(run) for run in golden
        ]
        assert metrics.snapshot()["counters"]["scheduler.specs.executed"] == 1
        return key, lambda cache: load_cached_run(cache, digest)

    def _program(self, root, blob, monkeypatch):
        profile = profile_by_name("educational")
        monkeypatch.setenv(CACHE_DIR_ENV, root)
        monkeypatch.setattr(codegen, "_PROGRAM_CACHE", {})
        fresh = codegen.generate_program(profile, 0)
        (entry,) = RunCache(root).entries()
        replace_object(RunCache(root), entry.key, blob)
        monkeypatch.setattr(codegen, "_PROGRAM_CACHE", {})
        assert codegen.generate_program(profile, 0) == fresh
        return entry.key, lambda cache: cache.load(
            entry.key, codegen.GeneratedProgram
        )

    @pytest.mark.parametrize("bad", ["wrong-type", "undecodable"])
    @pytest.mark.parametrize("kind", ["shard", "snapshot", "run", "program"])
    def test_bad_entry_is_quarantined_once_and_recomputed(
        self, tmp_path, monkeypatch, kind, bad
    ):
        root = str(tmp_path / "cache")
        key, load = getattr(self, "_" + kind)(root, _bad_blob(kind, bad), monkeypatch)
        cache = RunCache(root)
        assert cache.quarantined_objects() == 1
        assert os.path.exists(os.path.join(
            root, "objects", RunCache.QUARANTINE_DIRNAME, key + ".reason"
        ))
        # the recomputed object took the vacated slot and loads clean
        assert load(cache) is not None
        assert cache.quarantined_objects() == 1
