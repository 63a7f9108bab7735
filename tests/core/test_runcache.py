"""Unit tests for the content-addressed run cache.

Key derivation stability, the git-like object layout, atomic writes,
metadata sidecars and the hit/miss accounting the CLI reports.
"""

import json
import os
import pickle

import pytest

from repro.core.runcache import (
    CACHE_DIR_ENV,
    DEFAULT_CACHE_DIRNAME,
    CacheEntry,
    RunCache,
    cache_key,
)


@pytest.fixture
def cache(tmp_path):
    return RunCache(str(tmp_path / "cache"))


class TestCacheKey:
    def test_stable_across_calls(self):
        a = cache_key("shard", config="abc", start=0, end=100)
        b = cache_key("shard", config="abc", start=0, end=100)
        assert a == b
        assert len(a) == 64
        assert all(c in "0123456789abcdef" for c in a)

    def test_field_order_is_irrelevant(self):
        assert cache_key("shard", start=0, config="abc") == cache_key(
            "shard", config="abc", start=0
        )

    def test_every_field_is_load_bearing(self):
        base = cache_key("shard", config="abc", start=0, end=100)
        assert cache_key("snapshot", config="abc", start=0, end=100) != base
        assert cache_key("shard", config="abd", start=0, end=100) != base
        assert cache_key("shard", config="abc", start=1, end=100) != base
        assert cache_key("shard", config="abc", start=0, end=101) != base

    def test_reserved_field_collision_rejected(self):
        # "kind" is already shielded by the positional signature; the
        # remaining reserved names must be rejected explicitly.
        with pytest.raises(ValueError, match="reserved"):
            cache_key("shard", schema=2)
        with pytest.raises(ValueError, match="reserved"):
            cache_key("shard", code_version="0.0.0")


class TestStoreFetch:
    def test_put_get_roundtrip(self, cache):
        key = cache_key("test", payload=1)
        cache.put(key, b"hello shards")
        assert cache.get(key) == b"hello shards"

    def test_get_missing_returns_none(self, cache):
        assert cache.get(cache_key("test", payload="missing")) is None

    def test_hit_miss_put_accounting(self, cache):
        key = cache_key("test", payload=2)
        assert cache.stats() == {"hits": 0, "misses": 0, "puts": 0, "quarantined": 0}
        cache.get(key)
        cache.put(key, b"x")
        cache.get(key)
        assert cache.stats() == {"hits": 1, "misses": 1, "puts": 1, "quarantined": 0}

    def test_has_does_not_touch_stats(self, cache):
        key = cache_key("test", payload=3)
        assert not cache.has(key)
        cache.put(key, b"x")
        assert cache.has(key)
        assert cache.stats() == {"hits": 0, "misses": 0, "puts": 1, "quarantined": 0}

    def test_put_twice_is_idempotent(self, cache):
        # Content addressing: the first write wins and the second is a
        # no-op — the store never tears an existing object.
        key = cache_key("test", payload=4)
        cache.put(key, b"first")
        cache.put(key, b"second")
        assert cache.get(key) == b"first"
        assert cache.puts == 1

    def test_git_like_fanout_layout(self, cache):
        key = cache_key("test", payload=5)
        path = cache.put(key, b"x")
        assert path.endswith(os.path.join("objects", key[:2], key[2:]))
        assert os.path.exists(path)

    def test_invalid_keys_rejected(self, cache):
        for bad in ("", "ab", "UPPERCASE0", "../../etc/passwd", "xyz!"):
            with pytest.raises(ValueError, match="hex digest"):
                cache.has(bad)

    def test_no_leftover_temp_files(self, cache, tmp_path):
        key = cache_key("test", payload=6)
        cache.put(key, b"x" * 10_000, meta={"kind": "test"})
        strays = [
            name
            for _, _, names in os.walk(str(tmp_path))
            for name in names
            if name.startswith(".tmp-")
        ]
        assert strays == []


class TestMetadata:
    def test_meta_sidecar_roundtrip(self, cache):
        key = cache_key("test", payload=7)
        cache.put(key, b"x", meta={"kind": "shard", "start": 0})
        assert cache.get_meta(key) == {"kind": "shard", "start": 0}

    def test_meta_absent_is_none(self, cache):
        key = cache_key("test", payload=8)
        cache.put(key, b"x")
        assert cache.get_meta(key) is None

    def test_sidecar_lands_before_object(self, cache):
        # entries() must never see an object without its sidecar when
        # one was requested — the meta write happens first.
        key = cache_key("test", payload=9)
        cache.put(key, b"x", meta={"a": 1})
        (entry,) = list(cache.entries())
        assert entry.meta == {"a": 1}


class TestInspection:
    def test_entries_sorted_and_complete(self, cache):
        keys = [cache_key("test", payload=n) for n in range(5)]
        for n, key in enumerate(keys):
            cache.put(key, b"v" * (n + 1), meta={"n": n})
        listed = list(cache.entries())
        assert [e.key for e in listed] == sorted(keys)
        assert all(isinstance(e, CacheEntry) for e in listed)
        assert {e.size_bytes for e in listed} == {1, 2, 3, 4, 5}

    def test_entries_skip_sidecars_and_temps(self, cache):
        key = cache_key("test", payload=10)
        cache.put(key, b"x", meta={"a": 1})
        stray = os.path.join(cache.root, "objects", key[:2], ".tmp-stray")
        with open(stray, "wb") as handle:
            handle.write(b"junk")
        assert [e.key for e in cache.entries()] == [key]

    def test_total_bytes(self, cache):
        cache.put(cache_key("test", payload=11), b"four")
        cache.put(cache_key("test", payload=12), b"sixsix")
        assert cache.total_bytes() == 10

    def test_clear_removes_objects_and_sidecars(self, cache):
        key = cache_key("test", payload=13)
        path = cache.put(key, b"x", meta={"a": 1})
        assert cache.clear() == 1
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".json")
        assert not os.path.exists(path + ".sum")
        assert list(cache.entries()) == []


class TestDefaultResolution:
    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "from-env"))
        cache = RunCache.default(str(tmp_path / "explicit"))
        assert cache.root == str(tmp_path / "explicit")

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "from-env"))
        assert RunCache.default().root == str(tmp_path / "from-env")

    def test_conventional_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        cache = RunCache.default()
        assert cache.root == str(tmp_path / DEFAULT_CACHE_DIRNAME)


class TestConcurrencySafety:
    def test_parallel_puts_of_same_object(self, cache):
        # Simulate the pool-worker race: many writers, one key. Every
        # writer must exit cleanly and the object must be whole.
        from repro.core.executor import parallel_map

        key = cache_key("test", payload="race")
        root = cache.root

        results = parallel_map(
            _racing_put, [(root, key)] * 4, jobs=4
        )
        assert all(results)
        assert cache.get(key) == b"racy payload"

    def test_meta_survives_json_default_repr(self, cache):
        # Non-JSON-native meta values fall back to repr() instead of
        # crashing the put.
        key = cache_key("test", payload=14)
        cache.put(key, b"x", meta={"obj": object()})
        meta = cache.get_meta(key)
        assert "object object" in meta["obj"]


class TestSelfHealing:
    def test_on_disk_bitflip_is_quarantined_and_recomputed(self, cache):
        # Rot the stored bytes behind the cache's back: get() must report
        # a miss (never hand back garbage), move the damage to
        # quarantine, and leave the address vacant for the recompute.
        key = cache_key("test", payload="rot")
        path = cache.put(key, b"precious bytes", meta={"kind": "test"})
        with open(path, "r+b") as handle:
            handle.seek(3)
            byte = handle.read(1)[0]
            handle.seek(3)
            handle.write(bytes([byte ^ 0x40]))
        assert cache.get(key) is None
        assert cache.stats()["quarantined"] == 1
        assert cache.quarantined_objects() == 1
        assert not cache.has(key)
        quarantined = os.path.join(
            cache.root, "objects", RunCache.QUARANTINE_DIRNAME, key
        )
        assert os.path.exists(quarantined)
        assert os.path.exists(quarantined + ".reason")
        cache.put(key, b"precious bytes")
        assert cache.get(key) == b"precious bytes"

    def test_injected_read_corruption_quarantines(self, cache, tmp_path):
        from repro.testing.faults import FaultPlan, FaultRule

        key = cache_key("test", payload="readrot")
        cache.put(key, b"payload bytes")
        plan = FaultPlan(
            rules=[FaultRule(site="cache.get", action="truncate", times=1)],
            state_dir=str(tmp_path / "faults"),
        )
        with plan.active():
            assert cache.get(key) is None
        assert cache.quarantined_objects() == 1

    def test_legacy_object_without_sum_is_accepted(self, cache):
        key = cache_key("test", payload="legacy")
        cache.put(key, b"old bytes")
        os.unlink(cache._object_path(key) + ".sum")
        assert cache.get(key) == b"old bytes"
        assert cache.quarantined_objects() == 0

    def test_entries_and_clear_handle_quarantine(self, cache):
        keep = cache_key("test", payload="keep")
        rot = cache_key("test", payload="togo")
        cache.put(keep, b"keep me")
        cache.put(rot, b"rot me")
        cache.quarantine(rot, reason="test damage")
        assert [entry.key for entry in cache.entries()] == [keep]
        assert cache.quarantined_objects() == 1
        assert cache.clear() == 1
        assert cache.quarantined_objects() == 0


class TestTypedLoad:
    def test_store_load_roundtrip(self, cache):
        key = cache_key("test", payload="typed")
        cache.store(key, {"cpi": 10.6}, meta={"kind": "test"})
        assert cache.load(key, dict) == {"cpi": 10.6}
        assert cache.get_meta(key) == {"kind": "test"}
        assert cache.load(cache_key("test", payload="absent"), dict) is None
        assert cache.stats() == {"hits": 1, "misses": 1, "puts": 1, "quarantined": 0}

    @pytest.mark.parametrize(
        "blob, reason",
        [
            (pickle.dumps(["a", "list"]), "stored object is a list, not a dict"),
            (b"no pickle at all", "undecodable dict"),
        ],
        ids=["wrong-type", "undecodable"],
    )
    def test_bad_entry_is_quarantined_as_a_miss(self, cache, blob, reason):
        key = cache_key("test", payload="bad")
        cache.put(key, blob)
        assert cache.load(key, dict) is None
        assert not cache.has(key)
        assert cache.stats() == {"hits": 0, "misses": 1, "puts": 1, "quarantined": 1}
        note = os.path.join(
            cache.root, "objects", RunCache.QUARANTINE_DIRNAME, key + ".reason"
        )
        with open(note) as handle:
            assert handle.read().startswith(reason)


class TestWriteFailureCleanup:
    @staticmethod
    def _strays(root):
        return [
            name
            for _, _, names in os.walk(root)
            for name in names
            if name.startswith(".tmp-")
        ]

    def test_injected_write_failure_leaves_no_temp_files(self, cache):
        from repro.testing.faults import FaultPlan, FaultRule

        key = cache_key("test", payload="diskfull")
        plan = FaultPlan(
            rules=[FaultRule(site="cache.write", action="raise", times=-1)]
        )
        with plan.active():
            with pytest.raises(OSError):
                cache.put(key, b"x" * 4096)
        assert self._strays(cache.root) == []
        assert not cache.has(key)
        cache.put(key, b"x" * 4096)
        assert cache.get(key) == b"x" * 4096

    def test_fdopen_failure_leaves_no_temp_files(self, cache, monkeypatch):
        import repro.core.runcache as runcache_module

        def refuse(fd, mode):
            # Leave the fd open: the finally clause owns closing it.
            raise OSError("simulated fdopen failure")

        monkeypatch.setattr(runcache_module.os, "fdopen", refuse)
        with pytest.raises(OSError):
            cache.put(cache_key("test", payload="nofd"), b"x")
        monkeypatch.undo()
        assert self._strays(cache.root) == []


def _racing_put(args):
    root, key = args
    local = RunCache(root)
    local.put(key, b"racy payload")
    return local.get(key) == b"racy payload"


class TestPersistentStats:
    """The stats ledger: fleet-wide hit/miss truth across processes.

    Per-instance counters are per-process by construction; under the
    worker fleet they silently undercount.  Every engine execution site
    flushes its deltas to ``stats.jsonl``, and ``persistent_totals``
    sums them back — that is what ``repro cache info`` reports.
    """

    def test_flush_appends_delta_once(self, cache):
        key = cache_key("test", payload="ledger")
        cache.get(key)  # miss
        cache.put(key, b"x")
        cache.get(key)  # hit
        delta = cache.flush_stats()
        assert delta == {"hits": 1, "misses": 1, "puts": 1, "quarantined": 0}
        # No new activity: the second flush writes nothing.
        assert cache.flush_stats() == {
            "hits": 0, "misses": 0, "puts": 0, "quarantined": 0
        }
        totals = cache.persistent_totals()
        assert totals["flushes"] == 1
        assert totals["hits"] == 1
        assert totals["misses"] == 1
        assert totals["puts"] == 1

    def test_totals_aggregate_across_instances(self, cache):
        # Two instances over the same root — the stand-in for two
        # processes — each flush; the ledger holds the sum.
        other = RunCache(cache.root)
        key = cache_key("test", payload="fleet")
        cache.put(key, b"x")
        cache.flush_stats()
        other.get(key)  # hit, counted only in `other`
        other.get(cache_key("test", payload="absent"))  # miss
        other.flush_stats()
        assert cache.stats()["hits"] == 0  # per-process undercount...
        totals = cache.persistent_totals()  # ...the ledger has the truth
        assert totals == {
            "hits": 1, "misses": 1, "puts": 1, "quarantined": 0, "flushes": 2
        }

    def test_pickled_copy_flushes_only_its_own_traffic(self, cache):
        # A cache shipped to a pool worker must not re-flush the
        # coordinator's unflushed counts into the ledger.
        import pickle

        cache.get(cache_key("test", payload="coordinator"))  # unflushed miss
        worker = pickle.loads(pickle.dumps(cache))
        assert worker.root == cache.root
        worker.put(cache_key("test", payload="worker"), b"x")
        worker.flush_stats()
        cache.flush_stats()
        totals = cache.persistent_totals()
        assert (totals["misses"], totals["puts"], totals["flushes"]) == (1, 1, 2)

    def test_torn_ledger_line_is_skipped(self, cache):
        cache.put(cache_key("test", payload="torn"), b"x")
        cache.flush_stats()
        with open(cache._stats_path, "a") as handle:
            handle.write('{"puts": 1, "hi')  # torn mid-write
        totals = cache.persistent_totals()
        assert totals["puts"] == 1
        assert totals["flushes"] == 1

    def test_clear_drops_ledger_and_rebaselines(self, cache):
        key = cache_key("test", payload="wipe")
        cache.put(key, b"x")
        cache.flush_stats()
        cache.clear()
        assert cache.persistent_totals()["flushes"] == 0
        # Pre-clear activity must not leak into the fresh ledger.
        assert cache.flush_stats() == {
            "hits": 0, "misses": 0, "puts": 0, "quarantined": 0
        }
        assert cache.persistent_totals()["puts"] == 0
