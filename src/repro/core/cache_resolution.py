"""The cache-resolution layer: what can be *reused* instead of executed.

Middle layer of the engine split (scheduler / executor /
cache-resolution).  The scheduler asks this module three questions
before it spends any simulation time:

* *Is this whole run already banked?* — run-level objects
  (:func:`load_cached_run` / :func:`store_run`) let the service
  dedupe complete sweeps against the content-addressed
  :class:`~repro.core.runcache.RunCache` across server restarts.
* *Which shards of this run are already banked?* —
  :func:`shard_cache_keys` / :func:`load_cached_shard` resolve the
  resumable shard results and :func:`load_cached_snapshot` the boundary
  snapshots a chain over the remaining shards resumes from.
* *Where do new results go?* — the ``store_*`` writers bank shard
  deltas, boundary snapshots and whole runs with provenance-bearing
  metadata, relying on the cache's atomic first-write-wins puts so
  concurrent writers never collide.

Everything here is self-healing by contract: every kind is read
through :meth:`~repro.core.runcache.RunCache.load`, so an object that
is absent, digest-rotten, undecodable by this build or of the wrong
type is treated as a miss and quarantined so the recomputation lands
in a clean slot.  Nothing in this module executes simulation work or
decides scheduling — resolution only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def shard_cache_keys(spec, boundaries: List[int]) -> Tuple[str, List[str], Dict[int, str]]:
    """(config hash, per-shard result keys, per-boundary snapshot keys)."""
    from repro.core.runcache import cache_key
    from repro.obs.provenance import config_hash

    chash = config_hash(spec)
    shard_keys = [
        cache_key("shard", config=chash, start=boundaries[i], end=boundaries[i + 1])
        for i in range(len(boundaries) - 1)
    ]
    snapshot_keys = {
        boundary: cache_key("snapshot", config=chash, instruction=boundary)
        for boundary in boundaries[:-1]
    }
    return chash, shard_keys, snapshot_keys


def store_shard(cache, key: str, shard, spec_name: str, chash: str) -> None:
    cache.store(
        key,
        shard,
        meta={
            "kind": "shard",
            "spec": spec_name,
            "config": chash,
            "start": shard.start_instruction,
            "instructions": shard.instructions,
            "shard": "{}/{}".format(shard.index + 1, shard.shard_count),
        },
    )


def load_cached_shard(cache, key: str):
    """Fetch one banked shard delta; ``None`` on miss or damage."""
    from repro.core.executor import ShardResult

    shard = cache.load(key, ShardResult)
    if shard is not None:
        shard.from_cache = True
    return shard


def store_boundary_snapshot(
    cache, key: str, kernel, spec_name: str, chash: str, instruction: int
) -> None:
    from repro.core.snapshot import capture

    snapshot = capture(kernel, label="{}@{}".format(spec_name, instruction))
    cache.put(
        key,
        snapshot.to_bytes(),
        meta={
            "kind": "snapshot",
            "spec": spec_name,
            "config": chash,
            "instruction": instruction,
            "digest": snapshot.digest,
        },
    )


def _restore_snapshot(blob: bytes):
    """Decode one banked snapshot blob to ``(kernel, digest)``;
    ``restore`` raises on a pickled graph that is not a kernel."""
    from repro.core.snapshot import MachineSnapshot, restore

    snapshot = MachineSnapshot.from_bytes(blob)
    return restore(snapshot), snapshot.digest


def load_cached_snapshot(cache, key: str):
    """Fetch and restore a boundary snapshot, self-healing corruption.

    Returns ``(kernel, digest)``, or ``(None, None)`` when the snapshot
    is absent *or* damaged: a truncated legacy object, an older format
    version, an injected restore failure, a digest-valid pickle from an
    incompatible build raising anything while it is rebuilt — whatever
    the restore raises quarantines the entry (:meth:`RunCache.load`)."""
    restored = cache.load(key, tuple, _restore_snapshot)
    return restored if restored is not None else (None, None)


# ----------------------------------------------------------------------
# run-level objects: whole-sweep dedupe for the service
# ----------------------------------------------------------------------
#
# Shard objects resume a run; run objects *skip* it.  The service banks
# every completed EngineRun under a key derived from the spec's config
# hash, so a sweep submitted tomorrow — or to a freshly restarted
# server — resolves from the cache without simulating, exactly like a
# warm shard replay but at whole-run granularity.  Determinism makes
# the replayed payload bit-identical to a fresh execution; provenance
# keeps it honest (``resumed_from`` names the cache key, wall time is
# zeroed rather than replayed as if the work had happened again).


def run_cache_key(digest: str) -> str:
    """The run-level cache key for a spec's config-hash ``digest``."""
    from repro.core.runcache import cache_key

    return cache_key("run", config=digest)


def store_run(cache, spec, run) -> None:
    """Bank one completed EngineRun for whole-run resolution.

    First write wins: a concurrent client that raced the same spec to
    completion leaves the earlier (bit-identical) payload in place."""
    from repro.obs.provenance import config_hash

    cache.store(
        run_cache_key(config_hash(spec)),
        run,
        meta={
            "kind": "run",
            "spec": spec.name,
            "workload": spec.workload,
            "instructions": spec.instructions,
            "shards": run.shard_count,
        },
    )


def load_cached_run(cache, digest: str):
    """Replay one whole run by its config-hash ``digest`` from the
    cache; ``None`` on miss or damage.

    The replayed :class:`~repro.core.executor.EngineRun` carries honest
    provenance: ``manifest.resumed_from`` names the run-level cache key
    and wall seconds are zeroed — the run cost nothing *this time*, and
    fabricating the original timing would double-count it (the original
    manifest is still banked inside the cached payload's history)."""
    from repro.core.executor import EngineRun

    key = run_cache_key(digest)
    run = cache.load(key, EngineRun)
    if run is None:
        return None
    run.wall_seconds = 0.0
    if run.manifest is not None:
        run.manifest.wall_seconds = 0.0
        run.manifest.resumed_from = key
    return run
