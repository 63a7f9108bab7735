"""Content-addressed run cache for everything the engine banks.

The engine's determinism guarantee is what makes caching sound: a
:func:`~repro.obs.provenance.config_hash` pins down everything that
determines a spec's result, so an object stored under a key derived
from it can be replayed into any later run — a sweep re-run, a bench,
an EXPERIMENTS.md regeneration — and the merged output stays
bit-identical.  The cache stores four kinds of objects:

* ``shard`` — one shard's measured delta (a pickled
  :class:`~repro.core.executor.ShardResult`);
* ``snapshot`` — the machine state at a shard boundary (a
  :class:`~repro.core.snapshot.MachineSnapshot` blob), letting a later
  run resume mid-measurement instead of re-simulating from boot;
* ``run`` — one whole completed :class:`~repro.core.executor.EngineRun`,
  letting the experiment service resolve a duplicate sweep without
  simulating at all (see :mod:`repro.core.cache_resolution`).
* ``program`` — one generated workload image (a pickled
  :class:`~repro.workloads.codegen.GeneratedProgram`), banked in the
  default root so a fresh process skips the generator and the
  assembler (see :func:`repro.workloads.codegen.generate_program`).

:meth:`RunCache.store` pickles an object and puts its bytes (snapshots,
framed blobs of their own, are put as they are); :meth:`RunCache.load`
reads any kind back, decodes it and checks its type, and quarantines
whatever fails either as a miss.

Layout is git-like: ``<root>/objects/<first 2 hex>/<rest>`` with an
optional ``.json`` metadata sidecar per object.  Writes go through a
temp file + ``os.replace`` so concurrent pool workers never observe a
torn object; content addressing makes double-writes idempotent.

The store is self-healing: every put records a ``.sum`` sidecar (the
sha256 of the stored bytes) and every get verifies it.  An object whose
bytes no longer hash to their recorded digest — bit rot, a truncated
write that somehow survived, a corrupted filesystem — is *quarantined*
(moved to ``objects/quarantine/`` with a ``.reason`` note) and reported
as a miss, so the engine recomputes it instead of crashing on it or,
worse, merging garbage.  ``repro cache info`` reports the quarantine
count; the quarantined files stick around for post-mortems until
``clear`` removes them.

Hit/miss counters are per-``RunCache``-instance and therefore
per-process: a pool worker gets its own instance on the shared root (a
pickled cache arrives with zeroed counters), and its counts die with
the worker unless persisted.  The cache keeps a
persistent ledger for exactly this — ``flush_stats`` appends each
instance's unflushed deltas as one line of ``<root>/stats.jsonl`` (an
O_APPEND single-write, safe under concurrent workers) and
``persistent_totals`` sums the ledger, so ``repro cache info`` reports
true fleet-wide totals instead of the freshly-constructed instance's
zeros.

Cached objects are pickles and deserializing them executes pickle
machinery — treat a cache directory with the same trust as the working
tree it sits in (the default root lives inside it).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from repro.testing import faults

#: Bump to invalidate every existing cache entry (key derivation
#: changes, stored-object shape changes).
CACHE_SCHEMA_VERSION = 1

#: The pickle protocol of every object :meth:`RunCache.store` banks.
PICKLE_PROTOCOL = 4

#: Environment override for the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache root, relative to the current working directory.
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def cache_key(kind: str, **fields) -> str:
    """Derive the content address for one cached object.

    The key commits to the cache schema version, the package version
    (determinism across code changes is not guaranteed, so a release
    bump retires stale objects), the object ``kind`` and every
    caller-supplied field — for shards that is the spec's config hash
    plus the instruction span, which by the determinism guarantee fixes
    the object's content.
    """
    from repro.obs.provenance import code_version

    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "code_version": code_version(),
        "kind": kind,
    }
    for name, value in fields.items():
        if name in payload:
            raise ValueError("cache_key field {!r} collides with a reserved field".format(name))
        payload[name] = value
    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CacheEntry:
    """One stored object, as listed by :meth:`RunCache.entries`."""

    key: str
    path: str
    size_bytes: int
    meta: Dict = field(default_factory=dict)


class RunCache:
    """A directory of content-addressed objects with hit/miss stats."""

    #: Subdirectory of ``objects/`` corrupt objects are moved into.
    QUARANTINE_DIRNAME = "quarantine"

    #: Fields tracked per instance and aggregated by the stats ledger.
    STAT_FIELDS = ("hits", "misses", "puts", "quarantined")

    #: Ledger of flushed per-instance stat deltas, relative to ``root``.
    STATS_LEDGER = "stats.jsonl"

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self._objects_dir = os.path.join(self.root, "objects")
        self._quarantine_dir = os.path.join(self._objects_dir, self.QUARANTINE_DIRNAME)
        os.makedirs(self._objects_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        #: corrupt objects this instance moved to quarantine (see
        #: :meth:`quarantined_objects` for the cross-process disk count)
        self.quarantined = 0
        self._stats_path = os.path.join(self.root, self.STATS_LEDGER)
        #: what this instance has already flushed to the ledger
        self._flushed = {name: 0 for name in self.STAT_FIELDS}

    def __reduce__(self):
        # Counters are per-process: a copy shipped to a pool worker
        # starts at zero, so its ledger flush holds only its own traffic.
        return (self.__class__, (self.root,))

    @classmethod
    def default(cls, path: Optional[str] = None) -> "RunCache":
        """The conventional cache: ``path`` if given, else
        ``$REPRO_CACHE_DIR``, else ``.repro-cache`` in the cwd."""
        return cls(path or os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIRNAME)

    # -- object paths ------------------------------------------------------

    def _object_path(self, key: str) -> str:
        if len(key) < 3 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError("cache key must be a hex digest, got {!r}".format(key))
        return os.path.join(self._objects_dir, key[:2], key[2:])

    # -- store / fetch -----------------------------------------------------

    def has(self, key: str) -> bool:
        """Existence probe; does not count toward hit/miss stats."""
        return os.path.exists(self._object_path(key))

    def get(self, key: str) -> Optional[bytes]:
        """Fetch ``key``, integrity-checked against its ``.sum`` sidecar.

        A digest mismatch quarantines the object and reports a miss —
        the caller recomputes instead of consuming corrupt state.
        Objects written before ``.sum`` sidecars existed are accepted
        as-is (legacy caches stay readable)."""
        path = self._object_path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        data = faults.corrupt_bytes("cache.get", key, data)
        expected = self._read_sum(key)
        if expected is not None and hashlib.sha256(data).hexdigest() != expected:
            self.quarantine(
                key,
                reason="content digest mismatch: stored bytes no longer "
                "hash to the recorded sha256",
            )
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put(self, key: str, data: bytes, meta: Optional[Dict] = None) -> str:
        """Store ``data`` under ``key`` atomically; first write wins.

        Content addressing means a key fully determines its bytes, so a
        concurrent or repeated put of an existing object is a no-op."""
        path = self._object_path(key)
        if os.path.exists(path):
            return path
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if meta is not None:
            self._write_atomic(path + ".json", json.dumps(meta, sort_keys=True, default=repr).encode("utf-8"))
        self._write_atomic(
            path + ".sum", hashlib.sha256(data).hexdigest().encode("ascii")
        )
        self._write_atomic(path, data)
        faults.corrupt_file("cache.stored", key, path)
        self.puts += 1
        return path

    def store(self, key: str, obj, meta: Optional[Dict] = None) -> str:
        """Bank ``obj`` under ``key``: pickled, then :meth:`put`."""
        return self.put(key, pickle.dumps(obj, protocol=PICKLE_PROTOCOL), meta=meta)

    def load(self, key: str, kind: type, decode: Callable[[bytes], object] = pickle.loads):
        """The banked object under ``key``, or ``None`` on a miss.

        :meth:`get` rejects byte-level rot; this quarantines, as a miss,
        what a valid digest lets through: bytes ``decode`` cannot read
        (a pickle of an incompatible build raising anything while it is
        rebuilt) or an object that is not a ``kind``."""
        data = self.get(key)
        if data is None:
            return None
        try:
            obj = decode(data)
        except Exception as exc:  # noqa: BLE001 — any undecodable entry
            reason = "undecodable {}: {!r}".format(kind.__name__, exc)
        else:
            if isinstance(obj, kind):
                return obj
            reason = "stored object is a {}, not a {}".format(type(obj).__name__, kind.__name__)
        self.quarantine(key, reason=reason)
        # what get() counted as a hit is a miss the caller recomputes
        self.hits -= 1
        self.misses += 1
        return None

    @staticmethod
    def _write_atomic(path: str, data: bytes) -> None:
        handle, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
        try:
            with os.fdopen(handle, "wb") as tmp:
                handle = None  # the file object owns the fd now
                tmp.write(data)
                faults.fire("cache.write", key=path, raiser=OSError)
            os.replace(tmp_path, path)
        finally:
            if handle is not None:
                # os.fdopen itself failed: the raw fd is still ours.
                try:
                    os.close(handle)
                except OSError:
                    pass
            try:
                os.unlink(tmp_path)
            except OSError:
                pass

    def _read_sum(self, key: str) -> Optional[str]:
        try:
            with open(self._object_path(key) + ".sum") as handle:
                return handle.read().strip()
        except OSError:
            return None

    # -- quarantine --------------------------------------------------------

    def quarantine(self, key: str, reason: str = "") -> str:
        """Move a corrupt object (and sidecars) out of the addressable
        store so callers recompute it; returns the quarantine path.

        The damaged bytes are preserved for post-mortems alongside a
        ``.reason`` note; a later put of the recomputed object lands at
        the now-vacant address."""
        path = self._object_path(key)
        os.makedirs(self._quarantine_dir, exist_ok=True)
        dest = os.path.join(self._quarantine_dir, key)
        moved = False
        for suffix in ("", ".json", ".sum"):
            try:
                os.replace(path + suffix, dest + suffix)
                moved = moved or suffix == ""
            except OSError:
                pass
        if reason:
            with open(dest + ".reason", "w") as handle:
                handle.write(reason + "\n")
        if moved:
            self.quarantined += 1
        return dest

    def quarantined_objects(self) -> int:
        """Objects currently in quarantine on disk — counts every
        writer's quarantines, not just this instance's."""
        try:
            names = os.listdir(self._quarantine_dir)
        except FileNotFoundError:
            return 0
        return sum(
            1
            for name in names
            if not name.endswith((".json", ".sum", ".reason"))
        )

    def get_meta(self, key: str) -> Optional[Dict]:
        try:
            with open(self._object_path(key) + ".json") as handle:
                return json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    # -- inspection --------------------------------------------------------

    def entries(self) -> Iterator[CacheEntry]:
        """All stored objects, sorted by key (stable listings)."""
        found = []
        for prefix in sorted(os.listdir(self._objects_dir)):
            prefix_dir = os.path.join(self._objects_dir, prefix)
            # Only the two-hex fan-out dirs hold addressable objects;
            # quarantine/ in particular is not listable inventory.
            if (
                not os.path.isdir(prefix_dir)
                or len(prefix) != 2
                or any(c not in "0123456789abcdef" for c in prefix)
            ):
                continue
            for rest in sorted(os.listdir(prefix_dir)):
                if rest.endswith((".json", ".sum")) or rest.startswith(".tmp-"):
                    continue
                key = prefix + rest
                path = os.path.join(prefix_dir, rest)
                found.append(
                    CacheEntry(
                        key=key,
                        path=path,
                        size_bytes=os.path.getsize(path),
                        meta=self.get_meta(key) or {},
                    )
                )
        return iter(found)

    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries())

    def clear(self) -> int:
        """Delete every object (sidecars and quarantine included);
        returns addressable objects removed."""
        removed = 0
        for entry in list(self.entries()):
            try:
                os.unlink(entry.path)
                removed += 1
            except FileNotFoundError:
                pass
            for suffix in (".json", ".sum"):
                try:
                    os.unlink(entry.path + suffix)
                except FileNotFoundError:
                    pass
        try:
            for name in os.listdir(self._quarantine_dir):
                try:
                    os.unlink(os.path.join(self._quarantine_dir, name))
                except OSError:
                    pass
        except FileNotFoundError:
            pass
        # The stats ledger describes objects that no longer exist; drop
        # it, and re-baseline so this instance's pre-clear activity is
        # not re-flushed into the fresh ledger.
        try:
            os.unlink(self._stats_path)
        except FileNotFoundError:
            pass
        self._flushed = self.stats()
        return removed

    def stats(self) -> Dict[str, int]:
        """This instance's counters — per-process by construction.  For
        fleet-wide truth, flush and read :meth:`persistent_totals`."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "quarantined": self.quarantined,
        }

    # -- persistent stats --------------------------------------------------

    def flush_stats(self) -> Dict[str, int]:
        """Append this instance's unflushed stat deltas to the ledger.

        One JSON line per flush, written with ``O_APPEND`` in a single
        ``write`` call so concurrent pool workers interleave whole
        lines, never bytes.  Idempotent between new activity (an empty
        delta writes nothing).  Returns the delta that was flushed."""
        current = self.stats()
        delta = {
            name: current[name] - self._flushed[name] for name in self.STAT_FIELDS
        }
        if any(delta.values()):
            line = (json.dumps(delta, sort_keys=True) + "\n").encode("ascii")
            fd = os.open(self._stats_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
            self._flushed = current
        return delta

    def persistent_totals(self) -> Dict[str, int]:
        """Sum every flushed delta in the ledger: the true fleet-wide
        hit/miss/put/quarantine totals across all processes that ever
        flushed against this root.  Unflushed activity of live
        instances (this one included) is not visible here — the engine
        flushes at the end of every sharded run.
        A torn or foreign line is skipped, not fatal."""
        totals = {name: 0 for name in self.STAT_FIELDS}
        totals["flushes"] = 0
        try:
            with open(self._stats_path, "r", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if not isinstance(record, dict):
                        continue
                    totals["flushes"] += 1
                    for name in self.STAT_FIELDS:
                        value = record.get(name, 0)
                        if isinstance(value, int):
                            totals[name] += value
        except FileNotFoundError:
            pass
        return totals
