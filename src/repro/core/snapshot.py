"""Deterministic machine snapshots at instruction boundaries.

The paper's histograms were accumulated over an hour of live
timesharing and read out incrementally — the measurement composes
across time slices.  This module makes that composition operational for
the simulator: :func:`capture` freezes a booted
:class:`~repro.vms.kernel.VMSKernel` — EBOX registers and micro-PC
state, the instruction buffer, TB, cache, write buffer, page tables,
physical memory, VMS process/device state, every seeded RNG stream and
the monitor's count banks — and :func:`restore` brings it back so the
run continues *bit-identically* to one that was never interrupted
(``tests/integration/test_snapshot_equivalence.py`` proves this for all
five workloads).

Implementation notes:

* The whole simulator state is one object graph rooted at the kernel
  (machine, EBOX, monitor, devices and the terminal emulator are all
  reachable from it), every RNG is an instance-seeded ``random.Random``,
  and object identity is preserved by the pickle memo — so a plain
  pickle of the kernel *is* a faithful snapshot.  The only outside
  reference is the passive tracer (it may hold arbitrary sinks), which
  capture detaches for the duration of the dump and restore re-attaches
  through :meth:`~repro.cpu.machine.VAX780.attach_tracer`.
* The wire format is versioned and digest-checked: an 8-byte magic, a
  JSON header (version, codec, sha256 of the uncompressed pickle, and a
  plain-data :meth:`~repro.vms.kernel.VMSKernel.state_summary`), then
  the zlib-compressed pickle.  ``repro snapshot info`` reads the header
  without unpickling anything.
* The codec compresses once.  Physical memory pickles as its non-zero
  512-byte pages only (:class:`~repro.memory.physical.PhysicalMemory`),
  so the raw pickle is well under a megabyte, and :func:`capture`
  compresses it at zlib level 1.  Version 1 compressed the whole 8 MB
  array inside the pickle and then the pickle again at level 6, which
  made a capture three times slower for a payload 0.3–2.5% smaller.
  Version 3 pickles the instruction buffer's event horizon (``_wake``)
  in place of version 2's relative fill and port counters, and names
  the device board's ``next_fire`` and the interrupt controller's
  ``requests``.  An older blob is refused with
  :class:`SnapshotFormatError`; a cache holding one quarantines it and
  recomputes the boundary.
* Snapshots are pickles: restoring one executes the usual pickle
  machinery, so only load snapshots you (or your own cache) wrote —
  the same trust model as the run cache itself.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Bump when the snapshot payload or header layout changes shape.
SNAPSHOT_VERSION = 3

#: Identifies a snapshot file/blob; the trailing byte is the format
#: generation so even pre-header parsers fail loudly on a new one.
SNAPSHOT_MAGIC = b"REPROSNP"

_CODEC = "pickle+zlib"
#: One compression pass over the whole pickle.  Level 1: physical
#: memory already pickles as its non-zero pages only, and level 6 makes
#: that payload about 5% smaller for four times the compression time.
_ZLIB_LEVEL = 1
_PICKLE_PROTOCOL = 4
_HEADER_STRUCT = struct.Struct(">I")
_MAX_HEADER_BYTES = 1 << 20


class SnapshotError(RuntimeError):
    """Snapshot capture/restore failed (digest mismatch, bad state)."""


class SnapshotFormatError(SnapshotError):
    """A snapshot blob is malformed: wrong magic, version or framing."""


@dataclass
class MachineSnapshot:
    """One frozen machine state plus the metadata to trust it.

    ``payload`` is the zlib-compressed pickle of the kernel graph;
    ``digest`` is the sha256 of the *uncompressed* pickle, verified on
    restore; ``meta`` is plain JSON-safe data (instruction counts,
    process states, device schedules) readable without unpickling.
    """

    payload: bytes
    digest: str
    meta: Dict = field(default_factory=dict)
    version: int = SNAPSHOT_VERSION

    @property
    def compressed_bytes(self) -> int:
        return len(self.payload)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format."""
        header = json.dumps(
            {
                "version": self.version,
                "codec": _CODEC,
                "digest": self.digest,
                "meta": self.meta,
            },
            sort_keys=True,
        ).encode("utf-8")
        return SNAPSHOT_MAGIC + _HEADER_STRUCT.pack(len(header)) + header + self.payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MachineSnapshot":
        """Parse the wire format, rejecting malformed blobs loudly."""
        prefix = len(SNAPSHOT_MAGIC) + _HEADER_STRUCT.size
        if len(blob) < prefix:
            raise SnapshotFormatError(
                "snapshot truncated: {} bytes is shorter than the {}-byte "
                "magic + header-length prefix".format(len(blob), prefix)
            )
        if blob[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(
                "not a machine snapshot (magic {!r}, expected {!r})".format(
                    bytes(blob[: len(SNAPSHOT_MAGIC)]), SNAPSHOT_MAGIC
                )
            )
        (header_len,) = _HEADER_STRUCT.unpack_from(blob, len(SNAPSHOT_MAGIC))
        if header_len > _MAX_HEADER_BYTES or prefix + header_len > len(blob):
            raise SnapshotFormatError(
                "snapshot header length {} is implausible for a {}-byte blob".format(
                    header_len, len(blob)
                )
            )
        try:
            header = json.loads(blob[prefix : prefix + header_len].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotFormatError("snapshot header is not valid JSON: {}".format(exc))
        version = header.get("version")
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                "snapshot format version {} not supported (this build reads "
                "version {})".format(version, SNAPSHOT_VERSION)
            )
        codec = header.get("codec")
        if codec != _CODEC:
            raise SnapshotFormatError(
                "snapshot codec {!r} not supported (expected {!r})".format(codec, _CODEC)
            )
        return cls(
            payload=bytes(blob[prefix + header_len :]),
            digest=header.get("digest", ""),
            meta=header.get("meta", {}),
            version=version,
        )

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "MachineSnapshot":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    @classmethod
    def read_header(cls, path: str) -> Dict:
        """Read just version/digest/meta — never touches the pickle."""
        with open(path, "rb") as handle:
            blob = handle.read()
        snapshot = cls.from_bytes(blob)
        return {
            "version": snapshot.version,
            "digest": snapshot.digest,
            "compressed_bytes": snapshot.compressed_bytes,
            "meta": snapshot.meta,
        }


def capture(kernel, label: Optional[str] = None, extra_meta: Optional[Dict] = None) -> "MachineSnapshot":
    """Freeze ``kernel`` (and everything reachable from it) mid-run.

    Capture is passive: the kernel keeps running afterwards exactly as
    if nothing happened.  The tracer — the one object in the graph that
    may hold non-picklable sinks — is detached for the dump and
    re-attached before returning.  Legal at any instruction boundary,
    including mid-measurement with the monitor still collecting.
    """
    machine = kernel.machine
    tracer = machine.tracer
    machine.attach_tracer(None)
    try:
        raw = pickle.dumps(kernel, protocol=_PICKLE_PROTOCOL)
    finally:
        machine.attach_tracer(tracer)
    meta = {"label": label, "raw_bytes": len(raw)}
    meta.update(kernel.state_summary())
    if extra_meta:
        meta.update(extra_meta)
    return MachineSnapshot(
        payload=zlib.compress(raw, _ZLIB_LEVEL),
        digest=hashlib.sha256(raw).hexdigest(),
        meta=meta,
    )


def restore(snapshot: MachineSnapshot, tracer=None):
    """Bring a captured kernel back to life, digest-checked.

    Returns a fresh :class:`~repro.vms.kernel.VMSKernel` whose continued
    execution is bit-identical to the original's.  ``tracer`` (optional)
    is attached to the restored machine — the snapshot itself never
    carries one.
    """
    from repro.testing import faults

    # Injected restore failures surface as SnapshotError, exactly like a
    # real digest mismatch — callers' recovery paths cannot tell them
    # apart, which is the point.
    faults.fire("snapshot.restore", key=snapshot.digest, raiser=SnapshotError)
    try:
        raw = zlib.decompress(snapshot.payload)
    except zlib.error as exc:
        raise SnapshotFormatError("snapshot payload does not decompress: {}".format(exc))
    digest = hashlib.sha256(raw).hexdigest()
    if digest != snapshot.digest:
        raise SnapshotError(
            "snapshot digest mismatch: payload hashes to {} but the header "
            "says {} — refusing to restore corrupt state".format(
                digest, snapshot.digest
            )
        )
    kernel = pickle.loads(raw)
    kernel.machine.attach_tracer(tracer)
    return kernel
