"""Compiled micro-routine hot path: replay records for the EBOX.

The interpreted EBOX charges every microcycle through
``EBox._tick_slot``: each charge is a Python call chain (slot lookup,
monitor strobe, IB background cycle) even though the vast majority of
instructions take the exact same non-stalled path through the exact
same microroutines every time they execute.  This module removes that
per-cycle interpretation the way nanoBench/uops.info remove measurement
overhead: precompute what a measured unit *will* do, replay its net
effect in a few batched steps, and validate the shortcut against exact
ground truth (the repository's bit-identical golden digests).

Three layers:

* :class:`RoutineProgram` / :class:`LayoutReplay` — the
  ``build_layout``-time specializer.  Each microroutine in the control
  store is flattened into a dense replay program: its per-slot
  histogram buckets (the monitor's own fold) plus the precomputed
  (bucket, count) increment sequences its compute charges produce,
  patched-entry abort detour included.
* :class:`Recorder` / :func:`form_record` — records are memos of the
  interpreter, not a second decoder.  On an image's second sighting
  ``EBox`` interprets the instruction with a :class:`Recorder`
  attached; when it retires, the recorded ops become an
  :class:`InstructionRecord`: CONSUME / DECODE_TICK / ADVANCE / SPEC /
  BRANCH steps in the interpreter's own order of I-stream consumption,
  cycle charging, event counting and memory references, with adjacent
  charges batched.  A SPEC op carries the interpreter's own
  :class:`~repro.cpu.operands.SpecPlan` and replays through the shared
  :func:`~repro.cpu.operands.resolve_operand`.  A record holds only
  what is static about an instruction; whether its decode cycle is
  spent (the ``decode_overlap`` ablation) is decided when it replays.
  Records are keyed by raw instruction bytes alone — the uops.info
  keying — and shared by every machine on the same layout.
* :func:`execute_record` — the replay engine ``EBox.step`` dispatches
  to.  It bails out *before mutating anything* unless the
  instruction's full byte image is either already in the IB or
  provably on its way (:func:`peek_image` / ``_image_ready``: no fill
  or TB miss in flight, and the TB-resident pages ahead of the
  prefetcher hold exactly the record's remaining bytes).  It then runs
  only its op loop: the instruction frame around it — per-instruction
  setup, the execute handler, retirement — is the interpreter's own
  (``EBox._begin_instruction`` / ``EBox._retire``), and so is
  everything dynamic: IB under-runs through ``EBox._take_bytes`` (one
  consume per interpreted ``take``, so stall cycles land on the same
  wait routine at the same instant), and read/write stalls, TB misses,
  page faults and unaligned detours through ``EBox.data_read`` /
  ``data_write``.  Interrupts are delivered before dispatch, so a
  record never sees one.

An execution falls back to the interpreted path when its image has no
record yet, or when the record's bytes are neither buffered nor
verifiable ahead of the prefetcher.  An instruction that raises (an
unknown opcode, an illegal specifier: the interpreter raises the
architectural exception) forms no record, so it is interpreted every
time.  The whole path is off under an attached tracer, a nonstandard
monitor board, an armed cost-skew fault, or ``REPRO_NO_COMPILE=1``
(the differential harness runs every workload both ways).  Machine
snapshots never contain replay state, so a snapshot is byte-identical
whether the run that produced it was compiled or interpreted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from weakref import WeakKeyDictionary

from repro.core.monitor import bucket_fold
from repro.cpu.ibuffer import IB_CAPACITY
from repro.cpu.operands import resolve_operand
from repro.memory.pagetable import PAGE_SIZE
from repro.ucode.microword import MicroSlot

#: Environment switch: set to 1/true/yes/on to force the interpreted path.
NO_COMPILE_ENV = "REPRO_NO_COMPILE"

#: Length of the I-stream lookahead a record lookup probes with.
#: Instructions longer than the IB are verified via the lookahead and
#: consume through ``_take_bytes`` under-runs; a record longer than 16
#: bytes (three memory operands with long displacements) is never found
#: by a probe, only through the per-machine VA cache.
_MAX_IMAGE = 16

#: Soft cap on distinct byte-keyed records per layout; beyond it new
#: records still execute but are not retained.
_RECORD_CACHE_CAP = 65_536

_COMPUTE_A = MicroSlot.COMPUTE_A.value
_COMPUTE_B = MicroSlot.COMPUTE_B.value

# Replay op kinds (tuple tag ints, matched in execute_record).
OP_CONSUME = 0  # (OP_CONSUME, byte_count, wait_routine)
OP_ADVANCE = 1  # (OP_ADVANCE, cycles, ((bucket, count), ...))
OP_SPEC = 2  # (OP_SPEC, SpecPlan)
OP_BRANCH = 3  # (OP_BRANCH, width, displacement)
OP_DECODE_TICK = 4  # (OP_DECODE_TICK, cycles, incs) — the decode cycle


def compile_disabled_by_env() -> bool:
    """True when ``REPRO_NO_COMPILE`` asks for the interpreted path."""
    return os.environ.get(NO_COMPILE_ENV, "").strip().lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


@dataclass
class CompileStats:
    """Per-machine replay diagnostics (never part of measured results).

    Excluded from snapshots so compiled and interpreted runs pickle
    byte-identically; surfaced through MetricsRegistry / RunManifest.
    """

    #: microroutines flattened into RoutinePrograms for this layout
    routines_specialized: int = 0
    #: instruction records formed (recorded executions whose bytes had
    #: no record yet)
    records_compiled: int = 0
    #: fast-path executions (JIT cache hit, replay ran to completion)
    jit_hits: int = 0
    #: interpreted executions while compilation was enabled
    jit_misses: int = 0
    #: byte-image mismatches at a cached address (aliasing / rewrites)
    byte_fallbacks: int = 0
    #: cycles charged by replayed instructions
    fast_cycles: int = 0
    #: cycles charged by interpreted instructions (compile enabled)
    slow_cycles: int = 0
    #: interpreter fallbacks by cause ("byte_mismatch" / "unresolved"),
    #: diagnosed on the jit-miss path
    fallback_causes: dict = field(default_factory=dict)

    @property
    def fast_instruction_fraction(self) -> float:
        total = self.jit_hits + self.jit_misses
        return self.jit_hits / total if total else 0.0

    @property
    def fast_cycle_fraction(self) -> float:
        total = self.fast_cycles + self.slow_cycles
        return self.fast_cycles / total if total else 0.0

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["fallback_causes"] = dict(sorted(self.fallback_causes.items()))
        out["fast_instruction_fraction"] = round(self.fast_instruction_fraction, 4)
        out["fast_cycle_fraction"] = round(self.fast_cycle_fraction, 4)
        return out

    def merge_from(self, other: "CompileStats") -> None:
        """Accumulate another machine's stats (shard merging)."""
        self.routines_specialized = max(
            self.routines_specialized, other.routines_specialized
        )
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for cause, count in other.fallback_causes.items():
            self.fallback_causes[cause] = self.fallback_causes.get(cause, 0) + count

    def note_fallback(self, cause: str) -> None:
        self.fallback_causes[cause] = self.fallback_causes.get(cause, 0) + 1


#: MetricsRegistry name prefix for the replay diagnostics.
METRIC_PREFIX = "sim.compile."

#: CompileStats fields that accumulate: every int field but the
#: ``routines_specialized`` gauge.
_COUNTER_FIELDS = tuple(
    spec.name
    for spec in fields(CompileStats)
    if isinstance(spec.default, int) and spec.name != "routines_specialized"
)


def record_metrics(
    registry, stats: CompileStats, active: bool, disabled_by_tracer: bool = False
) -> None:
    """Expose one machine's :class:`CompileStats` through a
    :class:`~repro.obs.metrics.MetricsRegistry` under ``sim.compile.*``.

    Counts go in as counters (so pool workers' snapshots sum when the
    coordinator merges them); the specialization count and derived
    fractions go in as gauges.  ``active`` records whether the compiled
    path was enabled at all (0 under ``REPRO_NO_COMPILE=1`` or a
    tracer); ``disabled_by_tracer`` counts runs where an attached
    tracer — and nothing else — forced the interpreted path, so A/B
    comparisons can see the forcing in the metrics, not just stderr.
    """
    for name in _COUNTER_FIELDS:
        registry.counter(METRIC_PREFIX + name).inc(getattr(stats, name))
    for cause, count in sorted(stats.fallback_causes.items()):
        registry.counter(
            METRIC_PREFIX + "fallback." + cause,
            "interpreter fallbacks: " + cause,
        ).inc(count)
    if disabled_by_tracer:
        registry.counter(
            METRIC_PREFIX + "disabled_by_tracer",
            "runs where an attached tracer forced the interpreted path",
        ).inc(1)
    registry.gauge(
        METRIC_PREFIX + "routines_specialized",
        "microroutines flattened into replay programs",
    ).set(stats.routines_specialized)
    registry.gauge(
        METRIC_PREFIX + "fast_instruction_fraction",
        "instructions replayed from compiled records",
    ).set(round(stats.fast_instruction_fraction, 4))
    registry.gauge(
        METRIC_PREFIX + "fast_cycle_fraction",
        "cycles charged by the compiled fast path",
    ).set(round(stats.fast_cycle_fraction, 4))
    registry.gauge(
        METRIC_PREFIX + "active", "1 when the compiled path was enabled"
    ).set(1 if active else 0)


def stats_from_snapshot(snapshot) -> "dict | None":
    """Rebuild the compile-stats dict from a registry snapshot.

    The engine calls this to stamp a :class:`~repro.obs.provenance.RunManifest`
    without reaching into the machine; returns ``None`` when the
    snapshot carries no ``sim.compile.*`` metrics (pre-compile
    snapshots, foreign registries).
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if METRIC_PREFIX + "active" not in gauges:
        return None
    out = {}
    for source in (counters, gauges):
        for name, value in source.items():
            if name.startswith(METRIC_PREFIX):
                out[name[len(METRIC_PREFIX):]] = value
    # Fractions recomputed from the (possibly merged) counts beat the
    # last worker's gauge value.
    hits = out.get("jit_hits", 0)
    misses = out.get("jit_misses", 0)
    if hits + misses:
        out["fast_instruction_fraction"] = round(hits / (hits + misses), 4)
    fast = out.get("fast_cycles", 0)
    slow = out.get("slow_cycles", 0)
    if fast + slow:
        out["fast_cycle_fraction"] = round(fast / (fast + slow), 4)
    return out


# ---------------------------------------------------------------------------
# layer 1: routine specialization (build_layout time)
# ---------------------------------------------------------------------------


class RoutineProgram:
    """One microroutine flattened for replay.

    The dense form of what ``EBox._tick_slot`` recomputes every cycle:
    the histogram bucket of each slot and the increment sequence a
    ``_charge_compute``-style burst produces, patched-entry abort
    detour included.
    """

    __slots__ = ("buckets", "patched", "abort_bucket")

    def __init__(self, routine, bucket_map, abort_bucket):
        # Dense per-slot bucket table, indexed by MicroSlot.value; None
        # for slots the routine does not implement.
        self.buckets = tuple(
            bucket_map[address] if address is not None else None
            for address in routine.slot_addrs
        )
        self.patched = routine.patched
        self.abort_bucket = abort_bucket

    def compute_incs(self, cycles):
        """(total_cycles, incs) for ``_charge_compute(routine, cycles)``."""
        if cycles <= 0:
            return 0, ()
        incs = []
        total = cycles
        if self.patched:
            # A patched entry microinstruction costs one abort cycle per
            # execution, charged before COMPUTE_A.
            incs.append((self.abort_bucket, 1))
            total += 1
        incs.append((self.buckets[_COMPUTE_A], 1))
        if cycles > 1:
            incs.append((self.buckets[_COMPUTE_B], cycles - 1))
        return total, tuple(incs)

    def slot_incs(self, slot, count=1):
        """(total_cycles, incs) for ``_tick_slot(routine, slot, count)``."""
        incs = []
        total = count
        if self.patched and slot == _COMPUTE_A:
            incs.append((self.abort_bucket, 1))
            total += 1
        incs.append((self.buckets[slot], count))
        return total, tuple(incs)


class LayoutReplay:
    """The specialized control store: one RoutineProgram per routine.

    Built once per :class:`~repro.ucode.routines.MicrocodeLayout`
    (``build_layout`` triggers it for the shared layout) and consulted
    by the instruction compiler.  The micro-PC → bucket fold is the
    monitor interface board's (:func:`~repro.core.monitor.bucket_fold`)
    for the standard 16,000-bucket board, the only board the compiled
    path runs on.
    """

    def __init__(self, layout):
        bucket_map = bucket_fold()
        abort_bucket = bucket_map[layout.abort.address(MicroSlot.COMPUTE_A)]
        self._by_id = {
            id(routine): RoutineProgram(routine, bucket_map, abort_bucket)
            for routine in layout.store.routines
        }

    def program_for(self, routine) -> RoutineProgram:
        program = self._by_id.get(id(routine))
        if program is None:
            raise KeyError("routine {} is not in this layout".format(routine.name))
        return program

    def __len__(self):
        return len(self._by_id)


#: control store -> LayoutReplay.  Keyed by the store (1:1 with its
#: layout, and hashable by identity — MicrocodeLayout is an eq-comparing
#: dataclass and therefore unhashable).  Lives outside the layout object
#: so machine snapshots (which pickle the layout) stay byte-identical
#: whether or not the replay layer was ever built.
_LAYOUT_REPLAYS: "WeakKeyDictionary" = WeakKeyDictionary()


def specialize_layout(layout) -> LayoutReplay:
    """Flatten every microroutine of ``layout`` into replay programs.

    Idempotent; ``build_layout`` calls this so a freshly built layout is
    specialized up front, and lazy callers (snapshot-restored layouts)
    get the same treatment on first use.
    """
    replay = _LAYOUT_REPLAYS.get(layout.store)
    if replay is None:
        replay = LayoutReplay(layout)
        _LAYOUT_REPLAYS[layout.store] = replay
    return replay


# ---------------------------------------------------------------------------
# layer 2: records formed by recording the interpreter
# ---------------------------------------------------------------------------


class InstructionRecord:
    """A recorded instruction: the merged replay program.

    Never mutated after :func:`form_record` returns, so one record is
    safely shared by every machine on its layout.
    """

    __slots__ = (
        "raw",
        "ops",
        "opcode",
        "mnemonic",
        "handler",
        "exec_routine",
        "merge_pending",
        "last_source_routine",
    )


class Recorder:
    """Records one interpreted instruction as replay ops.

    ``EBox`` calls it from five plan-level sites while a recorder is
    attached: each I-stream take (``EBox._take_bytes``: the consumed
    bytes and a CONSUME on that take's wait routine), the decode cycle
    (a DECODE_TICK, recorded whether or not this execution spends it:
    the ``decode_overlap`` rule is applied at replay), each specifier's
    plan (an ADVANCE per compute charge, then the SPEC op), each branch
    displacement, and retirement.  Everything dynamic — IB stalls, TB
    misses, page faults, read/write stalls, unaligned detours — happens
    below those sites and is not recorded: the replay meets it again.

    Charge bursts merge when nothing interleaves: ``ib.run(a);
    ib.run(b)`` ≡ ``ib.run(a+b)``, and histogram increments inside one
    burst commute.  Consumes never merge — each mirrors exactly one
    interpreter ``take``, because that is the granularity at which the
    IB can stall (stall cycles must land on that take's wait routine)
    and at which consumed bytes free buffer room for the prefetcher.

    :meth:`build` interns every op but SPEC in ``shared``, the layout's
    op table: thousands of records repeat a few hundred distinct
    CONSUME / ADVANCE / DECODE_TICK / BRANCH tuples, and each record
    then holds references to one copy.  SPEC ops keep their own plans.
    """

    __slots__ = (
        "replay",
        "shared",
        "ops",
        "raw",
        "opcode",
        "merge_pending",
        "last_source_routine",
    )

    def __init__(self, layout):
        self.replay = specialize_layout(layout)
        self.shared = _layout_cache(layout)[3]
        self.ops = []
        self.raw = bytearray()

    def take(self, data, wait_routine):
        self.raw += data
        if data:
            self.ops.append((OP_CONSUME, len(data), wait_routine))

    def decode_tick(self, routine):
        cycles, incs = self.replay.program_for(routine).slot_incs(_COMPUTE_A)
        self.ops.append((OP_DECODE_TICK, cycles, incs))

    def spec(self, plan):
        ops = self.ops
        for routine, cycles in plan.charges:
            cycles, incs = self.replay.program_for(routine).compute_incs(cycles)
            if cycles <= 0:
                continue
            if ops and ops[-1][0] == OP_ADVANCE:
                prev = ops[-1]
                ops[-1] = (OP_ADVANCE, prev[1] + cycles, prev[2] + incs)
            else:
                ops.append((OP_ADVANCE, cycles, incs))
        ops.append((OP_SPEC, plan))

    def branch(self, width, displacement):
        self.ops.append((OP_BRANCH, width, displacement))

    def retire(self, opcode, merge_pending, last_source_routine):
        self.opcode = opcode
        self.merge_pending = merge_pending
        self.last_source_routine = last_source_routine

    def build(self):
        shared = self.shared
        ops = []
        for op in self.ops:
            kind = op[0]
            if kind != OP_SPEC:
                # A Routine is unhashable; the layout keeps its routines
                # alive, so a CONSUME's wait routine is keyed by id.
                key = (kind, op[1], id(op[2])) if kind == OP_CONSUME else op
                op = shared.setdefault(key, op)
            ops.append(op)
        return tuple(ops)


def form_record(layout, recorder):
    """The record for the instruction ``recorder`` saw retire.

    Returns ``(record, formed)``.  Records are keyed by the consumed
    bytes alone — the uops.info keying: one record per opcode ×
    specifier-mode (× displacement) variant — and the first write wins:
    when those bytes already have a record (a probe too short to find
    it sent this execution to the recorder), that object is returned
    and ``formed`` is False, so a record never changes once a machine
    may hold it.
    """
    from repro.cpu.semantics import HANDLERS

    records, lengths, _sightings, _ops = _layout_cache(layout)
    raw = bytes(recorder.raw)
    record = records.get(raw)
    if record is not None:
        return record, False
    opcode = recorder.opcode
    record = InstructionRecord()
    record.raw = raw
    record.ops = recorder.build()
    record.opcode = opcode
    record.mnemonic = opcode.mnemonic
    record.handler = HANDLERS[opcode.mnemonic]
    record.exec_routine = layout.execute[opcode.mnemonic]
    record.merge_pending = recorder.merge_pending
    record.last_source_routine = recorder.last_source_routine
    if len(records) < _RECORD_CACHE_CAP:
        records[raw] = record
        lengths.setdefault(raw[0], set()).add(len(raw))
    return record, True


# ---------------------------------------------------------------------------
# record caches
# ---------------------------------------------------------------------------

#: control store -> ({raw: record}, {first_byte: set(lengths)},
#: {image: sightings}, {op key: shared op})
_LAYOUT_RECORDS: "WeakKeyDictionary" = WeakKeyDictionary()

#: Executions of a byte image seen before its record forms.  The first
#: sighting is interpreted and only counted (a dict increment, ~0.3 µs);
#: the second is interpreted with a :class:`Recorder` attached.
#: One-shot images — cold boot paths, straight-line code executed once —
#: never pay for a record at all (about 1 KB each), which matters
#: because a workload's byte-image working set can exceed the
#: instruction budget of a short run.
_COMPILE_MIN_SIGHTINGS = 2

#: Bound on the sightings table; cleared wholesale if ever exceeded
#: (counting restarts, records already formed are unaffected).
_SIGHTINGS_CAP = 1 << 18


def _layout_cache(layout):
    entry = _LAYOUT_RECORDS.get(layout.store)
    if entry is None:
        entry = ({}, {}, {}, {})
        _LAYOUT_RECORDS[layout.store] = entry
    return entry


def _lookup(records, lengths, buf):
    """The cached record whose raw starts ``buf``, or None.

    Record raws are prefix-unambiguous — specifier parsing is
    deterministic, so no valid instruction image is a proper prefix of
    another — which makes probing the cached lengths for one first byte
    sound: at most one can match.
    """
    lens = lengths.get(buf[0])
    if lens:
        n = len(buf)
        for length in lens:
            if length <= n:
                record = records.get(bytes(buf[:length]))
                if record is not None:
                    return record
    return None


def resolve(ebox):
    """The record for the instruction at ``ebox``'s decode point.

    Probes the layout's byte-keyed records with the IB's bytes when the
    buffer is full (most records fit it), else — or when a full buffer
    matches nothing, an instruction longer than the IB — with the
    :func:`peek_image` lookahead of what the prefetcher will deliver.
    Returns the record.  Otherwise counts a sighting of the probed
    image and returns True on its ``_COMPILE_MIN_SIGHTINGS``-th (the
    caller interprets this execution with a :class:`Recorder` attached)
    and False before, or when not even the first byte is determined.
    """
    records, lengths, sightings, _ops = _layout_cache(ebox.layout)
    buf = ebox.ib._bytes
    if len(buf) >= IB_CAPACITY:
        record = _lookup(records, lengths, buf)
        if record is not None:
            return record
    probe = peek_image(ebox)
    if probe is None:
        return False
    record = _lookup(records, lengths, probe)
    if record is not None:
        return record
    key = probe[:_MAX_IMAGE]
    count = sightings.get(key, 0) + 1
    if count < _COMPILE_MIN_SIGHTINGS:
        if len(sightings) >= _SIGHTINGS_CAP:
            sightings.clear()
        sightings[key] = count
        return False
    sightings.pop(key, None)
    return True


def clear_record_caches() -> None:
    """Drop every layout's record cache and shared op table.

    Benchmarks and tests call this between arms so each arm forms its
    records from cold (machines built afterwards start with empty
    per-machine caches; the layout-wide byte-keyed caches are what
    persists across machines).
    """
    _LAYOUT_RECORDS.clear()


# ---------------------------------------------------------------------------
# I-stream lookahead
# ---------------------------------------------------------------------------
#
# A taken branch flushes the IB, so the next instruction starts with an
# empty buffer — on branchy code a quarter of instructions would never
# validate their byte image against the IB and would fall back to the
# interpreter forever.  But what the prefetcher is *going* to deliver
# is already determined: with no fill or TB miss in flight, the next
# bytes are exactly physical memory at the translation of ``fetch_va``
# (the pager only ever maps fresh frames, handlers only write after the
# decode phase's consumes, and spec-phase data reads never change
# memory contents — only cache/TB timing state).  Both helpers below
# read through ``TranslationBuffer.peek`` and ``PhysicalMemory.dump``,
# which have no statistics or timing side effects, so a failed
# lookahead leaves the machine bit-identical to never having asked.
#
# An in-flight cache fill carries a longword that was read from memory
# in an earlier cycle and could in principle predate a store — so the
# lookahead verifies it: if memory *still* holds the same longword at
# the (still resident) translation, the stale read is indistinguishable
# from a fresh one and the lookahead sees straight through the fill.
# Any intervening store to that longword makes the comparison fail and
# the lookahead declines as before.


def _inflight_tail(ib, memory):
    """The byte run an in-flight fill will deliver, when provably current.

    Returns ``(bytes, next_va)`` — the undelivered bytes of the pending
    longword and the VA lookahead continues from — or ``None`` when the
    pending value can no longer be proven to match memory.
    """
    va = ib._pending_va
    aligned = va & ~3
    pa = memory.tb.peek(aligned)
    if pa is None:
        return None
    data = memory.physical.dump(pa, 4)
    if int.from_bytes(data, "little") != ib._pending_value:
        return None
    return data[va & 3 :], aligned + 4


def _image_ready(ebox, ib, buf, raw):
    """True when the IB will provably deliver the missing tail of ``raw``."""
    n = len(buf)
    if n >= len(raw) or not raw.startswith(buf):
        return False
    if ib.tb_miss_pending:
        return False
    memory = ebox.memory
    va = ib._fetch_va
    pos = n
    end = len(raw)
    if ib._pending_value is not None:
        tail = _inflight_tail(ib, memory)
        if tail is None:
            return False
        extra, va = tail
        take = end - pos
        if take > len(extra):
            take = len(extra)
        if extra[:take] != raw[pos : pos + take]:
            return False
        pos += take
    peek = memory.tb.peek
    dump = memory.physical.dump
    while pos < end:
        pa = peek(va)
        if pa is None:
            return False
        chunk = PAGE_SIZE - (va & (PAGE_SIZE - 1))
        if chunk > end - pos:
            chunk = end - pos
        if dump(pa, chunk) != raw[pos : pos + chunk]:
            return False
        va += chunk
        pos += chunk
    return True


def peek_image(ebox):
    """The next I-stream bytes from ``decode_va``, up to ``_MAX_IMAGE``.

    The IB's current contents extended by side-effect-free lookahead
    through the TB and physical memory; stops early (possibly returning
    fewer than ``_MAX_IMAGE`` bytes) at a non-resident page or an
    in-flight fill that no longer matches memory.  Returns ``None``
    when not even the first byte is determined.
    """
    ib = ebox.ib
    buf = ib._bytes
    n = len(buf)
    if n >= _MAX_IMAGE or ib.tb_miss_pending:
        return bytes(buf) if n else None
    memory = ebox.memory
    va = ib._fetch_va
    parts = [bytes(buf)]
    if ib._pending_value is not None:
        tail = _inflight_tail(ib, memory)
        if tail is None:
            return bytes(buf) if n else None
        extra, va = tail
        parts.append(extra)
        n += len(extra)
    peek = memory.tb.peek
    dump = memory.physical.dump
    need = _MAX_IMAGE - n
    while need > 0:
        pa = peek(va)
        if pa is None:
            break
        chunk = PAGE_SIZE - (va & (PAGE_SIZE - 1))
        if chunk > need:
            chunk = need
        data = dump(pa, chunk)
        if len(data) < chunk:
            break
        parts.append(data)
        va += chunk
        need -= chunk
    image = b"".join(parts)
    return image if image else None


# ---------------------------------------------------------------------------
# layer 3: the replay engine
# ---------------------------------------------------------------------------


def execute_record(record, ebox) -> bool:
    """Replay one compiled instruction on ``ebox``.

    Returns False — with **no state mutated** — when the record's byte
    image is neither in the IB nor provably on its way (see the
    I-stream lookahead section).  Otherwise runs the record's op loop
    inside the EBOX's own instruction frame
    (``EBox._begin_instruction`` / ``EBox._retire``, shared with the
    interpreter) and returns True.
    """
    ib = ebox.ib
    buf = ib._bytes
    if not buf.startswith(record.raw) and not _image_ready(
        ebox, ib, buf, record.raw
    ):
        return False

    start_va = ib._decode_va
    redirects_before = ib.stats.redirects
    ebox._instruction_start_cycle = ebox.cycle_count
    ebox._begin_instruction(record.opcode, record.exec_routine)

    events = ebox.events
    board = ebox._board
    collecting = board is not None and board._collecting
    counts = board._counts if collecting else None
    operands = []
    append = operands.append

    for op in record.ops:
        kind = op[0]
        if kind == OP_ADVANCE:
            if collecting:
                for bucket, count in op[2]:
                    counts[bucket] += count
            cycles = op[1]
            ebox.cycle_count += cycles
            # EBox._tick_slot's clock: the IB runs only when it is due.
            end = ib._now + cycles
            if end < ib._wake:
                ib._now = end
            else:
                ib.run(cycles)
        elif kind == OP_CONSUME:
            count = op[1]
            n = len(buf)
            if n >= count:
                if n >= IB_CAPACITY and count and not ib.tb_miss_pending:
                    ib._wake = ib._now + 2  # try_consume's rule: a full IB resumes
                del buf[:count]
                ib._decode_va += count
            else:
                # The interpreter's own IB-stall loop: ticks on this
                # take's wait routine, services I-stream TB misses,
                # consumes when the bytes land.
                ebox._take_bytes(count, op[2])
        elif kind == OP_SPEC:
            append(resolve_operand(ebox, op[1]))
        elif kind == OP_DECODE_TICK:
            # The interpreter's decode-cycle rule, verbatim.
            if not ebox.decode_overlap or ebox._last_instruction_redirected:
                if collecting:
                    for bucket, count in op[2]:
                        counts[bucket] += count
                cycles = op[1]
                ebox.cycle_count += cycles
                ib.run(cycles)
        else:  # OP_BRANCH
            ebox.branch_displacement = op[2]
            events.branch_displacements += 1
            events.displacement_bytes += op[1]

    ebox._last_source_routine = record.last_source_routine
    ebox._retire(
        record.handler, operands, record.merge_pending, start_va, redirects_before
    )
    return True
