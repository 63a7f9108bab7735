"""The assembled memory subsystem: TB -> cache -> SBI, plus write buffer.

This is the component the EBOX and the Instruction Buffer talk to.  Its
job is twofold: move data, and report *cycle truth* — how many read-stall
or write-stall cycles each reference costs, whether it missed, whether it
was unaligned (two physical references), whether translation missed.

Physical references happen at longword (4-byte) granularity, matching the
paper's Section 3 assumption of 32-bit paths to the cache; a longword
reference that straddles a longword boundary therefore takes two physical
references (the paper's *unaligned* event, 0.016 per instruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.cache import Cache
from repro.memory.pagetable import PAGE_SHIFT, PAGE_SIZE, PageTable, PageTableEntry, region_of, vpn_of
from repro.memory.physical import PhysicalMemory
from repro.memory.sbi import SBI
from repro.memory.tb import TBMiss, TranslationBuffer
from repro.memory.write_buffer import WriteBuffer

READ_MISS_STALL_CYCLES = 6


class PageFault(Exception):
    """A reference touched a page whose PTE is invalid.

    The VMS layer's pager services this (and the paper's assumption that
    "all VAX implementations experience the same rate of operating system
    events" is about exactly these).
    """

    def __init__(self, va: int, write: bool):
        super().__init__("page fault at {:#010x}".format(va))
        self.va = va
        self.write = write


@dataclass
class ReadOutcome:
    """The result of one D-stream read."""

    value: int
    physical_refs: int
    cache_misses: int
    stall_cycles: int
    unaligned: bool


@dataclass
class WriteOutcome:
    """The result of one D-stream write."""

    physical_refs: int
    cache_hits: int
    stall_cycles: int
    unaligned: bool


@dataclass
class TBFillOutcome:
    """The result of servicing one TB miss (the microcode routine's work)."""

    pte_read_stall_cycles: int
    pte_cache_miss: bool


@dataclass
class AlignmentStats:
    unaligned_reads: int = 0
    unaligned_writes: int = 0


class MemorySubsystem:
    """TB, cache, write buffer, SBI and physical memory, wired per Figure 1."""

    def __init__(
        self,
        physical: Optional[PhysicalMemory] = None,
        tb: Optional[TranslationBuffer] = None,
        cache: Optional[Cache] = None,
        write_buffer: Optional[WriteBuffer] = None,
        sbi: Optional[SBI] = None,
    ):
        self.physical = physical if physical is not None else PhysicalMemory()
        self.tb = tb if tb is not None else TranslationBuffer()
        self.cache = cache if cache is not None else Cache()
        self.write_buffer = write_buffer if write_buffer is not None else WriteBuffer()
        self.sbi = sbi if sbi is not None else SBI()
        self.alignment = AlignmentStats()
        #: Optional repro.obs.trace.Tracer (wired by VAX780); consulted
        #: only on miss paths, never on the hit fast path.
        self.tracer = None
        #: Optional reference-trace hook: called as hook(kind, va) with
        #: kind in {"iread", "dread", "write"} for every virtual
        #: reference (before translation).  Used by the trace-driven
        #: cache/TB simulators (the stand-in for the address traces of
        #: the companion cache and TB studies).
        self.trace_hook = None
        #: Region name -> active PageTable. The VMS layer swaps the p0/p1
        #: entries at context switch (LDPCTX).
        self.page_tables: Dict[str, Optional[PageTable]] = {
            "p0": None,
            "p1": None,
            "system": None,
        }

    # -- configuration -------------------------------------------------

    def set_page_table(self, region: str, table: Optional[PageTable]) -> None:
        if region not in self.page_tables:
            raise ValueError("unknown region {!r}".format(region))
        self.page_tables[region] = table

    # -- translation ----------------------------------------------------

    def translate(self, va: int, write: bool = False, stream: str = "d") -> int:
        """TB translation; raises :class:`TBMiss` when not resident."""
        return self.tb.translate(va, write=write, stream=stream)

    def pte_lookup(self, va: int) -> PageTableEntry:
        """Walk the page table for ``va`` (no timing side effects)."""
        table = self.page_tables.get(region_of(va))
        if table is None:
            raise PageFault(va, write=False)
        vpn = vpn_of(va)
        if vpn >= table.length:
            raise PageFault(va, write=False)
        return table.lookup(vpn)

    def service_tb_miss(self, va: int, write: bool = False, now: int = 0) -> TBFillOutcome:
        """Do the memory work of the TB-miss microroutine.

        Reads the PTE from physical memory *through the cache* — the
        source of the paper's "3.5 [cycles] were read stalls due to the
        requested page-table entry not being in the cache" — validates
        it, and fills the TB.  Raises :class:`PageFault` on an invalid
        PTE.  The caller (the microcode engine) accounts for the routine's
        compute cycles; this method returns only the memory-timing part.
        """
        table = self.page_tables.get(region_of(va))
        if table is None:
            raise PageFault(va, write)
        vpn = vpn_of(va)
        if vpn >= table.length:
            raise PageFault(va, write)
        pte_pa = table.pte_address(vpn)
        hit = self.cache.read(pte_pa, stream="d")
        stall = 0 if hit else self.sbi.read_block(now)
        entry = table.lookup(vpn)
        if not entry.valid:
            raise PageFault(va, write)
        self.tb.fill(va, entry.pfn, entry.writable)
        if not hit and self.tracer is not None:
            self.tracer.instant(
                "MEM", now, "pte cache miss", {"va": va, "stall_cycles": stall}
            )
        return TBFillOutcome(pte_read_stall_cycles=stall, pte_cache_miss=not hit)

    # -- D-stream references ---------------------------------------------

    def read_fast(self, va: int, size: int):
        """Hit-only D-stream read: the fused fast path.

        Handles the overwhelmingly common reference — an aligned
        single-longword piece that hits both the TB and the cache — with
        the TB tag check, cache way scan and physical load flattened into
        one body over the dense tables, no outcome object.  Returns the
        value, or None (having touched *nothing*) when the reference
        needs the general path: any miss, an unaligned/multi-longword
        span, or an active reference-trace hook (which must see every
        reference exactly once).  Counters move only on the all-hit path
        and identically to :meth:`read`.
        """
        if size <= 0 or size + (va & 3) > 4 or self.trace_hook is not None:
            return None
        tb = self.tb
        vpn = (va & 0x3FFFFFFF) >> PAGE_SHIFT
        top = (va >> 30) & 3
        if top >= 2:
            index = (vpn & tb._index_mask) + tb.half_entries
            tag = (vpn >> tb._index_bits) << 2 | 2
        else:
            index = vpn & tb._index_mask
            tag = (vpn >> tb._index_bits) << 2 | top
        if tb._tags[index] != tag:
            return None  # the general path recounts the miss
        pa = (tb._pfns[index] << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))
        cache = self.cache
        block = pa // cache.block_size
        ways = cache.ways
        base = (block % cache.sets) * ways
        ctag = block // cache.sets
        ctags = cache._tags
        way = -1
        for i in range(base, base + ways):
            if ctags[i] == ctag:
                way = i
                break
        if way < 0:
            return None  # the general path replays translate + miss fill
        clock = cache._clock + 1
        cache._clock = clock
        cache._lru[way] = clock
        cstats = cache.stats
        cstats.read_hits += 1
        cstats.d_read_hits += 1
        tb.stats.hits += 1
        mem32 = self.physical._mem32
        if mem32 is None:
            return self.physical.read(pa, size)
        value = mem32[pa >> 2]
        if size == 4:
            return value
        return (value >> ((pa & 3) << 3)) & ((1 << (size << 3)) - 1)

    def write_fast(self, va: int, size: int, value: int, now: int):
        """Aligned single-longword write-through: the fused fast path.

        Mirrors :meth:`write`'s aligned arm with the TB tag check and
        cache way scan flattened and no outcome object; a write proceeds
        on cache hit or miss alike, so only a TB miss (serviced via the
        general path's microtrap), a multi-longword span or an active
        trace hook decline.  Returns the write-stall cycles, or None to
        fall back.
        """
        if size <= 0 or size + (va & 3) > 4 or self.trace_hook is not None:
            return None
        tb = self.tb
        vpn = (va & 0x3FFFFFFF) >> PAGE_SHIFT
        top = (va >> 30) & 3
        if top >= 2:
            index = (vpn & tb._index_mask) + tb.half_entries
            tag = (vpn >> tb._index_bits) << 2 | 2
        else:
            index = vpn & tb._index_mask
            tag = (vpn >> tb._index_bits) << 2 | top
        if tb._tags[index] != tag:
            return None
        tb.stats.hits += 1
        pa = (tb._pfns[index] << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))
        cache = self.cache
        clock = cache._clock + 1
        cache._clock = clock
        block = pa // cache.block_size
        ways = cache.ways
        base = (block % cache.sets) * ways
        ctag = block // cache.sets
        ctags = cache._tags
        cstats = cache.stats
        for i in range(base, base + ways):
            if ctags[i] == ctag:
                cache._lru[i] = clock
                cstats.write_hits += 1
                break
        else:
            cstats.write_misses += 1
        stall = self.write_buffer.submit(now)
        self.sbi.write_longword()
        self.physical.write(pa, size, value & ((1 << (8 * size)) - 1))
        return stall

    @staticmethod
    def _longword_pieces(va: int, size: int):
        """Split [va, va+size) at longword boundaries (physical ref units)."""
        pieces = []
        cursor = va
        remaining = size
        while remaining:
            take = min(remaining, 4 - (cursor % 4))
            pieces.append((cursor, take))
            cursor += take
            remaining -= take
        return pieces

    def read(self, va: int, size: int, now: int = 0, stream: str = "d") -> ReadOutcome:
        """D-stream read of ``size`` bytes at virtual address ``va``.

        Raises :class:`TBMiss` (for the EBOX's microtrap) before any
        timing side effects, so the retry after the fill repeats cleanly.
        """
        if self.trace_hook is not None:
            self.trace_hook("dread", va)
        if 0 < size and size + (va & 3) <= 4:
            # Aligned single-longword piece (the overwhelmingly common
            # reference): one page, one translation, one cache lookup —
            # identical traffic and counters to the general path below,
            # without the piece/page bookkeeping structures.
            pa = self.tb.translate(va, write=False, stream=stream)
            stall = 0
            misses = 0
            if not self.cache.read(pa, stream=stream):
                misses = 1
                stall = self.write_buffer.busy_cycles_remaining(now)
                stall += self.sbi.read_block(now + stall)
                if self.tracer is not None:
                    self.tracer.instant(
                        "MEM", now, "cache read miss", {"va": va, "misses": 1}
                    )
            return ReadOutcome(
                value=self.physical.read(pa, size),
                physical_refs=1,
                cache_misses=misses,
                stall_cycles=stall,
                unaligned=False,
            )
        pieces = self._longword_pieces(va, size)
        # Translate every page touched first: a TB miss must abort the
        # reference before cache state changes.
        pages = sorted({piece_va & ~(PAGE_SIZE - 1) for piece_va, _ in pieces})
        translations = {}
        for page_va in pages:
            pa_page = self.translate(page_va, write=False, stream=stream)
            translations[page_va] = pa_page & ~(PAGE_SIZE - 1)

        stall = 0
        misses = 0
        value = 0
        shift = 0
        for piece_va, take in pieces:
            page_va = piece_va & ~(PAGE_SIZE - 1)
            pa = translations[page_va] | (piece_va & (PAGE_SIZE - 1))
            if not self.cache.read(pa, stream=stream):
                misses += 1
                # Memory is a single resource: a miss arriving while the
                # write buffer is still draining its write-through
                # transaction queues behind it (the write-heavy design
                # makes this common and lengthens average read stalls
                # beyond the 6-cycle "simplest case").
                stall += self.write_buffer.busy_cycles_remaining(now + stall)
                stall += self.sbi.read_block(now + stall)
            value |= self.physical.read(pa, take) << shift
            shift += 8 * take
        unaligned = size <= 4 and len(pieces) > 1
        if unaligned:
            self.alignment.unaligned_reads += 1
        if misses and self.tracer is not None:
            self.tracer.instant(
                "MEM", now, "cache read miss", {"va": va, "misses": misses}
            )
        return ReadOutcome(
            value=value,
            physical_refs=len(pieces),
            cache_misses=misses,
            stall_cycles=stall,
            unaligned=unaligned,
        )

    def write(self, va: int, size: int, value: int, now: int = 0) -> WriteOutcome:
        """D-stream write-through of ``size`` bytes at ``va``."""
        if self.trace_hook is not None:
            self.trace_hook("write", va)
        if 0 < size and size + (va & 3) <= 4:
            # Aligned single-longword piece: mirror of the read fast path.
            pa = self.tb.translate(va, write=True, stream="d")
            hits = 1 if self.cache.write(pa) else 0
            stall = self.write_buffer.submit(now)
            self.sbi.write_longword()
            self.physical.write(pa, size, value & ((1 << (8 * size)) - 1))
            return WriteOutcome(
                physical_refs=1, cache_hits=hits, stall_cycles=stall, unaligned=False
            )
        pieces = self._longword_pieces(va, size)
        pages = sorted({piece_va & ~(PAGE_SIZE - 1) for piece_va, _ in pieces})
        translations = {}
        for page_va in pages:
            pa_page = self.translate(page_va, write=True, stream="d")
            translations[page_va] = pa_page & ~(PAGE_SIZE - 1)

        stall = 0
        hits = 0
        shift = 0
        for piece_va, take in pieces:
            page_va = piece_va & ~(PAGE_SIZE - 1)
            pa = translations[page_va] | (piece_va & (PAGE_SIZE - 1))
            if self.cache.write(pa):
                hits += 1
            stall += self.write_buffer.submit(now + stall)
            self.sbi.write_longword()
            self.physical.write(pa, take, (value >> shift) & ((1 << (8 * take)) - 1))
            shift += 8 * take
        unaligned = size <= 4 and len(pieces) > 1
        if unaligned:
            self.alignment.unaligned_writes += 1
        return WriteOutcome(
            physical_refs=len(pieces),
            cache_hits=hits,
            stall_cycles=stall,
            unaligned=unaligned,
        )

    # -- physical references (PCB access via PCBB bypasses the TB) ---------

    def read_physical(self, pa: int, size: int, now: int = 0) -> ReadOutcome:
        """A physically-addressed D-stream read (SVPCTX/LDPCTX traffic)."""
        stall = 0
        misses = 0
        value = 0
        shift = 0
        for piece_pa, take in self._longword_pieces(pa, size):
            if not self.cache.read(piece_pa, stream="d"):
                misses += 1
                stall += self.sbi.read_block(now + stall)
            value |= self.physical.read(piece_pa, take) << shift
            shift += 8 * take
        return ReadOutcome(
            value=value,
            physical_refs=1,
            cache_misses=misses,
            stall_cycles=stall,
            unaligned=False,
        )

    def write_physical(self, pa: int, size: int, value: int, now: int = 0) -> WriteOutcome:
        """A physically-addressed write-through (SVPCTX traffic)."""
        stall = 0
        hits = 0
        shift = 0
        for piece_pa, take in self._longword_pieces(pa, size):
            if self.cache.write(piece_pa):
                hits += 1
            stall += self.write_buffer.submit(now + stall)
            self.sbi.write_longword()
            self.physical.write(piece_pa, take, (value >> shift) & ((1 << (8 * take)) - 1))
            shift += 8 * take
        return WriteOutcome(
            physical_refs=1, cache_hits=hits, stall_cycles=stall, unaligned=False
        )

    # -- I-stream support (the IB makes its references itself, on the TB
    #    and cache tables: repro.cpu.ibuffer) ------------------------------

    def istream_page_valid(self, va: int) -> bool:
        """Whether the page holding ``va`` is mapped (IB prefetch guard)."""
        try:
            return self.pte_lookup(va & ~3).valid
        except PageFault:
            return False
