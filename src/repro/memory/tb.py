"""The VAX-11/780 Translation Buffer.

128 entries split into two direct-mapped halves of 64: one for system
space, one for process (P0/P1) space.  The process half is flushed on
every context switch (LDPCTX), which is why the paper points at
context-switch headway as "useful in setting the 'flush' interval in
cache and translation buffer simulations".

A lookup either hits (returning the cached PFN) or raises :class:`TBMiss`;
on the real machine an EBOX-reference miss asserts a microcode interrupt
and the miss-service microroutine walks the page table and calls
:meth:`TranslationBuffer.fill`.  The EBOX model does exactly that.

Entries live in three dense flat tables (``_tags``/``_pfns``/``_writable``,
process half first, system half at offset ``half_entries``) rather than
per-entry objects.  Flushes overwrite slots in place — the table objects
are never rebound — so the memory subsystem's fused fast paths and the
replay compiler can hold direct references to them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.pagetable import PAGE_SHIFT, PAGE_SIZE

HALF_ENTRIES = 64


class TBMiss(Exception):
    """Raised when a virtual address has no TB entry.

    Carries everything the miss-service microroutine needs.
    """

    def __init__(self, va: int, write: bool, stream: str):
        super().__init__("TB miss at {:#010x}".format(va))
        self.va = va
        self.write = write
        self.stream = stream  # 'i' or 'd'


@dataclass
class TBStats:
    """Per-stream hit/miss counters (paper: 0.029 misses/instr total,
    0.020 D-stream + 0.009 I-stream)."""

    hits: int = 0
    misses: int = 0
    d_misses: int = 0
    i_misses: int = 0
    process_flushes: int = 0

    @property
    def references(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.references if self.references else 0.0


class TranslationBuffer:
    """Two direct-mapped halves (system / process), 64 entries each on
    the 11/780; the half size is parameterized for ablation studies."""

    def __init__(self, half_entries: int = HALF_ENTRIES):
        if half_entries <= 0 or half_entries & (half_entries - 1):
            raise ValueError("half_entries must be a positive power of two")
        self.half_entries = half_entries
        self._index_bits = half_entries.bit_length() - 1
        self._index_mask = half_entries - 1
        # Flat tables: process half at [0, half), system half at
        # [half, 2*half).  tag -1 = invalid.
        self._tags = [-1] * (2 * half_entries)
        self._pfns = [0] * (2 * half_entries)
        self._writable = [False] * (2 * half_entries)
        self.stats = TBStats()

    def _slot_and_tag(self, va: int):
        # Index by low VPN bits within the region; tag with the rest plus
        # the region so P0 and P1 pages cannot alias each other.  The
        # region is the top VA bit pair: p0/p1/system is 0/1/2+, as
        # repro.memory.pagetable.region_of reads it.
        vpn = (va & 0x3FFFFFFF) >> PAGE_SHIFT
        top = (va >> 30) & 3
        index = vpn & self._index_mask
        if top >= 2:
            index += self.half_entries
            top = 2
        return index, (vpn >> self._index_bits) << 2 | top

    def translate(self, va: int, write: bool = False, stream: str = "d") -> int:
        """Translate ``va``; raise :class:`TBMiss` when not resident.

        Returns the physical address.  (Write-protection faults are the
        VMS layer's concern; the TB only caches what it was filled with.)

        Every D-stream piece off the fused fast paths lands here, so
        ``_slot_and_tag`` is inlined.
        """
        vpn = (va & 0x3FFFFFFF) >> PAGE_SHIFT
        top = (va >> 30) & 3
        if top >= 2:
            index = (vpn & self._index_mask) + self.half_entries
            tag = (vpn >> self._index_bits) << 2 | 2
        else:
            index = vpn & self._index_mask
            tag = (vpn >> self._index_bits) << 2 | top
        if self._tags[index] != tag:
            stats = self.stats
            stats.misses += 1
            if stream == "i":
                stats.i_misses += 1
            else:
                stats.d_misses += 1
            raise TBMiss(va, write, stream)
        self.stats.hits += 1
        return (self._pfns[index] << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))

    def probe(self, va: int) -> bool:
        """True when a translation is resident (no statistics side effects)."""
        index, tag = self._slot_and_tag(va)
        return self._tags[index] == tag

    def peek(self, va: int):
        """Physical address when resident, else None — no statistics or
        timing side effects (the replay compiler's I-stream lookahead,
        a hot path, so ``_slot_and_tag`` is inlined)."""
        vpn = (va & 0x3FFFFFFF) >> PAGE_SHIFT
        top = (va >> 30) & 3
        if top >= 2:
            index = (vpn & self._index_mask) + self.half_entries
            tag = (vpn >> self._index_bits) << 2 | 2
        else:
            index = vpn & self._index_mask
            tag = (vpn >> self._index_bits) << 2 | top
        if self._tags[index] != tag:
            return None
        return (self._pfns[index] << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))

    def fill(self, va: int, pfn: int, writable: bool) -> None:
        """Install a translation (the tail of the miss-service routine)."""
        index, tag = self._slot_and_tag(va)
        self._tags[index] = tag
        self._pfns[index] = pfn
        self._writable[index] = writable

    def invalidate(self, va: int) -> None:
        """TBIS: invalidate a single virtual address if resident."""
        index, tag = self._slot_and_tag(va)
        if self._tags[index] == tag:
            self._tags[index] = -1
            self._pfns[index] = 0
            self._writable[index] = False

    def flush_process(self) -> None:
        """Flush the process half (LDPCTX / process-space TBIA)."""
        half = self.half_entries
        self._tags[0:half] = [-1] * half
        self._pfns[0:half] = [0] * half
        self._writable[0:half] = [False] * half
        self.stats.process_flushes += 1

    def flush_all(self) -> None:
        """Full TBIA (used at boot)."""
        entries = 2 * self.half_entries
        self._tags[:] = [-1] * entries
        self._pfns[:] = [0] * entries
        self._writable[:] = [False] * entries

    def resident_count(self) -> int:
        """Number of valid entries (diagnostics)."""
        return sum(1 for tag in self._tags if tag != -1)
