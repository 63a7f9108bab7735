"""The I-Fetch stage: the 8-byte Instruction Buffer.

"The 8-byte IB makes a cache reference whenever one or more bytes are
empty.  When the requested longword arrives — possibly much later, if a
cache miss — it accepts as many bytes as it has room for then.  Thus the
IB can make repeated references (as many as four) to the same longword"
(Section 4.1).

The IB is hardware: its cache references never execute microcode, so the
micro-PC monitor cannot count them.  They are tallied in :class:`IBStats`
instead — the simulator's stand-in for the separate cache study the paper
cites for its 2.2-references-per-instruction figure.

An I-stream TB miss does not trap; it sets a flag the EBOX discovers only
when it runs out of bytes (Section 2.1), and fetching pauses until the
EBOX refills the TB.

The buffer is background hardware that needs attention only at events:
a fetch issuing, or an outstanding fill delivering.  ``_wake`` holds the
absolute cycle of the next one (:data:`NEVER` while the buffer is full
or a TB miss is pending), so a clock advance that ends before it costs
one comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.memory.pagetable import PAGE_SHIFT, PAGE_SIZE

IB_CAPACITY = 8

#: ``_wake`` while nothing happens until the EBOX acts: the buffer is
#: full (a consume resumes it) or an I-stream TB miss is pending (the
#: miss service resumes it).
NEVER = 1 << 62


@dataclass
class IBStats:
    """I-stream behaviour counters (Section 4.1's numbers)."""

    references: int = 0
    bytes_delivered: int = 0
    redirects: int = 0
    tb_miss_flags: int = 0

    @property
    def bytes_per_reference(self) -> float:
        return self.bytes_delivered / self.references if self.references else 0.0


class InstructionBuffer:
    """8-byte prefetch buffer running in EBOX cycle time.

    The EBOX advances it with :meth:`run` as it spends cycles (the
    buffer fetches in the background), takes decoded bytes with
    :meth:`try_consume`, and calls :meth:`redirect` on taken branches.

    The IB shares the cache port with EBOX data references and wins it
    at most every other cycle, which also keeps it from racing far past
    branch points: a fetch at cycle t makes the next one wait for t+2.
    A fetch that fills the buffer, misses the cache or misses the TB
    leaves that one-cycle port cooldown pending, and it stays pending
    until the buffer resumes — so every resume (a consume from a full
    buffer, a cleared TB miss, a redirect out of a pause or fill, and a
    fill delivering) schedules the next fetch two cycles on.
    """

    def __init__(self, memory):
        self.memory = memory  # MemorySubsystem
        self.stats = IBStats()
        #: optional repro.obs.trace.Tracer (the EBOX wires this);
        #: consulted only on miss / TB-miss / redirect branches.
        self.tracer = None
        self._bytes = bytearray()
        self._fetch_va = 0
        self._decode_va = 0
        #: the longword an outstanding cache miss delivers at ``_wake``
        self._pending_value: Optional[int] = None
        self._pending_va = 0
        self.tb_miss_pending = False
        self._now = 0  # tracks the EBOX cycle clock (advanced by run())
        self._wake = 1  # the first cycle fetches

    # -- control -----------------------------------------------------------

    def redirect(self, va: int) -> None:
        """Flush and start fetching at ``va`` (taken branch / REI / boot)."""
        if self._pending_value is not None or self._wake == NEVER:
            # Out of a fill or a pause: the port cooldown is still due.
            self._wake = self._now + 2
        self._bytes.clear()
        self._fetch_va = va
        self._decode_va = va
        self._pending_value = None
        self.tb_miss_pending = False
        self.stats.redirects += 1
        if self.tracer is not None:
            self.tracer.instant("IFETCH", self._now, "redirect", {"va": va})

    def clear_tb_miss(self) -> None:
        """The EBOX refilled the TB; resume fetching."""
        if self.tb_miss_pending:
            self.tb_miss_pending = False
            self._wake = self._now + 2 if len(self._bytes) < IB_CAPACITY else NEVER

    @property
    def decode_va(self) -> int:
        """Virtual address of the next byte the EBOX will consume."""
        return self._decode_va

    @property
    def fetch_va(self) -> int:
        """Virtual address the prefetcher needs next (TB-miss service target)."""
        return self._fetch_va

    # -- background fetching -------------------------------------------------

    def run(self, cycles: int = 1) -> None:
        """Advance the prefetcher by ``cycles`` EBOX cycles.

        Cycle-exact but event-driven: only the cycles at ``_wake`` do
        anything, each as the per-cycle clock would have done it then.
        """
        end = self._now + cycles
        wake = self._wake
        if end < wake:
            self._now = end
            return
        buf = self._bytes
        stats = self.stats
        while wake <= end:
            now = wake
            value = self._pending_value
            if value is not None:
                # The outstanding fill delivers.
                va = self._pending_va
                self._pending_value = None
            else:
                # One I-stream reference for the longword holding
                # fetch_va: the TB tag check and the cache way probe run
                # on the dense tables, moving every counter exactly as
                # translate() and Cache.read() would.  The TB and cache
                # are read here, not bound once: a machine's
                # configuration may replace them after it is built.
                va = self._fetch_va
                aligned = va & ~3
                memory = self.memory
                if memory.trace_hook is not None:
                    memory.trace_hook("iread", aligned)
                tb = memory.tb
                vpn = (aligned & 0x3FFFFFFF) >> PAGE_SHIFT
                top = (aligned >> 30) & 3
                if top >= 2:
                    index = (vpn & tb._index_mask) + tb.half_entries
                    tag = (vpn >> tb._index_bits) << 2 | 2
                else:
                    index = vpn & tb._index_mask
                    tag = (vpn >> tb._index_bits) << 2 | top
                tstats = tb.stats
                if tb._tags[index] != tag:
                    # No trap: the EBOX finds the flag when it runs out
                    # of bytes, and fetching pauses until it services it.
                    tstats.misses += 1
                    tstats.i_misses += 1
                    self.tb_miss_pending = True
                    stats.tb_miss_flags += 1
                    wake = NEVER
                    if self.tracer is not None:
                        self.tracer.instant("IFETCH", now, "ifetch tb miss", {"va": va})
                    break
                tstats.hits += 1
                stats.references += 1
                pa = (tb._pfns[index] << PAGE_SHIFT) | (aligned & (PAGE_SIZE - 1))
                physical = memory.physical
                mem32 = physical._mem32
                if mem32 is not None and pa + 4 <= physical.size:
                    value = mem32[pa >> 2]
                else:
                    value = physical.read(pa, 4)
                cache = memory.cache
                clock = cache._clock + 1
                cache._clock = clock
                sets = cache.sets
                block = pa // cache.block_size
                ways = cache.ways
                base = (block % sets) * ways
                ctag = block // sets
                ctags = cache._tags
                lru = cache._lru
                cstats = cache.stats
                for i in range(base, base + ways):
                    if ctags[i] == ctag:
                        lru[i] = clock
                        cstats.read_hits += 1
                        cstats.i_read_hits += 1
                        break
                else:
                    cstats.read_misses += 1
                    cstats.i_read_misses += 1
                    victim = base
                    least = lru[base]
                    for i in range(base + 1, base + ways):
                        if lru[i] < least:
                            least = lru[i]
                            victim = i
                    ctags[victim] = ctag
                    lru[victim] = clock
                    # The data arrives after the SBI transaction (plus
                    # any queueing behind concurrent traffic) completes.
                    fill = memory.sbi.read_block(now)
                    self._pending_va = va
                    self._pending_value = value
                    wake = now + fill
                    if self.tracer is not None:
                        self.tracer.instant(
                            "IFETCH", now, "ifetch miss", {"va": va, "fill_cycles": fill}
                        )
                    continue
            # Accept as many bytes of the longword from va on as fit.
            # The buffer is never full here: it fetched, so it had room.
            offset = va & 3
            take = 4 - offset
            room = IB_CAPACITY - len(buf)
            if take >= room:
                take = room
                wake = NEVER
            else:
                wake = now + 2
            buf += value.to_bytes(4, "little")[offset : offset + take]
            self._fetch_va = va + take
            stats.bytes_delivered += take
        self._wake = wake
        self._now = end

    # -- the EBOX side ---------------------------------------------------------

    def try_consume(self, count: int) -> Optional[bytes]:
        """Take ``count`` bytes if available; None means IB stall."""
        buf = self._bytes
        if len(buf) < count:
            return None
        if len(buf) >= IB_CAPACITY and count and not self.tb_miss_pending:
            self._wake = self._now + 2  # a full buffer resumes
        taken = bytes(buf[:count])
        del buf[:count]
        self._decode_va += count
        return taken
