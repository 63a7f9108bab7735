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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

IB_CAPACITY = 8


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

    The EBOX calls :meth:`run` once per EBOX cycle (the buffer fetches in
    the background), :meth:`try_consume` to take decoded bytes, and
    :meth:`redirect` on taken branches.
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
        self._fill_wait = 0  # cycles until an outstanding miss delivers
        self._pending_value: Optional[int] = None
        self._pending_va = 0
        self.tb_miss_pending = False
        self._now = 0  # tracks the EBOX cycle clock (advanced by run())
        self._port_cooldown = 0  # cache-port sharing with the EBOX

    # -- control -----------------------------------------------------------

    def redirect(self, va: int) -> None:
        """Flush and start fetching at ``va`` (taken branch / REI / boot)."""
        self._bytes.clear()
        self._fetch_va = va
        self._decode_va = va
        self._fill_wait = 0
        self._pending_value = None
        self.tb_miss_pending = False
        self.stats.redirects += 1
        if self.tracer is not None:
            self.tracer.instant("IFETCH", self._now, "redirect", {"va": va})

    def clear_tb_miss(self) -> None:
        """The EBOX refilled the TB; resume fetching."""
        self.tb_miss_pending = False

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

        Cycle-exact but batched: runs of cycles in which the prefetcher
        provably does nothing (waiting out a fill, TB-miss paused, or
        buffer full — the overwhelmingly common states) are skipped in
        one arithmetic step instead of being iterated one by one.  Only
        cycles that can issue a cache reference take the per-cycle path,
        so ``_now`` is identical to the unbatched clock at every fetch.
        """
        while cycles > 0:
            if self._fill_wait > 0:
                # Wait out the outstanding miss (or as much as fits).
                step = self._fill_wait if self._fill_wait <= cycles else cycles
                self._now += step
                self._fill_wait -= step
                cycles -= step
                if self._fill_wait == 0 and self._pending_value is not None:
                    self._accept(self._pending_va, self._pending_value)
                    self._pending_value = None
                continue
            if self.tb_miss_pending or len(self._bytes) >= IB_CAPACITY:
                # Paused until the EBOX refills the TB / consumes bytes:
                # nothing can happen for the rest of this batch.
                self._now += cycles
                return
            self._now += 1
            cycles -= 1
            if self._port_cooldown > 0:
                # The IB shares the cache port with EBOX data references;
                # it wins at most every other cycle, which also keeps it
                # from racing arbitrarily far past branch points.
                self._port_cooldown -= 1
                continue
            self._port_cooldown = 1
            value, cache_hit, tb_miss, fill_cycles = self.memory.istream_fetch(
                self._fetch_va, now=self._now
            )
            if tb_miss:
                self.tb_miss_pending = True
                self.stats.tb_miss_flags += 1
                if self.tracer is not None:
                    self.tracer.instant(
                        "IFETCH", self._now, "ifetch tb miss", {"va": self._fetch_va}
                    )
                continue
            self.stats.references += 1
            if cache_hit:
                self._accept(self._fetch_va, value)
            else:
                # Data arrives later — after the SBI transaction (plus
                # any queueing behind concurrent traffic) completes; the
                # IB then accepts as many bytes as it has room for.
                self._pending_va = self._fetch_va
                self._pending_value = value
                self._fill_wait = fill_cycles
                if self.tracer is not None:
                    self.tracer.instant(
                        "IFETCH",
                        self._now,
                        "ifetch miss",
                        {"va": self._fetch_va, "fill_cycles": fill_cycles},
                    )

    def _accept(self, va: int, longword: int) -> None:
        """Accept bytes from the longword containing ``va`` into the IB."""
        offset = va & 3
        available = 4 - offset
        room = IB_CAPACITY - len(self._bytes)
        take = min(available, room)
        if take <= 0:
            return
        data = longword.to_bytes(4, "little")[offset : offset + take]
        self._bytes.extend(data)
        self._fetch_va += take
        self.stats.bytes_delivered += take

    # -- the EBOX side ---------------------------------------------------------

    def try_consume(self, count: int) -> Optional[bytes]:
        """Take ``count`` bytes if available; None means IB stall."""
        if len(self._bytes) < count:
            return None
        taken = bytes(self._bytes[:count])
        del self._bytes[:count]
        self._decode_va += count
        return taken

    def peek(self, count: int) -> Optional[bytes]:
        """Look at the next ``count`` bytes without consuming them."""
        if len(self._bytes) < count:
            return None
        return bytes(self._bytes[:count])
