"""The event-horizon IB against a per-cycle oracle.

The IB advances only at its events (a fetch issuing, a fill delivering)
and makes its own TB and cache references on the dense tables.  The
oracle below is the model it replaced: a loop that steps every cycle,
with relative fill and port-cooldown counters, making each reference
through ``TranslationBuffer.translate`` and ``Cache.read``.  Both run the
same hypothesis-generated schedule on deep copies of one memory
subsystem, and every observable must agree after every step.
"""

import copy
import random

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cpu.ibuffer import IB_CAPACITY, IBStats, InstructionBuffer
from repro.memory import Cache, MemorySubsystem, PageTable, PhysicalMemory, TBMiss
from repro.memory.pagetable import PAGE_SIZE

SYSTEM = 0x80000000
PAGES = 4  # mapped per region; the TB and cache are scripted per example
#: Fetch targets and warmed blocks crowd into each page's first bytes,
#: so that fetches meet warmed lines and each other in every way; some
#: fetches start near a page's end, to cross into the next page.
HOT = 64


class OracleIB:
    """The per-cycle IB: one loop iteration per EBOX cycle."""

    def __init__(self, memory):
        self.memory = memory
        self.stats = IBStats()
        self.bytes = bytearray()
        self.fetch_va = self.decode_va = self.pending_va = self.now = 0
        self.fill_wait = self.cooldown = 0
        self.pending_value = None
        self.tb_miss_pending = False

    def redirect(self, va):
        self.bytes.clear()
        self.fetch_va = self.decode_va = va
        self.fill_wait = 0
        self.pending_value = None
        self.tb_miss_pending = False
        self.stats.redirects += 1

    def consume(self, count):
        if len(self.bytes) < count:
            return None
        taken = bytes(self.bytes[:count])
        del self.bytes[:count]
        self.decode_va += count
        return taken

    def accept(self, va, value):
        offset = va & 3
        take = min(4 - offset, IB_CAPACITY - len(self.bytes))
        if take > 0:
            self.bytes += value.to_bytes(4, "little")[offset : offset + take]
            self.fetch_va += take
            self.stats.bytes_delivered += take

    def run(self, cycles):
        for _ in range(cycles):
            self.now += 1
            if self.fill_wait:
                self.fill_wait -= 1
                if self.fill_wait == 0:
                    self.accept(self.pending_va, self.pending_value)
                    self.pending_value = None
                continue
            if self.tb_miss_pending or len(self.bytes) >= IB_CAPACITY:
                continue
            if self.cooldown:
                self.cooldown -= 1
                continue
            self.cooldown = 1
            self.fetch()

    def fetch(self):
        memory = self.memory
        aligned = self.fetch_va & ~3
        if memory.trace_hook is not None:
            memory.trace_hook("iread", aligned)
        try:
            pa = memory.tb.translate(aligned, stream="i")
        except TBMiss:
            self.tb_miss_pending = True
            self.stats.tb_miss_flags += 1
            return
        self.stats.references += 1
        value = memory.physical.read(pa, 4)
        if memory.cache.read(pa, stream="i"):
            self.accept(self.fetch_va, value)
        else:
            self.pending_va = self.fetch_va
            self.pending_value = value
            self.fill_wait = memory.sbi.read_block(self.now)


def inline_consume(ib, count):
    """The replay's OP_CONSUME (``execute_record``) when bytes suffice."""
    buf = ib._bytes
    n = len(buf)
    if n < count:
        return None
    if n >= IB_CAPACITY and count and not ib.tb_miss_pending:
        ib._wake = ib._now + 2
    taken = bytes(buf[:count])
    del buf[:count]
    ib._decode_va += count
    return taken


def build_memory(data, geometry, tb_pages, warm_blocks, sbi_busy):
    """A subsystem with P0 and system pages mapped and filled with
    ``data``, the pages in ``tb_pages`` resident in the TB, the cache
    (of ``geometry``) holding ``warm_blocks`` and the SBI busy until
    ``sbi_busy``."""
    physical = PhysicalMemory(256 * 1024)
    size, ways, block = geometry
    memory = MemorySubsystem(physical=physical, cache=Cache(size, ways, block))
    for region, base_pa, first_pfn in (("p0", 0x1000, 64), ("system", 0x2000, 64 + PAGES)):
        table = PageTable(physical, base_pa=base_pa, length=PAGES)
        for vpn in range(PAGES):
            table.map(vpn, pfn=first_pfn + vpn)
        memory.set_page_table(region, table)
    physical.load(64 * PAGE_SIZE, data)
    for va in tb_pages:
        entry = memory.pte_lookup(va)
        memory.tb.fill(va, entry.pfn, entry.writable)
    for pa in warm_blocks:
        memory.cache.read(pa)
    memory.sbi.read_block(0)
    memory.sbi._busy_until = sbi_busy
    return memory


page_vas = st.sampled_from(
    [region + page * PAGE_SIZE for region in (0, SYSTEM) for page in range(PAGES)]
)
offsets = st.integers(0, HOT - 1) | st.integers(PAGE_SIZE - HOT, PAGE_SIZE - 1)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.integers(0, 24)),
        st.tuples(st.just("consume"), st.integers(0, IB_CAPACITY)),
        st.tuples(st.just("inline"), st.integers(0, IB_CAPACITY)),
        st.tuples(st.just("redirect"), page_vas, offsets),
        st.tuples(st.just("service"), st.booleans()),
        st.tuples(st.just("flush"), st.booleans()),
        st.tuples(st.just("dread"), page_vas, st.integers(0, HOT - 4)),
    ),
    max_size=60,
)


def observe(ib_bytes, fetch_va, decode_va, now, tb_miss, stats, memory, log):
    cache = memory.cache
    return (
        bytes(ib_bytes), fetch_va, decode_va, now, tb_miss, stats,
        memory.tb.stats, memory.tb._tags, cache.stats, cache._tags, cache._lru,
        cache._clock, memory.sbi.stats, memory.sbi._busy_until, log,
    )


def scenario(schedule, tb_pages=(0,), warm_blocks=(64 * PAGE_SIZE, 64 * PAGE_SIZE + 8)):
    """An explicit example: the IB starts at va 0 (frame 64, whose first
    two lines are warm by default) in a 2-way cache of 8-byte lines."""
    return dict(
        fill=0, geometry=(128, 2, 8), tb_pages=list(tb_pages), warm_blocks=list(warm_blocks),
        sbi_busy=0, start=0, offset=0, schedule=schedule,
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# Each wake transition at least once, whatever hypothesis draws: two
# hits fill the buffer, then a consume (either kind) resumes it; ...
@example(**scenario([("run", 8), ("consume", 1), ("run", 4)]))
@example(**scenario([("run", 8), ("inline", 2), ("run", 4)]))
# ... a redirect out of a pause, out of a fill, and while active;
@example(**scenario([("run", 8), ("redirect", 0, 8), ("run", 4)]))
@example(**scenario([("run", 1), ("redirect", 0, 8), ("run", 9)], warm_blocks=()))
@example(**scenario([("run", 2), ("redirect", 0, 8), ("run", 4)]))
# ... a TB miss, then its service and clear;
@example(**scenario([("run", 2), ("service", True), ("run", 1), ("run", 12)], tb_pages=()))
# ... and a hit in a set's second way (va 0's line is warmed after a
# line of the same set, so it sits in way 1).
@example(**scenario([("run", 1)], warm_blocks=(64 * PAGE_SIZE + 64, 64 * PAGE_SIZE)))
@given(
    fill=st.integers(0, 2**32 - 1),
    geometry=st.sampled_from([(64, 1, 4), (128, 2, 8), (256, 4, 8), (8192, 2, 8), (512, 2, 32)]),
    tb_pages=st.lists(page_vas, max_size=2 * PAGES),
    warm_blocks=st.lists(
        st.builds(
            lambda page, offset: (64 + page) * PAGE_SIZE + offset,
            st.integers(0, 2 * PAGES - 1),
            st.integers(0, HOT - 1),
        ),
        max_size=32,
    ),
    sbi_busy=st.integers(0, 12),
    start=page_vas,
    offset=offsets,
    schedule=steps,
)
def test_event_horizon_matches_the_per_cycle_oracle(
    fill, geometry, tb_pages, warm_blocks, sbi_busy, start, offset, schedule
):
    data = random.Random(fill).randbytes(2 * PAGES * PAGE_SIZE)
    memory = build_memory(data, geometry, tb_pages, warm_blocks, sbi_busy)
    oracle_memory = copy.deepcopy(memory)
    log, oracle_log = [], []
    memory.trace_hook = lambda kind, va: log.append((kind, va))
    oracle_memory.trace_hook = lambda kind, va: oracle_log.append((kind, va))
    ib, oracle = InstructionBuffer(memory), OracleIB(oracle_memory)
    ib.redirect(start + offset)
    oracle.redirect(start + offset)

    for step in schedule:
        kind = step[0]
        if kind == "run":
            ib.run(step[1])
            oracle.run(step[1])
        elif kind in ("consume", "inline"):
            take = ib.try_consume if kind == "consume" else (lambda n: inline_consume(ib, n))
            assert take(step[1]) == oracle.consume(step[1])
        elif kind == "redirect":
            ib.redirect(step[1] + step[2])
            oracle.redirect(step[1] + step[2])
        elif kind == "service":
            # The EBOX's TB-miss service fills the TB, then clears the
            # flag; a clear with no miss pending must change nothing.
            if step[1] and ib.tb_miss_pending and memory.istream_page_valid(ib.fetch_va):
                for mem in (memory, oracle_memory):
                    entry = mem.pte_lookup(ib.fetch_va)
                    mem.tb.fill(ib.fetch_va, entry.pfn, entry.writable)
            ib.clear_tb_miss()
            oracle.tb_miss_pending = False
        elif kind == "flush":
            for mem in (memory, oracle_memory):
                if step[1]:
                    mem.tb.flush_all()
                else:
                    mem.tb.flush_process()
        else:  # an EBOX D-stream reference between prefetches
            for mem in (memory, oracle_memory):
                try:
                    mem.read(step[1] + step[2], 4, now=ib._now)
                except TBMiss:
                    pass
        assert observe(
            ib._bytes, ib.fetch_va, ib.decode_va, ib._now, ib.tb_miss_pending,
            ib.stats, memory, log,
        ) == observe(
            oracle.bytes, oracle.fetch_va, oracle.decode_va, oracle.now,
            oracle.tb_miss_pending, oracle.stats, oracle_memory, oracle_log,
        )
        # The horizon is never in the past: run(n) short of it is a no-op.
        assert ib._wake > ib._now


def test_run_short_of_the_horizon_touches_nothing():
    memory = build_memory(bytes(2 * PAGES * PAGE_SIZE), (8192, 2, 8), [0], [], 0)
    ib = InstructionBuffer(memory)
    ib.redirect(0)
    ib.run(1)  # a cache miss: the fill delivers at _wake
    assert ib._pending_value is not None
    before = (copy.deepcopy(memory.cache.stats), ib.stats.references)
    ib.run(ib._wake - ib._now - 1)
    assert (memory.cache.stats, ib.stats.references) == before and not ib._bytes
    ib.run(1)
    assert len(ib._bytes) == 4
