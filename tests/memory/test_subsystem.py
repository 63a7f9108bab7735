"""Unit tests for the wired memory subsystem (TB -> cache -> SBI + WB)."""

import pytest
from hypothesis import given, strategies as st

from repro.cpu.ibuffer import InstructionBuffer
from repro.memory import (
    MemorySubsystem,
    PageFault,
    PageTable,
    PhysicalMemory,
    TBMiss,
)
from repro.memory.pagetable import PAGE_SIZE
from repro.memory.write_buffer import DEFAULT_DRAIN_CYCLES


def make_subsystem(pages=16):
    """A subsystem with an identity-ish P0 mapping of ``pages`` pages.

    Page tables live at physical 0x10000; P0 page n maps to frame n.
    """
    physical = PhysicalMemory(1024 * 1024)
    subsystem = MemorySubsystem(physical=physical)
    table = PageTable(physical, base_pa=0x10000, length=pages)
    for vpn in range(pages):
        table.map(vpn, pfn=vpn)
    subsystem.set_page_table("p0", table)
    return subsystem


class TestTranslationPath:
    def test_first_read_raises_tb_miss(self):
        subsystem = make_subsystem()
        with pytest.raises(TBMiss):
            subsystem.read(0x100, 4)

    def test_service_then_read(self):
        subsystem = make_subsystem()
        subsystem.physical.write(0x100, 4, 0xCAFEBABE)
        subsystem.service_tb_miss(0x100)
        outcome = subsystem.read(0x100, 4)
        assert outcome.value == 0xCAFEBABE

    def test_pte_fetch_reports_stall_on_cold_cache(self):
        subsystem = make_subsystem()
        fill = subsystem.service_tb_miss(0x100)
        assert fill.pte_cache_miss and fill.pte_read_stall_cycles > 0

    def test_adjacent_ptes_share_cache_block(self):
        # PTEs are 4 bytes; an 8-byte block holds two, so the second
        # page's miss service should hit in the cache.
        subsystem = make_subsystem()
        first = subsystem.service_tb_miss(0 * PAGE_SIZE)
        second = subsystem.service_tb_miss(1 * PAGE_SIZE)
        assert first.pte_cache_miss and not second.pte_cache_miss

    def test_unmapped_page_faults(self):
        subsystem = make_subsystem(pages=2)
        with pytest.raises(PageFault):
            subsystem.service_tb_miss(10 * PAGE_SIZE)

    def test_invalid_pte_faults(self):
        subsystem = make_subsystem(pages=4)
        subsystem.page_tables["p0"].unmap(2)
        with pytest.raises(PageFault):
            subsystem.service_tb_miss(2 * PAGE_SIZE)

    def test_region_without_table_faults(self):
        subsystem = make_subsystem()
        with pytest.raises(PageFault):
            subsystem.service_tb_miss(0x80000000)


class TestReadTiming:
    def test_cold_read_stalls_warm_read_does_not(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        cold = subsystem.read(0x100, 4)
        warm = subsystem.read(0x100, 4)
        assert cold.cache_misses == 1 and cold.stall_cycles > 0
        assert warm.cache_misses == 0 and warm.stall_cycles == 0

    def test_aligned_longword_is_single_ref(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        outcome = subsystem.read(0x100, 4)
        assert outcome.physical_refs == 1 and not outcome.unaligned

    def test_unaligned_longword_is_two_refs(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        outcome = subsystem.read(0x102, 4)
        assert outcome.physical_refs == 2 and outcome.unaligned
        assert subsystem.alignment.unaligned_reads == 1

    def test_quad_read_is_two_refs_but_not_unaligned(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        outcome = subsystem.read(0x100, 8)
        assert outcome.physical_refs == 2 and not outcome.unaligned

    def test_byte_read_value(self):
        subsystem = make_subsystem()
        subsystem.physical.write(0x103, 1, 0xAB)
        subsystem.service_tb_miss(0x100)
        assert subsystem.read(0x103, 1).value == 0xAB

    @given(st.integers(min_value=0, max_value=PAGE_SIZE - 4), st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_read_returns_physical_contents(self, offset, value):
        subsystem = make_subsystem()
        subsystem.physical.write(offset, 4, value)
        subsystem.service_tb_miss(0)
        assert subsystem.read(offset, 4).value == value


class TestWriteTiming:
    def test_back_to_back_writes_stall(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        first = subsystem.write(0x100, 4, 1, now=0)
        second = subsystem.write(0x104, 4, 2, now=1)
        assert first.stall_cycles == 0
        assert second.stall_cycles == DEFAULT_DRAIN_CYCLES - 1

    def test_spaced_writes_do_not_stall(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        subsystem.write(0x100, 4, 1, now=0)
        outcome = subsystem.write(0x104, 4, 2, now=DEFAULT_DRAIN_CYCLES)
        assert outcome.stall_cycles == 0

    def test_write_through_updates_memory(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        subsystem.write(0x100, 4, 0x12345678, now=0)
        assert subsystem.physical.read(0x100, 4) == 0x12345678

    def test_write_miss_does_not_allocate(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        subsystem.write(0x100, 4, 5, now=0)
        # The line was never read, so a subsequent read must miss.
        outcome = subsystem.read(0x100, 4, now=20)
        assert outcome.cache_misses == 1

    def test_write_hit_updates_cache_line(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        subsystem.read(0x100, 4)  # allocate
        outcome = subsystem.write(0x100, 4, 5, now=20)
        assert outcome.cache_hits == 1

    def test_unaligned_write_counted(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x100)
        outcome = subsystem.write(0x102, 4, 5, now=0)
        assert outcome.unaligned and subsystem.alignment.unaligned_writes == 1


class TestIStreamPath:
    """The IB's own references: it probes the TB and cache tables itself."""

    @staticmethod
    def fetch(subsystem, va):
        """An IB started at ``va`` and run for one cycle: one fetch."""
        ib = InstructionBuffer(subsystem)
        ib.redirect(va)
        ib.run(1)
        return ib

    @staticmethod
    def deliver(ib):
        """Run up to the outstanding fill's delivery cycle."""
        ib.run(ib._wake - ib._now)

    def test_istream_tb_miss_sets_flag_not_exception(self):
        subsystem = make_subsystem()
        ib = self.fetch(subsystem, 0x200)
        assert ib.tb_miss_pending and not ib._bytes
        assert ib.stats.references == 0 and ib.stats.tb_miss_flags == 1
        assert subsystem.tb.stats.i_misses == 1
        assert subsystem.cache.stats.read_hits + subsystem.cache.stats.read_misses == 0

    def test_istream_fetch_after_fill(self):
        subsystem = make_subsystem()
        subsystem.physical.write(0x200, 4, 0x11223344)
        subsystem.service_tb_miss(0x200)
        ib = self.fetch(subsystem, 0x200)
        assert not ib.tb_miss_pending and ib._pending_value == 0x11223344
        self.deliver(ib)
        assert bytes(ib._bytes) == (0x11223344).to_bytes(4, "little")
        assert ib.fetch_va == 0x204

    def test_istream_fetch_aligns_down(self):
        subsystem = make_subsystem()
        subsystem.physical.write(0x200, 4, 0xAABBCCDD)
        subsystem.service_tb_miss(0x200)
        seen = []
        subsystem.trace_hook = lambda kind, va: seen.append((kind, va))
        ib = self.fetch(subsystem, 0x203)
        self.deliver(ib)
        assert seen == [("iread", 0x200)]
        assert bytes(ib._bytes) == b"\xaa"  # only the byte at 0x203

    def test_istream_miss_counts_in_i_stream_stats(self):
        subsystem = make_subsystem()
        subsystem.service_tb_miss(0x200)
        self.fetch(subsystem, 0x200)
        assert subsystem.cache.stats.i_read_misses == 1

    def test_istream_page_valid(self):
        subsystem = make_subsystem(pages=2)
        assert subsystem.istream_page_valid(0x0)
        assert not subsystem.istream_page_valid(100 * PAGE_SIZE)
