"""Unit tests for the micro-PC histogram monitor (the paper's apparatus)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.monitor import (
    HISTOGRAM_BUCKETS,
    HistogramBoard,
    MonitorCommandError,
    MonitorInterface,
)


class TestHistogramBoard:
    def test_16000_buckets(self):
        assert HistogramBoard().buckets == 16_000

    def test_counts_only_while_collecting(self):
        board = HistogramBoard()
        board.strobe(5)
        assert board.read_bucket(5) == (0, 0)
        board.start()
        board.strobe(5)
        board.stop()
        board.strobe(5)
        assert board.read_bucket(5) == (1, 0)

    def test_dual_banks(self):
        board = HistogramBoard()
        board.start()
        board.strobe(7)  # a successful execution
        board.strobe(7, stalled=True, repeat=6)  # six stall cycles
        assert board.read_bucket(7) == (1, 6)

    def test_clear(self):
        board = HistogramBoard()
        board.start()
        board.strobe(3)
        board.stop()
        board.clear()
        assert board.read_bucket(3) == (0, 0)

    def test_clear_while_collecting_rejected(self):
        board = HistogramBoard()
        board.start()
        with pytest.raises(MonitorCommandError):
            board.clear()

    def test_bad_bucket_rejected(self):
        board = HistogramBoard()
        board.start()
        with pytest.raises(MonitorCommandError):
            board.strobe(16_000)

    def test_total_cycles_spans_banks(self):
        board = HistogramBoard()
        board.start()
        board.strobe(1, repeat=3)
        board.strobe(2, stalled=True, repeat=2)
        assert board.total_cycles() == 5

    def test_merge_is_the_composite_sum(self):
        a, b = HistogramBoard(), HistogramBoard()
        a.start(), b.start()
        a.strobe(9, repeat=2)
        b.strobe(9, repeat=3)
        b.strobe(9, stalled=True)
        a.stop(), b.stop()
        a.merge_from(b)
        assert a.read_bucket(9) == (5, 1)

    def test_merge_rejects_mismatched_boards(self):
        a = HistogramBoard(buckets=16)
        b = HistogramBoard(buckets=32)
        with pytest.raises(MonitorCommandError):
            a.merge_from(b)

    def test_merge_while_collecting_rejected(self):
        # The real merge happened on the measurement host after both
        # boards were stopped and dumped; merging a live board is a
        # command error on either side.
        a, b = HistogramBoard(), HistogramBoard()
        a.start()
        with pytest.raises(MonitorCommandError):
            a.merge_from(b)
        a.stop()
        b.start()
        with pytest.raises(MonitorCommandError):
            a.merge_from(b)

    def test_read_bucket_error_names_the_offender(self):
        board = HistogramBoard(buckets=64)
        with pytest.raises(MonitorCommandError) as excinfo:
            board.read_bucket(64)
        message = str(excinfo.value)
        assert "bucket 64" in message
        assert "64 buckets" in message
        assert "0..63" in message
        with pytest.raises(MonitorCommandError) as excinfo:
            board.read_bucket(-1)
        assert "bucket -1" in str(excinfo.value)

    def test_merge_mismatch_error_reports_both_sizes(self):
        a = HistogramBoard(buckets=16)
        b = HistogramBoard(buckets=32)
        with pytest.raises(MonitorCommandError) as excinfo:
            a.merge_from(b)
        message = str(excinfo.value)
        assert "16" in message and "32" in message

    def test_merge_while_collecting_error_names_the_live_side(self):
        a, b = HistogramBoard(), HistogramBoard()
        a.start()
        with pytest.raises(MonitorCommandError) as excinfo:
            a.merge_from(b)
        assert "this board" in str(excinfo.value)
        a.stop()
        b.start()
        with pytest.raises(MonitorCommandError) as excinfo:
            a.merge_from(b)
        assert "the other board" in str(excinfo.value)
        a.start()
        with pytest.raises(MonitorCommandError) as excinfo:
            a.merge_from(b)
        assert "this board and the other board" in str(excinfo.value)

    def test_dump_sparse_matches_dense_dump(self):
        board = HistogramBoard()
        board.start()
        board.strobe(3, repeat=4)
        board.strobe(9_999, stalled=True, repeat=2)
        counts, stalled = board.dump_sparse()
        assert counts == {3: 4}
        assert stalled == {9_999: 2}
        dense_counts, dense_stalled = board.dump()
        assert all(dense_counts[b] == c for b, c in counts.items())
        assert all(dense_stalled[b] == c for b, c in stalled.items())
        assert sum(dense_counts) == sum(counts.values())

    def test_dump_returns_both_banks(self):
        board = HistogramBoard()
        board.start()
        board.strobe(0)
        counts, stalled = board.dump()
        assert counts[0] == 1 and stalled[0] == 0
        assert len(counts) == board.buckets

    @given(st.lists(st.integers(min_value=0, max_value=15_999), max_size=60))
    def test_total_equals_sum_of_strobes(self, addresses):
        board = HistogramBoard()
        board.start()
        for address in addresses:
            board.strobe(address)
        assert board.total_cycles() == len(addresses)


class TestInterfaceBoard:
    def test_identity_mapping_for_used_region(self):
        interface = MonitorInterface(HistogramBoard())
        assert interface.bucket_for(0x0F80) == 0x0F80

    def test_overflow_addresses_fold_to_top_bucket(self):
        interface = MonitorInterface(HistogramBoard())
        assert interface.bucket_for(16_383) == 15_999

    def test_out_of_range_upc_rejected(self):
        interface = MonitorInterface(HistogramBoard())
        with pytest.raises(MonitorCommandError):
            interface.bucket_for(16_384)


class TestLayoutFitsBoard:
    def test_every_allocated_address_maps_injectively(self):
        """Every control-store address the layout uses must get its own
        bucket (the fold at the top must never be exercised)."""
        from repro.ucode.routines import build_layout

        layout = build_layout()
        interface = MonitorInterface(HistogramBoard())
        buckets = [interface.bucket_for(a) for a in layout.store.used_addresses()]
        assert len(buckets) == len(set(buckets))
        assert max(buckets) < 15_999
