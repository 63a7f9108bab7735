"""Property-based fuzz of the merge path the sharded engine leans on.

Every sharded run funnels through two merge operations: sparse shard
deltas rebuilt with :meth:`HistogramBoard.from_sparse` and summed with
:meth:`merge_from`, and :class:`EventCounters` deltas produced by
:meth:`minus` and re-accumulated with :meth:`merge_from`.  These fuzz
randomized bank sizes and board states against a reference model, and
pin the diagnostics: every rejection must name the offending bucket (and
bank) so a failed merge in a 16,000-bucket histogram is debuggable.
"""

from collections import Counter
from copy import deepcopy

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor import (
    BANK_COUNT_MAX,
    HistogramBoard,
    MonitorCommandError,
)
from repro.cpu.events import EventCounters

# Small boards keep examples fast; nothing in the merge path depends on
# the bucket count beyond the banks agreeing.
board_sizes = st.integers(min_value=4, max_value=64)


def sparse_banks(size):
    bucket = st.integers(min_value=0, max_value=size - 1)
    count = st.integers(min_value=1, max_value=1 << 40)
    return st.tuples(
        st.dictionaries(bucket, count, max_size=size),
        st.dictionaries(bucket, count, max_size=size),
    )


@st.composite
def board_states(draw):
    size = draw(board_sizes)
    first = draw(sparse_banks(size))
    second = draw(sparse_banks(size))
    return size, first, second


class TestMergeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(board_states())
    def test_merge_is_the_per_bucket_sum(self, state):
        size, (counts_a, stalled_a), (counts_b, stalled_b) = state
        a = HistogramBoard.from_sparse(counts_a, stalled_a, buckets=size)
        b = HistogramBoard.from_sparse(counts_b, stalled_b, buckets=size)
        a.merge_from(b)
        merged_counts, merged_stalled = a.dump_sparse()
        model = Counter(counts_a)
        model.update(counts_b)
        assert merged_counts == dict(model)
        model = Counter(stalled_a)
        model.update(stalled_b)
        assert merged_stalled == dict(model)

    @settings(max_examples=100, deadline=None)
    @given(board_states())
    def test_merge_is_commutative(self, state):
        size, first, second = state
        ab = HistogramBoard.from_sparse(*first, buckets=size)
        ab.merge_from(HistogramBoard.from_sparse(*second, buckets=size))
        ba = HistogramBoard.from_sparse(*second, buckets=size)
        ba.merge_from(HistogramBoard.from_sparse(*first, buckets=size))
        assert ab.dump_sparse() == ba.dump_sparse()

    @settings(max_examples=100, deadline=None)
    @given(board_states())
    def test_from_sparse_dump_sparse_roundtrip(self, state):
        size, (counts, stalled), _ = state
        board = HistogramBoard.from_sparse(counts, stalled, buckets=size)
        assert board.dump_sparse() == (counts, stalled)
        assert board.total_cycles() == sum(counts.values()) + sum(stalled.values())

    @settings(max_examples=50, deadline=None)
    @given(
        size=board_sizes,
        bucket=st.integers(min_value=0, max_value=3),
        stalled_bank=st.booleans(),
        near_max=st.integers(min_value=BANK_COUNT_MAX - 10, max_value=BANK_COUNT_MAX),
        pushover=st.integers(min_value=11, max_value=1 << 20),
    )
    def test_overflow_names_bucket_and_bank(
        self, size, bucket, stalled_bank, near_max, pushover
    ):
        bank_a = {bucket: near_max}
        bank_b = {bucket: pushover}
        empty = {}
        if stalled_bank:
            a = HistogramBoard.from_sparse(empty, bank_a, buckets=size)
            b = HistogramBoard.from_sparse(empty, bank_b, buckets=size)
            bank_name = "stalled"
        else:
            a = HistogramBoard.from_sparse(bank_a, empty, buckets=size)
            b = HistogramBoard.from_sparse(bank_b, empty, buckets=size)
            bank_name = "non-stalled"
        with pytest.raises(MonitorCommandError) as excinfo:
            a.merge_from(b)
        message = str(excinfo.value)
        assert "merge overflow at bucket {} in the {} bank".format(
            bucket, bank_name
        ) in message
        assert str(near_max) in message and str(pushover) in message

    @settings(max_examples=50, deadline=None)
    @given(
        size=board_sizes,
        offset=st.integers(min_value=0, max_value=1 << 30),
        negative=st.booleans(),
    )
    def test_from_sparse_rejects_unstorable_counts(self, size, offset, negative):
        bad_count = -1 - offset if negative else BANK_COUNT_MAX + 1 + offset
        with pytest.raises(MonitorCommandError) as excinfo:
            HistogramBoard.from_sparse({2: bad_count}, {}, buckets=size)
        message = str(excinfo.value)
        assert "bucket 2" in message and "non-stalled" in message
        with pytest.raises(MonitorCommandError) as excinfo:
            HistogramBoard.from_sparse({}, {1: bad_count}, buckets=size)
        message = str(excinfo.value)
        assert "bucket 1" in message and "stalled" in message

    @settings(max_examples=50, deadline=None)
    @given(size=board_sizes, past_end=st.integers(min_value=0, max_value=1 << 20))
    def test_from_sparse_rejects_out_of_range_buckets(self, size, past_end):
        bad_bucket = size + past_end
        with pytest.raises(MonitorCommandError) as excinfo:
            HistogramBoard.from_sparse({bad_bucket: 1}, {}, buckets=size)
        assert "bucket {} out of range".format(bad_bucket) in str(excinfo.value)

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.tuples(board_sizes, board_sizes).filter(lambda p: p[0] != p[1])
    )
    def test_mismatched_sizes_name_both_boards(self, sizes):
        mine, theirs = sizes
        a = HistogramBoard(buckets=mine)
        b = HistogramBoard(buckets=theirs)
        with pytest.raises(MonitorCommandError) as excinfo:
            a.merge_from(b)
        message = str(excinfo.value)
        assert str(mine) in message and str(theirs) in message

    def test_overflow_leaves_target_bank_untouched(self):
        # _merge_bank builds the sum into a fresh array, so a rejected
        # merge must not leave a half-summed board behind.
        a = HistogramBoard.from_sparse({0: 5, 1: BANK_COUNT_MAX}, {2: 7}, buckets=8)
        b = HistogramBoard.from_sparse({0: 1, 1: 1}, {2: 1}, buckets=8)
        before = a.dump_sparse()
        with pytest.raises(MonitorCommandError):
            a.merge_from(b)
        assert a.dump_sparse() == before


# Strategies for EventCounters: small alphabets keep Counter overlap
# (the interesting case) likely.
_keys = st.sampled_from(["MOVL", "ADDL2", "BEQL", "(R1)", "disp(PC)", "literal"])
_counters = st.dictionaries(_keys, st.integers(min_value=1, max_value=1 << 30), max_size=6)
_scalars = st.integers(min_value=0, max_value=1 << 40)


@st.composite
def event_counters(draw):
    events = EventCounters()
    for name in events.__dataclass_fields__:
        if isinstance(getattr(events, name), Counter):
            setattr(events, name, Counter(draw(_counters)))
        else:
            setattr(events, name, draw(_scalars))
    return events


class TestEventCounterMergeFuzz:
    @settings(max_examples=100, deadline=None)
    @given(baseline=event_counters(), delta=event_counters())
    def test_minus_inverts_merge(self, baseline, delta):
        merged = deepcopy(baseline)
        merged.merge_from(delta)
        assert merged.minus(baseline) == delta

    @settings(max_examples=50, deadline=None)
    @given(parts=st.lists(event_counters(), min_size=1, max_size=4))
    def test_merging_shard_deltas_reconstructs_the_total(self, parts):
        total = EventCounters()
        for part in parts:
            total.merge_from(part)
        assert total.instructions == sum(p.instructions for p in parts)
        model = Counter()
        for part in parts:
            model.update(part.opcode_counts)
        assert total.opcode_counts == model

    def test_every_field_survives_a_merge(self):
        # A field merge_from skipped would silently drop out of
        # composites and shard merges.
        def value(name, number):
            if isinstance(getattr(EventCounters(), name), Counter):
                return Counter({name: number})
            return number

        part = EventCounters()
        for number, name in enumerate(part.__dataclass_fields__, start=1):
            setattr(part, name, value(name, number))
        total = EventCounters()
        total.merge_from(part)
        total.merge_from(part)
        for number, name in enumerate(part.__dataclass_fields__, start=1):
            assert getattr(total, name) == value(name, 2 * number), name

    def test_merge_keeps_first_occurrence_key_order(self):
        total = EventCounters(opcode_counts=Counter({"MOVL": 1}))
        counts = total.opcode_counts
        total.merge_from(EventCounters(opcode_counts=Counter({"ADDL2": 1, "MOVL": 1})))
        assert total.opcode_counts is counts
        assert list(total.opcode_counts) == ["MOVL", "ADDL2"]

    def test_minus_preserves_first_occurrence_key_order(self):
        # Serialized output is order-sensitive (JSON dicts); the delta
        # must list keys in the full run's first-occurrence order, not
        # sorted or baseline-relative order.
        baseline = EventCounters(opcode_counts=Counter({"MOVL": 2, "BEQL": 1}))
        current = deepcopy(baseline)
        current.opcode_counts["ADDL2"] = 5
        current.opcode_counts["MOVL"] += 3
        delta = current.minus(baseline)
        assert list(delta.opcode_counts) == ["MOVL", "ADDL2"]
        assert delta.opcode_counts == Counter({"MOVL": 3, "ADDL2": 5})

    def test_minus_drops_unchanged_keys(self):
        baseline = EventCounters(opcode_counts=Counter({"MOVL": 2}))
        delta = deepcopy(baseline).minus(baseline)
        assert delta.opcode_counts == Counter()
        assert delta.instructions == 0
