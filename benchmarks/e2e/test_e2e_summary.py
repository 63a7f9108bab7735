"""Order statistics of the end-to-end benchmark."""

import statistics

import pytest

import summary


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q1, median, q3 = summary.quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert median == statistics.median(values) == 4.0


def test_quartiles_of_even_count_and_single_sample():
    assert summary.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert summary.quartiles([7.5]) == (7.5, 7.5, 7.5)
    with pytest.raises(ValueError):
        summary.quartiles([])


def test_percentile_is_nearest_rank_with_count_beyond():
    values = list(range(1, 101))
    assert summary.percentile(values, 50) == (50, 50)
    assert summary.percentile(values, 95) == (95, 5)
    assert summary.percentile(values, 99.9) == (100, 0)


@pytest.mark.parametrize(
    "count, expected",
    [
        (10, None),      # p50 leaves only 5 beyond
        (20, 50.0),      # p50 leaves exactly 10
        (45, 75.0),      # p75 leaves 11, p90 only 4
        (100, 90.0),
        (300, 95.0),     # the hot-job sample count: p95 leaves 15
        (2400, 99.0),    # the fetch sample count: p99 leaves 24
        (20000, 99.9),
    ],
)
def test_pick_tail_chooses_highest_percentile_with_ten_beyond(count, expected):
    values = [float(i) for i in range(count)]
    picked = summary.pick_tail(values)
    if expected is None:
        assert picked is None
        return
    p, value = picked
    assert p == expected
    assert summary.percentile(values, p) == (value, sum(v > value for v in values))
    assert sum(v > value for v in values) >= summary.MIN_BEYOND


def test_describe_reports_tail_only_with_enough_samples():
    assert "tail" not in summary.describe([1.0, 2.0, 3.0])
    described = summary.describe([float(i) for i in range(300)])
    assert described["n"] == 300
    assert described["tail"]["p"] == 95.0
    assert summary.tail_label(99.9) == "p99.9"
    assert summary.tail_label(95.0) == "p95"


def test_worse_by_respects_direction():
    assert summary.worse_by(100.0, 110.0, "lower") == pytest.approx(0.1)
    assert summary.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.1)
    assert summary.worse_by(100.0, 90.0, "higher") == pytest.approx(0.1)
