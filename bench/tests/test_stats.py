"""The percentile rule: a tail is reported only with ten samples beyond it."""

import pytest

from bench import stats


def test_percentile_interpolates():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(samples, 100) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "count, expected",
    [(39, None), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0)],
)
def test_tail_needs_ten_samples_beyond(count, expected):
    assert stats.supported_tail(count) == expected


def test_summarize_falls_back_to_the_median():
    summary = stats.summarize([float(value) for value in range(20)])
    assert summary["count"] == 20
    assert summary["tail_pct"] == 50.0
    assert summary["tail"] == summary["p50"] == 9.5


def test_summarize_reports_the_highest_supported_tail():
    summary = stats.summarize([float(value) for value in range(101)])
    assert summary["tail_pct"] == 90.0
    assert summary["tail"] == 90.0


def test_spread_is_the_interquartile_share_of_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    cut = stats.quartiles(values)
    assert stats.spread(values) == (cut["q3"] - cut["q1"]) / cut["median"]
    assert stats.spread([5.0]) == 0.0
