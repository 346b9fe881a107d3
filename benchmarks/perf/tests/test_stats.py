import statistics

import pytest

from stats import percentile, quartiles, samples_beyond, spread


def test_a_percentile_needs_ten_samples_beyond_it():
    # 24,000 samples: p99.95 leaves 11 beyond it, p99.99 only 2.
    assert samples_beyond(24_000, 0.9995) == 11
    assert samples_beyond(24_000, 0.9999) == 2
    # 1,000 samples leave 9 beyond p99, one too few; 1,100 leave 10.
    assert samples_beyond(1_000, 0.99) == 9
    assert samples_beyond(1_100, 0.99) == 10
    # The count is of the samples above the nearest-rank percentile itself.
    values = list(range(1_100))
    assert len(values) - 1 - values.index(percentile(values, 0.99)) == 10


def test_percentile_is_nearest_rank_and_clamped():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.5) == 3.0
    assert percentile(values, 0.99) == 4.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_quartiles_follow_the_drivers_rule():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 9.7]
    q1, median, q3 = quartiles(values)
    expected = statistics.quantiles(values, n=4)
    assert (q1, q3) == (expected[0], expected[2])
    assert median == statistics.median(values)
    assert spread(values) == pytest.approx((q3 - q1) / median)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([7.0]) == 0.0
