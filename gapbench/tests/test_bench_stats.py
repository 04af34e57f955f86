import pytest

import stats


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert stats.tail(list(range(19))) is None  # median leaves only 9 above
    assert stats.tail(list(range(1, 21))) == (50.0, 10)
    # 40 samples: p75 is rank 30 with 10 above; p90 would leave 4.
    assert stats.tail(list(range(1, 41))) == (75.0, 30)
    assert stats.tail(list(range(1, 101))) == (90.0, 90)
    assert stats.tail(list(range(1, 1001))) == (99.0, 990)
    assert stats.tail(list(range(1, 10001))) == (99.9, 9990)


def test_tail_counts_samples_not_values():
    values = [5.0] * 30 + [1.0] * 10
    p, value = stats.tail(values)
    assert p == 75.0 and value == 5.0


def test_percentile_is_nearest_rank():
    assert stats.percentile([3, 1, 2, 4], 50) == 2
    assert stats.percentile([3, 1, 2, 4], 100) == 4
    assert stats.percentile([7], 99.9) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)
