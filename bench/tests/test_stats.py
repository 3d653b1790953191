from fractions import Fraction

import pytest

from bench.stats import nearest_rank, tail_percentile


def test_nearest_rank_picks_the_ceil_rank():
    values = list(range(1, 11))
    assert nearest_rank(values, 50) == 5
    assert nearest_rank(values, 90) == 9
    assert nearest_rank(values, 91) == 10
    assert nearest_rank(values, 100) == 10
    assert nearest_rank([7.0], 50) == 7.0


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1, 2], 0)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (99, None), (100, Fraction(90)), (999, Fraction(90)),
    (1000, Fraction(99)), (9999, Fraction(99)), (10000, Fraction(999, 10)),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond_its_value():
    for n in (100, 150, 1000, 10000):
        values = list(range(n))
        p = tail_percentile(n)
        cut = nearest_rank(values, p)
        assert sum(v > cut for v in values) >= 10
