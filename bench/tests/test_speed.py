import pytest

from bench import speed
from bench.speed import sample, slowdowns


def test_slowdown_averages_samples_within_the_window(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW_S", 1.5)
    monkeypatch.setattr(speed, "SPIN_S", 2.0)
    monkeypatch.setattr(speed, "ALPHA", 1.0)
    stamps = [0.0, 1.0, 2.0, 10.0]
    samples = [[1.0], [3.0, 5.0], [2.0], [8.0]]
    got = slowdowns(stamps, samples)
    assert got == [pytest.approx(x) for x in (
        (1 + 3 + 5) / 3 / 2, (1 + 3 + 5 + 2) / 4 / 2, (3 + 5 + 2) / 3 / 2, 8 / 2)]
    monkeypatch.setattr(speed, "ALPHA", 2.0)
    assert slowdowns([0.0], [[4.0]]) == [4.0]


def test_sample_takes_at_least_one_reading():
    assert len(sample(0.0)) == 1
    assert all(t > 0 for t in sample(0.02))
