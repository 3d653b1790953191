"""Machine speed, sampled with a fixed pure-Python loop next to each op.

The machines this benchmark runs on drift in speed by about 20% over tens
of seconds; a spin loop alone shows it.  That is more than any bound worth
having, so the gated set-up time, throughput and latency are rescaled to a
nominal speed.  After each op the loop below, which touches no simdiff code and
allocates nothing, is timed for a few percent of the op's time.  Each op's
time is then divided by the loop's mean slowdown over the samples taken
within WINDOW_S of it, raised to ALPHA: drift phases last seconds, and
averaging over that window keeps the noise of single samples out of the
correction.  Each set-up is rescaled by samples taken just before and just
after it.

ALPHA is measured.  Op time grows faster than the spin loop's time as the
machine slows, since ops also wait on caches and memory that neighbours
share: over runs at different times, log op throughput against log
slowdown fitted slopes of 1.47 (hat-compare), 1.33 (coherence-battery) and
1.21 (cohomology-fresh), each with |r| >= 0.96.  With 1.3 the spread of
the rescaled throughput over those runs fell to about half of that with 1.
Cold set-ups scale less steeply, since much of them is importing and
building: for set-up time against the bracketing samples the slopes were
0.85 (hat-compare), 0.75 (cohomology-fresh) and 1.05 (coherence-battery),
so SETUP_ALPHA is 0.9.
"""

from __future__ import annotations

import time
from typing import Sequence

# Nominal duration of spin(), a fixed reference and not a measured median:
# on the baseline machine spin() mostly ran 20-50% slower than this, so
# rescaled times there read about 1.3-1.5 times faster than wall-clock ones.
SPIN_S = 0.0045
WINDOW_S = 5.0   # samples within this many seconds of an op are averaged
ALPHA = 1.3      # op time scales as the spin loop's slowdown to this power
SETUP_ALPHA = 0.9  # and cold set-up time to this power


def spin() -> float:
    """Duration of a fixed integer loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(60_000):
        x += i * i % 7
    return time.perf_counter() - t0


def sample(budget: float) -> list[float]:
    """Time spin() until about `budget` seconds are spent, at least once."""
    out = [spin()]
    while sum(out) < budget:
        out.append(spin())
    return out


def slowdown(samples: Sequence[float], alpha: float | None = None) -> float:
    """Factor by which op time is stretched: (mean sample / SPIN_S) ** alpha.

    alpha is ALPHA unless given.
    """
    return (sum(samples) / len(samples) / SPIN_S) ** (ALPHA if alpha is None else alpha)


def slowdowns(stamps: Sequence[float], samples: Sequence[Sequence[float]]) -> list[float]:
    """For each op, the slowdown shown by all samples taken within WINDOW_S of it.

    stamps[i] is when op i's samples were taken, samples[i] the samples.
    """
    return [slowdown([s for u, ss in zip(stamps, samples) if abs(u - t) <= WINDOW_S
                      for s in ss])
            for t in stamps]
