"""Machine-speed calibration.

The 2-vCPU virtual machine this benchmark was built on changes speed by up
to 60% from one second to the next (one fixed loop of Fraction arithmetic
took 0.24 s to 0.40 s within ten seconds) and drifts by 15% over minutes,
so raw times spread more between runs than any regression worth catching.
Each process that times ops therefore also times a short fixed kernel of
the same kind of work (Fraction arithmetic, small tuples and dicts), around
and inside the ops, and scales each op by REFERENCE_S over the kernel time
near it: the result is the op's time on a machine that runs the kernel in
REFERENCE_S. Set-up (process start and imports) tracks the kernel poorly,
so it is scaled by the time of starting a bare interpreter instead. A
program change moves scaled times as it moves raw ones; a slow second of
the machine does not. The benchmark prints the raw times too.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.005
INTERVAL_S = 0.12
SPAWN_REFERENCE_S = 0.07


def kernel():
    total, counts = Fraction(0), {}
    for i in range(1, 750):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + 1
    return total


def sample(rounds: int = 1) -> list[float]:
    """[start stamp, seconds per kernel run], over rounds runs."""
    start = time.perf_counter()
    for _ in range(rounds):
        kernel()
    return [start, (time.perf_counter() - start) / rounds]


def spawn_sample(env) -> float:
    """Seconds to start and stop a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return time.perf_counter() - start


class Sampler:
    """Appends a sample to samples every INTERVAL_S seconds, from SIGALRM,
    while the with-block runs. The samples land inside ops; ``scaled``
    takes their time back out."""

    def __init__(self, samples: list):
        self.samples = samples

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def scaled(samples, start: float, end: float) -> float:
    """Seconds of [start, end] at reference speed, less the samples taken
    inside it. The speed is that of the samples inside, and of the last one
    before and the first one after (whichever exist); samples is in time
    order."""
    stamps = [s for s, _ in samples]
    lo = bisect.bisect_left(stamps, start)
    hi = bisect.bisect_left(stamps, end)
    inside = samples[lo:hi]
    near = inside + samples[max(lo - 1, 0):lo] + samples[hi:hi + 1]
    busy = end - start - sum(d for _, d in inside)
    return busy * REFERENCE_S * len(near) / sum(d for _, d in near)
