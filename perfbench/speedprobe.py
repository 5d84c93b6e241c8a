"""Machine-speed probe, so that times from a shared machine compare.

On a machine shared with other work, the same computation can run up to
twice as fast or as slow for seconds to minutes at a time, and all of that
shows in wall time.  A probe is a fixed, short piece of Python exact
arithmetic, the kind of work skeinrep does.  While the jobs run, a timer
signal runs one probe every INTERVAL_S.

A job's time, times REFERENCE_S / (the typical probe duration during the
job), is the job's time in seconds at the reference speed.  The time the
probes themselves take is excluded from the job's time first.  Set-up
time is normalized by a burst of probes run right after set-up ends.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
MIN_PROBES = 20
# One probe's duration at the reference speed.  Any fixed value would do,
# since only ratios between runs matter; on a shared 2-core x86-64 machine
# under CPython 3.11 a probe took 1 to 2.3 ms depending on the load.
REFERENCE_S = 0.002


def probe() -> float:
    """Run the fixed probe once; return its duration in seconds."""
    t0 = time.perf_counter()
    third = Fraction(1, 3)
    for i in range(1, 200):
        x = Fraction(i, i + 1) * third + Fraction(1, 2)
        pair = {i: (x, -x)}
        del pair
    return time.perf_counter() - t0


class Sampler:
    """Runs `probe` from a SIGALRM timer; records (start, duration) pairs.
    `on_probe`, when given, is called with each probe's duration."""

    def __init__(self, on_probe=None):
        self.samples = []
        self.on_probe = on_probe

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        duration = probe()
        self.samples.append((start, duration))
        if self.on_probe is not None:
            self.on_probe(duration)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def job_time(self, start: float, end: float) -> tuple:
        """(seconds, speed factor) of a job that ran from `start` to `end`.

        The factor comes from the probes run during the job, or from the
        MIN_PROBES probes nearest the job's middle when it ran too briefly
        to hold that many.  The seconds exclude the probes run during the
        job, each counted at the window's typical probe duration, so that
        a probe that was itself preempted does not shorten the job."""
        inside = [d for t, d in self.samples if start <= t < end]
        window = inside
        if len(window) < MIN_PROBES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            window = [d for _, d in nearest[:MIN_PROBES]]
        typical = _trimmed_mean(window)
        return end - start - len(inside) * typical, REFERENCE_S / typical


def burst_factor(warmup: int = 5, count: int = 20) -> float:
    """Speed factor from probes run back to back now, after `warmup` probes
    that are discarded because a fresh process runs its first ones slowly."""
    for _ in range(warmup):
        probe()
    return REFERENCE_S / _trimmed_mean([probe() for _ in range(count)])


def _trimmed_mean(durations: list) -> float:
    """Mean of the middle 80% of the durations; a probe interrupted by the
    operating system is an outlier, not a slower machine."""
    if not durations:
        raise ValueError("no probe samples")
    ordered = sorted(durations)
    cut = len(ordered) // 10
    kept = ordered[cut:len(ordered) - cut]
    return sum(kept) / len(kept)
