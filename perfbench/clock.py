"""Wall times scaled to a fixed machine speed.

The speed of the machines this benchmark runs on is not steady: a fixed
pure-Python loop takes about 14.5 ms in some seconds and about 21.5 ms in
others, and the share of slow seconds drifts over minutes.  The package's
operations slow down with it (per-round correlation 0.87 to 0.93).  So the
benchmark samples the speed with a fixed reference loop after every
``BLOCK_S`` or more of measured work, outside the measured pieces, and
multiplies each piece's wall time by ``NOMINAL_S`` over the mean of the two
samples around it: a reported time is what the work would have taken at the
speed at which the reference loop takes ``NOMINAL_S``.  Standard library
only.
"""

from __future__ import annotations

import statistics
import time

REF_ITERATIONS = 20000
NOMINAL_S = 1.5e-3
BLOCK_S = 0.05


def reference_loop_s():
    """Wall time of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERATIONS):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


def reference_sample_s():
    """Median of three reference loops, so one interruption does not count."""
    return statistics.median(reference_loop_s() for _ in range(3))


class ScaledTimer:
    """Times pieces of work and scales them to the nominal speed.

    ``start`` and ``stop`` bracket one piece, which counts toward the
    current ``key``; once the pieces since the last speed sample add up to
    ``BLOCK_S``, ``stop`` takes the next sample.  After ``close``,
    ``totals`` maps each key to its scaled seconds and ``samples`` lists
    every reference time taken.
    """

    def __init__(self):
        self.samples = [reference_sample_s()]
        self.totals = {}
        self.key = None
        self._pending = []
        self._block = 0.0
        self._t0 = None

    def start(self):
        self._t0 = time.perf_counter()

    def stop(self):
        if self._t0 is None:
            return
        elapsed = time.perf_counter() - self._t0
        self._t0 = None
        self._pending.append((self.key, elapsed))
        self._block += elapsed
        if self._block >= BLOCK_S:
            self.close()

    def close(self):
        if not self._pending:
            return
        self.samples.append(reference_sample_s())
        factor = NOMINAL_S / (0.5 * (self.samples[-2] + self.samples[-1]))
        for key, seconds in self._pending:
            self.totals[key] = self.totals.get(key, 0.0) + seconds * factor
        self._pending = []
        self._block = 0.0


class Untimed:
    """Stands in for a ScaledTimer where nothing is measured."""

    def start(self):
        pass

    def stop(self):
        pass


UNTIMED = Untimed()
