"""Machine speed, measured by a fixed kernel between segments of timed work.

The benchmark shares its machine, whose speed drifts by ±25% over seconds
to minutes (NOTES.md).  Timed work is cut into segments of about
SEGMENT_S seconds, with one calibration sample before the first segment
and one after each.  A segment's wall time is scaled by REFERENCE_S over
the mean of the samples on either side of it: the time it would have taken
with the machine at its reference speed.  The kernel uses only numpy and
scipy, never the program, so a change to the program leaves it unchanged.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# The kernel's median sample on the 2-core machine the notes were measured
# on.  It only sets the scale: any fixed value keeps runs comparable.
REFERENCE_S = 0.040
SEGMENT_S = 0.5


class Calibrator:
    """A fixed mix of the work the program does: small dense solves (local
    operators), sparse products (PCG) and interpreted Python (the loops
    around them)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        m = rng.standard_normal((12, 12))
        self._dense = m @ m.T + 12.0 * np.eye(12)
        self._rhs = rng.standard_normal(12)
        n = 30_000
        offsets = (-200, -10, -1, 0, 1, 10, 200)
        self._sparse = sp.diags(
            [np.full(n - abs(o), 1.0 + 0.1 * i) for i, o in enumerate(offsets)],
            offsets, format="csr",
        )
        self._x = rng.standard_normal(n)

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(1_500):
            np.linalg.solve(self._dense, self._rhs)
        for _ in range(60):
            self._sparse @ self._x
        acc = 0
        for i in range(80_000):
            acc += i * i
        return time.perf_counter() - t0


class SpeedClock:
    """Times one pass in segments, with a calibration sample between them.

    ``checkpoint`` is called by the pass between calls into the program; it
    ends a segment once the segment has lasted SEGMENT_S.  Calibration runs
    outside the segments, so it adds to neither ``wall_s`` nor ``scaled_s``.
    """

    def __init__(self, calibrator: Calibrator) -> None:
        self._calibrator = calibrator
        self.segments_s: list[float] = []
        self.samples_s: list[float] = []
        self._t0 = 0.0

    def start(self) -> None:
        self.samples_s.append(self._calibrator.sample())
        self._t0 = time.perf_counter()

    def checkpoint(self) -> None:
        if time.perf_counter() - self._t0 >= SEGMENT_S:
            self.stop()
            self._t0 = time.perf_counter()

    def stop(self) -> None:
        self.segments_s.append(time.perf_counter() - self._t0)
        self.samples_s.append(self._calibrator.sample())

    @property
    def wall_s(self) -> float:
        return sum(self.segments_s)

    @property
    def scaled_s(self) -> float:
        """Seconds the segments would have taken at the reference speed."""
        return sum(
            seg * 2.0 * REFERENCE_S / (before + after)
            for seg, before, after in zip(self.segments_s, self.samples_s, self.samples_s[1:])
        )
