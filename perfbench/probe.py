"""A speed probe that takes the machine's own slowdowns out of wall times.

On a shared virtual machine the same job can take 1.5x longer for tens
of seconds at a time, because of load outside the machine; that swamps
any change in the program.  While jobs run, a SIGALRM handler runs a
fixed ~1 ms pure-Python kernel (exact fractions and a dict, like the
program's own work) every ``INTERVAL_S`` and records how long it took.
A job's time is then rescaled to the speed at which the kernel takes
``REFERENCE_S``:

    scaled = (wall time - probe time inside the job) * REFERENCE_S / mean probe time

using the probes inside the job, or the ``NEAREST`` probes closest to
it when the job is too short to hold that many.  Measured on a 2-vCPU
KVM guest, this cut the run-to-run coefficient of variation of a job
from 0.16 to 0.045 (C5 over Q, 5 s) and from 0.17 to 0.03 (h3+Q^3,
3 s), at a cost of about 2% of the run.

The kernel is the benchmark's code, not the program's, so a change to
the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001  # kernel duration that defines one reference second
INTERVAL_S = 0.05
NEAREST = 8


def kernel() -> None:
    n = 6
    rows = [[Fraction(1, i + j + 1) for j in range(n)] + [Fraction(i)] for i in range(n)]
    for c in range(n):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    counts: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i


class SpeedProbe:
    """Context manager that samples the kernel's duration every
    ``INTERVAL_S`` seconds of wall time in the main thread."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each kernel run
        self._busy = False
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives while the kernel runs
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self.samples.append((start, time.perf_counter()))
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Seconds that the interval would have taken at reference speed,
        with the probe's own time inside it left out."""
        samples = self.samples[:]  # the handler may append meanwhile
        lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, key=lambda s: s[1])
        busy = sum(e - s for s, e in samples[lo:hi])
        if hi - lo < NEAREST:
            middle = bisect.bisect_left(samples, (start + end) / 2, key=lambda s: s[0])
            lo = max(0, min(middle - NEAREST // 2, len(samples) - NEAREST))
            hi = lo + NEAREST
        speed = statistics.fmean(e - s for s, e in samples[lo:hi])
        return (end - start - busy) * REFERENCE_S / speed
