"""Host-speed calibration: a fixed reference kernel timed beside the program.

This machine is a vCPU on a shared host.  For seconds at a time the host
makes it up to 1.8x slower, and neither CPU time nor wall time leaves that
out, so the same operation can take 8 s in one run and 14 s in the next.
While an operation runs, a SIGALRM timer interrupts it every INTERVAL_S of
wall time and times REFERENCE, a fixed piece of numpy and Python work that
does not touch the program.  The mean of those reference times over an
operation is how slow the machine was while it ran.  A time scaled by
NOMINAL_S / that mean reads as the same work on the machine at its usual
unslowed speed.

The timer's own time is kept out of every measurement: `clock()` is the
process's CPU time minus the time spent in the handler.  The handler runs
REFERENCE once untimed and then once timed, so that the timed pass does not
pay for the caches the program left cold.  The timer counts wall time
(ITIMER_REAL): while a CPU-time timer (ITIMER_PROF) is armed, Linux reads
the process CPU clock only at scheduler ticks, too coarse for REFERENCE.
"""

from __future__ import annotations

import signal
import statistics
from time import process_time

import numpy as np

INTERVAL_S = 0.05
NOMINAL_S = 0.6e-3  # REFERENCE on this machine when the host does not slow it

_X = np.random.default_rng(20120604).standard_normal(2048)
_K = np.exp(-np.arange(_X.size // 2 + 1) / 300.0)


def reference() -> float:
    """Spectral filter passes at 2048 and 128 points; returns a checksum."""
    total = 0.0
    for _ in range(4):
        y = np.fft.irfft(np.fft.rfft(_X) * _K, _X.size)
        total += float((y * y + _X).sum())
        for _ in range(6):
            z = np.fft.irfft(np.fft.rfft(_X[:128]) * _K[:65], 128)
            total += float(np.abs(z).max())
    return total


class Speed:
    """Reference timings taken while the program runs, and the clock that skips them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.hidden = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        """CPU seconds of this process, less the time spent sampling."""
        return process_time() - self.hidden

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        start = process_time()
        try:
            reference()
            t0 = process_time()
            reference()
            self.samples.append(process_time() - t0)
        finally:
            self.hidden += process_time() - start
            self._busy = False

    def mark(self) -> int:
        """Take a sample now; returns where the samples of a new interval begin."""
        at = len(self.samples)
        self.sample()
        return at

    def factor(self, at: int) -> float:
        """NOMINAL_S over the mean reference time since mark() returned `at`.

        Call it after one more sample, so that each interval has a sample at
        each end.
        """
        return NOMINAL_S / statistics.fmean(self.samples[at:])

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
