"""Host speed, sampled while the benchmark times the program.

On a shared host one vCPU runs the same pure-Python work up to 30% faster or
slower from one minute to the next (a fixed loop timed for three minutes on
2 vCPU: quartiles of 20-s window means 19% apart), so a pass time alone says
as much about the neighbours as about the program. While a pass is timed, a
`Sampler` interrupts it every `INTERVAL_S` seconds of wall time to time
`reference()`, a fixed computation of the same kind as the kernel's that does
not use pencilforms. Time metrics are reported at reference speed: the time
measured, minus the interruptions, times the mean over the samples of
`REFERENCE_S / sample`. That is the work done, counted in reference seconds:
the samples are
spread evenly in wall time, and each gives the speed of the moment it was
taken, relative to the reference speed. A request is scaled by the samples
taken while it ran and within `WINDOW_S` of it, since the speed changes
within a pass too. A change to the program cannot move the reference; it
moves the measured time, and so the reported one, in full.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from math import gcd

# Seconds one reference() call takes at reference speed: about its median
# on the 2 vCPU host (Python 3.11.7) where the benchmark was calibrated.
REFERENCE_S = 0.0012

INTERVAL_S = 0.05
WINDOW_S = 0.25


# The reference multiplies two fixed 12-term polynomials the way the
# pure-Python kernel does: exponent tuples to Gaussian rationals
# (an, ad, bn, bd), reduced with gcd. It is a copy of that style, not a call
# into pencilforms, so no change to the package can move it. Of three
# references timed against a pencilforms computation on a busy host for four
# minutes, this one tracked its speed best (quartile spread of 3-s windows:
# 18% measured, 3.9% scaled by this reference, 5.3% by a plain dict and
# integer loop).


def _frac(n, d):
    if n == 0:
        return 0, 1
    g = gcd(n, d)
    return n // g, d // g


def _qmul(a, b):
    an, ad, bn, bd = a
    cn, cd, dn, dd = b
    return (_frac(an * cn * bd * dd - bn * dn * ad * cd, ad * cd * bd * dd)
            + _frac(an * dn * bd * cd + bn * cn * ad * dd, ad * cd * bd * dd))


def _qadd(a, b):
    an, ad, bn, bd = a
    cn, cd, dn, dd = b
    return (_frac(an * cd + cn * ad, ad * cd)
            + _frac(bn * dd + dn * bd, bd * dd))


_P = {(i % 3, i // 3 % 3, i // 9):
      ((i * 7919) % 97 - 48 or 1, 1 + i % 3, (i * 104729) % 89 - 44, 1 + i % 2)
      for i in range(12)}
_Q = {(i // 4, i % 4, i % 2):
      ((i * 31) % 53 - 26 or 1, 1 + i % 2, (i * 17) % 41 - 20, 1)
      for i in range(12)}


def reference() -> int:
    """A fixed amount of kernel-like work; returns a check value."""
    size = 0
    for _ in range(2):
        out = {}
        for e1, c1 in _P.items():
            for e2, c2 in _Q.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = _qmul(c1, c2)
                old = out.get(e)
                out[e] = c if old is None else _qadd(old, c)
        size += len(out)
    return size


class Sampler:
    """Samples reference() on a wall-clock timer while it is entered.

    `spent` is the time taken by the interruptions, to be subtracted from
    whatever was timed around them.
    """

    def __init__(self):
        self.times = []     # perf_counter() at each sample
        self.samples = []   # its duration
        self.spent = 0.0
        self._previous = None

    def _interrupt(self, signum, frame):
        # no collection inside a sample: the reference's tuples die young,
        # and a collection would time the program's heap, not the host
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.times.append(t0)
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def factor(self, start=None, end=None) -> float:
        """Reference-speed seconds per measured second, over all samples or
        over those within WINDOW_S of the interval [start, end]."""
        if not self.samples:  # timed too briefly for the timer to fire
            self._interrupt(None, None)
        near = [s for t, s in zip(self.times, self.samples)
                if start is None or start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.fmean(REFERENCE_S / s for s in near or self.samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
