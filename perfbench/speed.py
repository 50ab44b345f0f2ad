"""The machine's speed next to every timed interval of a pass.

The host this benchmark was first measured on changes speed by up to 2x
in phases of a fraction of a second to minutes, and whole runs can fall
into one slow phase.  So an untraced pass times a fixed pure-Python
kernel (products of power-basis elements over Q, the shape of the
program's field arithmetic) every ``PERIOD_S`` seconds of wall time from
a SIGALRM handler.  Each timed interval is reported at the reference
speed: its wall time, less the kernel time inside it, divided by the
mean kernel time around the interval over ``REFERENCE_KERNEL_S``.

    meter = Speedometer(); meter.start()
    t0, s0 = time.perf_counter(), meter.stolen
    ...                                     # the timed work
    t1, s1 = time.perf_counter(), meter.stolen
    seconds = meter.at_reference(t0, t1, t1 - t0 - (s1 - s0))
    meter.stop()

The kernel is the benchmark's own code, so a change to the program does
not change the yardstick.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025            # one kernel sample per this much wall time
WINDOW_S = 0.05             # samples this far either side of an interval
REFERENCE_KERNEL_S = 0.001  # the kernel's time at the reference speed


class _Element:
    """a + b x in Q[x]/(x^2 - x - 1): the shape of the program's field
    arithmetic (power-basis tuples of Fractions, reduced products)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    def __add__(self, other):
        return _Element(tuple(a + b for a, b in zip(self.coeffs,
                                                    other.coeffs)))

    def __mul__(self, other):
        prod = [Fraction(0)] * 3
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        top = prod.pop()
        return _Element((prod[0] + top, prod[1] + top))

    def __truediv__(self, other):
        return _Element(tuple(a / other for a in self.coeffs))


_ELEMENTS = [_Element((Fraction(k, k + 2), Fraction(1, k)))
             for k in range(1, 7)]


def kernel() -> _Element:
    """The fixed work whose time measures the machine's current speed."""
    acc = _Element((Fraction(0), Fraction(0)))
    for a in _ELEMENTS:
        for b in _ELEMENTS:
            acc = acc + a * b / b.coeffs[0]
    return acc


class Speedometer:
    """Kernel samples taken on a wall-clock timer during a pass."""

    def __init__(self):
        self.samples = []    # (perf_counter at start, kernel seconds)
        self.stolen = 0.0    # total seconds spent in the kernel so far

    def sample(self, *_signal_args):
        # no collection inside the kernel: its time must not depend on
        # how many objects the program holds
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        spent = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append((start, spent))
        self.stolen += spent

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time around [start, end] over the reference: the
        samples are evenly spaced in time, so their mean weighs the
        machine's speed by how long it lasted."""
        near = [spent for at, spent in self.samples
                if start - WINDOW_S <= at <= end + WINDOW_S]
        if not near:   # the handler waited on a long call: nearest two
            if not self.samples:
                raise ValueError("no speed sample taken yet")
            near = [spent for _, spent in sorted(
                self.samples, key=lambda s: abs(s[0] - start))[:2]]
        return statistics.fmean(near) / REFERENCE_KERNEL_S

    def at_reference(self, start: float, end: float, seconds: float):
        """`seconds` of work done in [start, end], at the reference speed."""
        return seconds / self.slowdown(start, end)
