"""Machine-speed sampling, to scale timings to one reference speed.

The CPU under a benchmark run can change speed by a large factor within
seconds when it is shared (a busy or idle SMT sibling, frequency steps),
and every timing of the run moves with it.  A ``Sampler`` runs fixed
kernels from a wall-clock timer signal every PERIOD_S seconds and
records how long they took.  Averaging reference duration over measured
duration, for the samples taken while some code ran, gives the speed of
the machine during that code relative to the reference; multiplying the
code's measured time by it gives the time it would have taken at the
reference speed.  ``Sampler.clock`` leaves out the sampler's
own time, so timings taken with it do not include the kernel runs.

Each sample times two kernels, and its speed is the geometric mean of
theirs: LOOKUP (table lookups on small numpy arrays, the work of radchar's
oracles) and RATIONAL (Fraction arithmetic, dict and string building, the
work of its symbolic layer).  Scaled by both, pass times of all three
workloads varied less than scaled by either alone on the pass type the
other fits badly.  Each kernel's reference is about its median duration,
run from the timer, on a 2-vCPU Intel Xeon sandbox (Python 3.11, numpy
2.4) at its usual, contended speed.
"""

from __future__ import annotations

import functools
import math
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02


@functools.cache
def _tables():
    # numpy is imported here, not at the top, so that a process timing its
    # own import of radchar can sample with RATIONAL alone
    import numpy as np

    v = np.arange(9, dtype=np.int64)
    add = ((v[:, None] + v[None, :]) % 9).astype(np.int16)
    mul = ((v[:, None] * v[None, :]) % 9).astype(np.int16)
    a = (np.arange(36, dtype=np.int16) % 9).reshape(6, 6)
    return np, add, mul, a


def lookup_kernel() -> None:
    """Two table-lookup products of 6x6 int16 matrices."""
    np, add, mul, a = _tables()
    out = np.zeros((6, 6), dtype=np.int16)
    for _ in range(2):
        for t in range(6):
            out = add[out, mul[a[:, t][:, None], a[t, :][None, :]]]


def rational_kernel() -> None:
    """Fraction arithmetic, then dict and string building."""
    acc = Fraction(0)
    for i in range(1, 20):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    names = {}
    for i in range(25):
        names[i] = str(i)


# (kernel, reference seconds)
LOOKUP = (lookup_kernel, 1.6e-4)
RATIONAL = (rational_kernel, 1.8e-4)


class Sampler:
    """Kernel timings taken from SIGALRM while started."""

    def __init__(self, kernels=(LOOKUP, RATIONAL), period_s=PERIOD_S):
        self.kernels = kernels
        self.period_s = period_s
        self.durations: list[tuple[float, ...]] = []  # one entry per kernel
        self.spent = 0.0  # seconds spent sampling, timing included
        self._previous = None

    def sample(self) -> None:
        """Time one run of each kernel."""
        entered = time.perf_counter()
        durations = []
        for kernel, _reference in self.kernels:
            start = time.perf_counter()
            kernel()
            durations.append(time.perf_counter() - start)
        self.durations.append(tuple(durations))
        self.spent += time.perf_counter() - entered

    def start(self) -> None:
        for kernel, _reference in self.kernels:  # untimed first runs
            kernel()
        self._previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent sampling."""
        return time.perf_counter() - self.spent

    def speed(self, samples: list[tuple[float, ...]]) -> float | None:
        """Mean speed relative to the reference over the given samples.

        A sample with a kernel timing over three times that kernel's median
        was interrupted (the process was descheduled) and is left out.
        """
        if not samples:
            return None
        medians = [sorted(column)[len(column) // 2] for column in zip(*samples)]
        kept = [s for s in samples if all(d <= 3 * m for d, m in zip(s, medians))]
        references = [reference for _kernel, reference in self.kernels]
        return sum(
            math.prod(r / d for r, d in zip(references, s)) ** (1 / len(s)) for s in kept
        ) / len(kept)
