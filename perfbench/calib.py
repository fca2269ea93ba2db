"""Fixed reference work that measures how fast the host runs at the moment.

The benchmark shares a virtual machine with other tenants, and the speed it
gets swings by half or more within seconds.  The benchmark therefore times,
next to the program, a kernel that does the same kind of work but shares no
code with it:

* ``scalar``: numpy elementwise bisection over a few hundred points, where
  numpy's per-call overhead dominates, and an RK4 loop on Python floats
  (the surface and ODE routes);
* ``array``: a three-term recurrence over a few thousand points, one numpy
  pass per step (the lattice route's axis data and sweep).

One call of a kernel takes about 2 ms.  A step's time multiplied by
``REFERENCE_S[kind] / t``, with ``t`` the kernel's mean time while the step
ran, is the time the step would have taken on a host on which the kernel
takes ``REFERENCE_S[kind]``.  A change to the program moves the step's time
and leaves the kernel's alone, so it moves the normalised time by the same
share as the raw time.

Two ways of sampling: :class:`Sampler` runs the kernel from a timer signal
inside the process being measured, every ``INTERVAL_S`` seconds; and
:func:`host_time`, called just before and just after a step that runs in a
process of its own (set-up), takes longer samples around it.
"""
import math
import signal
import statistics
import time

import numpy as np

# Median kernel times on a 2-vCPU Intel Xeon (2.1 GHz) virtual machine; they
# only set the scale, so normalised times read as seconds on that host.
REFERENCE_S = {"scalar": 0.0022, "array": 0.0018}
INTERVAL_S = 0.05
BRACKET_CALLS = 20
BRACKET_SAMPLES = 3


def _bisect_work(n=256, iters=55):
    c = np.linspace(0.5, 8.0, n)
    lo = np.zeros(n)
    hi = np.full(n, 3.0)
    flo = lo ** 3 - c
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = mid ** 3 + 0.1 * np.sin(mid) - c
        same = (fm > 0) == (flo > 0)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return float(np.sum(0.5 * (lo + hi)))


def _rk4_work(steps=750):
    def f(t, y0, y1):
        return y1, -math.sqrt(1.0 + t) * y0

    h = 1.0 / steps
    t, y0, y1 = 0.0, 1.0, 0.0
    for _ in range(steps):
        a0, a1 = f(t, y0, y1)
        b0, b1 = f(t + 0.5 * h, y0 + 0.5 * h * a0, y1 + 0.5 * h * a1)
        c0, c1 = f(t + 0.5 * h, y0 + 0.5 * h * b0, y1 + 0.5 * h * b1)
        d0, d1 = f(t + h, y0 + h * c0, y1 + h * c1)
        y0 += h / 6.0 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        y1 += h / 6.0 * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        t += h
    return y0


def _array_work(n=4000, steps=60):
    x = np.linspace(-1.0, 1.0, n)
    w = np.full(n, 1.0 / n)
    u_prev = np.ones(n)
    u = x.copy()
    acc = 0.0
    for _ in range(steps):
        v = (x - 0.01) * u - 0.25 * u_prev
        scale = np.max(np.abs(v))
        acc += float(w @ v) / scale
        u_prev = u / scale
        u = v / scale
    return acc


KERNELS = {
    "scalar": lambda: _bisect_work() + _rk4_work(),
    "array": _array_work,
}


class Sampler:
    """Times one kernel call every ``INTERVAL_S`` seconds of wall time, from
    SIGALRM, inside the running process.

    ``samples`` holds ``(start, duration)`` pairs.  The kernel touches no
    state of the program, so the program's results do not change; its time
    is counted in the program's and taken off again by the benchmark.
    """

    def __init__(self, kind):
        self.kernel = KERNELS[kind]
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(kind, durations):
    """Factor from raw to reference-speed time, given kernel call times."""
    return REFERENCE_S[kind] / statistics.fmean(durations)


def host_time(kind):
    """Time of one call of kernel ``kind``: the median of
    ``BRACKET_SAMPLES`` samples of ``BRACKET_CALLS`` calls each."""
    kernel = KERNELS[kind]
    times = []
    for _ in range(BRACKET_SAMPLES):
        t0 = time.perf_counter()
        for _ in range(BRACKET_CALLS):
            kernel()
        times.append((time.perf_counter() - t0) / BRACKET_CALLS)
    return statistics.median(times)

