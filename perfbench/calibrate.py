"""Machine-speed calibration, sampled while a job runs.

The benchmark runs on a few vCPUs of a shared host, whose speed drifts by up
to 2x over seconds to minutes because of work outside the benchmark; each
vCPU drifts on its own.  Raw wall times then move more between runs than any
change worth measuring.  So while a timed job runs, an interval timer
interrupts it every ``INTERVAL_S`` of wall time and runs a fixed kernel (a
few 6x6 LAPACK eigen solves and a pure-Python loop, the kind of work the
workloads spend most of their time in, on data that does not depend on
disspec).  The kernel's time samples the current speed of the vCPU the job
runs on; its time is taken out of the job's time.

A job's *normalized* time is its wall time times ``REFERENCE_S`` divided by
the median kernel time during that job: the time the job would have taken
had the machine run at the speed at which the kernel takes ``REFERENCE_S``.
Because the samples spread evenly over the job, a job that itself gets
slower still reads slower; only the machine's drift cancels.

    sampler = Sampler()
    sampler.start(); job(); seconds, samples = sampler.stop(...)
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: wall time between two kernel samples during a job
INTERVAL_S = 0.05
#: kernel time, on an uncontended vCPU of the 2-vCPU Xeon the benchmark was
#: defined on, that normalized times refer to
REFERENCE_S = 1.0e-3

_RNG = np.random.default_rng(20161018)
_MATRICES = list(_RNG.standard_normal((16, 6, 6)) + 1j * _RNG.standard_normal((16, 6, 6)))
_LOOP = 8000


def kernel() -> None:
    """The fixed calibration work: 16 eigen solves and a scalar loop."""
    for m in _MATRICES:
        np.linalg.eigvals(m)
    s = 0.0
    for i in range(_LOOP):
        s += i * 0.5


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """REFERENCE_S over the median kernel time; wall time x factor = normalized."""
    return REFERENCE_S / statistics.median(samples)


def probe(n: int = 21) -> list[float]:
    """Kernel times of ``n`` back-to-back runs (for code that is not interrupted)."""
    kernel()
    return [timed_kernel() for _ in range(n)]


class Sampler:
    """Runs the kernel from SIGALRM every ``INTERVAL_S`` between start and stop.

    Python runs the handler between bytecodes of the main thread, so a
    sample never splits a numpy call; system calls interrupted by the signal
    are retried by Python.  Only for code that runs in the main thread.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, list[float]]:
        """(seconds spent in the kernel, kernel samples) since start."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.spent, self.samples
