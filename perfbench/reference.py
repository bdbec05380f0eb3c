"""The machine's current speed, measured with a fixed pure-Python kernel.

The benchmark runs on a share of a host whose speed drifts by tens of
percent over seconds and minutes, whatever the program does: other tenants
slow the shared core down, and process CPU time grows with wall time, so it
does not tell the two apart.  To take the drift out of the end-to-end
times, a run times a fixed kernel right before and right after every op,
and every INTERVAL_S seconds during it (``Sampler``).  It then scales the
op's time by the mean of REFERENCE_S / (kernel time) over those samples.
A time so scaled is in reference seconds: the time the op would take on a
machine that runs the kernel in REFERENCE_S seconds.

The kernel is the benchmark's own integer linear algebra: the hyperplane
normals of the 7-ray surface, by Bareiss minors (``workloads.py``).  It is
pure-Python integer work like the program's, and the program cannot change
it, so a change to the program moves a scaled time by the same share as the
raw time.  Raw times are kept next to the scaled ones in each run's record.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import workloads

# about the kernel's time on an idle core of the 2.1 GHz Xeon the benchmark
# was defined on, so that reference seconds read close to seconds there
REFERENCE_S = 1.2e-3
# seconds between samples taken while an op runs
INTERVAL_S = 0.05

_COLUMNS = tuple(workloads.load_columns()[workloads.SURFACE])


def kernel_seconds() -> float:
    """Seconds one run of the reference kernel takes now.

    The collector is off while it runs, so that the kernel measures the
    machine and not the size of the program's heap; a collection its
    allocations make due happens later, in the op.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        workloads.hyperplane_normals(_COLUMNS)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed(samples) -> float:
    """Reference seconds per second, over kernel times taken at even intervals."""
    return statistics.fmean(REFERENCE_S / s for s in samples)


class Sampler:
    """Times the kernel every INTERVAL_S seconds while an op runs.

    The samples come from a SIGALRM handler, which runs between the op's
    bytecodes in the one thread of the run.  ``spent`` is the handler's own
    time, which the caller takes out of the op's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

