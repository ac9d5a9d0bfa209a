"""Host speed, measured by a fixed reference kernel run between the ops.

The benchmark runs on shared virtual machines whose speed switches between
two levels about 1.5x apart, for seconds to minutes at a time; every op
slows down by about the same factor (1.4-1.9x on the oracles ops, against
1.5-1.7x for the kernel).  The kernel below does a fixed amount of
interpreter, sorting and FFT work that runs no bandedge code and no BLAS
call, so no change to the program moves it; its time tracks the host
alone.  The benchmark samples it between consecutive ops and scales each
timing by REFERENCE_S over the mean of the samples on either side: seconds
at the reference host speed.  The raw times are kept in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the reference host (2-vCPU Intel Xeon VM) at its faster
# speed level; only a scale, chosen once and never retuned.
REFERENCE_S = 0.0060
# timed kernel runs per sample; the median drops a single run caught by a
# momentary switch of host speed
REPEATS = 3

# Set-up is mostly a fresh interpreter loading numpy and scipy, which slows
# with the host less than the kernel does; its host speed is read from a fresh
# interpreter importing the same libraries, and REFERENCE_IMPORT_S is that
# import's time on the reference host, again only a scale.
IMPORT_PROGRAM = "import numpy, scipy.sparse, scipy.sparse.linalg"
REFERENCE_IMPORT_S = 0.55

_SORT_INPUT = np.random.default_rng(0).standard_normal(1 << 17)
_FFT_INPUT = np.random.default_rng(1).standard_normal(1 << 15) + 0j


def _kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(40_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    np.sort(_SORT_INPUT)
    np.fft.fft(_FFT_INPUT)
    np.abs(_FFT_INPUT * _FFT_INPUT.conj())


def sample() -> float:
    """Median wall time of REPEATS runs of the reference kernel, after one
    untimed run that brings its data back into the caches, so that what an
    op left in memory does not move the sample."""
    _kernel()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def normalise(seconds: list[float], kernel: list[float]) -> list[float]:
    """Timings at the reference host speed.

    ``kernel`` holds one more sample than ``seconds``: timing i lay between
    kernel samples i and i + 1, whose mean is its host speed."""
    return [
        t * 2.0 * REFERENCE_S / (before + after)
        for t, before, after in zip(seconds, kernel, kernel[1:])
    ]
