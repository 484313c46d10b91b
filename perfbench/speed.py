"""Reference speed of the machine, for rescaling measured times.

The benchmark's host is shared: back to back, the same fixed loop runs up
to 1.5x slower or faster from one second to the next, and process CPU
time swings with it (the slowdown is contention for the core, not time
spent off it). A wall-clock time alone then measures the neighbours as
much as the program.

So the benchmark times a fixed reference kernel between every two
operations, and rescales each operation's time by how fast the kernel ran
around it::

    rescaled = measured * REFERENCE_S / mean(kernel before, kernel after)

That is the time the operation would take on a machine that runs the
kernel in REFERENCE_S. The two cores of the host are often loaded
differently, so the benchmark pins itself and its children to one core
(run.py): the kernel and the operations it rescales then run on the same
core. The kernel is the benchmark's own code: it calls
nothing from the package, so a change to the package moves rescaled times
exactly as it moves measured ones. Like the package's hot paths, it mixes
scalar Python arithmetic, ``math.lgamma`` and three-term recurrences on
small numpy arrays.
"""

from __future__ import annotations

import math
import time

# Median time of kernel() on the 2-core x86 machine the baseline in
# baseline.json was measured on; rescaled times are in that machine's
# seconds at its median speed.
REFERENCE_S = 0.0060

_POINTS = 64


def kernel() -> float:
    import numpy as np  # imported here, after any timed import of the package

    x = np.linspace(0.1, 2.0, _POINTS)
    acc = 0.0
    for n in range(1, 900):
        a, b = 1.0, 0.5
        for k in range(2, 12):
            a, b = b, ((2 * k - 1) * 0.3 * b - (k - 1) * a) / k
        acc += a + math.lgamma(0.5 * n + 0.1)
    for _ in range(150):
        p0, p1 = np.ones_like(x), x
        for j in range(2, 8):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        acc += float(np.sum(p1 * np.exp(-x)))
    return acc


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now: the median of
    three runs, so that one interruption does not count as a slow machine."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def rescale(measured_s: float, before_s: float, after_s: float) -> float:
    return measured_s * REFERENCE_S / (0.5 * (before_s + after_s))
