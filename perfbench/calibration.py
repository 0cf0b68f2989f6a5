"""Speed calibration for a shared host.

The host's speed drifts by 10-60 % over seconds to minutes, because other
tenants share its cores.  A fixed kernel of exact arithmetic, run between
ops in the benchmark's own process, measures that speed; op times are then
reported at the reference speed at which the kernel takes ``CAL_REF_S``
(close to its median on the 2-core reference box).  This removes the drift,
not the jitter of single ops.  The kernel uses only the standard library,
so the program under test cannot change it.

Interpreter start-up drifts differently: most of its drift is in loading
numpy's shared libraries, which the Fraction kernel does not see.  Set-up
times are therefore calibrated against a reference interpreter that imports
the engine's dependencies, ``REFERENCE_IMPORTS``, and not the engine.

    python3 perfbench/calibration.py

prints the median kernel time of a fresh, idle interpreter, in seconds.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.002
CAL_WINDOW = 4  # samples on each side of an op
IDLE_SAMPLES = 41

# The engine's third-party and standard-library imports, without the engine.
REFERENCE_IMPORTS = (
    "import argparse, bisect, csv, enum, fractions, io, itertools, json, "
    "multiprocessing, random, numpy"
)
REFERENCE_S = 0.2  # the reference interpreter's median wall time on that box


def _kernel():
    s = Fraction(0)
    for k in range(1, 300):
        s += Fraction(1, k % 97 + 1) * Fraction(k % 13, 7)
    t = tuple(range(50))
    for _ in range(20):
        t = tuple(x + 1 for x in t)
    return s, t


def calibrate() -> float:
    """Wall time of one kernel run, with the garbage collector held off so
    that the program's heap size cannot reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def normalise(latencies, cals) -> list:
    """Latencies at reference speed; ``cals[i]`` was taken just before op i
    and ``cals[i + 1]`` just after it."""
    out = []
    for i, t in enumerate(latencies):
        window = cals[max(0, i + 1 - CAL_WINDOW) : i + 1 + CAL_WINDOW]
        out.append(t * CAL_REF_S / statistics.median(window))
    return out


def idle_kernel_s() -> float:
    """Median kernel time in this interpreter, before anything else runs."""
    calibrate()
    return statistics.median(calibrate() for _ in range(IDLE_SAMPLES))


if __name__ == "__main__":
    print(repr(idle_kernel_s()))
