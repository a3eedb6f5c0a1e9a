"""Host-speed normalisation of measured times.

On a shared host the same work can take 1.4 to 1.7 times as long from one
half-minute to the next, because neighbours contend for the cores.  A
fixed reference kernel, timed right before and right after each measured
region, tracks that speed.  A standard time is a measured time scaled to
a standard host, on which the reference kernel takes ``REF_STANDARD_S``.
The host's speed swings from one second to the next, so a region timed in
a sequence of regions run back to back (a set-up and the steps after it)
is scaled by the kernel times of itself and its neighbours:

    standard[i] = measured[i] * REF_STANDARD_S / median(kernel times of regions i-1, i, i+1)

The median of six kernel times keeps a single slow kernel from rescaling
a region.  A traced run, whose per-layer figures are shares of its
steps, is scaled by one factor, from the median of all its kernel times.
The kernel allocates nothing the garbage collector tracks (a dict
of ints, numpy arrays) and runs with the collector off, so its time does
not depend on the size of the simulation's heap: a change that shrinks or
grows that heap does not move the factor.  Each timed kernel run follows
an untimed one, so no timed run pays for refilling caches that the
program's last region (a set-up, a step, a collection) left cold.
Changing the kernel, or ``REF_STANDARD_S``, changes every standard time.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

REF_STANDARD_S = 1e-3


def reference_kernel() -> float:
    table = {}
    for i in range(4000):
        table[i] = i + 1
    total = 0
    for key in table:
        total += table[key]
    values = np.arange(200.0)
    for _ in range(100):
        values = np.sqrt(values * values + 1.0)
    return total + float(values[0])


def reference_s() -> float:
    """Seconds the reference kernel takes on this host right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_kernel()
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Timing:
    measured_s: float
    refs_s: tuple[float, float]


NEIGHBOURS = 1


def standard_s(timings: list[Timing]) -> list[float]:
    """Standard seconds of regions timed back to back, in the order run."""
    out = []
    for i, t in enumerate(timings):
        near = timings[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1]
        ref = statistics.median(r for u in near for r in u.refs_s)
        out.append(t.measured_s * REF_STANDARD_S / ref)
    return out


def run_scale(timings: list[Timing]) -> float:
    """Standard seconds per measured second for the run these timings make up."""
    return REF_STANDARD_S / statistics.median(r for t in timings for r in t.refs_s)


def timed(fn, *args):
    """``(fn(*args), Timing)``, with the reference kernel run around it."""
    before = reference_s()
    t0 = time.perf_counter()
    result = fn(*args)
    measured = time.perf_counter() - t0
    return result, Timing(measured, (before, reference_s()))
