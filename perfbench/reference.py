"""A fixed computation that measures how fast the host runs right now.

The benchmark's machine is shared, and its speed drifts by tens of per
cent over minutes as other tenants come and go.  ``run.py`` times
``kernel`` between the operations of every round and multiplies the
round's times by ``REFERENCE_S`` over the median kernel time.  That
expresses them in seconds of the reference machine (README.md) and
cancels the drift.  The kernel mixes the three kinds of work ``fnls``
does: small dense complex solves in a Python loop (the pole systems),
FFT sweeps of 4096 points (the split-step) and scalar Python arithmetic
(the ODE right-hand sides).  It is benchmark code, so a change to
``fnls`` cannot move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median ``kernel`` time on the reference machine, in seconds.
REFERENCE_S = 0.021


def kernel():
    """One fixed unit of work; returns a number so that none is skipped."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 8, 8)) + 1j * rng.standard_normal((160, 8, 8))
    b = rng.standard_normal((160, 8)) + 1j * rng.standard_normal((160, 8))
    total = 0.0
    for k in range(160):
        total += abs(np.linalg.solve(a[k], b[k])[0])
    q = np.exp(1j * np.linspace(0.0, 8.0, 4096))
    half = np.exp(-1e-3j * np.fft.fftfreq(4096, 0.1) ** 2)
    for _ in range(28):
        q = np.fft.ifft(half * np.fft.fft(q)) * np.exp(1e-3j * np.abs(q) ** 2)
    s = 0.0
    for i in range(24000):
        s += math.sin(i * 1e-3) * math.exp(-i * 1e-4)
    return total + abs(q[0]) + s


def time_kernel():
    """Wall time of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
