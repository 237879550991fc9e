"""Timings in reference seconds, steady on a machine whose speed swings.

The machine the benchmark runs on is shared: its speed swings by up to 2.5x
on a scale of seconds to minutes, and CPU time swings with wall time, so a
median of wall times taken within one run cannot remove the swing.  A
Stopwatch therefore also times a fixed pure-Python probe kernel right before
the measurement, every TICK_S during it (from SIGALRM, in the measuring
thread, the pauses subtracted) and right after, and reports

    reference seconds = wall seconds x reference time x mean(1 / probe time),

the time the same work would take with the probe at its reference time.
There are three probe kernels, because the interpreter, numpy's per-call
overhead and BLAS slow down by different factors on the same machine: a
pure-Python one for the tasks that spend their time in the program's Python
loops, a loop of 2 x 2 matrix-vector products for the small-matrix stepping
loops, and a large complex matrix product for the BLAS-bound ones.  Each
reference time is about the kernel's time on the 2-core x86_64 machine the
benchmark was tuned on, so that there reference seconds read close to wall
seconds.  With probing off (the traced run) both readings are wall seconds.
"""

from __future__ import annotations

import math
import signal
from fractions import Fraction
from time import perf_counter

PROBE_REF_S = 0.002
BLAS_REF_S = 0.0012
BLAS_DIM = 192
NUMPY_REF_S = 0.0018
NUMPY_STEPS = 1000
TICK_S = 0.2


def probe_once() -> float:
    """One run of the probe kernel: exact rational sums, tuple-keyed dict
    updates and float calls, the mix the program's Python loops spend on."""
    t0 = perf_counter()
    acc = Fraction(0)
    for k in range(1, 60):
        acc += Fraction(1, k)
    table: dict = {}
    for i in range(4000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0.0) + math.sin(i)
    return perf_counter() - t0


_blas_operand = None


def blas_probe_once() -> float:
    """One product of a fixed BLAS_DIM x BLAS_DIM complex matrix with itself
    (numpy is imported on first use, after the runner has capped its threads)."""
    global _blas_operand
    if _blas_operand is None:
        import numpy as np
        k = np.arange(BLAS_DIM)
        _blas_operand = np.exp(1j * np.outer(k, k) / BLAS_DIM)
    t0 = perf_counter()
    _blas_operand @ _blas_operand
    return perf_counter() - t0


_step_operands = None


def numpy_probe_once() -> float:
    """NUMPY_STEPS products of a fixed 2 x 2 complex matrix with a vector: the
    per-call overhead of numpy that the small-matrix stepping loops spend on."""
    global _step_operands
    if _step_operands is None:
        import numpy as np
        _step_operands = (np.array([[0.6, 0.8j], [0.8j, 0.6]]), np.array([1.0 + 0j, 0.0]))
    m, x = _step_operands
    t0 = perf_counter()
    for _ in range(NUMPY_STEPS):
        x = m @ x
    return perf_counter() - t0


KERNELS = {"python": (probe_once, PROBE_REF_S), "blas": (blas_probe_once, BLAS_REF_S),
           "numpy": (numpy_probe_once, NUMPY_REF_S)}


class Stopwatch:
    """Context manager: ``.wall`` and ``.seconds`` (reference) after exit."""

    def __init__(self, probing: bool = True, kernel: str = "python"):
        self.probing = probing and hasattr(signal, "setitimer")
        self.kernel, self.ref_s = KERNELS[kernel]
        self.probes: list[float] = []
        self.paused = 0.0
        self.wall = self.seconds = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.probes.append(self.kernel())
        self.paused += perf_counter() - t0

    def probe(self) -> float:
        """Median of three probe timings."""
        return sorted(self.kernel() for _ in range(3))[1]

    def __enter__(self) -> "Stopwatch":
        if self.probing:
            self.probes.append(self.probe())
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self._t0
        if not self.probing:
            self.wall = self.seconds = elapsed
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = elapsed - self.paused
        self.probes.append(self.probe())
        mean_speed = sum(1.0 / p for p in self.probes) / len(self.probes)
        self.seconds = self.wall * self.ref_s * mean_speed
