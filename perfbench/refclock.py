"""A reference kernel sampled during each timed pass, to take out host speed.

The benchmark runs on a few virtual cores of a shared host, whose speed for
the same instructions swings by up to half within seconds as the host's
other load comes and goes.  `RefClock.sampling()` arms a CPU-time timer
(ITIMER_PROF) that, every INTERVAL_S of the process's CPU time, runs a fixed
kernel between two bytecodes of the pass and times it.  The kernel does the
kind of numpy and banded-LAPACK work that the solver and the integrator do,
on arrays of the benchmark's grid size, and it calls no llgtw code, so no
change to the library can change it.  A pass's CPU time, less the samples,
divided by the samples' mean and multiplied by NOMINAL_S, is the pass's CPU
time at the kernel's nominal speed: slow and fast spells of the host then
slow or speed the pass and the kernel alike and cancel.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# CPU time between two samples: about 35 samples in the shortest pass
# (verify_fast), and the kernel then takes about 3.5% of a pass.
INTERVAL_S = 0.1
# About the kernel's median CPU time, sampled inside passes, on the machine
# the baseline was measured on (README.md); a fixed constant, so normalised
# times read as that machine's CPU seconds.
NOMINAL_S = 3.5e-3
_N = 801
_BW = 5
_ROUNDS = 7


class RefClock:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._x = np.linspace(-20.0, 20.0, _N)
        self._a = rng.uniform(-1.0, 1.0, _N)
        self._b = rng.uniform(-1.0, 1.0, _N)
        ab = rng.uniform(-1.0, 1.0, (2 * _BW + 1, 2 * _N))
        ab[_BW] += 4.0 * _BW  # diagonally dominant, so the solve is well posed
        self._ab = ab
        self.samples: list[float] = []
        self.sample_wall: list[float] = []

    def kernel(self) -> float:
        """Fixed work: elementwise ops on grid-sized arrays and banded solves."""
        a, b, x = self._a, self._b, self._x
        acc = 0.0
        for k in range(_ROUNDS):
            s = np.sin(a + 0.01 * k) * np.cos(b)
            t = np.gradient(s, x) + s * s * b - 0.5 * a
            rhs = np.concatenate((t, s))
            acc += float(solve_banded((_BW, _BW), self._ab, rhs)[k])
        return acc

    def _sample(self, signum, frame) -> None:
        # thread_time, not process_time: while a process CPU timer is armed,
        # the process clock only advances at scheduler ticks (4 ms apart on the
        # baseline machine)
        w0, c0 = time.perf_counter(), time.thread_time()
        self.kernel()
        self.samples.append(time.thread_time() - c0)
        self.sample_wall.append(time.perf_counter() - w0)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the kernel every INTERVAL_S of CPU time inside the block;
        the timer and the previous SIGPROF handler are restored on leaving."""
        self.samples, self.sample_wall = [], []
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def slowdown(self) -> float:
        """Mean sample of the last block over NOMINAL_S: above 1 when the
        host ran slow."""
        return statistics.fmean(self.samples) / NOMINAL_S
