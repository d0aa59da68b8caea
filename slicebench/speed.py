"""CPU-speed probe: rescales operation times to one reference speed.

On the shared 2-vCPU VM this benchmark was built on, the speed of a vCPU
drifts by 20-90% for seconds to minutes at a time, and every kind of work in
the process slows together (window medians of a probe and of slicevec
operations correlate at r >= 0.98; see README.md). A fixed piece of work, the
mix the pipeline runs (small numpy gathers, einsums and scatter-adds, plus
Python integer and string work), is timed PRE_SAMPLES times just before each
operation and then every INTERVAL_S while it runs, from a timer signal in the
same thread (no thread is added). An operation whose wall time, net of the
probes, is T and whose probes took p_i is reported as T * mean(P_REF_S / p_i):
its time at the speed at which one probe takes P_REF_S.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
PRE_SAMPLES = 10
P_REF_S = 0.00090  # scales reference seconds to about the wall seconds of that VM at its faster phases


class SpeedProbe:
    def __init__(self):
        g = np.random.default_rng(0)
        self._rows = g.random((300, 64))
        self._idx = g.integers(0, 300, 128)
        self._acc = np.zeros_like(self._rows)
        self.samples: list[float] = []
        self._previous = None

    def _work(self) -> None:
        for _ in range(6):
            picked = self._rows[self._idx]
            dots = np.einsum("bd,bd->b", picked, picked)
            np.add.at(self._acc, self._idx, picked)
            np.logaddexp(0.0, dots).sum()
        x = 0x9E3779B9
        for _ in range(400):
            x = (x ^ (x << 13)) & 0xFFFFFFFF
            x ^= x >> 7
        ".".join(str(i) for i in range(40)).split(".")

    def sample(self) -> None:
        started = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - started)

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """(fn(), seconds at the reference speed, wall seconds) for one call of fn."""
        first = len(self.samples)
        for _ in range(PRE_SAMPLES):
            self.sample()
        during = len(self.samples)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        started = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
        probes = self.samples[first:]
        net = wall - sum(self.samples[during:])
        return result, net * sum(P_REF_S / p for p in probes) / len(probes), wall
