"""Machine-speed probe, so that timings survive a shared host's slow spells.

On a shared host the same code runs up to 2x slower for minutes at a time, and
the slowdown hits interpreted code, BLAS and element-wise numpy alike.  A run
therefore times a fixed probe kernel (about 2 ms) before every `mdsm` call and,
through a hook on each training and sampling step, every PROBE_INTERVAL_S.
Each call's time is scaled to a host on which the probe takes
REFERENCE_PROBE_S[workload]:

    adjusted = measured * REFERENCE_PROBE_S[workload] / mean(probe times during the call)

The probe time is taken out of the measured time.  Raw times are printed in
the run metadata next to the adjusted ones.  On the reference host this cut
the spread of phase timings between runs by half or more (for example from
0.30 to 0.11 of the median for training, and from 0.17 to 0.02 for sampling,
on eight one-chain rotation_pair runs); it cannot remove it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe times on the reference host (a shared 2-vCPU Intel Xeon, L2
# 2 MiB, numpy 2.4, single-threaded OpenBLAS; BASELINE.json names it) between
# set-up spawns, and during each workload, where the caches it finds differ.
# They make adjusted times equal raw ones on that host on average.
REFERENCE_PROBE_S = {"setup": 2.3e-3, "ring_mad": 2.14e-3, "rotation_pair": 2.4e-3}
PROBE_INTERVAL_S = 0.05

_RNG = np.random.default_rng(0)
_A = _RNG.uniform(-0.2, 0.2, (64, 64))
_B = _RNG.standard_normal(100_000)
_C = _RNG.standard_normal(500_000)  # 4 MB, twice the L2 of the reference host


def _kernel() -> None:
    """Interpreter loop, small matmul, element-wise math, and a 4 MB stream:
    the four kinds of work the workloads' steps are made of (about 2 ms)."""
    s = 0
    for i in range(5000):
        s += i
    for _ in range(15):
        np.maximum(_A @ _A, 0.0)
    np.exp(-_B) * _B
    np.negative(_C, out=_C)
    _C.sum()


class SpeedProbe:
    def __init__(self, context: str):
        self.reference_s = REFERENCE_PROBE_S[context]
        self.times: list[float] = []
        self.spent_s = 0.0  # probe time, to take out of the measured time
        self._next = 0.0

    def probe(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.spent_s += t1 - t0
        self._next = t1 + PROBE_INTERVAL_S

    def maybe_probe(self) -> None:
        if time.perf_counter() >= self._next:
            self.probe()

    def hook(self, fn):
        """`fn` with a probe before it whenever PROBE_INTERVAL_S has passed."""
        maybe = self.maybe_probe

        def probed(*args, **kwargs):
            maybe()
            return fn(*args, **kwargs)

        return probed

    def mean_s(self, start: int = 0) -> float:
        return statistics.fmean(self.times[start:] or self.times)

    def factor(self, start: int = 0) -> float:
        """Multiply a time measured while probes start.. ran by this to get the
        reference-host time.  The mean, not the median, because the workload
        pays for the slow spells a few probes catch."""
        return self.reference_s / self.mean_s(start)
