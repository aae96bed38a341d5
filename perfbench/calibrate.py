"""Host-speed probe: a fixed kernel timed all through every untraced sample.

On a shared host the same solve runs at speeds up to twice apart, from one
second to the next and from one minute to the next, while CPU time equals
wall time (see README.md). A probe of fixed work measures how fast the host
is running at that moment. ``HostSampler`` runs a short probe from a timer
signal every ``PERIOD_S`` of wall time while the solve runs, so the probes
see the same host as the solve, and records when each ran and how long it
took. The sample subtracts the probes' time from its own timings and
reports them scaled by ``REFERENCE_PROBE_S / mean probe``: seconds on the
host at the speed at which a probe takes ``REFERENCE_PROBE_S``. The probe is
the benchmark's own code and is driven by a signal, not by a hook in the
package, so a change to the solver moves the scaled times exactly as it
moves the raw ones; the raw times are kept in the record.

The kernel mixes what the solver's time is made of: interpreter work, many
small NumPy calls, and a sparse matrix-vector product over arrays larger
than the L2 cache.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse as sp

# Probe time on a 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4, SciPy 1.17)
# at its faster speed. Only a fixed scale: comparisons divide it out.
REFERENCE_PROBE_S = 0.0020
PERIOD_S = 0.05

_N_SPARSE = 40_000
_MATRIX = sp.diags([np.full(_N_SPARSE - 2, -1.0), np.full(_N_SPARSE, 4.0),
                    np.full(_N_SPARSE - 2, -1.0)], [-2, 0, 2], format="csr")
_VECTOR = np.linspace(0.0, 1.0, _N_SPARSE)
_SMALL = np.linspace(0.0, 1.0, 200)


def probe() -> None:
    """The fixed kernel."""
    v = _SMALL
    acc = 0
    for i in range(4_000):
        acc += i * i % 7
    for _ in range(150):
        v = v * 0.999 + 0.001
        acc += float(v @ v) > 0.0
    x = _VECTOR
    for _ in range(3):
        x = _MATRIX @ x


class HostSampler:
    """Runs ``probe`` every ``PERIOD_S`` of wall time between start and stop."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []   # (start, duration)
        self._previous = None

    def _on_timer(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter() - start))

    def start(self):
        for _ in range(5):   # warm-up: first calls into NumPy and SciPy
            probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def spent(self, begin: float, end: float) -> float:
        """Seconds of probing that started inside [begin, end)."""
        return sum(d for s, d in self.probes if begin <= s < end)

    def scale(self) -> float:
        """REFERENCE_PROBE_S over the mean probe time, or 1 with no probe."""
        if not self.probes:
            return 1.0
        return REFERENCE_PROBE_S / (sum(d for _, d in self.probes) / len(self.probes))
