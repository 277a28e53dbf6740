"""Times scaled to a nominal machine speed.

The benchmark's reference machine shares its host: the same operation on the same
input takes 25% longer or shorter from one minute to the next, in CPU
time as much as in wall time, and whole runs land in slow or fast
spells.  ``Clock`` runs a fixed calibration kernel (dense numpy row
updates and small batched solves in a Python loop, the mix of the
program's simplex) between operations, and scales each measured time by
``NOMINAL_S / kernel time``, the kernel time being the median of the
calibrations nearest to it on both sides.  A change to the program moves
the scaled times as it moves the raw ones; a change in the machine's
speed moves the kernel too and cancels.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Median kernel time on the reference machine (2-core x86 virtual machine,
# 2.1 GHz, one BLAS thread), so that scaled times read close to raw ones.
NOMINAL_S = 0.0035

# A calibration runs before an operation when the last one is older than this.
GAP_S = 0.05

# Calibrations on each side of an operation that give its machine speed.
WINDOW = 4

_rng = np.random.default_rng(0)
_TABLEAU = _rng.uniform(size=(48, 160))
_SYSTEMS = _rng.uniform(size=(256, 4, 4)) + 4.0 * np.eye(4)


def _kernel() -> float:
    a = _TABLEAU.copy()
    for i in range(100):
        col = a[:, i % a.shape[1]]
        rows = np.nonzero(col > 0.5)[0]
        row = int(rows[np.argmin(a[rows, 0] / col[rows])])
        a -= 1e-3 * np.outer(col, a[row])
    x = np.linalg.solve(_SYSTEMS, _SYSTEMS[:, :, :1])
    return float(a[0, 0] + x[0, 0, 0])


class Clock:
    def __init__(self):
        self.kernel_s: list[float] = []
        self._last = -math.inf
        for _ in range(3):  # warm caches before the first sample that counts
            _kernel()

    def calibrate(self) -> int:
        """Time the kernel now; returns the index of this calibration."""
        start = perf_counter()
        _kernel()
        self._last = perf_counter()
        self.kernel_s.append(self._last - start)
        return len(self.kernel_s) - 1

    def mark(self) -> int:
        """Index of the latest calibration, calibrating first if it is old."""
        if perf_counter() - self._last >= GAP_S:
            return self.calibrate()
        return len(self.kernel_s) - 1

    def scaled(self, seconds: float, mark: int) -> float:
        """``seconds`` measured after calibration ``mark`` and before the next one.

        The machine's speed there is the median kernel time over the
        ``WINDOW`` calibrations on each side, which follows spells of
        seconds and averages out the kernel's own jitter.
        """
        near = self.kernel_s[max(0, mark + 1 - WINDOW) : mark + 1 + WINDOW]
        return seconds * NOMINAL_S / statistics.median(near)
