"""Host-speed calibration: scale timings to one reference speed.

The reference box is a share of a host that other tenants load.  Its
single-thread speed drifts by up to 1.6x in phases that last from under a
second to minutes, and a whole run can sit inside one phase, so wall times
of the same code spread more across runs than any bound could hold.

A fixed calibration kernel (a sparse LU factorisation and solve, sparse
matrix-vector products, small dense eigensolves and a pure-Python loop,
the mix the fit path spends its time on) is timed in the benchmark process
between units of work, while the server and the load generator are idle.
It uses numpy and scipy only, never ``repro``, so a change to the program
cannot move it.  A timing that spans ``[start, end]`` is scaled by
``REFERENCE_S / c``, where ``c`` is the mean kernel time of the
calibrations inside that interval and the nearest one on each side: the
result reads in seconds at the speed where the kernel takes
``REFERENCE_S``.  Over five minutes of back-to-back fits on the reference
box, the median of any 12-second stretch spread 0.27 of its median raw and
0.03 scaled.
"""

from __future__ import annotations

import bisect
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Kernel time (s) that defines the reference speed: about its median on
#: the reference box.
REFERENCE_S = 0.035


class HostSpeed:
    """Calibration samples of one run, and the scale factors they give."""

    def __init__(self) -> None:
        m = 64
        ones = np.ones(m)
        path = sp.diags([-ones[1:], 2.0 * ones, -ones[1:]], [-1, 0, 1], format="csc")
        eye = sp.identity(m, format="csc")
        self.matrix = (sp.kron(eye, path) + sp.kron(path, eye) + 1e-3 * sp.identity(m * m)).tocsc()
        rng = np.random.default_rng(0)
        self.rhs = rng.standard_normal((m * m, 8))
        dense = rng.standard_normal((120, 120))
        self.dense = dense + dense.T
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.kernel()  # first call pays one-time costs

    def kernel(self) -> float:
        start = time.perf_counter()
        spla.splu(self.matrix).solve(self.rhs)
        x = self.rhs[:, 0]
        for _ in range(40):
            x = self.matrix @ x
            x /= np.linalg.norm(x)
        for _ in range(10):
            np.linalg.eigh(self.dense)
        acc = 0
        for i in range(20000):
            acc += i * i
        return time.perf_counter() - start

    def measure(self) -> None:
        """Time the kernel once and record it at its midpoint."""
        start = time.perf_counter()
        seconds = self.kernel()
        self.times.append(start + seconds / 2)
        self.seconds.append(seconds)

    def kernel_seconds(self, start: float, end: float) -> float:
        """Mean kernel time inside ``[start, end]`` and next to it."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        chosen = self.seconds[max(lo - 1, 0):min(hi + 1, len(self.seconds))]
        return sum(chosen) / len(chosen)

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time over ``[start, end]`` into
        reference seconds (divide a rate by it)."""
        return REFERENCE_S / self.kernel_seconds(start, end)
