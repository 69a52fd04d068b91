"""A fixed reference computation, timed between operations.

The machine this benchmark runs on is shared, and its speed drifts by
tens of percent over seconds to minutes.  The gated metrics therefore
express each execution's time in multiples of this kernel's time
measured just before it ("ref" units): the drift slows both alike and
cancels in the ratio.
The kernel mixes interpreter work (dict updates, integer arithmetic)
with small dense LAPACK calls, like gascert's own hot paths, and uses
no gascert code, so a change to gascert cannot move it.
"""

import time

import numpy as np

_MATS = [np.random.default_rng(0).standard_normal((n, n)) for n in (3, 6, 12, 24)]

# The kernel's typical time on the 2-vCPU machine the benchmark was
# defined on.  ``setup_s`` is reported in seconds at this kernel speed.
NOMINAL_S = 3.0e-3


def kernel():
    table = {}
    acc = 0
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
        acc += i * i
    for _ in range(10):
        for M in _MATS:
            np.linalg.eigvals(M)
            np.linalg.solve(M, M[:, 0])
            M @ M
    return acc


def timed():
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
