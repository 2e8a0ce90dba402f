"""A frozen reference kernel that measures how fast the host runs right now.

On a shared host the same lalearn op can take twice as long from one
minute to the next, because neighbours compete for the cores and caches.
The slowdown hits every numpy-heavy Python loop alike: the ratio of two
different lalearn ops stayed within 3% while each op alone swung by 40%.
The benchmark therefore runs this kernel before and after every set-up
and every op and scales each time by ``REF_S`` over the mean of the two
kernel times.  The kernel uses only numpy and fixed data, so no change to
lalearn can change its speed; it mixes the operations lalearn's layers
spend their time in: stable sorts, gathers, segmented sums, masks, and
many calls on tiny arrays.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal seconds of one kernel run, about its median on the 2-core x86
# host the benchmark was written on.  Scaled times read as seconds on a
# host that runs the kernel in REF_S.
REF_S = 0.25
ROWS = 4096
ITERATIONS = 400


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20170)
        self.x = rng.standard_normal((ROWS, 2))
        self.keys = rng.integers(0, 64, ROWS)
        self.small = rng.standard_normal((16, 8))
        self.sink = 0.0

    def run(self) -> float:
        """Seconds taken by one fixed pass of the kernel."""
        x, keys, small = self.x, self.keys, self.small
        start = time.perf_counter()
        acc = 0.0
        for i in range(ITERATIONS):
            order = np.argsort(keys * 8.0 + x[:, i % 2], kind="stable")
            segments = np.bincount(keys[order], weights=x[order, 0], minlength=64)
            acc += float(np.cumsum(segments)[-1])
            mask = x[order[i % 3::3], 1] > 0.0
            acc += float(np.flatnonzero(mask).size)
            for row in small:
                acc += float(np.sqrt(np.abs(row)).sum() + np.maximum(row, 0.0).mean())
        self.sink = acc
        return time.perf_counter() - start
