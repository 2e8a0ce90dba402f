"""Deterministic worker-pool mapping.

Tasks carry their own derived seeds, results are returned in task order,
and any reduction happens in that canonical order, so output is identical
for every worker count.  A pool holds at most one process per task and per
CPU this process may run on.
"""

from __future__ import annotations

import os
from multiprocessing import Pool


def parallel_map(fn, tasks, workers: int = 1) -> list:
    tasks = list(tasks)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(workers, len(tasks), cpus or 1)
    if processes <= 1:
        return [fn(task) for task in tasks]
    with Pool(processes) as pool:
        return pool.map(fn, tasks, chunksize=1)
