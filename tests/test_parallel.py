"""The worker pool holds at most one process per usable CPU and per task, and
maps in task order.  Its pool is a fake that maps in process, so these tests
start no process."""

import os

import pytest

from lalearn import parallel


class _FakePool:
    """Records the size it was opened with and maps in process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return [fn(task) for task in tasks]


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(parallel, "Pool", _FakePool)
    monkeypatch.setattr(_FakePool, "sizes", [])
    return _FakePool


def _square(x):
    return x * x


@pytest.mark.parametrize("affinity, cpu_count, tasks, size", [
    (4, None, 10, 4),      # more workers than CPUs: one process per CPU
    (None, 3, 10, 3),      # no affinity call: the CPU count caps it
    (4, None, 2, 2),       # fewer tasks than CPUs: one process per task
    (1, None, 10, None),   # one CPU: no pool, the tasks run in process
])
def test_a_huge_worker_count_opens_at_most_one_process_per_cpu(fake_pool, monkeypatch,
                                                                affinity, cpu_count,
                                                                tasks, size):
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                            raising=False)
    assert parallel.parallel_map(_square, range(tasks), workers=10 ** 6) == [
        x * x for x in range(tasks)]
    assert fake_pool.sizes == ([] if size is None else [size])
