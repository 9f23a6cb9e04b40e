import os
from pathlib import Path

import pytest

from wivision import parallel


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_processes(monkeypatch):
    usable_cpus(monkeypatch, 4)
    assert [parallel.fork_map(lambda x: x, range(n), blas=False)
            for n in (0, 1, 2, 3, 10)] == [1, 1, 2, 3, 4]
    usable_cpus(monkeypatch, 1)
    assert parallel.fork_map(lambda x: x, range(10), blas=False) == 1
    # a pass that calls BLAS stays in this process when OpenBLAS cannot be pinned
    usable_cpus(monkeypatch, 4)
    monkeypatch.setattr(parallel, "pin_blas_to_one_thread", lambda: False)
    assert parallel.fork_map(lambda x: x, range(10), blas=True) == 1
    assert parallel.fork_map(lambda x: x, range(10), blas=False) == 4


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_fork_map_order_and_first_failure(monkeypatch, processes):
    usable_cpus(monkeypatch, processes)
    items = list(range(7))
    squares = parallel.shared_zeros((len(items),))

    def square(x):
        squares[x] = x * x

    assert parallel.fork_map(square, items, blas=False) == processes
    assert squares.tolist() == [x * x for x in items]

    def fail_from_3(x):
        if x >= 3:
            raise ValueError(f"item {x}")
        return x

    # item 3 is this process's at 1 and 3 processes and a worker's at 2
    with pytest.raises(ValueError, match="^item 3$") as failure:
        parallel.fork_map(fail_from_3, items, blas=False)
    if processes == 2:
        assert isinstance(failure.value.__cause__, parallel._WorkerTraceback)
        assert "in fail_from_3" in str(failure.value.__cause__)
    if processes > 1:
        # a worker that dies without returning its results
        with pytest.raises(ChildProcessError, match="exited with status 3"):
            parallel.fork_map(lambda x: os._exit(3) if x == 1 else x, items, blas=False)


def fail_fork(monkeypatch, after: int) -> None:
    """Make ``os.fork`` raise as the system does when it is out of processes,
    once ``after`` forks have succeeded."""
    fork, forks = os.fork, []

    def limited_fork():
        if len(forks) == after:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", limited_fork)


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize("started", [0, 1])
def test_fork_failure_is_worker_failure_and_closes_its_pipe(monkeypatch, started):
    usable_cpus(monkeypatch, 3)
    fail_fork(monkeypatch, started)
    done = parallel.shared_zeros((6,))

    def mark(x):
        done[x] = 1

    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(ChildProcessError, match=(
            rf"^worker {started + 1} of 3 could not start: \[Errno 11\] ")):
        parallel.fork_map(mark, range(6), blas=False)
    assert sorted(os.listdir("/proc/self/fd")) == before
    # the pass stops before this process takes its share
    assert done[0::3].tolist() == [0, 0]


def test_shared_zeros_shape():
    rows = parallel.shared_zeros((4, 3))
    assert rows.shape == (4, 3) and rows.dtype == float and not rows.any()
    assert parallel.shared_zeros((0, 3)).shape == (0, 3)
