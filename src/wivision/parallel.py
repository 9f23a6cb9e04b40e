"""Process plumbing: the fork map, the BLAS pin and the shared output.

Each image of a capture, and each frame file, is independent of the others,
so a pass over them is shared among the usable CPUs: this process and one
forked worker per further CPU (:func:`fork_map`).  Workers write their results
into files or into the rows of one array in shared memory
(:func:`shared_zeros`), and only failures are pickled back.  A pass that calls
BLAS stays in this process when OpenBLAS cannot be pinned to one thread
(:func:`pin_blas_to_one_thread`), and every pass does when only one CPU is
usable or ``fork`` is unavailable.
"""

from __future__ import annotations

import ctypes
import mmap
import os
import pickle
import signal
import traceback

import numpy as np


def pin_blas_to_one_thread() -> bool:
    """Set the OpenBLAS libraries in this process, numpy's among them, to one
    thread; False if none exposes the call.

    OpenBLAS splits a product differently for each thread count, which changes
    the last bits of an image, and its threads would compete with the imaging
    workers for the same CPUs.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.rsplit("/", 1)[-1]}
        libraries = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:  # no /proc, or a library that cannot be opened again
        return False
    pinned = False
    for lib in libraries:
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                pinned = True
                break
    return pinned


def shared_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array of ``shape`` in anonymous shared memory, so that
    what forked workers write into it is seen by this process."""
    size = int(np.prod(shape))
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size).reshape(shape)


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process."""


def _first_failure(fn, items, k: int, processes: int) -> tuple[int, Exception, str] | None:
    """Call ``fn`` on ``items[k::processes]`` in order; for the first call that
    raises, the item's index, the exception and its formatted traceback."""
    for i in range(k, len(items), processes):
        try:
            fn(items[i])
        except Exception as exc:
            return i, exc, "".join(traceback.format_exception(exc))
    return None


def fork_map(fn, items, *, blas: bool) -> int:
    """``for item in items: fn(item)``, shared among processes; their number.

    The processes are one per usable CPU and at most one per item, or this one
    alone without ``fork``, or for a ``blas`` pass (one that calls BLAS) when
    :func:`pin_blas_to_one_thread` fails.  Of ``P`` processes, this one takes
    ``items[0::P]`` and forked worker ``k`` takes ``items[k::P]``.  Workers
    inherit ``fn`` and the items; ``fn`` leaves its results in files or shared
    memory.  A share stops at its first exception; the one raised is that of
    the lowest-numbered item that failed, as in a serial loop, with a worker's
    traceback as its cause, or ``ChildProcessError`` for a worker that could
    not start or died.  A worker is this process without its other threads:
    call this while none computes.
    """
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    processes = max(1, min(usable, len(items))) if hasattr(os, "fork") else 1
    if blas and not pin_blas_to_one_thread():
        processes = 1
    pids, pipes, received, statuses = [], [], [], []
    try:
        for k in range(1, processes):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read_fd)
                os.close(write_fd)
                raise ChildProcessError(f"worker {k} of {processes} could not "
                                        f"start: {exc}") from exc
            if pid == 0:  # the worker: never returns into the caller
                status = 1
                try:
                    failure = _first_failure(fn, items, k, processes)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(failure, pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(open(read_fd, "rb"))
        own = _first_failure(fn, items, 0, processes)
        received = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if len(received) < len(pids):  # interrupted before every worker sent
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for pid, status in zip(pids, statuses):
        if status != 0:
            raise ChildProcessError(f"worker process {pid} exited with status {status}")
    failed = [f for f in [own, *map(pickle.loads, received)] if f is not None]
    if failed:
        i, exc, tb = min(failed, key=lambda f: f[0])
        if i % processes:  # a worker's item
            raise exc from _WorkerTraceback(tb)
        raise exc
    return processes
