"""How many CPUs this process may spread its own work over, and how it
forks the processes that share them."""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import warnings
from typing import Iterator


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask (``taskset`` narrows it),
    or ``os.cpu_count()`` where the platform has none: a run's training
    pool, or ``fedaa sweep``'s worker processes where its runs fill them
    all, spread over them. A worker process shares them, so it gets 1."""
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def quiet_fork() -> Iterator[None]:
    """Forks made within run without the DeprecationWarning that Python
    3.12+ gives in a process with more than one OS thread. The forks
    made here are safe: the other OS threads are OpenBLAS's pool, whose
    fork handler shuts it down before the fork (either process starts
    it again when next used), and a training pool forks only while no
    other Python thread runs. Raised as an error, the warning would come
    after the fork and lose the child."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        yield
