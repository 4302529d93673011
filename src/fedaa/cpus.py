"""How many CPUs this process may spread its own work over."""

from __future__ import annotations

import multiprocessing
import os


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, or ``os.cpu_count()``
    where the platform has no affinity masks. A worker process (a
    ``fedaa sweep`` worker) shares the CPUs with its siblings already,
    so it gets 1."""
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1
