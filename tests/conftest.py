"""Shared test helpers: gradient errors against ``fedaa.reference``'s
central differences, and the forks of training pools. The oracles the
tests check the fast paths against are in ``fedaa.reference``."""

from __future__ import annotations

import os
import warnings
from typing import Callable, Iterable

# before numpy, so that the tests run BLAS on one thread, as a fedaa run does
import fedaa  # noqa: F401
import numpy as np
import pytest

from fedaa import clients
from fedaa.reference import central_diff


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def max_grad_rel_err(
    fn: Callable[[np.ndarray], float],
    params: np.ndarray,
    grad: np.ndarray,
    coords: Iterable[int],
    h: float = 1e-6,
) -> float:
    fd = central_diff(fn, params, coords, h)
    return max(rel_err(fd[k], grad[k]) for k in fd)


@pytest.fixture
def counted_forks(monkeypatch):
    """The pids of the training processes forked."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(clients.os, "fork", counted)
    return made


@pytest.fixture
def forks(counted_forks, monkeypatch):
    """Rounds that split at any number of steps, and the pids of the
    training processes forked."""
    monkeypatch.setattr(clients, "SPLIT_STEPS", 0)
    return counted_forks


def warning_fork(fork: Callable[[], int]) -> Callable[[], int]:
    """``fork`` followed, in the parent, by the DeprecationWarning that
    Python 3.12+ gives when a process with several OS threads forks
    (OpenBLAS's threads, here)."""

    def forked() -> int:
        pid = fork()
        if pid:
            message = f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to deadlocks in the child."
            warnings.warn(message, DeprecationWarning, stacklevel=2)
        return pid

    return forked


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
