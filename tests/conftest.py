"""Shared test helpers: independent finite-difference and SGD oracles,
and the forks of training pools."""

from __future__ import annotations

import os
import warnings
from typing import Callable, Iterable

# before numpy, so that the tests run BLAS on one thread, as a fedaa run does
import fedaa  # noqa: F401
import numpy as np
import pytest

from fedaa import clients, nn
from fedaa.errors import NumericError


def central_diff(
    fn: Callable[[np.ndarray], float],
    params: np.ndarray,
    coords: Iterable[int],
    h: float = 1e-6,
) -> dict[int, float]:
    """Central finite differences of a scalar function at chosen coordinates."""
    out = {}
    for k in coords:
        probe = params.copy()
        probe[k] += h
        up = fn(probe)
        probe[k] -= 2.0 * h
        down = fn(probe)
        out[k] = (up - down) / (2.0 * h)
    return out


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


def replay_backward_ce(arch, start, x, y, cfg, rng):
    """The straightforward SGD loop from a copy of ``start``, one
    ``nn.backward_ce`` call per minibatch: the oracle of ``nn.sgd_epoch``.
    Returns the params, or the NumericError of a non-finite loss."""
    params = start.copy()
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for lo in range(0, len(y), cfg.batch_size):
            take = order[lo : lo + cfg.batch_size]
            try:
                _, grad = nn.backward_ce(arch, params, x[take], y[take])
            except NumericError as exc:
                return exc
            params -= cfg.learning_rate * (grad + cfg.weight_decay * params)
    return params


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
