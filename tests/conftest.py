"""Shared test helpers: independent finite-difference, SGD and
synthetic-data oracles, and the forks of training pools."""

from __future__ import annotations

import math
import os
import warnings
from typing import Callable, Iterable, Iterator, Sequence

# before numpy, so that the tests run BLAS on one thread, as a fedaa run does
import fedaa  # noqa: F401
import numpy as np
import pytest

from fedaa import clients, nn
from fedaa.data import (
    SYNTHETIC_CLASSES,
    SYNTHETIC_DIM,
    TEST_FRACTION,
    LabeledDataset,
    feature_scales,
    round_half_up,
)
from fedaa.errors import ConfigError, NumericError


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


def synthetic_samples(
    alpha: float, beta: float, sizes: Sequence[int], rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The client-by-client synthetic sampler, the oracle of
    ``data.synthetic_population``: each client's (features, labels).

    Every generator is drawn first, client after client, one
    ``rng.normal`` call per value or array; then each client's sample as
    it is asked for, so draws the caller makes between two clients come
    after the first one's sample and before the next one's.
    """
    if any(n < 5 for n in sizes):
        raise ConfigError("every client needs at least 5 samples")
    if alpha < 0 or beta < 0:
        raise ConfigError("alpha and beta must be non-negative")
    gens = []
    for _ in sizes:
        u = float(rng.normal(0.0, math.sqrt(alpha)))
        weight = rng.normal(u, 1.0, size=(SYNTHETIC_CLASSES, SYNTHETIC_DIM))
        bias = rng.normal(u, 1.0, size=SYNTHETIC_CLASSES)
        mu = float(rng.normal(0.0, math.sqrt(beta)))
        gens.append((weight, bias, float(rng.normal(mu, 1.0))))
    for (weight, bias, center), n in zip(gens, sizes):
        x = center + rng.standard_normal((n, SYNTHETIC_DIM)) * feature_scales(SYNTHETIC_DIM)
        yield x, np.argmax(x @ weight.T + bias, axis=1).astype(np.int64)


def generate_synthetic(alpha, beta, sizes, rng):
    """The client-by-client 80/20 split, the oracle of
    ``data.generate_synthetic``: after each client's sample, its
    permutation; its first round(0.2 * n) entries (at least 1, at most
    n - 1), sorted, are the test rows. Each split is a checked set."""
    out = []
    for x, y in synthetic_samples(alpha, beta, sizes, rng):
        perm = rng.permutation(y.size)
        n_test = min(max(1, round_half_up(TEST_FRACTION * y.size)), y.size - 1)
        train, test = np.sort(perm[n_test:]), np.sort(perm[:n_test])
        out.append((LabeledDataset(x[train], y[train], SYNTHETIC_CLASSES),
                    LabeledDataset(x[test], y[test], SYNTHETIC_CLASSES)))
    return out


def extract_server_pool(clients, rng):
    """The client-by-client upload rule, the oracle of
    ``data.extract_server_pool``: each client's sorted picks go to the
    pool, its other train rows stay, each client's trimmed set checked."""
    upload = max(1, round_half_up(0.1 * min(len(train) + len(test) for train, test in clients)))
    pool_x, pool_y, trimmed = [], [], []
    for train, test in clients:
        if len(train) - upload < 1:
            raise ConfigError(f"client train split of {len(train)} cannot spare {upload} uploads")
        pick = np.sort(rng.choice(len(train), size=upload, replace=False))
        keep = np.setdiff1d(np.arange(len(train)), pick)
        pool_x.append(train.features[pick])
        pool_y.append(train.labels[pick])
        trimmed.append((LabeledDataset(train.features[keep], train.labels[keep], train.num_classes), test))
    pool = LabeledDataset(np.vstack(pool_x), np.concatenate(pool_y), clients[0][0].num_classes)
    return pool, trimmed


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
