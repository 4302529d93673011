"""Fast internal consistency checks behind the selftest subcommand."""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from . import data as datamod
from .ddpg import DdpgConfig, ReplayBuffer, Transition, make_agent, act, soft_update
from .nn import (
    ArchSpec,
    MlpModel,
    SgdConfig,
    backward_ce,
    init_params,
    param_count,
    sgd_epoch,
)
from .orchestrator import aggregate
from .selection import distance_matrix, select_clients


def _check_simplex_actions() -> None:
    rng = np.random.default_rng(7)
    agent = make_agent(4, 4, DdpgConfig(hidden=16), rng)
    for trial in range(20):
        a = act(agent, rng.uniform(0, 1, 4), 0.1, rng)
        assert abs(a.sum() - 1.0) < 1e-9 and a.min() >= 0.0, "action off the simplex"


def _check_soft_update() -> None:
    rng = np.random.default_rng(8)
    agent = make_agent(3, 3, DdpgConfig(hidden=8, epsilon_soft=1.0), rng)
    soft_update(agent)
    assert np.array_equal(agent.target_actor.params, agent.actor.params), (
        "epsilon 1 must overwrite the target"
    )


def _check_buffer_fifo() -> None:
    buf = ReplayBuffer(3)
    s = np.zeros(2)
    for r in range(5):
        buf.push(Transition(s, np.array([0.5, 0.5]), r / 10.0, s))
    rewards = sorted(t.reward for t in buf.sample(3, np.random.default_rng(0)))
    assert rewards == [0.2, 0.3, 0.4], "oldest transitions must be evicted first"


def _check_partition_complete() -> None:
    rng = np.random.default_rng(9)
    source = datamod.LabeledDataset(rng.normal(size=(300, 4)), rng.integers(0, 3, 300), 3)
    part = datamod.dirichlet_partition(source, 5, 0.5, rng)
    seen = np.concatenate(
        [np.concatenate([tr, te]) for tr, te in part.source_indices]
    )
    assert sorted(seen.tolist()) == list(range(300)), "partition must cover the source"


def _check_distance_symmetry() -> None:
    rng = np.random.default_rng(10)
    x = rng.normal(size=(7, 20))
    x[6] = x[2]  # a repeated upload, measured once by selection
    c = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    assert np.allclose(c, c.T, atol=1e-12) and np.all(np.diag(c) == 0.0), (
        "distance matrix must be symmetric with a zero diagonal"
    )
    res = select_clients(list(range(7)), x, 50.0)
    assert np.allclose(res.raw_row_sums, c[res.selected_ids].sum(axis=1), rtol=1e-12), (
        "selection row sums must equal the distance matrix's row sums"
    )
    # banded selection is exact only while cdist and pdist share one kernel
    # on the installed scipy
    want = squareform(pdist(x)).tobytes()
    for bands in (2, 3, 4):
        assert distance_matrix(x, bands).tobytes() == want, (
            f"the distance matrix in {bands} bands differs from squareform(pdist(.))"
        )


def _check_aggregate_hull() -> None:
    merged = aggregate(np.array([np.zeros(4), np.ones(4)]), np.array([0.25, 0.75]))
    assert np.allclose(merged, 0.75), "aggregation must stay inside the convex hull"


def _check_gradient() -> None:
    rng = np.random.default_rng(12)
    arch = ArchSpec(3, (5,), 2)
    model = MlpModel(arch, init_params(arch, rng))
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, 6)
    _, grad = backward_ce(model, x, y)
    h = 1e-6
    for k in (0, 7, param_count(arch) - 1):
        probe = model.params.copy()
        probe[k] += h
        up, _ = backward_ce(MlpModel(arch, probe), x, y)
        probe[k] -= 2 * h
        down, _ = backward_ce(MlpModel(arch, probe), x, y)
        fd = (up - down) / (2 * h)
        assert abs(fd - grad[k]) <= 1e-4 * max(abs(fd), abs(grad[k]), 1e-8), (
            f"gradient check failed at coordinate {k}"
        )


def _check_sgd_matches_reference() -> None:
    # byte-identical results rest on sgd_epoch doing exactly the arithmetic
    # of backward_ce steps on this numpy and BLAS, alone and in a stack
    rng = np.random.default_rng(13)
    arch = ArchSpec(6, (8, 5), 3)
    starts = np.stack([init_params(arch, rng) for _ in range(3)])
    xs = [rng.normal(size=(23, 6)) for _ in range(3)]
    ys = [rng.integers(0, 3, 23) for _ in range(3)]
    cfg = SgdConfig(learning_rate=0.2, weight_decay=1e-3, batch_size=8, epochs=2)
    alone, stacked = starts[:1].copy(), starts.copy()
    sgd_epoch(arch, alone, xs[:1], ys[:1], cfg, [np.random.default_rng(14)])
    sgd_epoch(arch, stacked, xs, ys, cfg, [np.random.default_rng(14 + i) for i in range(3)])
    for i, (params, x, y, trained) in enumerate(zip(starts, xs, ys, [alone[0], *stacked[1:]])):
        params = params.copy()
        order_rng = np.random.default_rng(14 + i)
        for _ in range(cfg.epochs):
            order = order_rng.permutation(len(y))
            for lo in range(0, len(y), cfg.batch_size):
                take = order[lo : lo + cfg.batch_size]
                _, grad = backward_ce(MlpModel(arch, params), x[take], y[take])
                params -= cfg.learning_rate * (grad + cfg.weight_decay * params)
        assert np.array_equal(trained, params), (
            f"sgd_epoch differs from a replay of backward_ce steps (client {i})"
        )
    assert np.array_equal(stacked[0], alone[0]), (
        "a client's result in a stack differs from its result alone"
    )


CHECKS = (
    ("simplex_actions", _check_simplex_actions),
    ("soft_update_arithmetic", _check_soft_update),
    ("replay_buffer_fifo", _check_buffer_fifo),
    ("partition_completeness", _check_partition_complete),
    ("distance_symmetry", _check_distance_symmetry),
    ("aggregation_convex_hull", _check_aggregate_hull),
    ("gradient_check", _check_gradient),
    ("sgd_matches_reference", _check_sgd_matches_reference),
)


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run every check; returns (name, passed, detail) triples."""
    out = []
    for name, fn in CHECKS:
        try:
            fn()
            out.append((name, True, ""))
        except Exception as exc:  # a failed check must not stop the rest
            out.append((name, False, str(exc)))
    return out
