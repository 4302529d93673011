"""Fast internal consistency checks behind the selftest subcommand.

Each check of a fast path against its straightforward path takes that
path from ``fedaa.reference``, the copy the tests use, and runs both on
the installed numpy, scipy and BLAS."""

from __future__ import annotations

import functools
import os

import numpy as np

from . import data as datamod
from . import reference
from .clients import SPLIT_STEPS, AttackSpec, ClientRecord, TrainingPool, train_lockstep
from .ddpg import DdpgConfig, ReplayBuffer, Transition, make_agent, act, soft_update
from .nn import ArchSpec, SgdConfig, backward_ce, init_params, param_count, sgd_epoch
from .orchestrator import aggregate, benign_scores
from .seeding import stream
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
    assert np.array_equal(agent.target_actor, agent.actor), (
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
    clients = datamod.dirichlet_partition(source, 5, 0.5, rng)
    # the source rows are distinct draws, so each must appear exactly once
    seen = [row.tobytes() for pair in clients for split in pair for row in split.features]
    assert sorted(seen) == sorted(row.tobytes() for row in source.features), (
        "partition must cover the source exactly once"
    )


def _check_distance_symmetry() -> None:
    rng = np.random.default_rng(10)
    x = rng.normal(size=(7, 20))
    x[6] = x[2]  # a repeated upload, measured once by selection
    res = select_clients(list(range(7)), x, 50.0)
    ids, _, sums = reference.all_rows_selection(list(range(7)), x, 50.0, "all_layers", None)
    assert (res.selected_ids, res.raw_row_sums.tobytes()) == (ids, sums.tobytes()), (
        "selection row sums must equal the distance matrix's row sums"
    )
    # from GRAM_WORK pair-columns the matrix comes from BLAS syrk on the
    # installed numpy: exactly symmetric, a zero diagonal, and within the
    # stated bound of pdist (widened by pdist's own rounding); below it,
    # built on numpy alone, pdist's bit for bit
    y = 5.0 + rng.normal(size=(121, 578))  # 7,260 pairs x 578 columns reach GRAM_WORK
    y[100] = y[7]
    want = reference.pdist_matrix(y)
    bound = reference.gram_bound(y, want)
    d = distance_matrix(y.copy())
    assert np.array_equal(d, d.T) and not d.diagonal().any(), (
        "the Gram distance matrix must be exactly symmetric with a zero diagonal"
    )
    assert (abs(d.sum(axis=1) - want.sum(axis=1)) <= bound.sum(axis=1)).all(), (
        "the Gram distance matrix's row sums lie outside its bound of pdist's"
    )
    y = y[:, :577]  # one column less falls below GRAM_WORK, onto numpy
    assert distance_matrix(y.copy()).tobytes() == reference.pdist_matrix(y).tobytes(), (
        "below GRAM_WORK the distance matrix must be squareform(pdist(.)) bit for bit"
    )


def _check_aggregate_hull() -> None:
    merged = aggregate(np.array([np.zeros(4), np.ones(4)]), np.array([0.25, 0.75]))
    assert np.allclose(merged, 0.75), "aggregation must stay inside the convex hull"


def _check_gradient() -> None:
    rng = np.random.default_rng(12)
    arch = ArchSpec(3, (5,), 2)
    params = init_params(arch, rng)
    x = rng.normal(size=(6, 3))
    y = rng.integers(0, 2, 6)
    _, grad = backward_ce(arch, params, x, y)
    coords = (0, 7, param_count(arch) - 1)
    fd = reference.central_diff(lambda p: backward_ce(arch, p, x, y)[0], params, coords)
    for k in coords:
        assert abs(fd[k] - grad[k]) <= 1e-4 * max(abs(fd[k]), abs(grad[k]), 1e-8), (
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
    for i, (start, x, y, trained) in enumerate(zip(starts, xs, ys, [alone[0], *stacked[1:]])):
        params = reference.replay_backward_ce(arch, start, x, y, cfg, np.random.default_rng(14 + i))
        assert np.array_equal(trained, params), (
            f"sgd_epoch differs from a replay of backward_ce steps (client {i})"
        )
    assert np.array_equal(stacked[0], alone[0]), (
        "a client's result in a stack differs from its result alone"
    )


def _check_fairness_stacking() -> None:
    # byte-identical fairness metrics rest on a stack of clients' forwards,
    # argmaxes and losses doing exactly the arithmetic of each client's own
    # on this numpy and BLAS: a test split of one row takes matmul's vector
    # path, and the means over 9 and 130 rows sum pairwise
    rng = np.random.default_rng(17)
    arch = ArchSpec(6, (8, 5), 3)
    clients = []
    for cid, n in enumerate((9, 1, 130, 9, 1, 5, 130, 9)):
        split = datamod.LabeledDataset(rng.normal(size=(n, 6)), rng.integers(0, 3, n), 3)
        # client 5 attacks, so the benign rows the stacks gather are not contiguous
        clients.append(ClientRecord(cid, AttackSpec("gaussian") if cid == 5 else None, split, split))
    models = 3.0 * rng.normal(size=(len(clients), param_count(arch)))
    global_params = init_params(arch, rng)
    got = benign_scores(clients, arch, models, global_params, np.arange(len(clients)))
    want, _ = reference.per_client_fairness(clients, arch, models, global_params)
    benign = [c for c in clients if c.attack is None]
    for i, client in enumerate(benign):
        assert [s[i] for s in got] == [w[i] for w in want], (
            f"stacked fairness scores differ from client {client.id}'s own"
        )


def _check_synthetic_population() -> None:
    # byte-identical synthetic data rests on the whole-array build doing
    # exactly the arithmetic of a client-by-client build on this numpy and
    # BLAS: one standard-normal draw of every generator against rng.normal
    # calls, one matmul per client into a shared array, and in-place
    # scaling and centring
    sizes, alpha, beta = (5, 61, 20, 7, 130, 5), 1.0, 0.5
    clients = datamod.generate_synthetic(alpha, beta, sizes, np.random.default_rng(18))
    want = reference.generate_synthetic(alpha, beta, sizes, np.random.default_rng(18))
    for cid, (pair, own) in enumerate(zip(clients, want)):
        for split, own_split in zip(pair, own):
            assert (split.features.tobytes(), split.labels.tobytes()) == (
                own_split.features.tobytes(), own_split.labels.tobytes()
            ), f"the whole-array build differs from client {cid}'s own"


@np.errstate(over="ignore", invalid="ignore")  # the pools' children inherit it at the fork
def _check_parallel_training() -> None:
    # byte-identical results on a training pool rest on a forked child
    # training as this process would on the installed numpy and BLAS
    if not hasattr(os, "fork"):
        return  # without fork every round trains in one process
    rng = np.random.default_rng(15)
    arch = ArchSpec(6, (8, 5), 3)
    cohort = []
    # four stacks in one process, the two clients of 23 rows sharing one;
    # client 1, which a child trains, flips its signs; client 4 diverges
    for cid, (n, scale) in enumerate(((31, 1.0), (23, 1.0), (23, 1.0), (17, 1.0), (9, 1e200))):
        split = datamod.LabeledDataset(scale * rng.normal(size=(n, 6)), rng.integers(0, 3, n), 3)
        attack = AttackSpec("sign_flip") if cid == 1 else None
        cohort.append(ClientRecord(cid, attack, split, split))
    broadcast = init_params(arch, rng)
    # 12 steps an epoch, and epochs enough for the round to split
    cfg = SgdConfig(learning_rate=0.2, weight_decay=1e-3, batch_size=8,
                    epochs=max(2, -(-SPLIT_STEPS // 12)))
    streams = functools.partial(stream, 16, "local")
    runs = {}
    for processes in (1, 2, 3):
        with TrainingPool(cohort, arch, cfg, broadcast, processes, np.arange(len(cohort))) as pool:
            errors = train_lockstep(cohort, broadcast, streams, pool)
            assert len(pool.children) == processes - 1, (
                f"a pool of {processes} processes trained on {len(pool.children) + 1}"
            )
        runs[processes] = (pool.out.tobytes(), {cid: str(exc) for cid, exc in errors.items()})
    assert list(runs[1][1]) == [4], "the diverging client must fail by its id"
    for processes in (2, 3):
        assert runs[processes] == runs[1], (
            f"training on a pool of {processes} processes differs from training on one"
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
    ("parallel_training", _check_parallel_training),
    ("fairness_stacking", _check_fairness_stacking),
    ("synthetic_population", _check_synthetic_population),
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
