"""The straightforward paths, one copy of each: the exact oracles that
``fedaa selftest`` and the test suite check the fast paths against on
the installed numpy, scipy and BLAS. No run path imports this module,
and it imports none of the fast paths it checks.

Each oracle, and the fast path it checks:

- ``central_diff``: the gradients of ``nn.backward_ce``,
  ``nn.backward_from_output`` and the DDPG updates;
- ``replay_backward_ce``: ``nn.sgd_epoch``, for a client alone and in
  a stack;
- ``synthetic_samples``, ``generate_synthetic`` and
  ``extract_server_pool``: ``data.synthetic_population``,
  ``data.generate_synthetic`` and ``data.extract_server_pool``;
- ``per_client_fairness``: ``orchestrator.benign_scores`` and
  ``orchestrator.evaluate_fairness``;
- ``pdist_matrix`` and ``gram_bound``: ``selection.distance_matrix``,
  bit for bit below ``GRAM_WORK`` and within the bound above it;
- ``all_rows_selection``: ``selection.select_clients``, which measures
  each distinct row once (``_distinct_rows``);
- ``per_client_uploads``: a round of ``clients.train_lockstep`` on a
  ``TrainingPool`` and ``local_update``, as
  ``orchestrator._collect_uploads`` runs it.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .clients import attack_sign_flip, local_update, trains
from .data import (SYNTHETIC_CLASSES, SYNTHETIC_DIM, TEST_FRACTION, LabeledDataset,
                   feature_scales, round_half_up)
from .errors import ConfigError, FedaaError, NumericError
from .nn import backward_ce, ce_loss_from_logits, forward, layer_slices
from .seeding import stream
from .selection import LIMIT, normalize_state, top_count


def central_diff(fn: Callable[[np.ndarray], float], params: np.ndarray,
                 coords: Iterable[int], h: float = 1e-6) -> dict[int, float]:
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


def replay_backward_ce(arch, start, x, y, cfg, rng):
    """The straightforward SGD loop from a copy of ``start``, one
    ``backward_ce`` call per minibatch. Returns the params, or the
    NumericError of a non-finite loss."""
    params = start.copy()
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for lo in range(0, len(y), cfg.batch_size):
            take = order[lo : lo + cfg.batch_size]
            try:
                _, grad = backward_ce(arch, params, x[take], y[take])
            except NumericError as exc:
                return exc
            params -= cfg.learning_rate * (grad + cfg.weight_decay * params)
    return params


def synthetic_samples(
    alpha: float, beta: float, sizes: Sequence[int], rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The client-by-client synthetic sampler: each client's (features,
    labels).

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
    """The client-by-client 80/20 split: after each client's sample, its
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
    """The client-by-client upload rule: each client's sorted picks go to
    the pool, its other train rows stay, each client's trimmed set
    checked."""
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


def per_client_fairness(population, arch, models, global_params):
    """The straightforward evaluation: each benign client's two forwards
    and one loss, on its own, in the order of ``population``, with its
    local model in row ``client.id`` of ``models``; the per-client
    values and the metrics."""
    accs, losses, global_accs = [], [], []
    for client in population:
        if client.role != "benign":
            continue
        x, y = client.test.features, client.test.labels
        logits = forward(arch, models[client.id], x)
        accs.append(float((np.argmax(logits, axis=1) == y).mean()))
        losses.append(ce_loss_from_logits(logits, y))
        global_accs.append(float((np.argmax(forward(arch, global_params, x), axis=1) == y).mean()))
    metrics = {
        "mean_benign_acc": float(np.mean(accs)),
        "acc_std": float(np.std(accs)),
        "acc_var": float(np.std(accs)) ** 2,
        "loss_std": float(np.std(losses)),
        "mean_global_acc": float(np.mean(global_accs)),
    }
    return (accs, losses, global_accs), metrics


def pdist_matrix(x: np.ndarray) -> np.ndarray:
    """``squareform(pdist(x))``, scipy's distance matrix of the rows of ``x``."""
    from scipy.spatial.distance import pdist, squareform

    return squareform(pdist(x))


def gram_bound(y, want):
    """distance_matrix's stated bound on the Gram route, widened by pdist's
    own rounding of ``want``: min(sqrt(e), e / d) + (cols + 4) 2^-52 d."""
    cent = y - y.mean(axis=0)
    sq = (cent * cent).sum(axis=1)
    e = (y.shape[1] + 4) * 2.0**-52 * (sq[:, None] + sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.fmin(np.sqrt(e), e / want)
    return near + (y.shape[1] + 4) * 2.0**-52 * want


def all_rows_selection(ids, uploads, m_percent, scope, arch):
    """The selection with ``pdist_matrix`` over every measurable row, as
    (selected ids, state, raw row sums); None if too few rows are measurable."""
    x = uploads
    if scope == "last_hidden_layer":
        wsl, bsl = layer_slices(arch)[len(arch.hidden_dims) - 1]
        x = x[:, wsl.start : bsl.stop]
    measurable = (abs(x) <= LIMIT).all(axis=1)
    count = top_count(m_percent, len(ids))
    if measurable.sum() < count:
        return None
    sums = np.full(len(ids), np.inf)
    sums[measurable] = pdist_matrix(x[measurable]).sum(axis=1)
    keep = np.sort(np.lexsort((ids, sums))[:count])
    return [ids[i] for i in keep], normalize_state(sums[keep]), sums[keep]


def per_client_uploads(exp, participants, global_params, round_index, local_models):
    """The straightforward round of experiment ``exp``: one local_update
    per client, benign ones first, each training by the plain
    ``backward_ce`` loop from its own stream into an upload of its own
    (a sign flipper then flipping it with a magnitude from the same
    stream), and a benign client's upload copied into its row of
    ``local_models``; the uploads stacked in ascending client id."""
    streams = functools.partial(stream, exp.cfg.seed, "local", round_index)
    uploads, benign = {}, []
    for cid in sorted(participants, key=lambda c: exp.clients[c].role != "benign"):
        client = exp.clients[cid]
        ipm = client.attack is not None and client.attack.kind == "ipm"
        uploads[cid] = np.empty(global_params.size)
        try:
            if trains(client):
                rng = streams(cid)
                trained = replay_backward_ce(exp.arch, global_params, client.train.features,
                                             client.train.labels, exp.cfg.local, rng)
                if isinstance(trained, NumericError):
                    raise trained
                if client.attack is not None:  # a sign flipper
                    trained = attack_sign_flip(trained, client.attack.scale, rng)
                uploads[cid][:] = trained
            local_update(
                client, uploads[cid], streams,
                benign_mean=np.mean(np.array(benign), axis=0) if ipm else None,
            )
        except FedaaError as exc:
            raise type(exc)(f"client {cid} ({client.role}): {exc}") from exc
        if client.role == "benign":
            benign.append(uploads[cid])
            local_models[cid] = uploads[cid]
    return np.stack([uploads[c] for c in sorted(uploads)])
