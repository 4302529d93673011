"""Round loop: aggregate, evaluate, broadcast, train, select, learn.

Per-round order. The policy turns the previous selection state into
aggregation weights over the previously selected uploads; the merged
model is scored on the held-out validation set (that score is the
reward) and broadcast; participating clients run local updates (benign
ones first, so reference-point attacks can read their uploads); the new
uploads go through distance selection, producing the next state; the
transition lands in the replay buffer; actor and critic take one SGD
step each once the buffer has warmed up, and the targets soft-update
every second round. The baseline aggregator runs the same loop but
merges every upload with size weights, and skips selection and the
policy.

Randomness is split into named substreams of the config seed, so the
schedule of one subsystem never perturbs another. Two runs of the same
config are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, FedaaError, InternalError, NumericError
from . import data as datamod
from .clients import (
    FAIRNESS_STACK_BYTES,
    ClientRecord,
    TrainingPool,
    assign_roles,
    draws,
    local_update,
    mean_upload,
    pool_size,
    shared_rows,
    train_lockstep,
)
from .config import ExperimentConfig, SYNTHETIC_KINDS
from .data import LabeledDataset, round_half_up
from .ddpg import (
    DdpgAgent,
    ReplayBuffer,
    Transition,
    act,
    exploration_sigma,
    make_agent,
    soft_update,
    update_actor,
    update_critic,
)
from .nn import ArchSpec, forward, forward_stack, init_params, log_softmax
from .seeding import derive_seed, stream
from .selection import SelectionResult, select_clients, top_count

SUBSYSTEM_LABELS = (
    "data",
    "sizes",
    "validation",
    "partition",
    "server-pool",
    "roles",
    "model-init",
    "agent-init",
    "participation",
    "exploration",
    "buffer",
)


def subsystem_seeds(master: int) -> dict[str, int]:
    """Named top-level stream seeds recorded in the run manifest."""
    return {label: derive_seed(master, label) for label in SUBSYSTEM_LABELS}


@dataclass
class RoundRecord:
    """One round's results: the fields, in order, are the results columns;
    ``int`` cells stay integers and every other cell is a float. A
    non-finite value in any field raises NumericError naming the field."""

    round: int
    reward: float
    mean_benign_acc: float
    acc_std: float
    acc_var: float
    loss_std: float
    mean_global_acc: float
    selected_ids: list[int]
    action: list[float]
    per_class_val_acc: list[float]

    def __post_init__(self) -> None:
        if len(self.selected_ids) != len(self.action):
            raise InternalError("one aggregation weight per selected client")
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise NumericError(f"non-finite value in field {f.name!r}")


@dataclass
class FairnessMetrics:
    mean_acc: float
    acc_std: float
    loss_std: float
    mean_global_acc: float


def aggregate(rows: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Convex combination of upload rows under simplex weights."""
    rows = np.asarray(rows, dtype=np.float64)
    weights = np.asarray(action, dtype=np.float64)
    if rows.ndim != 2 or len(rows) != weights.size:
        raise ConfigError(f"uploads of shape {rows.shape} for {weights.size} weights")
    if weights.min() < -1e-6 or abs(weights.sum() - 1.0) > 1e-6:
        raise InternalError("aggregation weights violate the probability simplex")
    return weights @ rows


def evaluate_reward(
    arch: ArchSpec, params: np.ndarray, val_set: LabeledDataset
) -> tuple[float, np.ndarray]:
    """Accuracy on the validation set, plus per-class accuracies.

    Classes absent from the validation set score 0.0 by convention.
    """
    logits = forward(arch, params, val_set.features)
    correct = np.argmax(logits, axis=1) == val_set.labels
    per_class = np.zeros(val_set.num_classes)
    for c in range(val_set.num_classes):
        mask = val_set.labels == c
        if mask.any():
            per_class[c] = float(correct[mask].mean())
    return float(correct.mean()), per_class


def benign_scores(
    clients: list[ClientRecord],
    arch: ArchSpec,
    models: np.ndarray,
    global_params: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each benign client's test accuracy and loss under its local model,
    row ``client.id`` of ``models``, and its test accuracy under
    ``global_params``: three arrays in the order of ``clients``, in
    stacks as ``evaluate_fairness`` describes. Each value is
    bit-identical to the client's own ``forward``, ``argmax`` and
    ``ce_loss_from_logits``; ``fedaa selftest`` checks this.
    """
    benign = [c for c in clients if c.role == "benign"]
    groups: dict[int, list[int]] = {}
    for pos, client in enumerate(benign):
        groups.setdefault(len(client.test), []).append(pos)
    width = max(1, FAIRNESS_STACK_BYTES // (8 * models.shape[1]))
    accs, losses, global_accs = (np.empty(len(benign)) for _ in range(3))
    for group in groups.values():
        for lo in range(0, len(group), width):
            stack = group[lo : lo + width]
            x = np.stack([benign[p].test.features for p in stack])
            y = np.stack([benign[p].test.labels for p in stack])
            # the gathered rows are a temporary, freed when forward_stack returns
            logits = forward_stack(arch, models[[benign[p].id for p in stack]], x)
            accs[stack] = (np.argmax(logits, axis=2) == y).mean(axis=1)
            picked = log_softmax(logits)[np.arange(len(stack))[:, None], np.arange(y.shape[1]), y]
            losses[stack] = -picked.mean(axis=1)
            logits = forward_stack(arch, global_params, x)
            global_accs[stack] = (np.argmax(logits, axis=2) == y).mean(axis=1)
    return accs, losses, global_accs


def evaluate_fairness(
    clients: list[ClientRecord],
    arch: ArchSpec,
    models: np.ndarray,
    global_params: np.ndarray,
) -> FairnessMetrics:
    """Population spread of benign clients' local test performance.

    Accuracy/loss come from each benign client's own local model, row
    ``client.id`` of the run's parameter matrix ``models``, on its own
    test split;
    mean_global_acc scores the shared global model, ``global_params``,
    on the same splits. The per-client values are combined in the order
    of ``clients``, ascending id in a run.

    The clients are scored in stacks (``benign_scores``): benign clients
    of equal test size, in the order of ``clients``, split into stacks of
    at most FAIRNESS_STACK_BYTES of parameter rows (one row if a row is
    larger), so that a stack's memory does not grow with the population.
    A stack's rows are gathered once, its test splits stacked, and each
    layer is one stacked matmul for the local models and one broadcast
    matmul for the global model (``forward_stack``); the gathered rows
    are released before the next stack gathers its own.
    """
    accs, losses, global_accs = benign_scores(clients, arch, models, global_params)
    if not accs.size:
        raise ConfigError("fairness metrics need at least one benign client")
    return FairnessMetrics(
        mean_acc=float(np.mean(accs)),
        acc_std=float(np.std(accs)),
        loss_std=float(np.std(losses)),
        mean_global_acc=float(np.mean(global_accs)),
    )


def sample_participants(
    num_clients: int, ratio: float, rng: np.random.Generator
) -> list[int]:
    """Seeded draw of round(ratio * num_clients) distinct client ids, ascending."""
    if not 0.0 < ratio <= 1.0:
        raise ConfigError("participation ratio must lie in (0, 1]")
    size = round_half_up(ratio * num_clients)
    if size < 1:
        raise ConfigError(
            f"participation ratio {ratio} yields an empty cohort of {num_clients}"
        )
    return sorted(int(i) for i in rng.choice(num_clients, size=size, replace=False))


@dataclass
class Experiment:
    """Materialized run: clients, validation set, policy, buffers. The
    clients' parameters are rows of one matrix that ``run_rounds`` makes."""

    cfg: ExperimentConfig
    clients: list[ClientRecord]
    val_set: LabeledDataset
    arch: ArchSpec
    initial_params: np.ndarray
    cohort_size: int
    agent: DdpgAgent | None
    buffer: ReplayBuffer | None


def _client_sizes(cfg: ExperimentConfig) -> list[int]:
    sizes = cfg.dataset.samples_per_client
    n = cfg.dataset.num_clients
    if sizes == "lognormal":
        return datamod.lognormal_sizes(n, stream(cfg.seed, "sizes"))
    if isinstance(sizes, int):
        return [sizes] * n
    return list(sizes)


def _materialize_data(cfg: ExperimentConfig) -> tuple[LabeledDataset, datamod.ClientPartition]:
    """Build (validation set, client partition) for the configured dataset."""
    ds = cfg.dataset
    data_rng = stream(cfg.seed, "data")
    if ds.kind in SYNTHETIC_KINDS:
        spec = datamod.SyntheticSpec(
            alpha=ds.alpha,
            beta=ds.beta,
            num_clients=ds.num_clients,
            samples_per_client=_client_sizes(cfg),
        )
        partition = datamod.generate_synthetic(spec, data_rng)
        return datamod.extract_server_pool(partition, stream(cfg.seed, "server-pool"))
    if ds.kind == "synthetic_dirichlet":
        # pool one generator per client so all classes appear in the source;
        # a single random linear labeler leaves entire classes empty
        base, extra = divmod(ds.total_samples, ds.num_clients)
        if base < 5:
            raise ConfigError(
                "synthetic_dirichlet needs total_samples >= 5 * num_clients"
            )
        sizes = [base + (1 if i < extra else 0) for i in range(ds.num_clients)]
        spec = datamod.SyntheticSpec(
            alpha=ds.alpha, beta=ds.beta, num_clients=ds.num_clients,
            samples_per_client=sizes,
        )
        xs, ys = [], []
        for gen, size in zip(datamod.draw_synthetic_generators(spec, data_rng), sizes):
            x, y = datamod.sample_from_generator(gen, size, data_rng)
            xs.append(x)
            ys.append(y)
        source = LabeledDataset(
            np.concatenate(xs), np.concatenate(ys), spec.num_classes
        )
    elif ds.kind == "csv":
        source = datamod.load_csv(ds.csv_path)
    else:
        source = datamod.load_idx(ds.idx_images, ds.idx_labels)
    counts = cfg.validation.per_class
    if counts is None:
        counts = 100
    if isinstance(counts, int):
        counts = (counts,) * source.num_classes
    val_set, remainder = datamod.build_validation_set(
        source, counts, stream(cfg.seed, "validation")
    )
    partition = datamod.dirichlet_partition(
        remainder, ds.num_clients, ds.dirichlet_concentration, stream(cfg.seed, "partition")
    )
    return val_set, partition


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Materialize datasets, roles, models, and the policy for a config."""
    val_set, partition = _materialize_data(cfg)
    num_classes = val_set.num_classes
    input_dim = val_set.features.shape[1]
    arch = ArchSpec(input_dim, tuple(cfg.model_hidden), num_classes)
    initial = init_params(arch, stream(cfg.seed, "model-init"))
    malicious = set(assign_roles(cfg.dataset.num_clients, cfg.malicious_fraction, stream(cfg.seed, "roles")))
    clients = [
        ClientRecord(cid, cfg.attack if cid in malicious else None, train, test)
        for cid, (train, test) in enumerate(partition.clients)
    ]
    cohort = round_half_up(cfg.participation_ratio * cfg.dataset.num_clients)
    agent = None
    buffer = None
    if cfg.aggregator == "fedaa":
        if cohort < 2:
            raise ConfigError("the distance selector needs a cohort of at least 2")
        m_count = top_count(cfg.m_percent, cohort)
        agent = make_agent(m_count, m_count, cfg.ddpg, stream(cfg.seed, "agent-init"))
        buffer = ReplayBuffer(cfg.ddpg.buffer_capacity)
    return Experiment(
        cfg=cfg,
        clients=clients,
        val_set=val_set,
        arch=arch,
        initial_params=initial,
        cohort_size=cohort,
        agent=agent,
        buffer=buffer,
    )


def _client_rows(cfg: ExperimentConfig, size: int) -> np.ndarray:
    """A run's (N, size) parameter matrix, in ``shared_rows``; a
    ConfigError naming the GiB needed if it cannot be had."""
    count = cfg.dataset.num_clients
    try:
        return shared_rows(count, size)
    except (MemoryError, OSError) as exc:  # an mmap that fails raises OSError
        raise ConfigError(
            f"dataset.num_clients = {count} local models of model.hidden = "
            f"{list(cfg.model_hidden)} ({size} parameters each) need "
            f"{count * size * 8 / 2**30:.2f} GiB, more than this process can allocate"
        ) from exc


def _cohort_rows(models: np.ndarray, ids: list[int]) -> np.ndarray:
    """The rows of the clients ``ids``, ascending: the matrix itself when
    every client takes part, else a gathered copy."""
    return models if len(ids) == len(models) else models[ids]


def _collect_uploads(
    exp: Experiment,
    participants: list[int],
    global_params: np.ndarray,
    round_index: int,
    pool: TrainingPool,
) -> None:
    """Run local updates for a cohort into its clients' rows of
    ``pool.out``, the run's parameter matrix; benign clients go first so
    that reference-point attacks can use their uploads.

    Clients that train do so first, in lockstep stacks of equal train
    size (on the pool's processes when the round is large; see
    ``train_lockstep``), straight into their rows; each draws its
    permutations from its own stream, which its ``local_update`` then
    continues (a sign flipper's magnitude draw); a client that draws
    nothing (``draws``) gets no stream. A client whose training failed
    raises its error in its turn, so the error names the first such
    client in this order. A benign participant's row is then its local
    model.
    """
    cfg = exp.cfg
    cohort = [exp.clients[c] for c in sorted(participants)]
    rngs = {c.id: stream(cfg.seed, "local", round_index, c.id) if draws(c) else None
            for c in cohort}
    errors = train_lockstep(exp.arch, cohort, global_params, cfg.local, rngs, pool)
    models = pool.out
    benign_mean = None
    for client in sorted(cohort, key=lambda c: c.attack is not None):
        try:
            if client.id in errors:
                raise errors[client.id]
            if benign_mean is None and client.attack is not None and client.attack.kind == "ipm":
                # every ipm attacker scales the same mean; take it once a
                # round, when every benign row is written
                benign_mean = mean_upload(models, [c.id for c in cohort if c.attack is None])
            local_update(client, models[client.id], rngs[client.id], benign_mean=benign_mean)
        except FedaaError as exc:
            raise type(exc)(f"client {client.id} ({client.role}): {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> list[RoundRecord]:
    """Full run under the configured aggregator; one record per round."""
    return run_rounds(build_experiment(cfg))


def run_fedavg_baseline(cfg: ExperimentConfig) -> list[RoundRecord]:
    """Same environment, size-weighted averaging instead of the policy."""
    return run_experiment(replace(cfg, aggregator="fedavg"))


def _select(exp: Experiment, ids: list[int], models: np.ndarray) -> SelectionResult | None:
    """Distance selection over the rows of the clients ``ids`` under
    fedaa; fedavg keeps every upload."""
    if exp.agent is None:
        return None
    rows = _cohort_rows(models, ids)
    return select_clients(ids, rows, exp.cfg.m_percent, exp.cfg.distance_scope, exp.arch)


def run_rounds(exp: Experiment) -> list[RoundRecord]:
    """The round loop for both aggregators; one record per round.

    The run's parameters are one (N, d) matrix, made here in
    ``shared_rows`` before the training pool forks, so that the pool's
    processes write into the pages this process reads. Row ``c`` is
    client ``c``'s latest upload, the initial parameters until it first
    takes part, and so a benign client's local model. Every read of a
    round's rows ends before the next round trains into them.

    fedavg has no agent: it merges every upload with train-size weights
    and learns nothing from the round.
    """
    cfg, agent, buffer = exp.cfg, exp.agent, exp.buffer
    part_rng = stream(cfg.seed, "participation")
    explore_rng = stream(cfg.seed, "exploration")
    buffer_rng = stream(cfg.seed, "buffer")
    global_params = exp.initial_params.copy()
    models = _client_rows(cfg, global_params.size)
    models[:] = global_params
    # round 0 merges unattacked broadcast copies: no training has happened
    # yet, so there is nothing for an attacker to distort
    participants = sample_participants(cfg.dataset.num_clients, cfg.participation_ratio, part_rng)
    sel = _select(exp, participants, models)
    records: list[RoundRecord] = []
    processes = pool_size(exp.clients, cfg.local, global_params.size)
    with TrainingPool(exp.clients, models, processes) as pool:
        for t in range(cfg.rounds):
            try:
                if agent is None:
                    ids, rows = participants, _cohort_rows(models, participants)
                    sizes = np.asarray([len(exp.clients[c].train) for c in ids], dtype=np.float64)
                    action = sizes / sizes.sum()
                else:
                    ids = sel.selected_ids
                    rows = models[ids]
                    sigma = exploration_sigma(t, cfg.rounds, cfg.ddpg)
                    action = act(agent, sel.state, sigma, explore_rng)
                global_params = aggregate(rows, action)
                del rows  # a gathered copy, released before the round trains
                reward, per_class = evaluate_reward(exp.arch, global_params, exp.val_set)
                participants = sample_participants(
                    cfg.dataset.num_clients, cfg.participation_ratio, part_rng
                )
                _collect_uploads(exp, participants, global_params, t, pool)
                fairness = evaluate_fairness(exp.clients, exp.arch, models, global_params)
                next_sel = _select(exp, participants, models)
                records.append(
                    RoundRecord(
                        round=t,
                        reward=reward,
                        mean_benign_acc=fairness.mean_acc,
                        acc_std=fairness.acc_std,
                        acc_var=fairness.acc_std**2,
                        loss_std=fairness.loss_std,
                        mean_global_acc=fairness.mean_global_acc,
                        selected_ids=ids,
                        action=[float(a) for a in action],
                        per_class_val_acc=[float(a) for a in per_class],
                    )
                )
                if agent is not None:
                    buffer.push(Transition(sel.state, action, reward, next_sel.state))
                    if len(buffer) >= cfg.ddpg.warmup:
                        batch = buffer.sample(min(cfg.ddpg.batch_size, len(buffer)), buffer_rng)
                        update_critic(agent, batch)
                        update_actor(agent, batch)
                    if t % 2 == 0:
                        soft_update(agent)
                sel = next_sel
            except FedaaError as exc:
                raise type(exc)(f"round {t}: {exc}") from exc
    return records
