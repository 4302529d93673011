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

import functools
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .cpus import usable_cpus
from .errors import ConfigError, FedaaError, InternalError, NumericError
from . import data as datamod
from .clients import (
    ATTACKS,
    ClientRecord,
    TrainingPool,
    assign_roles,
    local_update,
    mean_upload,
    row_index,
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
from .nn import ArchSpec, ce_loss_from_logits, forward, init_params, param_count
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
    counts = np.bincount(val_set.labels, minlength=val_set.num_classes)
    hits = np.bincount(val_set.labels, weights=correct, minlength=val_set.num_classes)
    per_class = np.divide(hits, counts, out=np.zeros(len(counts)), where=counts > 0)
    return float(correct.mean()), per_class


# Budget for the (k, d) float64 rows of one stack of the fairness
# evaluation (evaluate_fairness), which makes each layer's forward one
# stacked matmul over the stack's clients, and so bounds the rows it
# gathers whatever the population. On a 2-vCPU Xeon, one call on
# server_heavy's 120 benign clients of 4 test rows (d = 14,210) took 3.7 ms
# in stacks of 4 MiB (36 clients) against 10.7 ms one client at a time,
# 4.5 ms at 512 KiB (4 clients) and 3.2-4.0 ms at 8-16 MiB.
FAIRNESS_STACK_BYTES = 1 << 22


def benign_scores(
    clients: list[ClientRecord],
    arch: ArchSpec,
    models: np.ndarray,
    global_params: np.ndarray,
    rows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each benign client's test accuracy and loss under its local model,
    row ``rows[client.id]`` of ``models``, and its test accuracy under
    ``global_params``: three arrays in the order of ``clients``, in
    stacks as ``evaluate_fairness`` describes.
    Each value is bit-identical to the client's own ``forward``,
    ``argmax`` and ``ce_loss_from_logits``; ``fedaa selftest`` checks
    this.
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
            # the gathered rows are a temporary, freed when forward returns
            logits = forward(arch, models[rows[[benign[p].id for p in stack]]], x)
            accs[stack] = (np.argmax(logits, axis=2) == y).mean(axis=1)
            losses[stack] = ce_loss_from_logits(logits, y)
            logits = forward(arch, global_params, x)
            global_accs[stack] = (np.argmax(logits, axis=2) == y).mean(axis=1)
    return accs, losses, global_accs


def evaluate_fairness(
    clients: list[ClientRecord],
    arch: ArchSpec,
    models: np.ndarray,
    global_params: np.ndarray,
    rows: np.ndarray,
) -> dict[str, float]:
    """Population spread of benign clients' local test performance, as
    the five ``RoundRecord`` cells it fills.

    Accuracy/loss come from each benign client's own local model, row
    ``rows[client.id]`` of the run's parameter matrix ``models``, on its
    own test split; mean_global_acc scores the shared global model,
    ``global_params``, on the same splits. The per-client values are
    combined in the order of ``clients``, ascending id in a run.

    The clients are scored in stacks (``benign_scores``): benign clients
    of equal test size, in the order of ``clients``, split into stacks of
    at most FAIRNESS_STACK_BYTES of parameter rows (one row if a row is
    larger), so that a stack's memory does not grow with the population.
    A stack's rows are gathered once, its test splits stacked, and each
    layer is one stacked matmul for the local models and one broadcast
    matmul for the global model (a ``forward`` of the stacked splits);
    the gathered rows are released before the next stack gathers its own.
    """
    accs, losses, global_accs = benign_scores(clients, arch, models, global_params, rows)
    if not accs.size:
        raise ConfigError("fairness metrics need at least one benign client")
    acc_std = float(np.std(accs))
    return {
        "mean_benign_acc": float(np.mean(accs)),
        "acc_std": acc_std,
        "acc_var": acc_std**2,
        "loss_std": float(np.std(losses)),
        "mean_global_acc": float(np.mean(global_accs)),
    }


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
    clients' parameters are rows of one matrix, held by the training
    pool that ``run_rounds`` makes."""

    cfg: ExperimentConfig
    clients: list[ClientRecord]
    val_set: LabeledDataset
    arch: ArchSpec
    initial_params: np.ndarray
    cohort_size: int
    agent: DdpgAgent | None
    buffer: ReplayBuffer | None


def _client_sizes(cfg: ExperimentConfig) -> list[int]:
    """Each client's sample count: a synthetic kind's configured sizes, or
    synthetic_dirichlet's even split of its total."""
    ds = cfg.dataset
    if ds.kind == "synthetic_dirichlet":
        base, extra = divmod(ds.total_samples, ds.num_clients)
        return [base + (1 if i < extra else 0) for i in range(ds.num_clients)]
    if ds.samples_per_client == "lognormal":
        return datamod.lognormal_sizes(ds.num_clients, stream(cfg.seed, "sizes"))
    if isinstance(ds.samples_per_client, int):
        return [ds.samples_per_client] * ds.num_clients
    return list(ds.samples_per_client)


def _materialize_data(cfg: ExperimentConfig) -> tuple[LabeledDataset, datamod.Clients]:
    """Build (validation set, clients) for the configured dataset."""
    ds = cfg.dataset
    data_rng = stream(cfg.seed, "data")
    if ds.kind in SYNTHETIC_KINDS:
        clients = datamod.generate_synthetic(ds.alpha, ds.beta, _client_sizes(cfg), data_rng)
        return datamod.extract_server_pool(clients, stream(cfg.seed, "server-pool"))
    if ds.kind == "synthetic_dirichlet":
        # pool one generator per client so all classes appear in the source;
        # a single random linear labeler leaves entire classes empty
        source, _ = datamod.synthetic_population(ds.alpha, ds.beta, _client_sizes(cfg), data_rng)
    elif ds.kind == "csv":
        source = datamod.load_csv(ds.csv_path)
    else:
        source = datamod.load_idx(ds.idx_images, ds.idx_labels)
    counts = cfg.validation.per_class
    if counts is None:
        counts, text = 100, "100 (unset)"
    else:
        text = ",".join(map(str, counts)) if isinstance(counts, tuple) else str(counts)
    if isinstance(counts, int):
        counts = (counts,) * source.num_classes
    with _naming(f"validation.per_class = {text}"):
        val_set, remainder = datamod.build_validation_set(
            source, counts, stream(cfg.seed, "validation")
        )
    with _naming(f"dataset.num_clients = {ds.num_clients}"):
        return val_set, datamod.dirichlet_partition(
            remainder, ds.num_clients, ds.dirichlet_concentration, stream(cfg.seed, "partition")
        )


def build_experiment(cfg: ExperimentConfig) -> Experiment:
    """Materialize datasets, roles, models, and the policy for a config."""
    ds = cfg.dataset
    guard = nullcontext()  # the csv and idx loaders raise their own errors
    if ds.kind in SYNTHETIC_KINDS or ds.kind == "synthetic_dirichlet":
        key, size = (("total_samples", ds.total_samples) if ds.kind == "synthetic_dirichlet"
                     else ("samples_per_client", ds.samples_per_client))
        size = list(size) if isinstance(size, tuple) else size
        guard = _allocating(f"dataset.num_clients = {ds.num_clients} and dataset.{key} = {size}: "
                            "the synthetic data")
    with guard:
        val_set, partition = _materialize_data(cfg)
    num_classes = val_set.num_classes
    input_dim = val_set.features.shape[1]
    arch = ArchSpec(input_dim, tuple(cfg.model_hidden), num_classes)
    with _allocating(f"model.hidden = {list(cfg.model_hidden)}: the model's", param_count(arch)):
        initial = init_params(arch, stream(cfg.seed, "model-init"))
    malicious = set(assign_roles(cfg.dataset.num_clients, cfg.malicious_fraction, stream(cfg.seed, "roles")))
    clients = [
        ClientRecord(cid, cfg.attack if cid in malicious else None, train, test)
        for cid, (train, test) in enumerate(partition)
    ]
    cohort = round_half_up(cfg.participation_ratio * cfg.dataset.num_clients)
    agent = None
    buffer = None
    if cfg.aggregator == "fedaa":
        m_count = top_count(cfg.m_percent, cohort)
        # the actor and the critic, and a target copy of each
        networks = 2 * sum(param_count(ArchSpec(state, (cfg.ddpg.hidden,), out))
                           for state, out in ((m_count, m_count), (2 * m_count, 1)))
        with _allocating(f"ddpg.hidden = {cfg.ddpg.hidden}: the DDPG networks'", networks):
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


@contextmanager
def _naming(key: str) -> Iterator[None]:
    """Prefixes a ConfigError raised in its body with ``key``, the config
    key and value it comes from."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@contextmanager
def _allocating(whose: str, size: int | None = None) -> Iterator[None]:
    """Turns a failure to allocate in its body into a ConfigError naming
    ``whose`` memory it is and, for ``size`` float64 parameters, the GiB."""
    try:
        yield
    # numpy's ValueError: past the largest array; an mmap's OSError; a
    # length past what a C index holds
    except (MemoryError, ValueError, OSError, OverflowError) as exc:
        need = "need" if size is None else f"{size} parameters need {size * 8 / 2**30:.2f} GiB,"
        raise ConfigError(f"{whose} {need} more than this process can allocate") from exc


def _cohort_rows(models: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of ``models``: the matrix itself when they are
    all its rows in order, else a gathered copy."""
    return models if np.array_equal(rows, np.arange(len(models))) else models[rows]


def _collect_uploads(
    exp: Experiment,
    participants: list[int],
    global_params: np.ndarray,
    round_index: int,
    pool: TrainingPool,
) -> None:
    """Run local updates for a cohort into its clients' rows of
    ``pool.out``, the run's parameter matrix, found through its row index
    ``pool.rows``; benign clients go first so that reference-point
    attacks can use their uploads.

    Client ``c`` draws from ``stream(seed, "local", round_index, c)``,
    made where it draws. Clients that train make their uploads first, in
    lockstep stacks of equal train size (on the pool's processes when
    the round is large; see ``train_lockstep``), straight into their
    rows; ``local_update`` then writes the other attackers', once a
    round for a row that ipm attackers share. A client whose training
    failed raises its error in its turn, so the error names the first
    such client in this order. A benign participant's row is then its
    local model.
    """
    cfg = exp.cfg
    cohort = [exp.clients[c] for c in sorted(participants)]
    streams = functools.partial(stream, cfg.seed, "local", round_index)
    errors = train_lockstep(cohort, global_params, streams, pool)
    models, rows = pool.out, pool.rows
    benign_mean = None
    written: set[int] = set()
    for client in sorted(cohort, key=lambda c: c.attack is not None):
        row = int(rows[client.id])
        try:
            if client.id in errors:
                raise errors[client.id]
            attack = client.attack
            if benign_mean is None and attack is not None and ATTACKS[attack.kind].scales_benign_mean:
                # every ipm attacker scales the same mean; take it once a
                # round, when every benign row is written
                benign_mean = mean_upload(models, rows[[c.id for c in cohort if c.attack is None]])
            local_update(
                client, models[row], streams, benign_mean=benign_mean, written=row in written
            )
            written.add(row)
        except FedaaError as exc:
            raise type(exc)(f"client {client.id} ({client.role}): {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> list[RoundRecord]:
    """Full run under the configured aggregator; one record per round."""
    return run_rounds(build_experiment(cfg))


def _select(exp: Experiment, ids: list[int], pool: TrainingPool) -> SelectionResult | None:
    """Distance selection over the rows of the clients ``ids``, read
    through the pool's row index, under fedaa; fedavg keeps every upload."""
    if exp.agent is None:
        return None
    cfg = exp.cfg
    return select_clients(
        ids, pool.out, cfg.m_percent, cfg.distance_scope, exp.arch, rows=pool.rows[ids]
    )


@np.errstate(divide="warn", over="ignore", under="ignore", invalid="ignore")
def run_rounds(exp: Experiment) -> list[RoundRecord]:
    """The round loop for both aggregators; one record per round.

    A run finishes or fails with a typed FedaaError whatever the
    caller's numpy error handling: it keeps its own, which its pool's
    children inherit at the fork, as its checks report a non-finite value.

    The run's parameters are one matrix, the training pool's ``out``
    (see ``TrainingPool``), shared with the pool's processes where the
    pool forks, and every read and write goes through its row index
    ``rows`` (``row_index``): a row per client, but one that every ipm
    attacker shares under fedaa. Row ``rows[c]`` is client ``c``'s latest
    upload, the initial parameters until it first takes part, and so a
    benign client's local model. Every read of a round's rows ends
    before the next round trains into them.

    fedavg has no agent: it merges every upload with train-size weights
    and learns nothing from the round.
    """
    cfg, agent, buffer = exp.cfg, exp.agent, exp.buffer
    part_rng = stream(cfg.seed, "participation")
    explore_rng = stream(cfg.seed, "exploration")
    buffer_rng = stream(cfg.seed, "buffer")
    global_params = exp.initial_params.copy()
    rows = row_index(exp.clients, cfg.aggregator)
    whose = f"dataset.num_clients = {len(exp.clients)} and model.hidden = {list(cfg.model_hidden)}:"
    size = (int(rows.max()) + 1) * global_params.size
    with _allocating(f"{whose} the local models'", size):
        pool = TrainingPool(exp.clients, exp.arch, cfg.local, global_params, usable_cpus(), rows)
    models = pool.out
    # round 0 merges unattacked broadcast copies: no training has happened
    # yet, so there is nothing for an attacker to distort
    participants = sample_participants(cfg.dataset.num_clients, cfg.participation_ratio, part_rng)
    sel = _select(exp, participants, pool)
    records: list[RoundRecord] = []
    with pool:
        for t in range(cfg.rounds):
            try:
                if agent is None:
                    ids = participants
                    merged = _cohort_rows(models, rows[ids])
                    sizes = np.asarray([len(exp.clients[c].train) for c in ids], dtype=np.float64)
                    action = sizes / sizes.sum()
                else:
                    ids = sel.selected_ids
                    merged = models[rows[ids]]
                    sigma = exploration_sigma(t, cfg.rounds, cfg.ddpg)
                    action = act(agent, sel.state, sigma, explore_rng)
                global_params = aggregate(merged, action)
                del merged  # a gathered copy, released before the round trains
                reward, per_class = evaluate_reward(exp.arch, global_params, exp.val_set)
                participants = sample_participants(
                    cfg.dataset.num_clients, cfg.participation_ratio, part_rng
                )
                _collect_uploads(exp, participants, global_params, t, pool)
                fairness = evaluate_fairness(exp.clients, exp.arch, models, global_params, rows)
                next_sel = _select(exp, participants, pool)
                records.append(
                    RoundRecord(
                        round=t,
                        reward=reward,
                        **fairness,
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
