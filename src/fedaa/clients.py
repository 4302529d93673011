"""Client records, Byzantine upload attacks, and the local update step.

A client is its data and its attack, and its role follows from the
attack. Row ``c`` of a run's parameter matrix is client ``c``'s latest
upload, and so a benign client's local model; attack messages are what
a malicious client writes into its row. Magnitude draws use the
convention m ~ N(0, tau^2) with tau the attack scale.
"""

from __future__ import annotations

import io
import math
import mmap
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import NamedTuple, NoReturn, Sequence

import numpy as np

from .cpus import quiet_fork, usable_cpus
from .errors import ConfigError, NumericError, SimulationError
from .data import LabeledDataset
from .nn import ArchSpec, SgdConfig, sgd_epoch


class AttackKind(NamedTuple):
    default_tau: float | None  # None: the kind takes no tau
    trains: bool  # trains from the broadcast before building its message


# the one table of attack kinds; ipm scales the benign mean by its epsilon
ATTACKS = {
    "same_value": AttackKind(default_tau=100.0, trains=False),
    "sign_flip": AttackKind(default_tau=10.0, trains=True),
    "gaussian": AttackKind(default_tau=100.0, trains=False),
    "ipm": AttackKind(default_tau=None, trains=False),
}

# Budget for the (k, d) float64 parameters of one lockstep stack. A stack
# pays the per-step call overhead once, which is where small models spend
# their time. Each step also sweeps three (k, d) buffers (parameters,
# gradient, update), and once those outgrow the core's L2 cache the step
# slows down: on a 2-vCPU Xeon with 2 MiB of L2 per core, the server_heavy
# and mlp_fedavg_clean MLPs (d = 14,210 and 17,210) often trained 1.5-3x
# slower than one client at a time in stacks of 0.65 MiB and more, and at
# least as fast in stacks of up to 0.53 MiB. 512 KiB holds all 20 logistic
# clients of signflip_logistic (d = 610) and 4 or 3 clients of those MLPs.
# A round that splits over a pool's processes stacks narrower still (see
# lockstep_shares), so that its one stack of 20 becomes two of 10.
STACK_BYTES = 1 << 19

# Budget for the (k, d) float64 rows of one stack of the fairness
# evaluation (orchestrator.evaluate_fairness), which makes each layer's
# forward one stacked matmul over the stack's clients, and so bounds the
# rows it gathers whatever the population. On a 2-vCPU Xeon, one call on
# server_heavy's 120 benign clients of 4 test rows (d = 14,210) took 3.7 ms
# in stacks of 4 MiB (36 clients) against 10.7 ms one client at a time,
# 4.5 ms at 512 KiB (4 clients) and 3.2-4.0 ms at 8-16 MiB.
FAIRNESS_STACK_BYTES = 1 << 22

# sgd_epoch steps a round (epochs x the batches per epoch of its unsplit
# stacks) below which it trains in one process. A split saves per step: on
# a 2-vCPU Xeon, with the pool already forked, a round of 20 logistic
# clients (d = 610) trained in 3.1 ms against 4.0 ms at 18 steps, and in
# 18 ms against 26 ms at 180 (signflip_logistic). What steps do not see is
# the price of the first fork in the rest of the run, as the parent then
# copies each page of its heap that it writes: a server_heavy run (30 steps
# a round, 134 MiB) forced onto a pool made 12,000 more page faults and ran
# 0.60 s against 0.56 s (medians of 8 alternating pairs), though its rounds
# alone trained in 17 ms against 31 ms. 64 lies between the two workloads.
SPLIT_STEPS = 1 << 6


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    tau: float | None = None
    ipm_epsilon: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ATTACKS:
            raise ConfigError(f"unknown attack kind: {self.kind!r}")
        default = ATTACKS[self.kind].default_tau
        if default is None:
            if self.tau is not None:
                raise ConfigError(
                    f"the {self.kind} attack takes no tau; ipm_epsilon sets its scale"
                )
        elif self.tau is None:
            object.__setattr__(self, "tau", default)
        elif self.tau <= 0:
            raise ConfigError("attack tau must be positive")
        if self.ipm_epsilon <= 0:
            raise ConfigError("ipm epsilon must be positive")


@dataclass
class ClientRecord:
    id: int
    attack: AttackSpec | None  # None for a benign client
    train: LabeledDataset
    test: LabeledDataset

    @property
    def role(self) -> str:
        return "benign" if self.attack is None else "malicious"


def attacker_count(num_clients: int, malicious_fraction: float) -> int:
    """floor(fraction * num_clients), the number of malicious clients."""
    return int(math.floor(malicious_fraction * num_clients + 1e-9))


def assign_roles(
    num_clients: int, malicious_fraction: float, rng: np.random.Generator
) -> list[int]:
    """Seeded choice of exactly ``attacker_count`` malicious ids."""
    if not 0.0 <= malicious_fraction < 0.5:
        raise ConfigError("malicious fraction must lie in [0, 0.5)")
    count = attacker_count(num_clients, malicious_fraction)
    if count == 0:
        return []
    return sorted(int(i) for i in rng.choice(num_clients, size=count, replace=False))


def attack_same_value(dim: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    return np.full(dim, float(rng.normal(0.0, tau)))


def attack_sign_flip(honest: np.ndarray, tau: float, rng: np.random.Generator) -> np.ndarray:
    return -abs(float(rng.normal(0.0, tau))) * np.asarray(honest, dtype=np.float64)


def attack_gaussian(dim: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, tau, size=dim)


def mean_upload(models: np.ndarray, ids: Sequence[int]) -> np.ndarray:
    """Mean of the rows ``ids`` of ``models``, this round's benign uploads:
    the ipm reference point. The rows are added one by one in the order
    of ``ids``, which is how ``np.mean(models[ids], axis=0)`` adds them,
    so the mean is bit-identical to it without gathering the rows."""
    if len(ids) == 0:
        raise SimulationError("ipm attack requires at least one benign upload")
    total = models[ids[0]].copy()
    for row in ids[1:]:
        total += models[row]
    total /= len(ids)
    return total


def trains(client: ClientRecord) -> bool:
    """Whether the client runs local SGD: benign clients, and attackers of a
    kind that trains."""
    return client.attack is None or ATTACKS[client.attack.kind].trains


def draws(client: ClientRecord) -> bool:
    """Whether the client draws from its round's local stream: a client
    that trains draws its shuffles, and an attack that takes a tau draws
    its magnitudes from it; ipm draws nothing."""
    return trains(client) or ATTACKS[client.attack.kind].default_tau is not None


def shared_rows(count: int, size: int) -> np.ndarray:
    """A zeroed (count, size) float64 matrix in one anonymous ``mmap``.
    On Unix the mapping is MAP_SHARED, so a process forked after it is
    made writes into the pages this process reads."""
    return np.frombuffer(mmap.mmap(-1, count * size * 8), dtype=np.float64).reshape(count, size)


def lockstep_shares(
    cohort: Sequence[ClientRecord], cfg: SgdConfig, size: int, processes: int
) -> list[list[list[int]]]:
    """The cohort's training clients as lockstep stacks of client ids, in
    up to ``processes`` shares, share 0 the heaviest.

    Clients of equal train size stack, at most STACK_BYTES of ``size``
    parameters wide. A round of fewer than SPLIT_STEPS ``sgd_epoch``
    steps (epochs x the stacks' batches per epoch) is one share; a
    larger one stacks each group of equal-size clients no wider than
    the group over ``processes``, and deals the stacks, longest (rows x
    train size) first, to the least loaded share.
    """
    width = max(1, STACK_BYTES // (8 * size))
    groups: dict[int, list[int]] = {}
    for client in cohort:
        if trains(client):
            groups.setdefault(len(client.train), []).append(client.id)
    steps = cfg.epochs * sum(
        -(-len(group) // width) * -(-n // cfg.batch_size) for n, group in groups.items()
    )
    if steps < SPLIT_STEPS:
        processes = 1
    stacks = sorted(
        (
            (n, group[lo : lo + w])
            for n, group in groups.items()
            for w in [min(width, -(-len(group) // processes))]
            for lo in range(0, len(group), w)
        ),
        key=lambda stack: len(stack[1]) * stack[0],
        reverse=True,
    )
    shares: list[list[list[int]]] = [[] for _ in range(max(1, min(processes, len(stacks))))]
    loads = [0] * len(shares)
    for n, ids in stacks:
        least = loads.index(min(loads))
        shares[least].append(ids)
        loads[least] += len(ids) * n
    return shares


def pool_size(clients: Sequence[ClientRecord], cfg: SgdConfig, size: int) -> int:
    """Processes for the TrainingPool of a run of ``clients``: the shares
    of a round of the whole population on the usable CPUs (``usable_cpus``,
    1 in a worker process). No cohort trains in more steps or stacks than
    the whole population, so a run whose pool size is 1 splits no round."""
    return len(lockstep_shares(clients, cfg, size, usable_cpus()))


class TrainingPool:
    """The processes that train a run's rounds with this one.

    ``clients`` are the run's clients, ``clients[c].id == c``, and
    ``out`` the run's parameter matrix, made with ``shared_rows``, whose
    row ``c`` is client ``c``'s. Entering the pool (``with``) forks
    ``processes - 1`` children that inherit both and then wait on their
    pipes for a share of a round to train into ``out``; leaving it (or
    ``close``) stops and reaps them. A pool of one process forks nothing.
    """

    def __init__(self, clients: Sequence[ClientRecord], out: np.ndarray, processes: int) -> None:
        self.clients = clients
        self.out = out
        self.processes = processes
        self.children: list[tuple[int, io.BufferedWriter, io.BufferedReader]] = []

    def __enter__(self) -> TrainingPool:
        """Fork the children. A platform without ``os.fork``, and a
        process running other threads, which a fork would not copy, fork
        none; a fork that fails ends the forking, and rounds split over
        the processes forked."""
        if self.processes < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
            return self
        for _ in range(self.processes - 1):
            tasks, task_end = os.pipe()
            reply_end, replies = os.pipe()
            try:
                with quiet_fork():
                    pid = os.fork()
            except OSError:  # no process to be had: the rest trains here
                for fd in (tasks, task_end, reply_end, replies):
                    os.close(fd)
                break
            if pid == 0:
                inherited = [task_end, reply_end]
                for _, to_child, from_child in self.children:
                    inherited += [to_child.fileno(), from_child.fileno()]
                _serve(self.clients, self.out, tasks, replies, inherited)
            os.close(tasks)
            os.close(replies)
            # buffered, so that a read of n bytes returns n bytes or stops at
            # the end: a raw pipe returns at most what it holds (64 KiB),
            # which pickle.load takes for a truncated frame
            self.children.append((pid, os.fdopen(task_end, "wb"), os.fdopen(reply_end, "rb")))
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap the children; later rounds train here."""
        children, self.children = self.children, []
        # an idle child waits on its pipe, and one still training when this
        # process raised is stopped, as its rows are no longer wanted
        for pid, to_child, from_child in children:
            os.kill(pid, signal.SIGKILL)
            from_child.close()
            try:
                to_child.close()
            except BrokenPipeError:  # a task left half written
                pass
        for pid, _, _ in children:
            os.waitpid(pid, 0)


_LOST = "a training process exited without its results"


def _serve(
    clients: Sequence[ClientRecord],
    out: np.ndarray,
    tasks: int,
    replies: int,
    inherited: list[int],
) -> NoReturn:
    """A pool child's whole life: close the parent's pipe ends it
    inherited, then until its task pipe ends, read one share of a round,
    ``(arch, cfg, broadcast, stacks of client ids, generators by id,
    numpy error handling)``, train it into ``out`` under that error
    handling (``np.geterr``) and reply with one pickle, ``("ok", errors
    by id, generator states by id)`` or ``("raise", exception)``."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(tasks, "rb") as inbox, os.fdopen(replies, "wb") as outbox:
            while True:
                try:
                    arch, cfg, broadcast, share, rngs, err = pickle.load(inbox)
                except EOFError:
                    break
                try:
                    with np.errstate(**err):
                        errors = _train(arch, cfg, broadcast, share, clients, rngs, out)
                    reply = ("ok", errors, {cid: rng.bit_generator.state for cid, rng in rngs.items()})
                except BaseException as exc:  # sent to the parent, which raises it
                    reply = ("raise", exc)
                pickle.dump(reply, outbox)
                outbox.flush()
        code = 0
    finally:
        os._exit(code)


def _train(
    arch: ArchSpec,
    cfg: SgdConfig,
    broadcast: np.ndarray,
    share: list[list[int]],
    clients: Sequence[ClientRecord],
    rngs: dict[int, np.random.Generator | None],
    out: np.ndarray,
) -> dict[int, NumericError]:
    """Train each stack of client ids of ``share`` from the broadcast into
    its clients' rows of ``out``; returns the errors by client id."""
    errors: dict[int, NumericError] = {}
    for ids in share:
        stack = np.tile(broadcast, (len(ids), 1))
        failed = sgd_epoch(
            arch,
            stack,
            [clients[c].train.features for c in ids],
            [clients[c].train.labels for c in ids],
            cfg,
            [rngs[c] for c in ids],
        )
        out[ids] = stack
        errors.update((ids[i], exc) for i, exc in failed.items())
    return errors


def train_lockstep(
    arch: ArchSpec,
    cohort: list[ClientRecord],
    global_params: np.ndarray,
    cfg: SgdConfig,
    rngs: dict[int, np.random.Generator | None],
    pool: TrainingPool,
) -> dict[int, NumericError]:
    """Train the cohort's training clients from the broadcast, in lockstep,
    on ``pool``.

    Client ``c`` of the cohort draws its permutations from ``rngs[c]``
    and ends with its trained parameters, of architecture ``arch``, in
    row ``c`` of ``pool.out``; the rows of clients that do not train are
    left as they are. Clients of equal train size share ``sgd_epoch``
    stacks of at most STACK_BYTES of parameters. Returns, by client id,
    the NumericError of each client whose loss turned non-finite, the
    same as the client would get training alone; the round loop raises
    it.

    A round of SPLIT_STEPS steps or more trains in shares
    (``lockstep_shares``), one on each of the pool's processes. This
    process trains share 0, and each child one other share: it gets the
    broadcast, its stacks of client ids, their generators and this
    process's numpy error handling through its pipe, writes its rows
    straight into ``pool.out`` and sends back its errors and its
    generators' states, from which the generators here continue. Every
    client runs the same ``sgd_epoch`` arithmetic on the same operands
    in any process, and the rows of a stack never meet, so the rows, the
    errors and the generators are bit-identical to one process's
    training the same stacks, and to one process's unsplit round but for
    a failed client's row and generator: those hold whatever its
    (narrower) stack left, and nothing reads them. A child's exception
    is raised here, as it was raised there. On any exception the pool is
    closed.
    """
    global_params = np.asarray(global_params, dtype=np.float64)
    shares = lockstep_shares(cohort, cfg, global_params.size, 1 + len(pool.children))
    try:
        sent = list(zip(pool.children, shares[1:]))
        for (_, to_child, _), share in sent:
            task = (arch, cfg, global_params, share,
                    {c: rngs[c] for ids in share for c in ids}, np.geterr())
            try:
                pickle.dump(task, to_child)
                to_child.flush()
            except BrokenPipeError:
                raise SimulationError(_LOST) from None
        errors = _train(arch, cfg, global_params, shares[0], pool.clients, rngs, pool.out)
        for (_, _, from_child), _ in sent:
            errors.update(_receive(from_child, rngs))
        return errors
    except BaseException:
        pool.close()
        raise


def _receive(
    from_child: io.BufferedReader, rngs: dict[int, np.random.Generator | None]
) -> dict[int, NumericError]:
    """A child's reply to its share: raises the child's exception, or
    sets its trainers' generators to their states and returns its errors
    by client id."""
    try:
        reply = pickle.load(from_child)
    except (EOFError, pickle.UnpicklingError):
        raise SimulationError(_LOST) from None
    if reply[0] == "raise":
        raise reply[1]
    for cid, state in reply[2].items():
        rngs[cid].bit_generator.state = state
    return reply[1]


def local_update(
    client: ClientRecord,
    row: np.ndarray,
    rng: np.random.Generator | None,
    benign_mean: np.ndarray | None = None,
) -> None:
    """One client round: write the client's upload into ``row``, its row
    of the run's parameter matrix.

    A client that trains (see ``trains``; a sign flipper's message needs
    the honest result) finds its ``train_lockstep`` result from the
    broadcast and ``rng`` in ``row``; ``rng`` then continues after the
    permutation draws. A benign client's upload is that result, so its
    row is left as it is. An ipm client needs ``benign_mean``, the
    ``mean_upload`` of this round's benign uploads, and no ``rng`` (see
    ``draws``).
    """
    kind = client.attack.kind if client.attack is not None else None
    if kind == "sign_flip":
        row[:] = attack_sign_flip(row, client.attack.tau, rng)
    elif kind == "same_value":
        row[:] = attack_same_value(row.size, client.attack.tau, rng)
    elif kind == "gaussian":
        row[:] = attack_gaussian(row.size, client.attack.tau, rng)
    elif kind == "ipm":
        # all attackers send the same vector, each in a row of its own
        if benign_mean is None:
            raise SimulationError("ipm attack needs this round's benign mean upload")
        np.multiply(benign_mean, -client.attack.ipm_epsilon, out=row)
