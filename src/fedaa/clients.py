"""Client records, Byzantine upload attacks, and the local update step.

A client is its data and its attack, and its role follows from the
attack. Client ``c``'s row of a run's parameter matrix, row
``rows[c]`` of the matrix's row index (``row_index``), holds its latest
upload, and so a benign client's local model; attack messages are what
a malicious client writes into its row, drawing from its round's
stream where it draws. Each attack has one scale (``AttackSpec``):
the standard deviation of a drawn magnitude, m ~ N(0, scale^2), or for
ipm the factor of the benign mean it negates.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass
from multiprocessing.connection import Connection, Pipe
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .cpus import quiet_fork
from .errors import ConfigError, NumericError, SimulationError
from .data import LabeledDataset
from .nn import ArchSpec, SgdConfig, sgd_epoch


class AttackKind(NamedTuple):
    default_scale: float  # the scale of an AttackSpec that names none
    trains: bool  # trains from the broadcast before building its message
    scales_benign_mean: bool  # sends -scale times the round's benign mean upload


# the one table of attack kinds
ATTACKS = {
    "same_value": AttackKind(default_scale=100.0, trains=False, scales_benign_mean=False),
    "sign_flip": AttackKind(default_scale=10.0, trains=True, scales_benign_mean=False),
    "gaussian": AttackKind(default_scale=100.0, trains=False, scales_benign_mean=False),
    "ipm": AttackKind(default_scale=0.5, trains=False, scales_benign_mean=True),
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
    """A kind of ``ATTACKS`` and its scale (> 0; None: the kind's default)."""

    kind: str
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACKS:
            raise ConfigError(f"unknown attack kind: {self.kind!r}")
        if self.scale is None:
            object.__setattr__(self, "scale", ATTACKS[self.kind].default_scale)
        elif not self.scale > 0:
            raise ConfigError(f"attack scale must be positive (got {self.scale!r})")


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


def attack_same_value(dim: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    return np.full(dim, float(rng.normal(0.0, scale)))


def attack_sign_flip(honest: np.ndarray, scale: float, rng: np.random.Generator) -> np.ndarray:
    return -abs(float(rng.normal(0.0, scale))) * np.asarray(honest, dtype=np.float64)


def attack_gaussian(dim: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, scale, size=dim)


def mean_upload(models: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """Mean of the rows ``rows`` of ``models``, this round's benign uploads:
    the ipm reference point. The rows are added one by one in the order
    of ``rows``, which is how ``np.mean(models[rows], axis=0)`` adds them,
    so the mean is bit-identical to it without gathering the rows."""
    if len(rows) == 0:
        raise SimulationError("ipm attack requires at least one benign upload")
    total = models[rows[0]].copy()
    for row in rows[1:]:
        total += models[row]
    total /= len(rows)
    return total


def trains(client: ClientRecord) -> bool:
    """Whether the client runs local SGD: benign clients, and attackers of a
    kind that trains."""
    return client.attack is None or ATTACKS[client.attack.kind].trains


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


def row_index(clients: Sequence[ClientRecord], aggregator: str) -> np.ndarray:
    """Each client's row of a run's parameter matrix, by client id.

    Under fedaa, attackers of equal AttackSpec whose kind scales the
    benign mean (ipm) share one row, as they send the same vector:
    fedaa's server reads a cohort's rows only in selection, which
    measures each distinct upload once, and in the merge, which gathers
    the kept rows anyway. Every other client, and
    every client under fedavg, whose merge of a whole population reads
    the matrix in place, has a row of its own. Rows are numbered in
    ascending id of the first client that holds them.
    """
    first: dict[object, int] = {}  # row by holder: an AttackSpec if shared, else a client id
    rows = []
    for client in clients:
        attack = client.attack
        shared = aggregator == "fedaa" and attack is not None and ATTACKS[attack.kind].scales_benign_mean
        rows.append(first.setdefault(attack if shared else client.id, len(first)))
    return np.array(rows, dtype=np.intp)


class TrainingPool:
    """The processes that train a run's rounds with this one, a process
    for each share of a round of the whole population on ``cpus`` CPUs
    (``lockstep_shares``; no cohort splits further), and the run's
    parameter matrix ``out`` with its row index ``rows``: client
    ``clients[c]``'s row of ``out``, ``broadcast`` to begin with, is
    ``out[rows[c]]``, where ``rows`` is the run's ``row_index``.
    Entering the pool (``with``) forks ``processes - 1`` children that
    inherit the clients, ``arch``, the SGD config ``cfg``, ``out``,
    ``rows`` and the numpy error handling in force, which they train
    under; each child waits on its end of one duplex ``multiprocessing``
    connection for a share of a round to train into ``out``. Leaving the
    pool (or ``close``) stops and reaps them. ``out`` is one anonymous
    MAP_SHARED ``mmap`` where there are children, whose writes this
    process then reads, and else this process's own memory."""

    def __init__(
        self,
        clients: Sequence[ClientRecord],
        arch: ArchSpec,
        cfg: SgdConfig,
        broadcast: np.ndarray,
        cpus: int,
        rows: np.ndarray,
    ) -> None:
        self.clients = clients
        self.arch = arch
        self.cfg = cfg
        self.processes = len(lockstep_shares(clients, cfg, broadcast.size, cpus))
        self.rows = rows
        shape = (int(self.rows.max(initial=-1)) + 1, broadcast.size)
        if self.processes > 1:
            self.out = np.frombuffer(mmap.mmap(-1, 8 * shape[0] * shape[1])).reshape(shape)
        else:
            self.out = np.empty(shape)
        self.out[:] = broadcast
        self.children: list[tuple[int, Connection]] = []

    def __enter__(self) -> TrainingPool:
        """Fork the children. A platform without ``os.fork``, and a
        process running other threads, which a fork would not copy, fork
        none; a connection or fork that fails ends the forking, and
        rounds split over the processes forked."""
        if self.processes < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
            return self
        for _ in range(self.processes - 1):
            ends: list[Connection] = []
            try:
                ends += Pipe()
                with quiet_fork():
                    pid = os.fork()
            except OSError:  # no connection or process to be had: the rest trains here
                for end in ends:
                    end.close()
                break
            here, there = ends
            if pid == 0:
                _serve(self, here, there)
            there.close()
            self.children.append((pid, here))
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Stop and reap the children; later rounds train here."""
        children, self.children = self.children, []
        # an idle child waits on its connection, and one still training when
        # this process raised is stopped, as its rows are no longer wanted
        for pid, here in children:
            os.kill(pid, signal.SIGKILL)
            here.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


_LOST = "a training process exited without its results"


def _serve(pool: TrainingPool, here: Connection, there: Connection) -> NoReturn:
    """A pool child's whole life. It closes the parent's end of each
    connection that it inherited, its own ``here`` and every earlier
    child's, so that the parent's exit ends it. Then, until ``there``
    ends, it receives one share of a round, ``(broadcast, stacks of
    client ids, streams)``, trains it under the numpy error handling it
    inherited at the fork, and sends back one message: the errors by
    client id, or the exception it raised."""
    code = 1
    try:
        for end in [here] + [child for _, child in pool.children]:
            end.close()
        while True:
            try:
                broadcast, share, streams = there.recv()
            except EOFError:
                break
            try:
                reply = _train(pool, broadcast, share, streams)
            except BaseException as exc:  # sent to the parent, which raises it
                reply = exc
            there.send(reply)
        code = 0
    finally:
        os._exit(code)


def _train(
    pool: TrainingPool,
    broadcast: np.ndarray,
    share: list[list[int]],
    streams: Callable[[int], np.random.Generator],
) -> dict[int, NumericError]:
    """Train each stack of client ids of ``share`` from the broadcast into
    its clients' rows of ``pool.out`` (``pool.rows[ids]``), a sign
    flipper's flipped by a magnitude from its stream ``streams(c)``;
    returns the errors by client id."""
    clients = pool.clients
    # made before the first stack trains, as one made between stacks costs
    # about a third more
    rngs = {c: streams(c) for ids in share for c in ids}
    errors: dict[int, NumericError] = {}
    for ids in share:
        stack = np.tile(broadcast, (len(ids), 1))
        failed = sgd_epoch(
            pool.arch,
            stack,
            [clients[c].train.features for c in ids],
            [clients[c].train.labels for c in ids],
            pool.cfg,
            [rngs[c] for c in ids],
        )
        for i, c in enumerate(ids):
            attack = clients[c].attack
            if attack is not None and attack.kind == "sign_flip" and i not in failed:
                stack[i] = attack_sign_flip(stack[i], attack.scale, rngs[c])
        pool.out[pool.rows[ids]] = stack
        errors.update((ids[i], exc) for i, exc in failed.items())
    return errors


def train_lockstep(
    cohort: list[ClientRecord],
    global_params: np.ndarray,
    streams: Callable[[int], np.random.Generator],
    pool: TrainingPool,
) -> dict[int, NumericError]:
    """Train the cohort's training clients from the broadcast, in lockstep,
    on ``pool``, with the pool's architecture and SGD config.

    Client ``c`` of the cohort draws its permutations, and a sign
    flipper then its magnitude, from ``streams(c)``, made in the process
    that trains it, and ends with its upload in its row of ``pool.out``,
    ``pool.rows[c]``; the rows of clients that do not train are left as
    they are. Clients of equal train size share ``sgd_epoch`` stacks of at
    most STACK_BYTES of parameters. Returns, by client id, the
    NumericError of each client whose loss turned non-finite, the same
    as the client would get training alone; the round loop raises it.

    A round of SPLIT_STEPS steps or more trains in shares
    (``lockstep_shares``), one on each of the pool's processes. This
    process trains share 0, and each child one other share: one message
    on its connection carries the broadcast, its stacks of client ids
    and ``streams`` (which must pickle); the child trains under the
    numpy error handling it inherited at the fork, writes its rows
    straight into ``pool.out`` and sends back its errors. No generator
    and no generator state crosses a connection. Every client runs the
    same ``sgd_epoch`` arithmetic on the same operands from the same
    stream in any process, and the rows of a stack never meet, so the
    rows and the errors are bit-identical to one process's training the
    same stacks, and to one process's unsplit round but for a failed
    client's row: that holds whatever its (narrower) stack left, and
    nothing reads it. A child's exception is raised here, as it was
    raised there. On any exception the pool is closed.
    """
    global_params = np.asarray(global_params, dtype=np.float64)
    shares = lockstep_shares(cohort, pool.cfg, global_params.size, 1 + len(pool.children))
    try:
        sent = list(zip(pool.children, shares[1:]))
        for (_, here), share in sent:
            try:
                here.send((global_params, share, streams))
            except OSError:
                raise SimulationError(_LOST) from None
        errors = _train(pool, global_params, shares[0], streams)
        for (_, here), _ in sent:
            try:
                reply = here.recv()
            except (EOFError, OSError):
                raise SimulationError(_LOST) from None
            if isinstance(reply, BaseException):
                raise reply
            errors.update(reply)
        return errors
    except BaseException:
        pool.close()
        raise


def local_update(
    client: ClientRecord,
    row: np.ndarray,
    streams: Callable[[int], np.random.Generator],
    benign_mean: np.ndarray | None = None,
    written: bool = False,
) -> None:
    """One client round: write the client's upload into ``row``, its row
    of the run's parameter matrix.

    A client that trains (see ``trains``) already holds its upload there,
    written by ``train_lockstep``, so its row is left as it is. A
    same_value or gaussian client draws its message from
    ``streams(client.id)``. An ipm client needs ``benign_mean``, the
    ``mean_upload`` of this round's benign uploads, and draws nothing;
    where its row is ``written`` this round already, by an ipm attacker
    that shares it (``row_index``), the row is left as it is.
    """
    kind = client.attack.kind if client.attack is not None else None
    if kind == "same_value":
        row[:] = attack_same_value(row.size, client.attack.scale, streams(client.id))
    elif kind == "gaussian":
        row[:] = attack_gaussian(row.size, client.attack.scale, streams(client.id))
    elif kind == "ipm":
        if benign_mean is None:
            raise SimulationError("ipm attack needs this round's benign mean upload")
        if not written:
            np.multiply(benign_mean, -client.attack.scale, out=row)
