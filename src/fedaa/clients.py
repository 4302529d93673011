"""Client records, Byzantine upload attacks, and the local update step.

A client is its data and its attack, and its role follows from the
attack; its local model is a row of ``Experiment.local_models``. Attack
messages are what a malicious client writes into its upload row.
Magnitude draws use the convention m ~ N(0, tau^2) with tau the attack
scale.
"""

from __future__ import annotations

import io
import math
import os
import pickle
import signal
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .cpus import usable_cpus
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
STACK_BYTES = 1 << 19

# Sample-parameter steps (epochs x train rows x parameters, summed over a
# round's trainers) below which a round trains in one share. On a 2-vCPU
# Xeon a second share cost about 30 ms a round on top of half the serial
# time (the fork, copy-on-write faults, the rows back through a pipe at
# about 0.8 GB/s, the child's exit): a 100-client 60-100-100-10 MLP round
# broke even near 1.8e8 (61 ms either way) and took 85 ms against 103 ms
# at 3.7e8, while a server_heavy round (2.4e7) took 39 ms against 19 ms.
SHARE_WORK = 1 << 28


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


def assign_roles(
    num_clients: int, malicious_fraction: float, rng: np.random.Generator
) -> list[int]:
    """Seeded choice of exactly floor(fraction * num_clients) malicious ids."""
    if not 0.0 <= malicious_fraction < 0.5:
        raise ConfigError("malicious fraction must lie in [0, 0.5)")
    count = int(math.floor(malicious_fraction * num_clients + 1e-9))
    if count == 0:
        return []
    return sorted(int(i) for i in rng.choice(num_clients, size=count, replace=False))


def attack_same_value(dim: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    return np.full(dim, float(rng.normal(0.0, tau)))


def attack_sign_flip(honest: np.ndarray, tau: float, rng: np.random.Generator) -> np.ndarray:
    return -abs(float(rng.normal(0.0, tau))) * np.asarray(honest, dtype=np.float64)


def attack_gaussian(dim: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, tau, size=dim)


def mean_upload(benign_uploads: np.ndarray) -> np.ndarray:
    """Mean of the rows of this round's benign uploads: the ipm reference point."""
    if len(benign_uploads) == 0:
        raise SimulationError("ipm attack requires at least one benign upload")
    return np.mean(benign_uploads, axis=0)


def trains(client: ClientRecord) -> bool:
    """Whether the client runs local SGD: benign clients, and attackers of a
    kind that trains."""
    return client.attack is None or ATTACKS[client.attack.kind].trains


def draws(client: ClientRecord) -> bool:
    """Whether the client draws from its round's local stream: a client
    that trains draws its shuffles, and an attack that takes a tau draws
    its magnitudes from it; ipm draws nothing."""
    return trains(client) or ATTACKS[client.attack.kind].default_tau is not None


def share_count(work: int) -> int:
    """Shares for a round's lockstep training of ``work`` sample-parameter
    steps: one below SHARE_WORK, else one per usable CPU (``usable_cpus``,
    1 in a worker process). A platform without ``os.fork``, and a process
    running other threads, which a fork would not copy, train in one."""
    if work < SHARE_WORK or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return usable_cpus()


def train_lockstep(
    arch: ArchSpec,
    cohort: list[ClientRecord],
    global_params: np.ndarray,
    cfg: SgdConfig,
    rngs: Sequence[np.random.Generator | None],
    out: np.ndarray,
    shares: int | None = None,
) -> dict[int, NumericError]:
    """Train the cohort's training clients from the broadcast, in lockstep.

    ``cohort[i]`` draws its permutations from ``rngs[i]`` and ends with
    its trained parameters, of architecture ``arch``, in row ``out[i]``
    of the C-contiguous float64 matrix ``out``; the rows of clients that
    do not train are left as they are. Clients of equal train size share
    ``sgd_epoch`` stacks of at most STACK_BYTES of parameters. Returns,
    by row, the NumericError of each client whose loss turned non-finite,
    the same as the client would get training alone; the round loop
    raises it.

    The stacks split into ``shares`` shares (by default ``share_count``
    of the round's work), balanced by rows x train size, longest stack
    first. This process trains share 0, and each other share trains in
    a child made with ``os.fork``, in its own copy of ``out``. The child
    sends back its errors and its trainers' generator states, then its
    stacks' rows as raw float64 bytes; they are written into ``out`` and
    the generators continue as if they had trained here. Every client
    runs the same ``sgd_epoch`` arithmetic on the same operands in any
    share, so ``out``, the errors and the generators are bit-identical
    for every share count. A child's exception is raised here, as it was
    raised there; a share whose fork fails trains here. No child
    outlives the call.
    """
    global_params = np.asarray(global_params, dtype=np.float64)
    width = max(1, STACK_BYTES // max(global_params.nbytes, 1))
    groups: dict[int, list[int]] = {}
    for row, client in enumerate(cohort):
        if trains(client):
            groups.setdefault(len(client.train), []).append(row)
    stacks = sorted(
        (group[lo : lo + width] for group in groups.values() for lo in range(0, len(group), width)),
        key=lambda rows: len(rows) * len(cohort[rows[0]].train),
        reverse=True,
    )
    if shares is None:
        size = sum(len(cohort[r].train) for rows in stacks for r in rows)
        shares = share_count(cfg.epochs * size * global_params.size)
    split: list[list[list[int]]] = [[] for _ in range(max(1, min(shares, len(stacks))))]
    loads = [0] * len(split)
    for rows in stacks:
        least = loads.index(min(loads))
        split[least].append(rows)
        loads[least] += len(rows) * len(cohort[rows[0]].train)

    def train(share: list[list[int]]) -> dict[int, NumericError]:
        errors: dict[int, NumericError] = {}
        for rows in share:
            stack = np.tile(global_params, (len(rows), 1))
            failed = sgd_epoch(
                arch,
                stack,
                [cohort[r].train.features for r in rows],
                [cohort[r].train.labels for r in rows],
                cfg,
                [rngs[r] for r in rows],
            )
            out[rows] = stack
            errors.update((rows[i], exc) for i, exc in failed.items())
        return errors

    own = list(split[0])
    children: list[tuple[int, io.BufferedReader, list[list[int]]]] = []
    try:
        for share in split[1:]:
            read, write = os.pipe()
            try:
                pid = _fork()
            except OSError:  # no process to be had: the share trains here
                os.close(read)
                os.close(write)
                own += share
                continue
            if pid == 0:
                inherited = [read, *(pipe.fileno() for _, pipe, _ in children)]
                _train_in_child(train, share, rngs, out, write, inherited)
            os.close(write)
            # buffered, so that a read of n bytes returns n bytes or stops at
            # the end: a raw pipe returns at most what it holds (64 KiB),
            # which pickle.load takes for a truncated frame
            children.append((pid, os.fdopen(read, "rb"), share))
        errors = train(own)
        for _, pipe, share in children:
            errors.update(_receive(pipe, share, rngs, out))
        return errors
    finally:
        # the read ends close first, so that a child blocked on a full pipe
        # fails its write and exits; a child still training when this
        # process raised is stopped, as its rows are no longer wanted
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
        for pid, _, _ in children:
            os.waitpid(pid, 0)


def _fork() -> int:
    """``os.fork``, without the DeprecationWarning that Python 3.12+ gives
    in a process with more than one OS thread. The fork is safe here:
    the other OS threads are OpenBLAS's pool, whose fork handler shuts
    it down before the fork (either process starts it again when next
    used), and ``share_count`` forks only while no other Python thread
    runs. Raised as an error, the warning would come after the fork and
    lose the child."""
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
        )
        return os.fork()


def _train_in_child(
    train: Callable[[list[list[int]]], dict[int, NumericError]],
    share: list[list[int]],
    rngs: Sequence[np.random.Generator | None],
    out: np.ndarray,
    write: int,
    inherited: list[int],
) -> NoReturn:
    """A forked child's whole life: close the parent's read ends it
    inherited, train ``share`` into this process's copy of ``out``, and
    write to the pipe ``write`` one pickle, ``("ok", errors by row,
    generator states by row)`` or ``("raise", exception)``, then each
    stack's rows of ``out`` as raw bytes."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(write, "wb") as pipe:
            try:
                errors = train(share)
                states = {r: rngs[r].bit_generator.state for rows in share for r in rows}
                head = ("ok", errors, states)
            except BaseException as exc:  # sent to the parent, which raises it
                head = ("raise", exc)
            pickle.dump(head, pipe)
            if head[0] == "ok":
                for rows in share:
                    for r in rows:
                        pipe.write(out[r])
        code = 0
    finally:
        os._exit(code)


def _receive(
    pipe: io.BufferedReader,
    share: list[list[int]],
    rngs: Sequence[np.random.Generator | None],
    out: np.ndarray,
) -> dict[int, NumericError]:
    """What ``_train_in_child`` sent for ``share``: raises the child's
    exception, or sets its trainers' generators to their states, reads
    its rows into ``out`` and returns its errors by row."""
    lost = SimulationError("a training child exited without its results")
    try:
        head = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise lost from None
    if head[0] == "raise":
        raise head[1]
    for row, state in head[2].items():
        rngs[row].bit_generator.state = state
    for rows in share:
        for r in rows:
            if pipe.readinto(out[r]) != out[r].nbytes:
                raise lost
    return head[1]


def local_update(
    client: ClientRecord,
    row: np.ndarray,
    rng: np.random.Generator | None,
    benign_mean: np.ndarray | None = None,
) -> None:
    """One client round: write the client's upload into ``row``.

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
