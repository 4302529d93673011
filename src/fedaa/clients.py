"""Client records, Byzantine upload attacks, and the local update step.

A client is its data and its attack, and its role follows from the
attack; its local model is a row of ``Experiment.local_models``. Attack
messages are what a malicious client writes into its upload row.
Magnitude draws use the convention m ~ N(0, tau^2) with tau the attack
scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

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


def train_lockstep(
    arch: ArchSpec,
    cohort: list[ClientRecord],
    global_params: np.ndarray,
    cfg: SgdConfig,
    rngs: Sequence[np.random.Generator | None],
    out: np.ndarray,
) -> dict[int, NumericError]:
    """Train the cohort's training clients from the broadcast, in lockstep.

    ``cohort[i]`` draws its permutations from ``rngs[i]`` and ends with
    its trained parameters, of architecture ``arch``, in row ``out[i]``;
    the rows of clients that do not train are left as they are. Clients of equal train size share
    ``sgd_epoch`` stacks of at most STACK_BYTES of parameters. Returns, by
    row, the NumericError of each client whose loss turned non-finite, the
    same as the client would get training alone; the round loop raises it.
    """
    global_params = np.asarray(global_params, dtype=np.float64)
    width = max(1, STACK_BYTES // max(global_params.nbytes, 1))
    groups: dict[int, list[int]] = {}
    for row, client in enumerate(cohort):
        if trains(client):
            groups.setdefault(len(client.train), []).append(row)
    errors: dict[int, NumericError] = {}
    for group in groups.values():
        for lo in range(0, len(group), width):
            rows = group[lo : lo + width]
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
