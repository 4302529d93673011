"""Client roles, Byzantine upload attacks, and the local update step.

Attack messages are what a malicious client sends upward; they never
touch the client's own stored model. Magnitude draws use the convention
m ~ N(0, tau^2) with tau the attack scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InternalError, NumericError, SimulationError
from .data import LabeledDataset
from .nn import MlpModel, SgdConfig, sgd_epoch


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
    role: str  # "benign" or "malicious"
    attack: AttackSpec | None
    train: LabeledDataset
    test: LabeledDataset
    local_model: MlpModel

    def __post_init__(self) -> None:
        if self.role not in ("benign", "malicious"):
            raise ConfigError(f"unknown role: {self.role!r}")
        if (self.role == "malicious") != (self.attack is not None):
            raise ConfigError("attack spec must be present exactly for malicious clients")


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


def train_lockstep(
    cohort: list[ClientRecord],
    global_params: np.ndarray,
    cfg: SgdConfig,
    rngs: dict[int, np.random.Generator],
) -> dict[int, MlpModel | NumericError]:
    """Train the cohort's training clients from the broadcast, in lockstep.

    Clients of equal train size share ``sgd_epoch`` stacks of at most
    STACK_BYTES of parameters, and each draws its permutations from its
    own ``rngs[client.id]``. Returns, per client id, the trained model or
    the NumericError of a loss that turned non-finite, the same as the
    client would get training alone; ``local_update`` raises it.
    """
    global_params = np.asarray(global_params, dtype=np.float64)
    width = max(1, STACK_BYTES // max(global_params.nbytes, 1))
    groups: dict[int, list[ClientRecord]] = {}
    for client in cohort:
        if trains(client):
            groups.setdefault(len(client.train), []).append(client)
    trained: dict[int, MlpModel | NumericError] = {}
    for group in groups.values():
        for lo in range(0, len(group), width):
            stack = group[lo : lo + width]
            models = sgd_epoch(
                [MlpModel(c.local_model.arch, global_params) for c in stack],
                [c.train.features for c in stack],
                [c.train.labels for c in stack],
                cfg,
                [rngs[c.id] for c in stack],
            )
            trained.update(zip((c.id for c in stack), models))
    return trained


def local_update(
    client: ClientRecord,
    global_params: np.ndarray,
    rng: np.random.Generator,
    benign_mean: np.ndarray | None = None,
    trained: MlpModel | NumericError | None = None,
) -> np.ndarray:
    """One client round: adopt the broadcast or the trained model, attack,
    return the upload.

    A client that trains (see ``trains``; a sign flipper's message needs
    the honest result) stores ``trained``, its ``train_lockstep`` result
    from the broadcast and ``rng``, which then continues after the
    permutation draws; if that result is an error, it is raised here.
    same_value/gaussian/ipm clients skip training; their stored model
    keeps the broadcast parameters. An ipm client needs ``benign_mean``,
    the ``mean_upload`` of this round's benign uploads.
    """
    global_params = np.asarray(global_params, dtype=np.float64)
    if global_params.shape != client.local_model.params.shape:
        raise ConfigError(
            f"broadcast has {global_params.size} parameters, client model "
            f"expects {client.local_model.params.size}"
        )
    kind = client.attack.kind if client.attack is not None else None
    if trains(client):
        if not isinstance(trained, MlpModel):
            raise trained or InternalError("a client that trains needs its trained model")
        client.local_model = trained
    else:
        client.local_model = MlpModel(client.local_model.arch, global_params.copy())
    if kind is None:
        return trained.params.copy()
    if kind == "sign_flip":
        return attack_sign_flip(trained.params, client.attack.tau, rng)
    if kind == "same_value":
        return attack_same_value(global_params.size, client.attack.tau, rng)
    if kind == "gaussian":
        return attack_gaussian(global_params.size, client.attack.tau, rng)
    # ipm: all attackers send the same vector, each in an array of its own
    if benign_mean is None:
        raise SimulationError("ipm attack needs this round's benign mean upload")
    return -client.attack.ipm_epsilon * benign_mean
