"""Client roles, Byzantine upload attacks, and the local update step.

Attack messages are what a malicious client sends upward; they never
touch the client's own stored model. Magnitude draws use the convention
m ~ N(0, tau^2) with tau the attack scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .data import LabeledDataset
from .nn import MlpModel, SgdConfig, sgd_epoch

ATTACK_KINDS = ("same_value", "sign_flip", "gaussian", "ipm")

# scale conventions per attack; ipm has no tau and scales by its epsilon
_DEFAULT_TAU = {"same_value": 100.0, "sign_flip": 10.0, "gaussian": 100.0}


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    tau: float | None = None
    ipm_epsilon: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ConfigError(f"unknown attack kind: {self.kind!r}")
        if self.kind == "ipm":
            if self.tau is not None:
                raise ConfigError("the ipm attack takes no tau; ipm_epsilon sets its scale")
        elif self.tau is None:
            object.__setattr__(self, "tau", _DEFAULT_TAU[self.kind])
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


def same_value_message(dim: int, magnitude: float) -> np.ndarray:
    return np.full(dim, float(magnitude))


def sign_flip_message(honest: np.ndarray, magnitude: float) -> np.ndarray:
    return -abs(float(magnitude)) * np.asarray(honest, dtype=np.float64)


def attack_same_value(dim: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    return same_value_message(dim, rng.normal(0.0, tau))


def attack_sign_flip(honest: np.ndarray, tau: float, rng: np.random.Generator) -> np.ndarray:
    return sign_flip_message(honest, rng.normal(0.0, tau))


def attack_gaussian(dim: int, tau: float, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, tau, size=dim)


def mean_upload(benign_uploads: list[np.ndarray]) -> np.ndarray:
    """Mean of this round's benign uploads: the ipm reference point."""
    if not benign_uploads:
        raise SimulationError("ipm attack requires at least one benign upload")
    return np.mean(np.stack(benign_uploads), axis=0)


def attack_ipm(benign_uploads: list[np.ndarray], epsilon: float) -> np.ndarray:
    """Negative scaled mean of this round's benign uploads."""
    return -epsilon * mean_upload(benign_uploads)


def local_update(
    client: ClientRecord,
    global_params: np.ndarray,
    cfg: SgdConfig,
    rng: np.random.Generator,
    benign_mean: np.ndarray | None = None,
) -> np.ndarray:
    """One client round: adopt the broadcast, train or attack, return the upload.

    Benign clients (and sign flippers, whose message needs the honest
    result) train from the broadcast and store the trained model.
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
    if kind in (None, "sign_flip"):
        trained = sgd_epoch(
            MlpModel(client.local_model.arch, global_params.copy()),
            client.train.features,
            client.train.labels,
            cfg,
            rng,
        )
        client.local_model = trained
        if kind is None:
            return trained.params.copy()
        return attack_sign_flip(trained.params, client.attack.tau, rng)
    client.local_model = MlpModel(client.local_model.arch, global_params.copy())
    if kind == "same_value":
        return attack_same_value(global_params.size, client.attack.tau, rng)
    if kind == "gaussian":
        return attack_gaussian(global_params.size, client.attack.tau, rng)
    # ipm: all attackers send the same vector, each in an array of its own
    if benign_mean is None:
        raise SimulationError("ipm attack needs this round's benign mean upload")
    return -client.attack.ipm_epsilon * benign_mean
