"""Benchmark workloads: fedaa config text built from the workload seed.

Each workload stresses one part of a round. The config seed is the
workload seed, so one seed gives the same inputs on every machine.
Run lengths are short (a few seconds) so that one timed run holds
enough repeats for a steady median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from fedaa import lognormal_sizes, stream


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int
    body: Callable[[int], str]  # config lines other than rounds and seed, from the seed
    stress: str  # what the traced run should show, checked by stress_met()


def _signflip_logistic(seed: int) -> str:
    # the acceptance trend_config: 20 equal logistic clients, 30% sign flippers
    return """\
dataset = synthetic00
dataset.num_clients = 20
dataset.samples_per_client = 200
malicious_fraction = 0.3
attack = sign_flip
m_percent = 30
local.lr = 0.1
local.batch_size = 16
local.epochs = 20
"""


MLP_CLIENTS = 100
MLP_TOTAL_SAMPLES = 13_700  # the mean total of 100 default lognormal draws


def lognormal_fixed_total(seed: int, count: int = MLP_CLIENTS, total: int = MLP_TOTAL_SAMPLES) -> list[int]:
    """The program's default lognormal client sizes for this seed, rescaled
    to a fixed total and clamped again to [20, 1000].

    The unscaled total of 100 draws has an IQR of about 13% of its median
    over ten seeds, and the spread of run_s is taken over ten seeds.
    """
    raw = lognormal_sizes(count, stream(seed, "sizes"))
    scale = total / sum(raw)
    return [min(1000, max(20, math.floor(n * scale))) for n in raw]


def _mlp_fedavg_clean(seed: int) -> str:
    sizes = ",".join(str(s) for s in lognormal_fixed_total(seed))
    return f"""\
dataset = synthetic00
dataset.num_clients = {MLP_CLIENTS}
dataset.samples_per_client = {sizes}
model.hidden = 100,100
aggregator = fedavg
"""


def _server_heavy(seed: int) -> str:
    return """\
dataset = synthetic11
dataset.num_clients = 200
dataset.samples_per_client = 20
model.hidden = 200
malicious_fraction = 0.4
attack = ipm
m_percent = 60
local.epochs = 1
local.batch_size = 20
ddpg.warmup = 2
"""


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "signflip_logistic",
            6,
            _signflip_logistic,
            "nn.sgd_epoch.busy_s is at least 80% of the traced run",
        ),
        Workload(
            "mlp_fedavg_clean",
            2,
            _mlp_fedavg_clean,
            "selection.select_clients.calls and ddpg.update_critic.calls are 0",
        ),
        Workload(
            "server_heavy",
            6,
            _server_heavy,
            "selection.select_clients.busy_s + clients.local_update.self_s exceed half the traced run",
        ),
    )
}


def config_text(workload: Workload, seed: int, rounds: int | None = None) -> str:
    rounds = workload.rounds if rounds is None else rounds
    return workload.body(seed) + f"rounds = {rounds}\nseed = {seed}\n"


def stress_met(workload: Workload, metrics: dict[str, float]) -> bool:
    """Whether a traced run shows the workload stressing the layer it was chosen for."""
    if workload.name == "signflip_logistic":
        return metrics["nn.sgd_epoch.busy_s"] >= 0.8 * metrics["trace.run_s"]
    if workload.name == "server_heavy":
        server = metrics["selection.select_clients.busy_s"] + metrics["clients.local_update.self_s"]
        return server > 0.5 * metrics["trace.run_s"]
    return metrics["selection.select_clients.calls"] == 0 and metrics["ddpg.update_critic.calls"] == 0


def trains(client) -> bool:
    """Benign clients and sign flippers run local SGD; the other attacks do not."""
    return client.attack is None or client.attack.kind == "sign_flip"


def expected_counts(exp) -> dict[str, int]:
    """Call counts a run of the built experiment must make, computed from
    the config and the client train sizes alone.
    """
    cfg = exp.cfg
    if cfg.participation_ratio != 1.0:
        raise ValueError("exact counts assume every client joins every round")
    trainers = [c for c in exp.clients if trains(c)]
    steps = sum(cfg.local.epochs * math.ceil(len(c.train) / cfg.local.batch_size) for c in trainers)
    fedaa = cfg.aggregator == "fedaa"
    return {
        "nn.backward_ce": cfg.rounds * steps,
        "nn.sgd_epoch": cfg.rounds * len(trainers),
        "clients.local_update": cfg.rounds * len(exp.clients),
        "selection.select_clients": cfg.rounds + 1 if fedaa else 0,
        "ddpg.act": cfg.rounds if fedaa else 0,
        "ddpg.update_critic": max(0, cfg.rounds - cfg.ddpg.warmup + 1) if fedaa else 0,
    }


def client_samples(exp) -> int:
    """Local-training examples processed in one run: sum of epochs x train size."""
    cfg = exp.cfg
    per_round = sum(cfg.local.epochs * len(c.train) for c in exp.clients if trains(c))
    return cfg.rounds * per_round


def computed_bytes(exp) -> dict[str, int]:
    """Bytes computed from sizes (float64 uploads), not measured."""
    cfg = exp.cfg
    d = exp.initial_params.size
    select_calls = cfg.rounds + 1 if cfg.aggregator == "fedaa" else 0
    return {
        "clients.upload_bytes": cfg.rounds * len(exp.clients) * d * 8,
        "selection.select_clients.bytes_in": select_calls * exp.cohort_size * d * 8,
    }
