"""Deterministic-policy actor-critic over aggregation weights.

The actor maps the selection state to logits, and the softmax of the
logits is the weight vector on the simplex; this module applies that
softmax and, in the actor update, its Jacobian. The critic scores a
(state, action) pair with the single output of a network on the
concatenated input. Updates are plain SGD with decoupled weight decay:
the critic descends the mean squared Bellman residual, the actor
ascends the critic's value of its own actions. Target copies of both
networks track the mains through soft updates. Each network is a flat
vector under the actor's or the critic's ``ArchSpec``, updated in
place. ``DdpgConfig`` holds every hyperparameter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalError, NumericError
from .nn import (
    ArchSpec,
    backward_from_output,
    forward,
    forward_cached,
    init_params,
    softmax,
)


@dataclass(frozen=True)
class DdpgConfig:
    """Policy hyperparameters; the defaults are those of the ``ddpg.*`` config keys."""

    gamma: float = 0.99
    epsilon_soft: float = 0.001
    actor_lr: float = 0.01
    critic_lr: float = 0.01
    weight_decay: float = 1e-05
    hidden: int = 256
    buffer_capacity: int = 10000
    batch_size: int = 64
    warmup: int = 10
    noise_sigma: float = 0.1
    noise_sigma_end: float = 0.01


@dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray

    def __post_init__(self) -> None:
        self.state = np.asarray(self.state, dtype=np.float64)
        self.action = np.asarray(self.action, dtype=np.float64)
        self.next_state = np.asarray(self.next_state, dtype=np.float64)
        if self.state.shape != self.next_state.shape:
            raise InternalError("state and next_state dimensions differ")
        if abs(self.action.sum() - 1.0) > 1e-9 or self.action.min() < 0.0:
            raise InternalError("action must lie on the probability simplex")
        if not 0.0 <= self.reward <= 1.0:
            raise InternalError(f"reward {self.reward} outside [0, 1]")


class ReplayBuffer:
    """Bounded FIFO of transitions; sampling is uniform without replacement."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("buffer capacity must be >= 1")
        self.capacity = capacity
        self._items: deque[Transition] = deque(maxlen=capacity)

    def push(self, transition: Transition) -> None:
        self._items.append(transition)

    def __len__(self) -> int:
        return len(self._items)

    def sample(self, n: int, rng: np.random.Generator) -> list[Transition]:
        if n < 1 or n > len(self._items):
            raise ConfigError(f"cannot sample {n} of {len(self._items)} transitions")
        picks = rng.choice(len(self._items), size=n, replace=False)
        return [self._items[int(i)] for i in picks]


@dataclass
class DdpgAgent:
    """The four networks as flat vectors, updated in place: the actors
    under ``actor_arch``, the critics under ``critic_arch``."""

    actor_arch: ArchSpec
    critic_arch: ArchSpec
    actor: np.ndarray
    critic: np.ndarray
    target_actor: np.ndarray
    target_critic: np.ndarray
    cfg: DdpgConfig

    @property
    def state_dim(self) -> int:
        return self.actor_arch.input_dim

    @property
    def action_dim(self) -> int:
        return self.actor_arch.output_dim


def make_agent(
    state_dim: int, action_dim: int, cfg: DdpgConfig, rng: np.random.Generator
) -> DdpgAgent:
    """Fresh agent; targets start as exact copies of the mains."""
    if state_dim < 1 or action_dim < 1:
        raise ConfigError("state_dim and action_dim must be positive")
    actor_arch = ArchSpec(state_dim, (cfg.hidden,), action_dim)
    critic_arch = ArchSpec(state_dim + action_dim, (cfg.hidden,), 1)
    actor = init_params(actor_arch, rng)
    critic = init_params(critic_arch, rng)
    return DdpgAgent(actor_arch, critic_arch, actor, critic, actor.copy(), critic.copy(), cfg)


def act(
    agent: DdpgAgent,
    state: np.ndarray,
    sigma: float | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Policy action for one state: greedy without ``sigma``; with it,
    N(0, sigma^2) noise from ``rng`` perturbs the pre-softmax logits."""
    state = np.asarray(state, dtype=np.float64)
    if state.ndim != 1 or state.size != agent.state_dim:
        raise ConfigError(f"state has shape {state.shape}, expected ({agent.state_dim},)")
    logits = forward(agent.actor_arch, agent.actor, state[None, :])
    if sigma is not None:
        if rng is None:
            raise ConfigError("exploration requires an rng")
        logits = logits + rng.normal(0.0, sigma, size=logits.shape)
    return softmax(logits)[0]


def _stack(transitions: list[Transition]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    if not transitions:
        raise ConfigError("need at least one transition")
    states = np.stack([t.state for t in transitions])
    actions = np.stack([t.action for t in transitions])
    rewards = np.asarray([t.reward for t in transitions])
    next_states = np.stack([t.next_state for t in transitions])
    return states, actions, rewards, next_states


def critic_target(agent: DdpgAgent, transitions: list[Transition]) -> np.ndarray:
    """Bellman targets y = r + gamma * Q'(s', pi'(s')) from the target nets."""
    _, _, rewards, next_states = _stack(transitions)
    next_actions = softmax(forward(agent.actor_arch, agent.target_actor, next_states))
    next_inputs = np.hstack([next_states, next_actions])
    q_next = forward(agent.critic_arch, agent.target_critic, next_inputs)[:, 0]
    return rewards + agent.cfg.gamma * q_next


def update_critic(agent: DdpgAgent, transitions: list[Transition]) -> float:
    """One SGD step on the mean squared Bellman residual; returns the pre-step loss."""
    states, actions, _, _ = _stack(transitions)
    targets = critic_target(agent, transitions)
    out, cache = forward_cached(agent.critic_arch, agent.critic, np.hstack([states, actions]))
    residual = out[:, 0] - targets
    loss = float(np.mean(residual**2))
    if not np.isfinite(loss):
        raise NumericError("critic loss is not finite")
    dout = (2.0 / residual.size) * residual[:, None]
    grad, _ = backward_from_output(agent.critic_arch, agent.critic, cache, dout)
    cfg = agent.cfg
    agent.critic -= cfg.critic_lr * (grad + cfg.weight_decay * agent.critic)
    return loss


def update_actor(agent: DdpgAgent, transitions: list[Transition]) -> float:
    """One ascent step on mean Q(s, pi(s)); returns the pre-step objective."""
    states, _, _, _ = _stack(transitions)
    logits, actor_cache = forward_cached(agent.actor_arch, agent.actor, states)
    actions = softmax(logits)
    q, critic_cache = forward_cached(agent.critic_arch, agent.critic, np.hstack([states, actions]))
    objective = float(np.mean(q[:, 0]))
    if not np.isfinite(objective):
        raise NumericError("actor objective is not finite")
    dq = np.full((states.shape[0], 1), 1.0 / states.shape[0])
    _, dinput = backward_from_output(agent.critic_arch, agent.critic, critic_cache, dq)
    d_action = dinput[:, agent.state_dim :]
    # through the softmax: d_logits = (d_action - <d_action, a>) * a, row by row
    d_logits = (d_action - (d_action * actions).sum(axis=1, keepdims=True)) * actions
    grad, _ = backward_from_output(agent.actor_arch, agent.actor, actor_cache, d_logits)
    cfg = agent.cfg
    agent.actor += cfg.actor_lr * (grad - cfg.weight_decay * agent.actor)
    return objective


def soft_update(agent: DdpgAgent) -> None:
    """targets <- epsilon * mains + (1 - epsilon) * targets, both networks."""
    eps = agent.cfg.epsilon_soft
    for main, target in ((agent.actor, agent.target_actor), (agent.critic, agent.target_critic)):
        target *= 1.0 - eps
        target += eps * main


def exploration_sigma(round_index: int, total_rounds: int, cfg: DdpgConfig) -> float:
    """Linear decay from noise_sigma at round 0 to noise_sigma_end at the final round."""
    if total_rounds <= 1:
        return cfg.noise_sigma
    frac = min(max(round_index / (total_rounds - 1), 0.0), 1.0)
    return cfg.noise_sigma * (1.0 - frac) + cfg.noise_sigma_end * frac
