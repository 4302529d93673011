"""Actor-critic machinery: targets, updates, soft updates."""

import dataclasses

import numpy as np
import pytest

from conftest import central_diff, rel_err
from fedaa import ddpg, nn
from fedaa.errors import ConfigError, InternalError


def tiny_agent(state_dim=2, action_dim=2, hidden=4, seed=0, **hyper):
    return ddpg.make_agent(state_dim, action_dim, ddpg.DdpgConfig(hidden=hidden, **hyper),
                           np.random.default_rng(seed))


def random_batch(agent, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        logits = rng.normal(size=agent.action_dim)
        action = nn.softmax(logits[None, :])[0]
        out.append(
            ddpg.Transition(
                rng.uniform(0, 1, agent.state_dim),
                action,
                float(rng.uniform(0, 1)),
                rng.uniform(0, 1, agent.state_dim),
            )
        )
    return out


# ------------------------------------------------------------ transitions


def test_transition_validation():
    s = np.zeros(2)
    ddpg.Transition(s, np.array([0.3, 0.7]), 0.5, s)
    with pytest.raises(InternalError):
        ddpg.Transition(s, np.array([0.3, 0.8]), 0.5, s)  # sums to 1.1
    with pytest.raises(InternalError):
        ddpg.Transition(s, np.array([-0.1, 1.1]), 0.5, s)
    with pytest.raises(InternalError):
        ddpg.Transition(s, np.array([0.5, 0.5]), 1.2, s)
    with pytest.raises(InternalError):
        ddpg.Transition(s, np.array([0.5, 0.5]), 0.5, np.zeros(3))


# ------------------------------------------------------------ buffer


def test_buffer_fifo_eviction():
    buf = ddpg.ReplayBuffer(3)
    s = np.zeros(1)
    a = np.array([1.0])
    for r in range(5):
        buf.push(ddpg.Transition(s, a, r / 10.0, s))
    assert len(buf) == 3
    rewards = sorted(t.reward for t in buf.sample(3, np.random.default_rng(0)))
    assert rewards == [0.2, 0.3, 0.4]


def test_buffer_sampling():
    buf = ddpg.ReplayBuffer(10)
    s = np.zeros(1)
    a = np.array([1.0])
    for r in range(6):
        buf.push(ddpg.Transition(s, a, r / 10.0, s))
    batch = buf.sample(4, np.random.default_rng(1))
    assert len(batch) == 4
    assert len({t.reward for t in batch}) == 4  # without replacement
    everything = buf.sample(6, np.random.default_rng(2))
    assert sorted(t.reward for t in everything) == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    with pytest.raises(ConfigError):
        buf.sample(7, np.random.default_rng(3))
    with pytest.raises(ConfigError):
        ddpg.ReplayBuffer(0)


# ------------------------------------------------------------ construction


def test_make_agent_shapes_and_target_copies():
    agent = tiny_agent(3, 5, hidden=8)
    assert agent.actor.arch.input_dim == 3
    assert agent.actor.arch.output_dim == 5
    assert agent.actor.arch.hidden_dims == agent.critic.arch.hidden_dims == (8,)
    assert agent.critic.arch.input_dim == 8  # state plus action
    assert agent.critic.arch.output_dim == 1
    assert np.array_equal(agent.target_actor.params, agent.actor.params)
    assert np.array_equal(agent.target_critic.params, agent.critic.params)
    # targets are independent copies
    agent.actor.params[0] += 1.0
    assert agent.target_actor.params[0] != agent.actor.params[0]


def test_act_simplex_and_determinism():
    agent = tiny_agent()
    state = np.array([0.2, 0.9])
    a = ddpg.act(agent, state)
    assert abs(a.sum() - 1.0) < 1e-12 and a.min() > 0.0
    # zero noise equals the greedy action exactly
    noisy = ddpg.act(agent, state, 0.0, np.random.default_rng(0))
    assert np.array_equal(noisy, ddpg.act(agent, state))
    one = ddpg.act(agent, state, 0.5, np.random.default_rng(4))
    two = ddpg.act(agent, state, 0.5, np.random.default_rng(4))
    assert np.array_equal(one, two)
    with pytest.raises(ConfigError):
        ddpg.act(agent, np.zeros(3))
    with pytest.raises(ConfigError):
        ddpg.act(agent, state, 0.5)


def test_exploration_noise_perturbs_logits():
    agent = tiny_agent()
    state = np.array([0.4, 0.6])
    greedy = ddpg.act(agent, state)
    noisy = ddpg.act(agent, state, 1.0, np.random.default_rng(5))
    assert not np.array_equal(greedy, noisy)
    assert abs(noisy.sum() - 1.0) < 1e-12


# ------------------------------------------------------------ critic target


def test_critic_target_hand_computed():
    # Q'(s, a) = 0.5 s + 1.0 a + 0.25; single-arm actor always outputs [1]
    critic_arch = nn.ArchSpec(2, (), 1)
    actor_arch = nn.ArchSpec(1, (), 1)
    agent = ddpg.DdpgAgent(
        actor=nn.MlpModel(actor_arch, np.zeros(2)),
        critic=nn.MlpModel(critic_arch, np.zeros(3)),
        target_actor=nn.MlpModel(actor_arch, np.zeros(2)),
        target_critic=nn.MlpModel(critic_arch, np.array([0.5, 1.0, 0.25])),
        cfg=ddpg.DdpgConfig(gamma=0.99),
    )
    t = ddpg.Transition(np.array([2.0]), np.array([1.0]), 0.3, np.array([4.0]))
    y = ddpg.critic_target(agent, [t])
    assert np.allclose(y, [0.3 + 0.99 * (0.5 * 4.0 + 1.0 + 0.25)], atol=1e-12)
    # batches stack row-wise
    t2 = ddpg.Transition(np.array([0.0]), np.array([1.0]), 1.0, np.array([0.0]))
    y2 = ddpg.critic_target(agent, [t, t2])
    assert np.allclose(y2, [3.5175, 1.0 + 0.99 * 1.25], atol=1e-12)


# ------------------------------------------------------------ critic update


def test_update_critic_loss_and_gradient():
    agent = tiny_agent(seed=7, weight_decay=0.0)
    batch = random_batch(agent, 6, seed=8)
    states = np.stack([t.state for t in batch])
    actions = np.stack([t.action for t in batch])
    y = ddpg.critic_target(agent, batch)
    before = agent.critic.params.copy()

    def loss_at(p):
        q = nn.forward(nn.MlpModel(agent.critic.arch, p), np.hstack([states, actions]))[:, 0]
        return float(np.mean((q - y) ** 2))

    reported = ddpg.update_critic(agent, batch)
    assert rel_err(reported, loss_at(before)) < 1e-12
    # recover the applied gradient from the parameter step
    implied = (before - agent.critic.params) / agent.cfg.critic_lr
    fd = central_diff(loss_at, before, range(before.size))
    worst = max(rel_err(fd[k], implied[k]) for k in fd)
    assert worst < 1e-5


def test_update_critic_weight_decay_enters_step():
    agent = tiny_agent(seed=9, weight_decay=0.1)
    batch = random_batch(agent, 4, seed=10)
    before = agent.critic.params.copy()
    twin = tiny_agent(seed=9, weight_decay=0.0)
    ddpg.update_critic(agent, batch)
    ddpg.update_critic(twin, batch)
    # the decayed step differs from the plain one by lr * wd * params
    extra = (twin.critic.params - agent.critic.params) / agent.cfg.critic_lr
    assert np.allclose(extra, 0.1 * before, atol=1e-12)


def test_update_critic_reduces_loss_on_same_batch():
    agent = tiny_agent(seed=11, critic_lr=0.05, weight_decay=0.0)
    batch = random_batch(agent, 8, seed=12)
    first = ddpg.update_critic(agent, batch)
    second = ddpg.update_critic(agent, batch)
    assert second < first


# ------------------------------------------------------------ actor update


def test_update_actor_objective_and_gradient():
    agent = tiny_agent(seed=13, weight_decay=0.0)
    batch = random_batch(agent, 5, seed=14)
    states = np.stack([t.state for t in batch])
    before = agent.actor.params.copy()

    # the actor outputs logits; the softmax makes them actions, so this
    # check also covers the softmax Jacobian that update_actor applies
    def objective_at(p):
        acts = nn.softmax(nn.forward(nn.MlpModel(agent.actor.arch, p), states))
        q = nn.forward(agent.critic, np.hstack([states, acts]))
        return float(np.mean(q[:, 0]))

    reported = ddpg.update_actor(agent, batch)
    assert rel_err(reported, objective_at(before)) < 1e-12
    implied = (agent.actor.params - before) / agent.cfg.actor_lr  # ascent step
    fd = central_diff(objective_at, before, range(before.size))
    worst = max(rel_err(fd[k], implied[k]) for k in fd)
    assert worst < 1e-4
    # a small ascent step improves the objective
    assert objective_at(agent.actor.params) >= reported


def test_update_actor_climbs_hand_built_critic():
    # critic returns exactly the first action weight: Q(s, a) = a[0]
    critic_arch = nn.ArchSpec(3, (), 1)  # state 1 + action 2
    critic = nn.MlpModel(critic_arch, np.array([0.0, 1.0, 0.0, 0.0]))
    actor_arch = nn.ArchSpec(1, (8,), 2)
    actor = nn.MlpModel(actor_arch, nn.init_params(actor_arch, np.random.default_rng(15)))
    agent = ddpg.DdpgAgent(
        actor=actor,
        critic=critic,
        target_actor=nn.MlpModel(actor_arch, actor.params.copy()),
        target_critic=nn.MlpModel(critic_arch, critic.params.copy()),
        cfg=ddpg.DdpgConfig(actor_lr=0.05, weight_decay=0.0),
    )
    state = np.array([0.5])
    batch = [ddpg.Transition(state, np.array([0.5, 0.5]), 0.5, state)]
    masses = [ddpg.act(agent, state)[0]]
    for _ in range(300):
        ddpg.update_actor(agent, batch)
        masses.append(ddpg.act(agent, state)[0])
    assert masses[-1] > 0.9
    assert masses[-1] > masses[0]
    # mass on the rewarded arm never decreases along the way
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_updates_touch_only_their_network():
    agent = tiny_agent(seed=16)
    batch = random_batch(agent, 4, seed=17)
    snap = {
        "actor": agent.actor.params.copy(),
        "t_actor": agent.target_actor.params.copy(),
        "t_critic": agent.target_critic.params.copy(),
    }
    ddpg.update_critic(agent, batch)
    assert np.array_equal(agent.actor.params, snap["actor"])
    assert np.array_equal(agent.target_actor.params, snap["t_actor"])
    assert np.array_equal(agent.target_critic.params, snap["t_critic"])
    critic_now = agent.critic.params.copy()
    ddpg.update_actor(agent, batch)
    assert np.array_equal(agent.critic.params, critic_now)
    assert np.array_equal(agent.target_actor.params, snap["t_actor"])
    assert np.array_equal(agent.target_critic.params, snap["t_critic"])


# ------------------------------------------------------------ soft update


def test_soft_update_arithmetic():
    agent = tiny_agent(seed=18, epsilon_soft=0.001)
    main_a = agent.actor.params.copy()
    main_c = agent.critic.params.copy()
    agent.target_actor.params[:] = 0.0
    agent.target_critic.params[:] = 1.0
    ddpg.soft_update(agent)
    assert np.allclose(agent.target_actor.params, 0.001 * main_a, atol=1e-15)
    assert np.allclose(
        agent.target_critic.params, 0.001 * main_c + 0.999, atol=1e-15
    )
    # epsilon 1 overwrites completely
    agent.cfg = dataclasses.replace(agent.cfg, epsilon_soft=1.0)
    ddpg.soft_update(agent)
    assert np.allclose(agent.target_actor.params, main_a, atol=1e-15)
    assert np.allclose(agent.target_critic.params, main_c, atol=1e-15)


def test_exploration_sigma_schedule():
    cfg = ddpg.DdpgConfig()
    assert ddpg.exploration_sigma(0, 50, cfg) == 0.1
    assert ddpg.exploration_sigma(49, 50, cfg) == 0.01
    mid = ddpg.exploration_sigma(24, 50, cfg)
    assert abs(mid - (0.1 + (0.01 - 0.1) * 24 / 49)) < 1e-12
    assert ddpg.exploration_sigma(0, 1, cfg) == 0.1
    assert ddpg.exploration_sigma(10, 5, cfg) == 0.01  # clamps past the end
    # the endpoints come from the config
    flat = ddpg.DdpgConfig(noise_sigma=0.4, noise_sigma_end=0.0)
    assert ddpg.exploration_sigma(0, 50, flat) == 0.4
    assert ddpg.exploration_sigma(49, 50, flat) == 0.0
