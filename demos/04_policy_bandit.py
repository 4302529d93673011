"""Sanity-check the actor-critic on a five-arm bandit.

The reward is simply the weight the action puts on arm 2, so the best
policy is the corner of the simplex. The exploration noise stays large
here: the critic can only learn the reward surface from the action
variety it sees in the replay buffer.
"""

import numpy as np

from fedaa import ddpg
from fedaa.seeding import stream

k, target, steps = 5, 2, 400
hyper = ddpg.DdpgConfig(hidden=64, gamma=0.0, actor_lr=0.1, critic_lr=0.2,
                        weight_decay=0.001, noise_sigma=1.5)
agent = ddpg.make_agent(k, k, hyper, stream(0, "bandit-agent"))
explore = stream(0, "bandit-explore")
buf_rng = stream(0, "bandit-buffer")
buffer = ddpg.ReplayBuffer(10000)
state = np.full(k, 1.0)

print(f"reward = action[{target}]; watching the greedy mass on arm {target}\n")
for t in range(steps):
    action = ddpg.act(agent, state, agent.cfg.noise_sigma, explore)
    buffer.push(ddpg.Transition(state, action, float(action[target]), state))
    if len(buffer) >= 64:
        batch = buffer.sample(64, buf_rng)
        ddpg.update_critic(agent, batch)
        ddpg.update_actor(agent, batch)
    if t % 2 == 0:
        ddpg.soft_update(agent)
    if t % 40 == 39:
        greedy = ddpg.act(agent, state)
        bar = "#" * int(40 * greedy[target])
        print(f"step {t + 1:>3}: mass {greedy[target]:.3f} |{bar}")

final = ddpg.act(agent, state)
print(f"\nfinal greedy action: {np.array2string(final, precision=3)}")
