"""Headline guarantees of the simulator, one test per guarantee.

Each test is self-contained and prints as a single pass/fail line under
``pytest -v``. The trend tests (robust aggregation beating plain
averaging, threshold direction, dispersion under an unfair reward set)
average over three seeds; tolerances and runtime budgets are stated
inline next to each assertion.
"""

import os
import pathlib
import time
from dataclasses import replace

import numpy as np

from conftest import rel_err
from fedaa import cli, config, ddpg, nn, orchestrator, selection
from fedaa.clients import AttackSpec, attack_same_value
from fedaa.reference import central_diff
from fedaa.seeding import stream
from fedaa.selftest import run_selftest


def trend_config(seed, *, malicious=0.0, attack=None, m_percent=30.0, rounds=50):
    """20 logistic clients on the zero-centered synthetic task."""
    return config.ExperimentConfig(
        dataset=config.DatasetConfig(
            kind="synthetic00", num_clients=20, samples_per_client=200
        ),
        model_hidden=(),
        malicious_fraction=malicious,
        attack=attack,
        m_percent=m_percent,
        rounds=rounds,
        local=nn.SgdConfig(learning_rate=0.1, batch_size=16, epochs=20),
        ddpg=config.DdpgConfig(),
        seed=seed,
    )


def final_benign_acc(records):
    return records[-1].mean_benign_acc


def test_gradients_match_central_differences():
    # analytic gradients of the client loss, the value-fit loss, and the
    # chained policy objective each agree with central differences to
    # better than 1e-4 relative error on 100+ random coordinates
    t0 = time.perf_counter()
    coord_rng = np.random.default_rng(0)

    # client model: cross-entropy through a relu hidden layer
    arch = nn.ArchSpec(20, (16,), 10)
    params = nn.init_params(arch, np.random.default_rng(1))
    batch_rng = np.random.default_rng(2)
    features = batch_rng.normal(size=(12, 20))
    labels = batch_rng.integers(0, 10, size=12)
    _, grad = nn.backward_ce(arch, params, features, labels)

    def client_loss(p):
        logits = nn.forward(arch, p, features)
        return nn.ce_loss_from_logits(logits, labels)

    coords = coord_rng.choice(params.size, size=120, replace=False)
    fd = central_diff(client_loss, params, coords)
    worst_client = max(rel_err(fd[k], grad[k]) for k in coords)
    assert worst_client < 1e-4

    # agent: unit learning rates make one update step expose the gradient
    hyper = ddpg.DdpgConfig(hidden=16, actor_lr=1.0, critic_lr=1.0, weight_decay=0.0)
    agent = ddpg.make_agent(6, 6, hyper, np.random.default_rng(3))
    tr_rng = np.random.default_rng(4)
    batch = []
    for _ in range(8):
        action = nn.softmax(tr_rng.normal(size=6)[None, :])[0]
        batch.append(
            ddpg.Transition(
                tr_rng.uniform(0, 1, 6), action,
                float(tr_rng.uniform(0, 1)), tr_rng.uniform(0, 1, 6),
            )
        )
    states = np.stack([t.state for t in batch])
    actions = np.stack([t.action for t in batch])
    y = ddpg.critic_target(agent, batch)

    critic_before = agent.critic.copy()

    def critic_loss(p):
        q = nn.forward(agent.critic_arch, p, np.hstack([states, actions]))[:, 0]
        return float(np.mean((q - y) ** 2))

    ddpg.update_critic(agent, batch)
    critic_grad = critic_before - agent.critic  # descent, lr 1
    coords = coord_rng.choice(critic_before.size, size=110, replace=False)
    fd = central_diff(critic_loss, critic_before, coords)
    worst_critic = max(rel_err(fd[k], critic_grad[k]) for k in coords)
    assert worst_critic < 1e-4
    agent.critic[:] = critic_before

    actor_before = agent.actor.copy()

    def actor_objective(p):
        acts = nn.softmax(nn.forward(agent.actor_arch, p, states))
        q = nn.forward(agent.critic_arch, agent.critic, np.hstack([states, acts]))
        return float(np.mean(q[:, 0]))

    ddpg.update_actor(agent, batch)
    actor_grad = agent.actor - actor_before  # ascent, lr 1
    coords = coord_rng.choice(actor_before.size, size=110, replace=False)
    fd = central_diff(actor_objective, actor_before, coords)
    worst_actor = max(rel_err(fd[k], actor_grad[k]) for k in coords)
    assert worst_actor < 1e-4

    assert time.perf_counter() - t0 < 30.0


def test_parameter_counts_match_reference_architectures():
    assert nn.param_count(nn.ArchSpec(784, (100,), 10)) == 79510
    assert nn.param_count(nn.ArchSpec(784, (100, 100), 62)) == 94862


def test_selection_excludes_same_value_attackers():
    # 16 honest vectors ~ N(0, 0.01) against 4 constant-vector attackers
    # at intensity 100; the top-30% rule must drop every attacker in at
    # least 99 of 100 seeded trials (a near-zero attacker draw can
    # legitimately sit inside the honest cluster)
    t0 = time.perf_counter()
    dim = 64
    clean_trials = 0
    for trial in range(100):
        rng = stream(0, "selection-robustness", trial)
        honest = rng.normal(0.0, 0.1, (16, dim))
        attackers = [attack_same_value(dim, 100.0, rng) for _ in range(4)]
        uploads = np.vstack([honest, *attackers])
        sel = selection.select_clients(list(range(20)), uploads, 30.0, "all_layers")
        if all(cid < 16 for cid in sel.selected_ids):
            clean_trials += 1
    assert clean_trials >= 99
    assert time.perf_counter() - t0 < 10.0


def test_sign_flip_robustness_beats_plain_averaging():
    # 30% sign-flipping clients: the learned aggregator must hold at
    # least 0.75 mean benign accuracy and beat size-weighted averaging
    # by at least 0.3, averaged over three seeds
    t0 = time.perf_counter()
    ours, baseline = [], []
    for seed in (0, 1, 2):
        cfg = trend_config(seed, malicious=0.3, attack=AttackSpec("sign_flip"))
        ours.append(final_benign_acc(orchestrator.run_experiment(cfg)))
        fedavg = replace(cfg, aggregator="fedavg")
        baseline.append(final_benign_acc(orchestrator.run_experiment(fedavg)))
    ours_mean = float(np.mean(ours))
    base_mean = float(np.mean(baseline))
    assert ours_mean >= 0.75, (ours, baseline)
    assert ours_mean - base_mean >= 0.3, (ours, baseline)
    assert time.perf_counter() - t0 < 600.0


def test_clean_runs_match_plain_averaging():
    # without attackers the learned aggregator must stay within 0.05 of
    # size-weighted averaging, averaged over three seeds
    t0 = time.perf_counter()
    ours, baseline = [], []
    for seed in (0, 1, 2):
        cfg = trend_config(seed)
        ours.append(final_benign_acc(orchestrator.run_experiment(cfg)))
        fedavg = replace(cfg, aggregator="fedavg")
        baseline.append(final_benign_acc(orchestrator.run_experiment(fedavg)))
    gap = abs(float(np.mean(ours)) - float(np.mean(baseline)))
    assert gap <= 0.05, (ours, baseline)
    assert time.perf_counter() - t0 < 600.0


def test_distance_threshold_beats_keeping_everyone():
    # with 20% constant-vector attackers, keeping the closest 80% must
    # do at least as well as keeping everyone (three-seed means)
    t0 = time.perf_counter()
    at_80, at_100 = [], []
    for seed in (0, 1, 2):
        attack = AttackSpec("same_value")
        cfg80 = trend_config(seed, malicious=0.2, attack=attack, m_percent=80.0)
        cfg100 = trend_config(seed, malicious=0.2, attack=attack, m_percent=100.0)
        at_80.append(final_benign_acc(orchestrator.run_experiment(cfg80)))
        at_100.append(final_benign_acc(orchestrator.run_experiment(cfg100)))
    assert float(np.mean(at_80)) >= float(np.mean(at_100)), (at_80, at_100)
    assert time.perf_counter() - t0 < 1200.0


def test_policy_concentrates_on_rewarded_arm():
    # stateless five-arm bandit paying exactly the weight on one arm:
    # the greedy action mass on that arm must cross 0.9 within 500
    # steps on every one of five seeds. The harness keeps a constant,
    # large logit noise so the replay buffer covers the simplex, and a
    # zero discount because the bandit has no successor state.
    t0 = time.perf_counter()
    k, target, steps = 5, 2, 500
    for seed in range(5):
        hyper = ddpg.DdpgConfig(hidden=64, gamma=0.0, actor_lr=0.1, critic_lr=0.2,
                                weight_decay=0.001, noise_sigma=1.5)
        agent = ddpg.make_agent(k, k, hyper, stream(seed, "bandit-agent"))
        explore = stream(seed, "bandit-explore")
        buf_rng = stream(seed, "bandit-buffer")
        buffer = ddpg.ReplayBuffer(10000)
        state = np.full(k, 1.0)
        crossed = None
        for t in range(steps):
            action = ddpg.act(agent, state, agent.cfg.noise_sigma, explore)
            buffer.push(ddpg.Transition(state, action, float(action[target]), state))
            if len(buffer) >= 64:
                batch = buffer.sample(min(64, len(buffer)), buf_rng)
                ddpg.update_critic(agent, batch)
                ddpg.update_actor(agent, batch)
            if t % 2 == 0:
                ddpg.soft_update(agent)
            if ddpg.act(agent, state)[target] > 0.9:
                crossed = t + 1
                break
        assert crossed is not None, f"seed {seed} never crossed 0.9"
    assert time.perf_counter() - t0 < 60.0


def test_unfair_validation_raises_dispersion():
    # label-skewed clients scored against a reward set that over-counts
    # two classes: the spread of benign accuracies (mean over the last
    # five rounds, then over three seeds) must be at least the spread
    # under a class-balanced reward set
    t0 = time.perf_counter()

    def dispersion(seed, per_class):
        cfg = config.ExperimentConfig(
            dataset=config.DatasetConfig(
                kind="synthetic_dirichlet", num_clients=20,
                total_samples=8000, dirichlet_concentration=0.3,
            ),
            rounds=40,
            local=nn.SgdConfig(learning_rate=0.1, batch_size=32, epochs=2),
            ddpg=config.DdpgConfig(),
            validation=config.ValidationConfig(per_class=per_class),
            seed=seed,
        )
        records = orchestrator.run_experiment(cfg)
        return float(np.mean([r.acc_std for r in records[-5:]]))

    unfair_counts = (100, 100, 10, 10, 10, 10, 10, 10, 10, 10)
    balanced = [dispersion(seed, 100) for seed in (0, 1, 2)]
    unfair = [dispersion(seed, unfair_counts) for seed in (0, 1, 2)]
    assert float(np.mean(unfair)) >= float(np.mean(balanced)), (unfair, balanced)
    assert time.perf_counter() - t0 < 1200.0


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "dataset = synthetic00\n"
        "dataset.num_clients = 8\n"
        "dataset.samples_per_client = 40\n"
        "rounds = 5\n"
        "m_percent = 50\n"
        "local.batch_size = 16\n"
        "local.epochs = 2\n"
        "ddpg.hidden = 32\n"
        "ddpg.warmup = 2\n"
        "ddpg.batch_size = 4\n"
    )
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", str(cfg_path), "--out", out_a]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", out_b]) == 0
    first = pathlib.Path(out_a, "results.csv").read_bytes()
    second = pathlib.Path(out_b, "results.csv").read_bytes()
    assert first == second


def test_invariant_suite_green():
    t0 = time.perf_counter()
    outcomes = {name: (ok, detail) for name, ok, detail in run_selftest()}
    needed = (
        "simplex_actions",
        "soft_update_arithmetic",
        "replay_buffer_fifo",
        "partition_completeness",
        "distance_symmetry",
        "aggregation_convex_hull",
        "parallel_training",
        "synthetic_population",
    )
    for name in needed:
        assert name in outcomes, f"missing invariant check {name}"
    failures = {n: d for n, (ok, d) in outcomes.items() if not ok}
    assert not failures, failures
    assert time.perf_counter() - t0 < 60.0
