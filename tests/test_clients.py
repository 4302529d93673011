"""Roles, attack messages, and the per-client round step."""

import numpy as np
import pytest

from fedaa import clients, config, data, nn
from fedaa.errors import ConfigError, SimulationError
from fedaa.seeding import stream


ARCH = nn.ArchSpec(60, (), 10)  # logistic on synthetic features: 610 parameters


def make_client(cid=0, attack=None, seed=0, n=40):
    rng = np.random.default_rng(seed)
    spec = data.SyntheticSpec(0.0, 0.0, 1, (n,))
    train, test = data.generate_synthetic(spec, rng).clients[0]
    return clients.ClientRecord(cid, attack, train, test)


def update(client, broadcast, cfg, rng, benign_mean=None):
    """One client's round as the round loop runs it: train_lockstep on a
    cohort of one into its upload row, then local_update on that row.
    Returns the row."""
    uploads = np.empty((1, broadcast.size))
    assert clients.train_lockstep(ARCH, [client], broadcast, cfg, [rng], uploads) == {}
    clients.local_update(client, uploads[0], rng, benign_mean=benign_mean)
    return uploads[0]


def direct_sgd(client, broadcast, cfg, rng):
    """The client's training as a stack of one, straight from sgd_epoch."""
    params = np.tile(broadcast, (1, 1))
    assert nn.sgd_epoch(ARCH, params, [client.train.features],
                        [client.train.labels], cfg, [rng]) == {}
    return params[0]


# ------------------------------------------------------------ roles


def test_assign_roles_counts():
    assert len(clients.assign_roles(100, 0.3, np.random.default_rng(0))) == 30
    assert len(clients.assign_roles(20, 0.3, np.random.default_rng(0))) == 6
    assert len(clients.assign_roles(7, 0.45, np.random.default_rng(0))) == 3
    assert clients.assign_roles(50, 0.0, np.random.default_rng(0)) == []


def test_assign_roles_bounds_and_determinism():
    with pytest.raises(ConfigError):
        clients.assign_roles(10, 0.5, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        clients.assign_roles(10, -0.1, np.random.default_rng(0))
    a = clients.assign_roles(30, 0.4, np.random.default_rng(5))
    b = clients.assign_roles(30, 0.4, np.random.default_rng(5))
    assert a == b == sorted(set(a))
    assert all(0 <= i < 30 for i in a)


def test_attack_spec_defaults():
    assert clients.AttackSpec("same_value").tau == 100.0
    assert clients.AttackSpec("sign_flip").tau == 10.0
    assert clients.AttackSpec("gaussian").tau == 100.0
    assert clients.AttackSpec("gaussian", tau=7.0).tau == 7.0
    with pytest.raises(ConfigError):
        clients.AttackSpec("krum")
    with pytest.raises(ConfigError):
        clients.AttackSpec("gaussian", tau=0.0)
    with pytest.raises(ConfigError):
        clients.AttackSpec("ipm", ipm_epsilon=-1.0)
    # ipm scales by its epsilon; a tau would be silently ignored
    assert clients.AttackSpec("ipm").tau is None
    with pytest.raises(ConfigError, match="ipm"):
        clients.AttackSpec("ipm", tau=5.0)


def test_attack_table_drives_spec_config_and_training():
    assert tuple(clients.ATTACKS) == ("same_value", "sign_flip", "gaussian", "ipm")
    assert config.ALL_ATTACKS == ("none", *clients.ATTACKS)
    for kind, row in clients.ATTACKS.items():
        assert clients.AttackSpec(kind).tau == row.default_tau
        assert (kind in config.TAU_ATTACKS) == (row.default_tau is not None)
        client = make_client(attack=clients.AttackSpec(kind))
        assert clients.trains(client) == row.trains
        # only ipm, which takes no tau and trains not, leaves its local stream alone
        assert clients.draws(client) == (kind != "ipm")
    assert clients.trains(make_client())
    assert clients.draws(make_client())


def test_role_follows_from_the_attack():
    assert make_client().role == "benign"
    for kind in clients.ATTACKS:
        client = make_client(attack=clients.AttackSpec(kind))
        assert client.role == "malicious"
        client.attack = None
        assert client.role == "benign"
    # the role is read, never stored, so it cannot disagree with the attack
    with pytest.raises(AttributeError):
        make_client().role = "malicious"


# ------------------------------------------------------------ messages


def test_same_value_message_is_constant():
    drawn = clients.attack_same_value(8, 100.0, np.random.default_rng(2))
    magnitude = np.random.default_rng(2).normal(0.0, 100.0)
    assert np.array_equal(drawn, np.full(8, magnitude))
    again = clients.attack_same_value(8, 100.0, np.random.default_rng(2))
    assert np.array_equal(drawn, again)


def test_sign_flip_message_flips_and_scales():
    honest = np.array([1.0, -2.0, 0.0, 4.0])
    # seeds whose magnitude draw is positive and negative: the magnitude
    # enters through its absolute value
    draws = {seed: np.random.default_rng(seed).normal(0.0, 10.0) for seed in (3, 4)}
    assert draws[3] > 0 > draws[4]
    for seed, magnitude in draws.items():
        flipped = clients.attack_sign_flip(honest, 10.0, np.random.default_rng(seed))
        assert np.array_equal(flipped, -abs(magnitude) * honest)
        nonzero = honest != 0
        assert np.all(np.sign(flipped[nonzero]) == -np.sign(honest[nonzero]))


def test_gaussian_message_scale():
    msg = clients.attack_gaussian(20000, 100.0, np.random.default_rng(4))
    assert abs(np.std(msg) - 100.0) / 100.0 < 0.1
    assert abs(np.mean(msg)) < 2.0


def test_ipm_message_hand_computed():
    # the message is -epsilon times the mean of the benign upload rows
    benign = np.array([np.ones(610), 3.0 * np.ones(610)])
    assert np.array_equal(clients.mean_upload(benign), np.full(610, 2.0))
    for epsilon, expected in ((0.5, -1.0), (2.0, -4.0)):
        spec = clients.AttackSpec("ipm", ipm_epsilon=epsilon)
        client = make_client(attack=spec)
        upload = np.empty(610)
        clients.local_update(
            client, upload, np.random.default_rng(5),
            benign_mean=clients.mean_upload(benign),
        )
        assert np.allclose(upload, expected)
    with pytest.raises(SimulationError):
        clients.mean_upload(np.empty((0, 610)))


# ------------------------------------------------------------ local updates


def test_benign_update_matches_direct_sgd():
    client = make_client()
    broadcast = np.zeros(610)
    cfg = nn.SgdConfig(learning_rate=0.1, batch_size=16, epochs=2)
    upload = update(client, broadcast, cfg, np.random.default_rng(7))
    direct = direct_sgd(client, broadcast, cfg, np.random.default_rng(7))
    assert np.array_equal(upload, direct)


def test_identical_clients_produce_identical_uploads():
    a = make_client(seed=9)
    b = make_client(seed=9)
    cfg = nn.SgdConfig(epochs=1, batch_size=8)
    up_a = update(a, np.zeros(610), cfg, np.random.default_rng(3))
    up_b = update(b, np.zeros(610), cfg, np.random.default_rng(3))
    assert up_a.tobytes() == up_b.tobytes()


def test_sign_flip_trains_then_flips():
    spec = clients.AttackSpec("sign_flip", tau=10.0)
    client = make_client(attack=spec)
    broadcast = np.zeros(610)
    cfg = nn.SgdConfig(learning_rate=0.1, batch_size=16, epochs=1)
    upload = update(client, broadcast, cfg, np.random.default_rng(8))
    # replay the exact stream: training consumes first, then the magnitude draw
    rng = np.random.default_rng(8)
    honest = direct_sgd(client, broadcast, cfg, rng)
    magnitude = rng.normal(0.0, 10.0)
    assert np.array_equal(upload, -abs(magnitude) * honest)


def test_same_value_client_ignores_data_and_skips_training():
    spec = clients.AttackSpec("same_value", tau=100.0)
    a = make_client(attack=spec, seed=10)
    b = make_client(attack=spec, seed=11)  # different data
    broadcast = np.ones(610) * 0.5
    cfg = nn.SgdConfig(epochs=3)
    up_a = update(a, broadcast, cfg, np.random.default_rng(12))
    up_b = update(b, broadcast, cfg, np.random.default_rng(12))
    assert np.array_equal(up_a, up_b)
    assert np.all(up_a == up_a[0])


def test_gaussian_client_sends_noise_and_skips_training():
    spec = clients.AttackSpec("gaussian", tau=100.0)
    client = make_client(attack=spec)
    broadcast = np.full(610, 0.25)
    upload = update(client, broadcast, nn.SgdConfig(epochs=1), np.random.default_rng(13))
    # no permutation draws come before the noise
    assert np.array_equal(upload, clients.attack_gaussian(610, 100.0, np.random.default_rng(13)))


def test_ipm_client_uses_benign_uploads():
    spec = clients.AttackSpec("ipm", ipm_epsilon=0.5)
    client = make_client(attack=spec)
    benign = np.array([np.ones(610), 3.0 * np.ones(610)])
    upload = np.empty(610)
    clients.local_update(
        client, upload, np.random.default_rng(14), benign_mean=clients.mean_upload(benign),
    )
    assert np.allclose(upload, -1.0)
    with pytest.raises(SimulationError):
        clients.local_update(client, upload, np.random.default_rng(15))


def test_broadcast_dimension_mismatch():
    # a broadcast that does not fit the architecture fails before training
    with pytest.raises(ConfigError):
        update(make_client(), np.zeros(5), nn.SgdConfig(epochs=1), np.random.default_rng(16))
