"""Roles, attack messages, and the per-client round step."""

import os
import signal
import threading

import numpy as np
import pytest

from fedaa import clients, config, data, nn
from fedaa.errors import ConfigError, SimulationError
from fedaa.seeding import stream

from conftest import assert_no_child_left, warning_fork


ARCH = nn.ArchSpec(60, (), 10)  # logistic on synthetic features: 610 parameters
ARCH_SIZE = nn.param_count(ARCH)


def make_client(cid=0, attack=None, seed=0, n=40):
    rng = np.random.default_rng(seed)
    spec = data.SyntheticSpec(0.0, 0.0, 1, (n,))
    train, test = data.generate_synthetic(spec, rng).clients[0]
    return clients.ClientRecord(cid, attack, train, test)


def update(client, broadcast, cfg, rng, benign_mean=None):
    """One client's round as the round loop runs it: train_lockstep on a
    cohort of one, client 0, into its row, then local_update on that
    row. Returns the row."""
    models = np.empty((1, broadcast.size))
    with clients.TrainingPool([client], models, 1) as pool:
        assert clients.train_lockstep(ARCH, [client], broadcast, cfg, {0: rng}, pool) == {}
    clients.local_update(client, models[0], rng, benign_mean=benign_mean)
    return models[0]


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
    assert np.array_equal(clients.mean_upload(benign, [0, 1]), np.full(610, 2.0))
    for epsilon, expected in ((0.5, -1.0), (2.0, -4.0)):
        spec = clients.AttackSpec("ipm", ipm_epsilon=epsilon)
        client = make_client(attack=spec)
        upload = np.empty(610)
        clients.local_update(
            client, upload, np.random.default_rng(5),
            benign_mean=clients.mean_upload(benign, [0, 1]),
        )
        assert np.allclose(upload, expected)
    with pytest.raises(SimulationError):
        clients.mean_upload(np.empty((0, 610)), [])


def test_mean_upload_equals_the_mean_of_the_gathered_rows_generated():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.floats(-1e300, 1e300, allow_subnormal=True)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 9))
    def check(data, n, d):
        models = np.array(data.draw(st.lists(
            st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n
        )))
        ids = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        want = np.mean(models[ids], axis=0)
        assert clients.mean_upload(models, ids).tobytes() == want.tobytes()

    check()
    # the server_heavy shape: 120 benign rows of 14,210 among 200
    models = np.random.default_rng(6).normal(size=(200, 14_210))
    ids = sorted(np.random.default_rng(7).choice(200, size=120, replace=False).tolist())
    assert clients.mean_upload(models, ids).tobytes() == np.mean(models[ids], axis=0).tobytes()


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
        client, upload, np.random.default_rng(14), benign_mean=clients.mean_upload(benign, [0, 1]),
    )
    assert np.allclose(upload, -1.0)
    with pytest.raises(SimulationError):
        clients.local_update(client, upload, np.random.default_rng(15))


def test_broadcast_dimension_mismatch():
    # a broadcast that does not fit the architecture fails before training
    with pytest.raises(ConfigError):
        update(make_client(), np.zeros(5), nn.SgdConfig(epochs=1), np.random.default_rng(16))


# ------------------------------------------------------------ shares


def cohort_of(sizes, attacks=(), huge=(), seed=0):
    """Clients of the given train-plus-test sizes; ``attacks`` maps ids to
    attack kinds, and the clients in ``huge`` have features scaled to
    overflow, so their training diverges."""
    spec = data.SyntheticSpec(0.0, 0.0, len(sizes), tuple(sizes))
    part = data.generate_synthetic(spec, np.random.default_rng(seed))
    kinds = dict(attacks)
    cohort = []
    for cid, (train, test) in enumerate(part.clients):
        if cid in huge:
            train = data.LabeledDataset(train.features * 1e200, train.labels, train.num_classes)
        attack = clients.AttackSpec(kinds[cid]) if cid in kinds else None
        cohort.append(clients.ClientRecord(cid, attack, train, test))
    return cohort


def train_round(cohort, processes=1, cfg=nn.SgdConfig(learning_rate=0.5, batch_size=16, epochs=2),
                rounds=1, kill=None, stacked_as=None):
    """train_lockstep and then local_update for every client, as the round
    loop runs them, on a pool of ``processes`` over ``rounds`` rounds from
    one broadcast; returns the last round's rows, the errors by client
    id, and each generator's state afterwards. ``kill``, if given, runs on
    the pool before the last round. With ``stacked_as``, the rounds train
    here, in turn, the stacks that a pool of that many processes splits
    them into."""
    broadcast = nn.init_params(ARCH, np.random.default_rng(99))
    out = clients.shared_rows(len(cohort), broadcast.size)
    with clients.TrainingPool(cohort, out, processes) as pool:
        for index in range(rounds):
            if kill is not None and index == rounds - 1:
                kill(pool)
            rngs = {c.id: stream(4, "local", index, c.id) if clients.draws(c) else None
                    for c in cohort}
            out[:] = -7.0
            with np.errstate(over="ignore", invalid="ignore"):
                if stacked_as is None:
                    errors = clients.train_lockstep(ARCH, cohort, broadcast, cfg, rngs, pool)
                else:
                    shares = clients.lockstep_shares(cohort, cfg, broadcast.size, stacked_as)
                    stacks = [ids for share in shares for ids in share]
                    errors = clients._train(ARCH, cfg, broadcast, stacks, cohort, rngs, out)
            for client in cohort:
                c = client.id
                if c not in errors and client.attack is not None and client.attack.kind != "ipm":
                    clients.local_update(client, out[c], rngs[c])
    states = [None if r is None else r.bit_generator.state for r in rngs.values()]
    return out.copy(), {cid: str(exc) for cid, exc in errors.items()}, states


@pytest.fixture
def forks(forks, monkeypatch):
    monkeypatch.setattr(clients, "STACK_BYTES", 2 * 610 * 8)  # stacks of two clients
    return forks


def settled(result):
    """A train_round result without the rows and generators of the clients
    that failed: those hold whatever their stack left, and a split round
    stacks narrower than an unsplit one; nothing reads them, as the round
    raises the error."""
    out, errors, states = result
    kept = [row for row in range(len(out)) if row not in errors]
    return out[kept].tobytes(), errors, [states[row] for row in kept]


@pytest.mark.parametrize("processes", [1, 2, 3, 4])
def test_a_pool_trains_byte_for_byte_as_one_process(forks, processes):
    sizes = [*data.lognormal_sizes(9, np.random.default_rng(5), median=40.0), 30, 30, 30]
    cohort = cohort_of(sizes, attacks={1: "sign_flip", 2: "gaussian", 4: "ipm", 9: "sign_flip"},
                       huge={3, 10})
    same_stacks = train_round(cohort, rounds=3, stacked_as=processes)
    unsplit = train_round(cohort, rounds=3)
    assert not forks
    got = train_round(cohort, processes, rounds=3)
    # forked once for the three rounds
    assert len(forks) == processes - 1
    assert set(got[1]) == {3, 10}
    # every row and generator, the failed clients' too, as its stack
    # trains in one process; and but for those, as the unsplit round
    assert got[0].tobytes() == same_stacks[0].tobytes()
    assert got[1:] == same_stacks[1:]
    assert settled(got) == settled(unsplit)
    assert_no_child_left()


def test_a_split_round_stacks_each_group_over_the_processes(forks):
    # 8 clients of one train size and 3 of another; stacks of at most two
    cohort = cohort_of([50] * 8 + [30] * 3)
    cfg = nn.SgdConfig(batch_size=16, epochs=2)
    one = clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 1)
    assert [[len(rows) for rows in share] for share in one] == [[2, 2, 2, 2, 2, 1]]
    three = clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 3)
    # no stack wider than its group over three, nor than two
    assert sorted(len(rows) for share in three for rows in share) == [1, 1, 1, 2, 2, 2, 2]
    assert sorted(r for share in three for rows in share for r in rows) == list(range(11))
    assert len(three) == 3


def test_a_pool_has_a_process_per_cpu_where_the_population_splits(monkeypatch):
    monkeypatch.setattr(clients, "SPLIT_STEPS", 4 * 2)  # two epochs of 4 batches
    monkeypatch.setattr(clients, "usable_cpus", lambda: 3)
    cfg = nn.SgdConfig(batch_size=16, epochs=2)
    assert clients.pool_size(cohort_of([50] * 4), cfg, ARCH_SIZE) == 1
    assert clients.pool_size(cohort_of([70] * 6), cfg, ARCH_SIZE) == 3
    # no more processes than stacks
    assert clients.pool_size(cohort_of([70] * 2), cfg, ARCH_SIZE) == 2


def test_a_round_of_few_steps_trains_in_one_process(monkeypatch):
    monkeypatch.setattr(clients, "SPLIT_STEPS", 4 * 2)  # two epochs of 4 batches
    cohort = cohort_of([50] * 4)  # 40 train rows: 3 batches of 16
    cfg = nn.SgdConfig(batch_size=16, epochs=2)
    assert len(clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 2)) == 1
    cohort = cohort_of([70] * 4)  # 56 train rows: 4 batches
    assert [len(s) for s in clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 2)] == [1, 1]


def test_a_child_share_of_thousands_of_trainers_comes_back_whole(forks, monkeypatch):
    monkeypatch.setattr(clients, "STACK_BYTES", 1000 * 610 * 8)  # stacks of a thousand
    # 2000 generators in the child's task and reply pickles, well over
    # the 64 KiB a pipe holds, so each crosses in several reads
    cohort = cohort_of([5] * 4000, attacks={3999: "sign_flip"})
    got = train_round(cohort, 2)
    assert len(forks) == 1
    want = train_round(cohort)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
    assert_no_child_left()


def test_the_multi_threaded_fork_warning_loses_no_child(monkeypatch, forks):
    monkeypatch.setattr(clients.os, "fork", warning_fork(os.fork))
    cohort = cohort_of([100, 50], attacks={1: "sign_flip"})
    got = train_round(cohort, 2)
    assert len(forks) == 1
    want = train_round(cohort)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
    assert_no_child_left()


def test_a_diverging_client_in_a_child_is_returned_by_id(forks):
    # the longer stack trains in this process, the shorter in the child
    cohort = cohort_of([100, 50], huge={1})
    out, errors, _ = train_round(cohort, 2)
    assert len(forks) == 1
    assert list(errors) == [1] and errors[1].startswith("non-finite loss")
    assert np.isfinite(out[0]).all()
    assert train_round(cohort)[1] == errors
    assert_no_child_left()


@pytest.mark.parametrize("bad", [0, 1], ids=["in this process", "in the child"])
def test_an_error_in_any_share_comes_back_typed(forks, bad):
    cohort = cohort_of([100, 50])
    # a train split of the wrong width fails sgd_epoch's checks
    train = cohort[bad].train
    cohort[bad].train = data.LabeledDataset(train.features[:, :59], train.labels, train.num_classes)
    with pytest.raises(ConfigError, match="incompatible with input_dim 60"):
        train_round(cohort, 2)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_child_that_dies_fails_the_round_typed(monkeypatch, forks):
    monkeypatch.setattr(clients, "_serve", lambda *args: os._exit(3))
    with pytest.raises(SimulationError, match="a training process exited without its results"):
        train_round(cohort_of([100, 50]), 2)
    assert_no_child_left()


def test_a_child_killed_between_rounds_fails_the_round_typed(forks):
    def kill(pool):
        # from outside, as the pool reaps its own children
        for pid, _, _ in pool.children:
            os.kill(pid, signal.SIGKILL)

    with pytest.raises(SimulationError, match="a training process exited without its results"):
        train_round(cohort_of([100, 50]), 2, rounds=2, kill=kill)
    assert len(forks) == 1
    assert_no_child_left()


def test_a_failed_fork_trains_its_share_here(monkeypatch, forks):
    def no_fork():
        raise BlockingIOError("no more processes")

    monkeypatch.setattr(clients.os, "fork", no_fork)
    cohort = cohort_of([100, 60, 50], attacks={1: "sign_flip"})
    got, want = train_round(cohort, 3), train_round(cohort)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
    assert_no_child_left()


def test_a_pool_forks_only_with_processes_fork_and_no_other_threads(monkeypatch, forks):
    out = clients.shared_rows(1, 1)
    with clients.TrainingPool([], out, 1) as pool:
        assert not pool.children
    # a fork copies only the calling thread
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with clients.TrainingPool([], out, 4) as pool:
            assert not pool.children
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(clients.os, "fork")
    with clients.TrainingPool([], out, 4) as pool:
        assert not pool.children
    assert not forks
