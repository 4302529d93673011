"""Roles, attack messages, and the per-client round step."""

import dataclasses
import errno
import functools
import mmap
import os
import pickle
import signal
import threading
from multiprocessing.reduction import ForkingPickler

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
    ((train, test),) = data.generate_synthetic(0.0, 0.0, (n,), rng)
    return clients.ClientRecord(cid, attack, train, test)


def seeded(seed):
    """The streams of a cohort of one: client 0 draws from a generator
    seeded with ``seed``."""
    return lambda c: np.random.default_rng(seed)


def update(client, broadcast, cfg, streams, benign_mean=None):
    """One client's round as the round loop runs it: train_lockstep on a
    cohort of one, client 0, into its row, then local_update on that
    row. Returns the row."""
    with clients.TrainingPool([client], ARCH, cfg, broadcast, 1, np.arange(1)) as pool:
        assert clients.train_lockstep([client], broadcast, streams, pool) == {}
    clients.local_update(client, pool.out[0], streams, benign_mean=benign_mean)
    return pool.out[0]


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
    assert [f.name for f in dataclasses.fields(clients.AttackSpec)] == ["kind", "scale"]
    assert clients.AttackSpec("same_value").scale == 100.0
    assert clients.AttackSpec("sign_flip").scale == 10.0
    assert clients.AttackSpec("gaussian").scale == 100.0
    assert clients.AttackSpec("ipm").scale == 0.5
    assert clients.AttackSpec("gaussian", scale=7.0).scale == 7.0
    assert clients.AttackSpec("gaussian", scale=100.0) == clients.AttackSpec("gaussian")
    with pytest.raises(ConfigError):
        clients.AttackSpec("krum")
    for kind in clients.ATTACKS:
        for scale in (0.0, -1.0, float("nan"), -float("inf")):
            with pytest.raises(ConfigError, match="scale"):
                clients.AttackSpec(kind, scale=scale)
    # one scale a kind: no second scale to accept and then ignore
    with pytest.raises(TypeError):
        clients.AttackSpec("gaussian", ipm_epsilon=7.0)


def test_attack_table_drives_spec_config_and_training():
    assert tuple(clients.ATTACKS) == ("same_value", "sign_flip", "gaussian", "ipm")
    assert config.ALL_ATTACKS == ("none", *clients.ATTACKS)
    for kind, row in clients.ATTACKS.items():
        assert clients.AttackSpec(kind).scale == row.default_scale
        # attack.tau and attack.ipm_epsilon split the kinds by the flag
        assert (kind in config.TAU_ATTACKS) == (not row.scales_benign_mean)
        assert (kind in config.IPM_ATTACKS) == row.scales_benign_mean
        client = make_client(attack=clients.AttackSpec(kind))
        assert clients.trains(client) == row.trains
    assert clients.trains(make_client())


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
        spec = clients.AttackSpec("ipm", scale=epsilon)
        client = make_client(attack=spec)
        upload = np.empty(610)
        clients.local_update(
            client, upload, seeded(5), benign_mean=clients.mean_upload(benign, [0, 1]),
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
    upload = update(client, broadcast, cfg, seeded(7))
    direct = direct_sgd(client, broadcast, cfg, np.random.default_rng(7))
    assert np.array_equal(upload, direct)


def test_identical_clients_produce_identical_uploads():
    a = make_client(seed=9)
    b = make_client(seed=9)
    cfg = nn.SgdConfig(epochs=1, batch_size=8)
    up_a = update(a, np.zeros(610), cfg, seeded(3))
    up_b = update(b, np.zeros(610), cfg, seeded(3))
    assert up_a.tobytes() == up_b.tobytes()


def test_sign_flip_trains_then_flips():
    spec = clients.AttackSpec("sign_flip", scale=10.0)
    client = make_client(attack=spec)
    broadcast = np.zeros(610)
    cfg = nn.SgdConfig(learning_rate=0.1, batch_size=16, epochs=1)
    upload = update(client, broadcast, cfg, seeded(8))
    # replay the exact stream: training consumes first, then the magnitude draw
    rng = np.random.default_rng(8)
    honest = direct_sgd(client, broadcast, cfg, rng)
    magnitude = rng.normal(0.0, 10.0)
    assert np.array_equal(upload, -abs(magnitude) * honest)


def test_same_value_client_ignores_data_and_skips_training():
    spec = clients.AttackSpec("same_value", scale=100.0)
    a = make_client(attack=spec, seed=10)
    b = make_client(attack=spec, seed=11)  # different data
    broadcast = np.ones(610) * 0.5
    cfg = nn.SgdConfig(epochs=3)
    up_a = update(a, broadcast, cfg, seeded(12))
    up_b = update(b, broadcast, cfg, seeded(12))
    assert np.array_equal(up_a, up_b)
    assert np.all(up_a == up_a[0])


def test_gaussian_client_sends_noise_and_skips_training():
    spec = clients.AttackSpec("gaussian", scale=100.0)
    client = make_client(attack=spec)
    broadcast = np.full(610, 0.25)
    upload = update(client, broadcast, nn.SgdConfig(epochs=1), seeded(13))
    # no permutation draws come before the noise
    assert np.array_equal(upload, clients.attack_gaussian(610, 100.0, np.random.default_rng(13)))


def test_ipm_client_uses_benign_uploads():
    spec = clients.AttackSpec("ipm", scale=0.5)
    client = make_client(attack=spec)
    benign = np.array([np.ones(610), 3.0 * np.ones(610)])
    upload = np.empty(610)
    clients.local_update(
        client, upload, seeded(14), benign_mean=clients.mean_upload(benign, [0, 1]),
    )
    assert np.allclose(upload, -1.0)
    with pytest.raises(SimulationError):
        clients.local_update(client, upload, seeded(15))


def test_broadcast_dimension_mismatch():
    # a broadcast that does not fit the architecture fails before training
    with pytest.raises(ConfigError):
        update(make_client(), np.zeros(5), nn.SgdConfig(epochs=1), seeded(16))


# ------------------------------------------------------------ shares


def cohort_of(sizes, attacks=(), huge=(), seed=0):
    """Clients of the given train-plus-test sizes; ``attacks`` maps ids to
    attack kinds, and the clients in ``huge`` have features scaled to
    overflow, so their training diverges."""
    part = data.generate_synthetic(0.0, 0.0, sizes, np.random.default_rng(seed))
    kinds = dict(attacks)
    cohort = []
    for cid, (train, test) in enumerate(part):
        if cid in huge:
            train = data.LabeledDataset(train.features * 1e200, train.labels, train.num_classes)
        attack = clients.AttackSpec(kinds[cid]) if cid in kinds else None
        cohort.append(clients.ClientRecord(cid, attack, train, test))
    return cohort


@np.errstate(over="ignore", invalid="ignore")  # the pool's children inherit it at the fork
def train_round(cohort, processes=1, cfg=nn.SgdConfig(learning_rate=0.5, batch_size=16, epochs=2),
                rounds=1, kill=None, stacked_as=None):
    """train_lockstep and then local_update for every client, as the round
    loop runs them, on a pool of ``processes`` over ``rounds`` rounds from
    one broadcast; returns the last round's rows and the errors by client
    id. ``kill``, if given, runs on
    the pool before the last round. With ``stacked_as``, the rounds train
    here, in turn, the stacks that a pool of that many processes splits
    them into."""
    broadcast = nn.init_params(ARCH, np.random.default_rng(99))
    with clients.TrainingPool(cohort, ARCH, cfg, broadcast, processes, np.arange(len(cohort))) as pool:
        out = pool.out
        for index in range(rounds):
            if kill is not None and index == rounds - 1:
                kill(pool)
            streams = functools.partial(stream, 4, "local", index)
            out[:] = -7.0
            if stacked_as is None:
                errors = clients.train_lockstep(cohort, broadcast, streams, pool)
            else:
                shares = clients.lockstep_shares(cohort, cfg, broadcast.size, stacked_as)
                stacks = [ids for share in shares for ids in share]
                errors = clients._train(pool, broadcast, stacks, streams)
            for client in cohort:
                if client.attack is None or client.attack.kind != "ipm":
                    clients.local_update(client, out[client.id], streams)
    return out.copy(), {cid: str(exc) for cid, exc in errors.items()}


@pytest.fixture
def forks(forks, monkeypatch):
    monkeypatch.setattr(clients, "STACK_BYTES", 2 * 610 * 8)  # stacks of two clients
    return forks


def settled(result):
    """A train_round result without the rows of the clients that failed:
    those hold whatever their stack left, and a split round stacks
    narrower than an unsplit one; nothing reads them, as the round raises
    the error."""
    out, errors = result
    kept = [row for row in range(len(out)) if row not in errors]
    return out[kept].tobytes(), errors


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
    # every row, the failed clients' too, as its stack trains in one
    # process; and but for those, as the unsplit round
    assert got[0].tobytes() == same_stacks[0].tobytes()
    assert got[1] == same_stacks[1]
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


def pool_of(cohort, cfg, cpus):
    """A training pool, not entered, of ``cohort`` on ``cpus`` CPUs."""
    return clients.TrainingPool(cohort, ARCH, cfg, np.zeros(ARCH_SIZE), cpus, np.arange(len(cohort)))


def test_a_pool_has_a_process_per_cpu_where_the_population_splits(monkeypatch):
    monkeypatch.setattr(clients, "SPLIT_STEPS", 4 * 2)  # two epochs of 4 batches
    cfg = nn.SgdConfig(batch_size=16, epochs=2)
    assert pool_of(cohort_of([50] * 4), cfg, 3).processes == 1
    assert pool_of(cohort_of([70] * 6), cfg, 3).processes == 3
    # no more processes than stacks
    assert pool_of(cohort_of([70] * 2), cfg, 3).processes == 2


def test_the_matrix_is_shared_memory_only_where_the_pool_forks(forks):
    # train_round's config and broadcast
    cfg = nn.SgdConfig(learning_rate=0.5, batch_size=16, epochs=2)
    broadcast = nn.init_params(ARCH, np.random.default_rng(99))
    alone = clients.TrainingPool(cohort_of([50] * 4), ARCH, cfg, broadcast, 1, np.arange(4))
    assert alone.processes == 1
    # numpy's own memory, each row the broadcast to begin with
    assert alone.out.flags.owndata and (alone.out == broadcast).all()
    cohort = cohort_of([100, 50])
    pool = clients.TrainingPool(cohort, ARCH, cfg, broadcast, 2, np.arange(2))
    assert pool.processes == 2 and (pool.out == broadcast).all()
    assert isinstance(pool.out.base.base.obj, mmap.mmap)
    # the child trains client 1, whose row this process then reads
    assert clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 2)[1] == [[1]]
    with pool:
        assert len(forks) == 1
        streams = functools.partial(stream, 4, "local", 0)
        assert clients.train_lockstep(cohort, broadcast, streams, pool) == {}
    assert not (pool.out[1] == broadcast).any()
    assert pool.out.tobytes() == train_round(cohort)[0].tobytes()
    assert_no_child_left()


def test_a_round_of_few_steps_trains_in_one_process(monkeypatch):
    monkeypatch.setattr(clients, "SPLIT_STEPS", 4 * 2)  # two epochs of 4 batches
    cohort = cohort_of([50] * 4)  # 40 train rows: 3 batches of 16
    cfg = nn.SgdConfig(batch_size=16, epochs=2)
    assert len(clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 2)) == 1
    cohort = cohort_of([70] * 4)  # 56 train rows: 4 batches
    assert [len(s) for s in clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 2)] == [1, 1]


def holds_a_generator(pickled):
    """Whether pickle bytes hold a numpy Generator or a bit generator's
    state (a dict keyed by "bit_generator")."""
    return b"numpy.random" in pickled or b"bit_generator" in pickled


def holds_inherited_state(pickled):
    """Whether pickle bytes hold an ArchSpec or an SgdConfig, which a pool
    child inherits by fork."""
    return b"ArchSpec" in pickled or b"SgdConfig" in pickled


def record_pickles(monkeypatch, log):
    """Wrap Connection.send, through which a pool's tasks and replies cross
    its connections, so that each message appends "pid bytes
    holds_a_generator holds_inherited_state" to ``log`` from the process
    that sends it."""
    send = clients.Connection.send

    def recorded(self, obj):
        pickled = bytes(ForkingPickler.dumps(obj))
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(pickled)} {holds_a_generator(pickled)} "
                     f"{holds_inherited_state(pickled)}\n")
        return send(self, obj)

    monkeypatch.setattr(clients.Connection, "send", recorded)


def recorded_pickles(log):
    """The recorded messages as (tasks, replies), each a list of (bytes,
    holds_a_generator, holds_inherited_state): this process sends the
    tasks, a child the replies."""
    tasks, replies = [], []
    for line in log.read_text().splitlines():
        pid, size, generator, inherited = line.split()
        dump = (int(size), generator == "True", inherited == "True")
        (tasks if int(pid) == os.getpid() else replies).append(dump)
    return tasks, replies


def test_no_generator_or_generator_state_crosses_a_pipe(forks, monkeypatch, tmp_path):
    # the child trains, and so draws for, sign flipper 1 and diverging
    # client 3; the gaussian and ipm clients draw here, if at all
    assert holds_a_generator(pickle.dumps(np.random.default_rng(0)))
    assert holds_a_generator(pickle.dumps(np.random.default_rng(0).bit_generator.state))
    assert holds_inherited_state(pickle.dumps(ARCH))
    assert holds_inherited_state(pickle.dumps(nn.SgdConfig()))
    cohort = cohort_of([100, 100, 50, 50, 50, 30], huge={3},
                       attacks={1: "sign_flip", 2: "sign_flip", 4: "gaussian", 5: "ipm"})
    cfg = nn.SgdConfig(learning_rate=0.5, batch_size=16, epochs=2)  # train_round's
    assert clients.lockstep_shares(cohort, cfg, ARCH_SIZE, 2)[1] == [[1], [3]]
    log = tmp_path / "pickles"
    record_pickles(monkeypatch, log)
    got = train_round(cohort, 2, rounds=2)
    assert len(forks) == 1
    tasks, replies = recorded_pickles(log)
    assert len(tasks) == len(replies) == 2
    assert not any(generator for _, generator, _ in tasks + replies)
    # nor the architecture or the SGD config, which the child inherited
    assert not any(inherited for _, _, inherited in tasks)
    assert list(got[1]) == [3]
    assert settled(got) == settled(train_round(cohort, rounds=2))
    assert_no_child_left()


def test_a_child_share_of_thousands_of_trainers_comes_back_whole(forks, monkeypatch, tmp_path):
    monkeypatch.setattr(clients, "STACK_BYTES", 1000 * 610 * 8)  # stacks of a thousand
    # the child's 2,000 clients all diverge but its sign flipper, and its
    # reply of their errors, well over the 64 KiB a pipe holds, comes back
    # as one whole message
    cohort = cohort_of([5] * 4000, attacks={3999: "sign_flip"}, huge=set(range(3999)))
    log = tmp_path / "pickles"
    record_pickles(monkeypatch, log)
    got = train_round(cohort, 2)
    assert len(forks) == 1
    (reply,) = recorded_pickles(log)[1]
    assert reply[0] > 64 * 1024
    assert list(got[1]) != [] and 3999 not in got[1]
    want = train_round(cohort)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert_no_child_left()


def test_the_multi_threaded_fork_warning_loses_no_child(monkeypatch, forks):
    monkeypatch.setattr(clients.os, "fork", warning_fork(os.fork))
    cohort = cohort_of([100, 50], attacks={1: "sign_flip"})
    got = train_round(cohort, 2)
    assert len(forks) == 1
    want = train_round(cohort)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert_no_child_left()


def test_a_diverging_client_in_a_child_is_returned_by_id(forks):
    # the longer stack trains in this process, the shorter in the child
    cohort = cohort_of([100, 50], huge={1})
    out, errors = train_round(cohort, 2)
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
        for pid, _ in pool.children:
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
    assert got[1] == want[1]
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_pipe_trains_its_share_here(monkeypatch, forks):
    pipe, made = clients.Pipe, []

    def second_fails():
        if len(made) == 1:  # the second child's connection
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        made.append(pipe())
        return made[-1]

    monkeypatch.setattr(clients, "Pipe", second_fails)
    cohort = cohort_of([100, 60, 50], attacks={1: "sign_flip"})
    fds = sorted(os.listdir("/proc/self/fd"))
    got = train_round(cohort, 3)
    assert len(forks) == 1
    assert sorted(os.listdir("/proc/self/fd")) == fds
    want = train_round(cohort)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]
    assert_no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_pool_holds_one_descriptor_per_child(forks):
    cohort, cfg = cohort_of([50] * 6), nn.SgdConfig(batch_size=16, epochs=2)
    fds = len(os.listdir("/proc/self/fd"))
    with pool_of(cohort, cfg, 3) as pool:
        assert len(forks) == 2
        # the child's end of each connection is closed here
        assert len(os.listdir("/proc/self/fd")) == fds + len(pool.children) == fds + 2
    assert len(os.listdir("/proc/self/fd")) == fds
    assert_no_child_left()


def test_a_pool_forks_only_with_processes_fork_and_no_other_threads(monkeypatch, forks):
    # 8 clients in 4 stacks of two
    cohort, cfg = cohort_of([50] * 8), nn.SgdConfig(batch_size=16, epochs=2)
    assert pool_of(cohort, cfg, 4).processes == 4
    with pool_of(cohort, cfg, 1) as pool:
        assert not pool.children
    # a fork copies only the calling thread
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with pool_of(cohort, cfg, 4) as pool:
            assert not pool.children
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(clients.os, "fork")
    with pool_of(cohort, cfg, 4) as pool:
        assert not pool.children
    assert not forks
