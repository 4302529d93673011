"""Round loop wiring: aggregation, reward, fairness, full small runs."""

import re
import tracemalloc

import numpy as np
import pytest

from fedaa import clients, config, nn, orchestrator, results, selection
from fedaa.data import LabeledDataset
from fedaa.clients import ClientRecord
from fedaa.errors import ConfigError, FedaaError, InternalError, NumericError, SimulationError
from fedaa.seeding import stream
from fedaa.selection import top_count


def small_cfg(**overrides):
    """A config tiny enough to run in well under a second."""
    base = dict(
        dataset=config.DatasetConfig(
            kind="synthetic00", num_clients=6, samples_per_client=20
        ),
        rounds=3,
        local=nn.SgdConfig(learning_rate=0.05, batch_size=8, epochs=1),
        ddpg=config.DdpgConfig(hidden=16, warmup=2, batch_size=4),
        m_percent=50.0,
    )
    base.update(overrides)
    return config.ExperimentConfig(**base)


# ------------------------------------------------------------ primitives


def test_aggregate_hand_example():
    uploads = np.array([[1.0, 2.0], [3.0, 6.0]])
    merged = orchestrator.aggregate(uploads, np.array([0.25, 0.75]))
    assert np.allclose(merged, [2.5, 5.0], atol=1e-15)
    same = orchestrator.aggregate(uploads, np.array([1.0, 0.0]))
    assert np.array_equal(same, uploads[0])


def test_aggregate_rejects_bad_weights():
    uploads = np.zeros((2, 2))
    with pytest.raises(InternalError):
        orchestrator.aggregate(uploads, np.array([0.6, 0.6]))
    with pytest.raises(InternalError):
        orchestrator.aggregate(uploads, np.array([-0.2, 1.2]))
    with pytest.raises(ConfigError, match=r"uploads of shape \(2, 2\) for 3 weights"):
        orchestrator.aggregate(uploads, np.array([0.5, 0.25, 0.25]))
    # one upload row per weight: a flat vector is not a stack of uploads
    with pytest.raises(ConfigError, match=r"uploads of shape \(2,\) for 2 weights"):
        orchestrator.aggregate(np.zeros(2), np.array([0.5, 0.5]))


def test_aggregate_stays_inside_the_convex_hull_generated():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.floats(-1e300, 1e300, allow_subnormal=True)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        data=st.data(),
        m=st.integers(1, 6),
        d=st.integers(1, 5),
    )
    def check(data, m, d):
        rows = np.array(data.draw(st.lists(
            st.lists(value, min_size=d, max_size=d), min_size=m, max_size=m
        )))
        raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
        hypothesis.assume(raw.sum() > 0.0)
        w = raw / raw.sum()
        merged = orchestrator.aggregate(rows, w)
        # the stacked-list form the round loop used before uploads were one matrix
        assert merged.tobytes() == (w @ np.stack([row for row in rows])).tobytes()
        # each weight and product rounds once, and the sum of m terms m times
        tiny = np.finfo(np.float64).smallest_subnormal
        slack = 4 * m * (np.finfo(np.float64).eps * np.abs(rows).max(axis=0) + tiny)
        assert np.all(merged >= rows.min(axis=0) - slack)
        assert np.all(merged <= rows.max(axis=0) + slack)

    check()


def test_evaluate_reward_hand_oracle():
    # identity-ish logits: class = argmax(W x) with W selecting feature
    arch = nn.ArchSpec(2, (), 3)
    params = np.zeros(nn.param_count(arch))
    model = nn.MlpModel(arch, params)
    slices = nn.layer_slices(arch)
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # never predicts class 2
    params[slices[0][0]] = w.ravel()
    features = np.array([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
    labels = np.array([0, 1, 1, 1])  # predictions: 0 1 0 1 -> 3/4 correct
    val = LabeledDataset(features, labels, 3)
    acc, per_class = orchestrator.evaluate_reward(model, val)
    assert acc == 0.75
    assert per_class[0] == 1.0
    assert abs(per_class[1] - 2.0 / 3.0) < 1e-12
    assert per_class[2] == 0.0  # absent class scores zero


def test_evaluate_fairness_hand_oracle():
    arch = nn.ArchSpec(1, (), 2)
    # model A predicts class 1 iff x > 0 strongly; weights [w00 w01], bias
    always_one = np.array([0.0, 1.0, 0.0, 1.0])  # logit1 = x + 1 > logit0 = 0 for x >= 0
    model = nn.MlpModel(arch, always_one)
    feats = np.array([[1.0], [1.0], [1.0], [1.0], [1.0]])
    # client 0: 4/5 labels are 1 -> acc 0.8; client 1: all 1 -> acc 1.0
    c0 = ClientRecord(
        0, None,
        LabeledDataset(feats, np.array([1, 1, 1, 1, 0]), 2),
        LabeledDataset(feats, np.array([1, 1, 1, 1, 0]), 2),
    )
    c1 = ClientRecord(
        1, None,
        LabeledDataset(feats, np.ones(5, dtype=int), 2),
        LabeledDataset(feats, np.ones(5, dtype=int), 2),
    )
    metrics = orchestrator.evaluate_fairness([c0, c1], np.tile(always_one, (2, 1)), model)
    assert abs(metrics.mean_acc - 0.9) < 1e-12
    assert abs(metrics.acc_std - 0.1) < 1e-12  # population std of {0.8, 1.0}
    assert abs(metrics.mean_global_acc - 0.9) < 1e-12
    assert metrics.loss_std > 0.0
    # client c is scored with row c: client 1's local model predicts class 0
    always_zero = np.array([0.0, 0.0, 1.0, 0.0])
    metrics = orchestrator.evaluate_fairness([c0, c1], np.stack([always_one, always_zero]), model)
    assert abs(metrics.mean_acc - 0.4) < 1e-12  # mean of {0.8, 0.0}
    assert abs(metrics.mean_global_acc - 0.9) < 1e-12


def test_fairness_requires_a_benign_client():
    with pytest.raises(ConfigError, match="benign"):
        orchestrator.evaluate_fairness(
            [], np.zeros((0, 4)), nn.MlpModel(nn.ArchSpec(1, (), 2), np.zeros(4))
        )


def test_sample_participants():
    rng = np.random.default_rng(0)
    assert orchestrator.sample_participants(10, 1.0, rng) == list(range(10))
    half = orchestrator.sample_participants(10, 0.5, np.random.default_rng(1))
    assert len(half) == 5
    assert half == sorted(half)
    assert all(0 <= c < 10 for c in half)
    again = orchestrator.sample_participants(10, 0.5, np.random.default_rng(1))
    assert half == again
    # round-half-up cohort size
    assert len(orchestrator.sample_participants(5, 0.5, np.random.default_rng(2))) == 3
    with pytest.raises(ConfigError):
        orchestrator.sample_participants(10, 0.0, rng)


def test_subsystem_seeds_cover_labels():
    seeds = orchestrator.subsystem_seeds(7)
    assert set(seeds) == set(orchestrator.SUBSYSTEM_LABELS)
    assert len(set(seeds.values())) == len(seeds)
    assert seeds == orchestrator.subsystem_seeds(7)


def test_round_record_validates_weight_count():
    with pytest.raises(InternalError):
        orchestrator.RoundRecord(
            round=0, reward=0.5, mean_benign_acc=0.5, acc_std=0.0, acc_var=0.0,
            loss_std=0.0, mean_global_acc=0.5, selected_ids=[0, 1],
            action=[1.0], per_class_val_acc=[0.5],
        )


# ------------------------------------------------------------ experiments


def test_build_experiment_shapes():
    exp = orchestrator.build_experiment(small_cfg())
    assert len(exp.clients) == 6
    assert exp.cohort_size == 6
    assert exp.arch.input_dim == 60
    assert exp.arch.output_dim == 10
    m = top_count(50.0, 6)
    assert exp.agent.state_dim == m
    assert exp.agent.action_dim == m
    assert len(exp.buffer) == 0
    assert all(c.role == "benign" for c in exp.clients)
    # every client's initial local model matches the broadcast parameters
    assert exp.local_models.shape == (6, exp.initial_params.size)
    assert (exp.local_models == exp.initial_params).all()


def test_build_experiment_partial_participation_sets_agent_dims():
    cfg = small_cfg(participation_ratio=0.5)
    exp = orchestrator.build_experiment(cfg)
    assert exp.cohort_size == 3
    assert exp.agent.state_dim == top_count(50.0, 3)


def test_build_experiment_fedavg_skips_agent():
    exp = orchestrator.build_experiment(small_cfg(aggregator="fedavg"))
    assert exp.agent is None and exp.buffer is None


def test_run_records_well_formed():
    cfg = small_cfg(rounds=4)
    records = orchestrator.run_experiment(cfg)
    assert len(records) == 4
    m = top_count(cfg.m_percent, 6)
    for t, rec in enumerate(records):
        assert rec.round == t
        assert len(rec.selected_ids) == m
        assert len(rec.action) == m
        assert rec.selected_ids == sorted(rec.selected_ids)
        assert all(0 <= c < 6 for c in rec.selected_ids)
        assert abs(sum(rec.action) - 1.0) < 1e-9
        assert min(rec.action) >= 0.0
        assert 0.0 <= rec.reward <= 1.0
        assert len(rec.per_class_val_acc) == 10
        assert abs(rec.acc_var - rec.acc_std**2) < 1e-15


def test_round_zero_selection_uses_broadcast_copies():
    # identical uploads at round 0: distances all zero, lowest ids win
    cfg = small_cfg()
    records = orchestrator.run_experiment(cfg)
    m = top_count(cfg.m_percent, 6)
    assert records[0].selected_ids == list(range(m))


def test_run_is_deterministic():
    cfg = small_cfg(rounds=3)
    a = orchestrator.run_experiment(cfg)
    b = orchestrator.run_experiment(cfg)
    for ra, rb in zip(a, b):
        assert ra == rb


def test_seed_changes_trajectory():
    a = orchestrator.run_experiment(small_cfg(seed=0))
    b = orchestrator.run_experiment(small_cfg(seed=1))
    assert any(ra.reward != rb.reward for ra, rb in zip(a, b))


def test_fedavg_weights_proportional_to_sizes():
    cfg = small_cfg(
        aggregator="fedavg",
        dataset=config.DatasetConfig(
            kind="synthetic00", num_clients=4,
            samples_per_client=(20, 20, 40, 20),
        ),
        rounds=2,
        m_percent=30.0,
    )
    records = orchestrator.run_experiment(cfg)
    rec = records[0]
    assert rec.selected_ids == [0, 1, 2, 3]
    # 80 percent train split, then 2 samples per client move to the server pool
    sizes = np.array([14, 14, 30, 14], dtype=float)
    assert np.allclose(rec.action, sizes / sizes.sum(), atol=1e-12)


def test_buffer_grows_one_transition_per_round():
    cfg = small_cfg(rounds=5)
    exp = orchestrator.build_experiment(cfg)
    orchestrator.run_rounds(exp)
    assert len(exp.buffer) == 5


def test_agent_updates_after_warmup(monkeypatch):
    cfg = small_cfg(rounds=5, ddpg=config.DdpgConfig(hidden=16, warmup=3, batch_size=4))
    exp = orchestrator.build_experiment(cfg)
    batch_sizes = []
    update_critic = orchestrator.update_critic

    def counting_update_critic(agent, batch):
        batch_sizes.append(len(batch))
        return update_critic(agent, batch)

    monkeypatch.setattr(orchestrator, "update_critic", counting_update_critic)
    orchestrator.run_rounds(exp)
    # rounds 2, 3, 4 reach the warmup threshold (buffer sizes 3, 4, 5),
    # and each samples min(batch_size, buffer size) transitions
    assert batch_sizes == [3, 4, 4]


def test_errors_carry_round_prefix():
    # a huge rate with a hidden layer overflows activations within a round
    cfg = small_cfg(
        model_hidden=(4,),
        local=nn.SgdConfig(learning_rate=1e200, batch_size=8, epochs=2),
    )
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericError, match=r"^round 0: client \d+ \(benign\): non-finite loss"):
            orchestrator.run_experiment(cfg)


EXTREME_BASE = """\
dataset.num_clients = 10
dataset.samples_per_client = 40
rounds = 4
local.epochs = 2
local.batch_size = 16
malicious_fraction = 0.4
"""


def extreme_settings():
    for kind in clients.ATTACKS:
        scale = "attack.ipm_epsilon" if kind == "ipm" else "attack.tau"
        for extra in ((), (f"{scale} = 1e308",), (f"{scale} = 1e200", "m_percent = 100"),
                      ("local.lr = 50",), ("m_percent = 1",), ("m_percent = 100",),
                      ("participation_ratio = 0.2",)):
            yield (f"attack = {kind}", *extra)
    yield ("attack = sign_flip", "attack.tau = 1e308", "aggregator = fedavg")


# attacks whose uploads overflow to non-finite values, leaving too few
# finite uploads for a selection of every participant
OVERFLOWING_UPLOADS = {
    ("attack = sign_flip", "attack.tau = 1e200", "m_percent = 100"),
    ("attack = ipm", "attack.ipm_epsilon = 1e200", "m_percent = 100"),
}


@pytest.mark.parametrize("settings", extreme_settings(), ids=", ".join)
def test_extreme_config_finishes_or_fails_typed_in_its_round(settings):
    # fedavg runs no policy, so it takes no ddpg keys
    policy = () if "aggregator = fedavg" in settings else ("ddpg.warmup = 2",)
    cfg = config.parse_config_text(EXTREME_BASE + "\n".join(settings + policy) + "\n")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            records = orchestrator.run_experiment(cfg)
    except FedaaError as exc:
        assert type(exc) is not FedaaError
        assert str(exc).startswith("round ")
        if settings in OVERFLOWING_UPLOADS:
            # the selection error names the clients whose uploads overflowed:
            # attackers, and only attackers
            assert isinstance(exc, SimulationError)
            named = re.fullmatch(
                r"round \d+: only \d+ finite uploads for a selection of \d+; "
                r"non-finite uploads from clients ([\d, ]+)", str(exc)
            )
            assert named, str(exc)
            ids = {int(c) for c in named.group(1).split(", ")}
            exp = orchestrator.build_experiment(cfg)
            assert ids and ids <= {c.id for c in exp.clients if c.role == "malicious"}
    else:
        assert settings not in OVERFLOWING_UPLOADS
        assert len(results.records_to_rows(records)) == cfg.rounds


def test_selection_measures_each_distinct_upload_once(monkeypatch):
    # round 0 selects over broadcast copies of one vector, and every later
    # round over the benign uploads plus the one vector all ipm attackers send
    cfg = small_cfg(
        malicious_fraction=0.4, attack=clients.AttackSpec("ipm", ipm_epsilon=0.7)
    )
    exp = orchestrator.build_experiment(cfg)
    rows = []
    pdist = selection.pdist

    def counting_pdist(x):
        rows.append(len(x))
        return pdist(x)

    monkeypatch.setattr(selection, "pdist", counting_pdist)
    orchestrator.run_rounds(exp)
    benign = sum(c.role == "benign" for c in exp.clients)
    assert benign == 4
    assert rows == [1] + [benign + 1] * cfg.rounds


def test_benign_uploads_become_the_local_models():
    exp = orchestrator.build_experiment(
        small_cfg(malicious_fraction=0.4, attack=clients.AttackSpec("sign_flip"))
    )
    participants = [0, 2, 3, 5]
    uploads = orchestrator._collect_uploads(exp, participants, exp.initial_params, 0)
    for row, cid in enumerate(participants):
        want = uploads[row] if exp.clients[cid].role == "benign" else exp.initial_params
        assert np.array_equal(exp.local_models[cid], want), cid
    # only participants train; nothing reads an attacker's row
    for cid in (1, 4):
        assert np.array_equal(exp.local_models[cid], exp.initial_params)
    assert {exp.clients[c].role for c in participants} == {"benign", "malicious"}
    # the local models are copies, independent of the spent upload matrix
    assert not np.shares_memory(exp.local_models, uploads)


def test_local_models_are_written_without_a_second_upload_matrix(monkeypatch):
    # 30 benign clients of 7,110 parameters each, trained one per stack so
    # that no stack comes near the upload matrix in size
    cfg = small_cfg(
        dataset=config.DatasetConfig(kind="synthetic00", num_clients=30, samples_per_client=20),
        model_hidden=(100,),
    )
    exp = orchestrator.build_experiment(cfg)
    monkeypatch.setattr(clients, "STACK_BYTES", exp.initial_params.nbytes)
    participants = list(range(30))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        uploads = orchestrator._collect_uploads(exp, participants, exp.initial_params, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert (exp.local_models == uploads).all()
    # the upload matrix itself, and no gathered copy of its benign rows
    assert uploads.nbytes <= peak < 1.5 * uploads.nbytes


def test_ipm_uploads_equal_the_scaled_benign_mean():
    cfg = small_cfg(
        malicious_fraction=0.4, attack=clients.AttackSpec("ipm", ipm_epsilon=0.7)
    )
    exp = orchestrator.build_experiment(cfg)
    uploads = orchestrator._collect_uploads(exp, list(range(6)), exp.initial_params, 0)
    assert uploads.shape == (6, exp.initial_params.size)
    benign = [uploads[c.id] for c in exp.clients if c.role == "benign"]
    attackers = [uploads[c.id] for c in exp.clients if c.role == "malicious"]
    assert len(attackers) == 2
    expected = -0.7 * np.mean(np.stack(benign), axis=0)
    for upload in attackers:
        assert np.array_equal(upload, expected)
    # each attacker holds a row of its own
    assert not np.shares_memory(attackers[0], attackers[1])


def test_ipm_round_without_benign_uploads_fails():
    cfg = small_cfg(malicious_fraction=0.4, attack=clients.AttackSpec("ipm"))
    exp = orchestrator.build_experiment(cfg)
    attackers = [c.id for c in exp.clients if c.role == "malicious"]
    with pytest.raises(SimulationError, match=r"client \d+ \(malicious\): ipm attack requires"):
        orchestrator._collect_uploads(exp, attackers, exp.initial_params, 0)


def test_training_errors_are_raised_in_their_clients_turn(monkeypatch):
    # train_lockstep returns each failed client's error by row; the round
    # raises it in the client's turn, benign clients first, naming it
    exp = orchestrator.build_experiment(
        small_cfg(malicious_fraction=0.3, attack=clients.AttackSpec("sign_flip"))
    )
    (attacker,) = [c.id for c in exp.clients if c.role == "malicious"]
    last_benign = max(c.id for c in exp.clients if c.role == "benign")
    assert attacker < last_benign
    errors = {
        cid: NumericError(f"non-finite loss; first non-finite activations at layer {cid}")
        for cid in (attacker, last_benign)
    }
    train_lockstep = clients.train_lockstep

    def failing_train_lockstep(arch, cohort, *args):
        train_lockstep(arch, cohort, *args)
        return {row: errors[c.id] for row, c in enumerate(cohort) if c.id in errors}

    monkeypatch.setattr(orchestrator, "train_lockstep", failing_train_lockstep)
    with pytest.raises(NumericError) as raised:
        orchestrator._collect_uploads(exp, list(range(6)), exp.initial_params, 0)
    assert str(raised.value) == f"client {last_benign} (benign): {errors[last_benign]}"
    assert raised.value.__cause__ is errors[last_benign]


def train_alone(arch, client, global_params, cfg, rng):
    """The client's training as a stack of one: its parameters or its error."""
    params = np.tile(global_params, (1, 1))
    errors = nn.sgd_epoch(arch, params, [client.train.features],
                          [client.train.labels], cfg, [rng])
    return errors.get(0, params[0])


def per_client_uploads(exp, participants, global_params, round_index):
    """The straightforward round: one local_update per client, benign ones
    first, each training alone from its own stream into an upload of its
    own, and a benign client's upload copied as its local model; the
    uploads stacked in ascending client id."""
    uploads, benign = {}, []
    for cid in sorted(participants, key=lambda c: exp.clients[c].role != "benign"):
        client = exp.clients[cid]
        ipm = client.attack is not None and client.attack.kind == "ipm"
        rng = stream(exp.cfg.seed, "local", round_index, cid)
        uploads[cid] = np.empty(global_params.size)
        try:
            if clients.trains(client):
                trained = train_alone(exp.arch, client, global_params, exp.cfg.local, rng)
                if isinstance(trained, NumericError):
                    raise trained
                uploads[cid][:] = trained
            clients.local_update(
                client, uploads[cid], rng,
                benign_mean=clients.mean_upload(np.array(benign)) if ipm else None,
            )
        except FedaaError as exc:
            raise type(exc)(f"client {cid} ({client.role}): {exc}") from exc
        if client.role == "benign":
            benign.append(uploads[cid])
            exp.local_models[cid] = uploads[cid]
    return np.stack([uploads[c] for c in sorted(uploads)])


def mixed_experiment():
    # equal and distinct train sizes; benign, sign_flip and ipm clients
    cfg = small_cfg(
        dataset=config.DatasetConfig(
            kind="synthetic00", num_clients=12,
            samples_per_client=(20, 20, 30, 20, 30, 25, 20, 20, 30, 20, 25, 20),
        ),
        malicious_fraction=0.4,
        attack=clients.AttackSpec("sign_flip"),
        participation_ratio=0.75,
        local=nn.SgdConfig(learning_rate=0.05, batch_size=8, epochs=2),
    )
    exp = orchestrator.build_experiment(cfg)
    for client in [c for c in exp.clients if c.role == "malicious"][::2]:
        client.attack = clients.AttackSpec("ipm")
    return exp


@pytest.mark.parametrize("stack_bytes", [None, 2 * 8 * 610])
def test_lockstep_uploads_equal_per_client_updates(monkeypatch, stack_bytes):
    if stack_bytes is not None:
        monkeypatch.setattr(clients, "STACK_BYTES", stack_bytes)
    widths = []

    def counting_sgd_epoch(arch, params, *args):
        widths.append(len(params))
        return nn.sgd_epoch(arch, params, *args)

    monkeypatch.setattr(clients, "sgd_epoch", counting_sgd_epoch)
    lockstep, plain = mixed_experiment(), mixed_experiment()
    part_rng = stream(lockstep.cfg.seed, "participation")
    params = lockstep.initial_params
    kinds = set()
    for t in range(3):
        participants = orchestrator.sample_participants(12, 0.75, part_rng)
        got = orchestrator._collect_uploads(lockstep, participants, params, t)
        want = per_client_uploads(plain, participants, params, t)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert lockstep.local_models.tobytes() == plain.local_models.tobytes()
        kinds.update(lockstep.clients[c].attack.kind if lockstep.clients[c].attack else None
                     for c in participants)
        params = np.mean(want, axis=0)
    assert kinds == {None, "sign_flip", "ipm"}
    assert len(participants) < 12
    sizes = [len(c.train) for c in lockstep.clients if clients.trains(c)]
    assert len(set(sizes)) > 1 and len(set(sizes)) < len(sizes)
    # stacks of several clients, capped at two under the small budget
    assert max(widths) == 2 if stack_bytes else max(widths) > 2


def test_local_streams_only_for_clients_that_draw(monkeypatch):
    # ipm attackers draw nothing, so they get no stream; every other
    # client's stream, and so every upload, stays as it was (see
    # test_lockstep_uploads_equal_per_client_updates, whose oracle makes a
    # stream for every participant)
    exp = mixed_experiment()
    exp.clients[1].attack = clients.AttackSpec("gaussian")
    streamed = []

    def recording_stream(seed, *labels):
        if labels[0] == "local":
            streamed.append(labels[2])
        return stream(seed, *labels)

    monkeypatch.setattr(orchestrator, "stream", recording_stream)
    orchestrator._collect_uploads(exp, list(range(12)), exp.initial_params, 0)
    kinds = {c.id: c.attack.kind if c.attack else None for c in exp.clients}
    assert {"ipm", "sign_flip", "gaussian", None} <= set(kinds.values())
    assert streamed == [c for c in range(12) if kinds[c] != "ipm"]


def test_one_local_update_per_participant_and_stacks_cover_the_trainers(monkeypatch):
    # the benchmark's tracer counts the calls made through these two names
    cfg = small_cfg(rounds=4, malicious_fraction=0.3, attack=clients.AttackSpec("gaussian"),
                    participation_ratio=0.75)
    rounds = []
    collect, update, sgd = orchestrator._collect_uploads, orchestrator.local_update, nn.sgd_epoch

    def counting_collect(exp, participants, *args):
        trainers = sum(clients.trains(exp.clients[c]) for c in participants)
        rounds.append({"trainers": trainers, "updates": 0, "widths": 0})
        return collect(exp, participants, *args)

    def counting_update(*args, **kwargs):
        rounds[-1]["updates"] += 1
        return update(*args, **kwargs)

    def counting_sgd(arch, params, *args):
        rounds[-1]["widths"] += len(params)
        return sgd(arch, params, *args)

    monkeypatch.setattr(orchestrator, "_collect_uploads", counting_collect)
    monkeypatch.setattr(orchestrator, "local_update", counting_update)
    monkeypatch.setattr(clients, "sgd_epoch", counting_sgd)
    orchestrator.run_experiment(cfg)
    cohort = orchestrator.build_experiment(cfg).cohort_size
    assert cohort < cfg.dataset.num_clients
    assert [r["updates"] for r in rounds] == [cohort] * cfg.rounds
    assert [r["widths"] for r in rounds] == [r["trainers"] for r in rounds]
    assert min(r["trainers"] for r in rounds) < cohort


def diverging_experiment(huge_clients, huge_row=None):
    # benign clients of train sizes 14 and 22, alternating, so that clients
    # 0, 2, 4 share one stack and 1, 3, 5 another; the clients named get
    # features scaled to overflow, and client 3 optionally one huge row
    cfg = small_cfg(
        dataset=config.DatasetConfig(
            kind="synthetic00", num_clients=6, samples_per_client=(20, 30, 20, 30, 20, 30)
        ),
        model_hidden=(4,),
    )
    exp = orchestrator.build_experiment(cfg)
    assert [len(c.train) for c in exp.clients] == [14, 22] * 3
    for cid in huge_clients:
        train = exp.clients[cid].train
        exp.clients[cid].train = LabeledDataset(
            train.features * 1e200, train.labels, train.num_classes
        )
    if huge_row is not None:
        train = exp.clients[3].train
        features = train.features.copy()
        features[huge_row] = -1e200
        exp.clients[3].train = LabeledDataset(features, train.labels, train.num_classes)
    return exp


@pytest.mark.parametrize("huge_clients, huge_row, named", [
    # client 4's stack trains first, but client 3 comes first in the round
    ((3, 4), None, 3),
    # both stacks have a failing client; client 3, in the second, survives
    # its own shuffles
    ((4, 5), 9, 4),
])
def test_diverging_client_in_a_stack_is_named_as_when_training_alone(
    huge_clients, huge_row, named
):
    exp = diverging_experiment(huge_clients, huge_row)
    plain = diverging_experiment(huge_clients, huge_row)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as alone:
            per_client_uploads(plain, range(6), plain.initial_params, 0)
        with pytest.raises(NumericError) as stacked:
            orchestrator.run_rounds(exp)
        if huge_row is not None:
            # the precondition: client 3 diverges under its next shuffle
            rng = stream(exp.cfg.seed, "local", 0, 3)
            rng.permutation(22)
            trained = train_alone(exp.arch, exp.clients[3], exp.initial_params, exp.cfg.local, rng)
            assert isinstance(trained, NumericError)
    prefix = f"client {named} (benign): non-finite loss; first non-finite activations at layer"
    assert str(alone.value).startswith(prefix)
    assert str(stacked.value) == f"round 0: {alone.value}"


def small_experiment_pair():
    cfg = small_cfg(malicious_fraction=0.3, attack=clients.AttackSpec("sign_flip"))
    return orchestrator.build_experiment(cfg), orchestrator.build_experiment(cfg)


def test_guard_failing_on_finite_losses_leaves_uploads_unchanged(monkeypatch):
    # a last-class bias of -1e306 puts the shifted logits far below the
    # guard floor, while every loss stays finite
    calls = []

    def counting_loss(pre, labels):
        calls.append(len(labels))
        return nn.ce_loss_from_logits(pre[-1], labels)

    exp, plain = small_experiment_pair()
    params = exp.initial_params.copy()
    params[nn.layer_slices(exp.arch)[-1][1].stop - 1] = -1e306
    want = per_client_uploads(plain, range(6), params, 0)
    monkeypatch.setattr(nn, "_finite_ce_loss", counting_loss)
    got = orchestrator._collect_uploads(exp, list(range(6)), params, 0)
    assert calls
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()


def test_malicious_roles_materialized():
    cfg = small_cfg(
        dataset=config.DatasetConfig(
            kind="synthetic00", num_clients=10, samples_per_client=20
        ),
        malicious_fraction=0.3,
        attack=__import__("fedaa.clients", fromlist=["AttackSpec"]).AttackSpec("same_value"),
    )
    exp = orchestrator.build_experiment(cfg)
    bad = [c.id for c in exp.clients if c.role == "malicious"]
    assert len(bad) == 3
    assert all(exp.clients[c].attack.kind == "same_value" for c in bad)
    good = [c for c in exp.clients if c.role == "benign"]
    assert all(c.attack is None for c in good)


def test_run_fedavg_baseline_uses_same_environment():
    cfg = small_cfg(rounds=2)
    direct = orchestrator.run_experiment(
        config.ExperimentConfig(
            **{**cfg.__dict__, "aggregator": "fedavg"}
        )
    )
    helper = orchestrator.run_fedavg_baseline(cfg)
    for ra, rb in zip(direct, helper):
        assert ra == rb
