"""Round loop wiring: aggregation, reward, fairness, full small runs."""

import os
import pathlib
import re
import signal
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.spatial.distance

from fedaa import clients, config, nn, orchestrator, reference, results, selection
from fedaa.data import LabeledDataset
from fedaa.clients import ClientRecord
from fedaa.errors import ConfigError, FedaaError, InternalError, NumericError, SimulationError
from fedaa.seeding import stream
from fedaa.selection import top_count

from conftest import assert_no_child_left


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
    slices = nn.layer_slices(arch)
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # never predicts class 2
    params[slices[0][0]] = w.ravel()
    features = np.array([[2.0, 1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
    labels = np.array([0, 1, 1, 1])  # predictions: 0 1 0 1 -> 3/4 correct
    val = LabeledDataset(features, labels, 3)
    acc, per_class = orchestrator.evaluate_reward(arch, params, val)
    assert acc == 0.75
    assert per_class[0] == 1.0
    assert abs(per_class[1] - 2.0 / 3.0) < 1e-12
    assert per_class[2] == 0.0  # absent class scores zero


def test_evaluate_fairness_hand_oracle():
    arch = nn.ArchSpec(1, (), 2)
    # model A predicts class 1 iff x > 0 strongly; weights [w00 w01], bias
    always_one = np.array([0.0, 1.0, 0.0, 1.0])  # logit1 = x + 1 > logit0 = 0 for x >= 0
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
    metrics = orchestrator.evaluate_fairness(
        [c0, c1], arch, np.tile(always_one, (2, 1)), always_one, np.arange(2)
    )
    assert abs(metrics["mean_benign_acc"] - 0.9) < 1e-12
    assert abs(metrics["acc_std"] - 0.1) < 1e-12  # population std of {0.8, 1.0}
    assert metrics["acc_var"] == metrics["acc_std"] ** 2
    assert abs(metrics["mean_global_acc"] - 0.9) < 1e-12
    assert metrics["loss_std"] > 0.0
    # client c is scored with row c: client 1's local model predicts class 0
    always_zero = np.array([0.0, 0.0, 1.0, 0.0])
    metrics = orchestrator.evaluate_fairness(
        [c0, c1], arch, np.stack([always_one, always_zero]), always_one, np.arange(2)
    )
    assert abs(metrics["mean_benign_acc"] - 0.4) < 1e-12  # mean of {0.8, 0.0}
    assert abs(metrics["mean_global_acc"] - 0.9) < 1e-12


def test_fairness_requires_a_benign_client():
    with pytest.raises(ConfigError, match="benign"):
        orchestrator.evaluate_fairness([], nn.ArchSpec(1, (), 2), np.zeros((0, 4)), np.zeros(4),
                                       np.arange(0))


def test_stacked_fairness_equals_the_per_client_loop_generated():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    gaussian = clients.AttackSpec("gaussian")
    # (test size, attacks) per client, in id order
    population = st.lists(
        st.tuples(st.one_of(st.sampled_from([1, 7, 8, 9, 129]), st.integers(1, 140)), st.booleans()),
        min_size=1, max_size=12,
    )

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    # explicit cases: every hidden depth, the test sizes where matmul and the
    # sums change paths, attackers between benign ids, and groups wider
    # than a stack (width: stack rows under a shrunk FAIRNESS_STACK_BYTES)
    @hypothesis.example(hidden=(), input_dim=3, classes=4, scale=1.0, width=None, seed=0,
                        specs=[(1, False), (7, True), (8, False), (9, False), (129, False),
                               (8, False), (1, False)])
    @hypothesis.example(hidden=(6,), input_dim=5, classes=3, scale=30.0, width=2, seed=1,
                        specs=[(9, False), (9, True), (9, False), (9, False), (9, False),
                               (1, False), (1, True), (1, False), (1, False)])
    @hypothesis.example(hidden=(5, 4), input_dim=2, classes=5, scale=0.1, width=1, seed=2,
                        specs=[(129, False), (8, True), (129, False), (7, False), (129, False)])
    @hypothesis.given(
        hidden=st.lists(st.integers(1, 12), max_size=2).map(tuple),
        input_dim=st.integers(1, 6),
        classes=st.integers(2, 5),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
        width=st.one_of(st.none(), st.integers(1, 4)),
        seed=st.integers(0, 2**32),
        specs=population,
    )
    def check(hidden, input_dim, classes, scale, width, seed, specs):
        hypothesis.assume(not all(attacks for _, attacks in specs))
        rng = np.random.default_rng(seed)
        arch = nn.ArchSpec(input_dim, hidden, classes)
        d = nn.param_count(arch)
        population = []
        for cid, (n, attacks) in enumerate(specs):
            split = LabeledDataset(rng.normal(size=(n, input_dim)), rng.integers(0, classes, n), classes)
            population.append(ClientRecord(cid, gaussian if attacks else None, split, split))
        models = scale * rng.normal(size=(len(specs), d))
        global_params = scale * rng.normal(size=d)
        want_scores, want = reference.per_client_fairness(population, arch, models, global_params)
        with pytest.MonkeyPatch.context() as patch:
            if width is not None:
                patch.setattr(orchestrator, "FAIRNESS_STACK_BYTES", width * 8 * d)
            rows = np.arange(len(specs))
            scores = orchestrator.benign_scores(population, arch, models, global_params, rows)
            got = orchestrator.evaluate_fairness(population, arch, models, global_params, rows)
        assert [s.tolist() for s in scores] == list(want_scores)
        assert got == want

    check()


def test_fairness_stacks_are_capped_and_score_each_benign_client_once(monkeypatch):
    arch = nn.ArchSpec(4, (3,), 2)
    d = nn.param_count(arch)  # 23
    rng = np.random.default_rng(3)
    population = [
        ClientRecord(cid, clients.AttackSpec("ipm") if cid % 5 == 2 else None, split, split)
        for cid, n in enumerate([3, 5, 3, 3, 5, 3, 3, 3, 5, 3, 3, 3])
        for split in [LabeledDataset(rng.normal(size=(n, 4)), rng.integers(0, 2, n), 2)]
    ]
    models = rng.normal(size=(len(population), d))
    stacks = []
    forward = orchestrator.forward

    def recorded(arch, params, batch):
        if params.ndim == 2:
            stacks.append((params.nbytes, batch.shape[1], [r.tobytes() for r in params]))
        return forward(arch, params, batch)

    monkeypatch.setattr(orchestrator, "forward", recorded)
    monkeypatch.setattr(orchestrator, "FAIRNESS_STACK_BYTES", 3 * 8 * d + 7)
    orchestrator.evaluate_fairness(population, arch, models, np.zeros(d), np.arange(len(population)))
    # 7 benign clients of 3 test rows in stacks of 3, 3, 1; 3 of 5 rows in one
    assert [(size // (8 * d), n) for size, n, _ in stacks] == [(3, 3), (3, 3), (1, 3), (3, 5)]
    benign = [c for c in population if c.role == "benign"]
    by_size = sorted(benign, key=lambda c: len(c.test))  # stable: ids ascend within a size
    assert [row for *_, rows in stacks for row in rows] == [models[c.id].tobytes() for c in by_size]


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


def test_the_manifest_names_every_top_level_stream_a_run_draws(monkeypatch):
    drawn = set()

    def recording(master, label, *parts):
        drawn.add(label)
        return stream(master, label, *parts)

    monkeypatch.setattr(orchestrator, "stream", recording)
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: 1)  # the streams stay here
    # a lognormal synthetic run draws sizes and a server pool, a
    # synthetic_dirichlet run a validation set and a partition
    for dataset in (
        config.DatasetConfig(kind="synthetic00", num_clients=6, samples_per_client="lognormal"),
        config.DatasetConfig(kind="synthetic_dirichlet", num_clients=6, total_samples=600),
    ):
        orchestrator.run_experiment(
            small_cfg(dataset=dataset, validation=config.ValidationConfig(per_class=5))
        )
    assert "local" in drawn
    assert drawn - {"local"} == set(orchestrator.SUBSYSTEM_LABELS)


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


def test_build_experiment_partial_participation_sets_agent_dims():
    cfg = small_cfg(participation_ratio=0.5)
    exp = orchestrator.build_experiment(cfg)
    assert exp.cohort_size == 3
    assert exp.agent.state_dim == top_count(50.0, 3)


def test_build_experiment_fedavg_skips_agent():
    exp = orchestrator.build_experiment(small_cfg(aggregator="fedavg"))
    assert exp.agent is None and exp.buffer is None


@pytest.mark.parametrize("kind", ["synthetic11", "synthetic_dirichlet"])
def test_a_synthetic_build_checks_as_many_sets_at_any_population(monkeypatch, kind):
    # the population is checked as a whole and its clients' sets are row
    # views of it, so the checks do not grow with the clients
    made = []
    check = LabeledDataset.__post_init__

    def counted(self):
        made.append(len(self))
        check(self)

    monkeypatch.setattr(LabeledDataset, "__post_init__", counted)
    counts = []
    for num_clients in (10, 200):
        dataset = config.DatasetConfig(kind=kind, num_clients=num_clients, samples_per_client=20,
                                       total_samples=20 * num_clients)
        # synthetic_dirichlet's validation rows come from its pooled source
        per_class = 2 if kind == "synthetic_dirichlet" else None
        exp = orchestrator.build_experiment(
            small_cfg(dataset=dataset, validation=config.ValidationConfig(per_class=per_class))
        )
        assert len(exp.clients) == num_clients
        counts.append(len(made))
        made.clear()
    assert counts[0] == counts[1] == 1


def _experiment_bytes(exp):
    """Everything a built experiment holds that a run reads, as bytes."""
    out = [exp.val_set.features.tobytes(), exp.val_set.labels.tobytes(), exp.initial_params.tobytes()]
    for client in exp.clients:
        out += [client.train.features.tobytes(), client.train.labels.tobytes(),
                client.test.features.tobytes(), client.test.labels.tobytes(), client.attack]
    agent = exp.agent
    nets = () if agent is None else (agent.actor, agent.critic, agent.target_actor, agent.target_critic)
    return out + [net.tobytes() for net in nets]


def test_code_built_config_and_its_canonical_text_build_the_same_experiment_generated():
    # the direction test_emit_parse_round_trip does not cover: a config
    # built in code, not parsed, holds nothing its canonical text (and so
    # its config hash) leaves out
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    datasets = config.SYNTHETIC_KINDS + ("synthetic_dirichlet",)
    seen = set()

    @st.composite
    def configs(draw):
        kind = draw(st.sampled_from(datasets))
        count = draw(st.integers(2, 12))
        pinned = config.PINNED_SPREAD.get(kind)
        # a pinned kind's spread is left out or passed as its pin
        spread = st.floats(0.0, 2.0) if pinned is None else st.sampled_from((None, pinned))
        dataset = {name: value for name in ("alpha", "beta")
                   for value in [draw(spread)] if value is not None}
        validation = config.ValidationConfig()
        if kind == "synthetic_dirichlet":
            dataset.update(total_samples=draw(st.integers(max(100, 5 * count), 60 * count)),
                           dirichlet_concentration=draw(st.floats(0.05, 2.0)))
            validation = config.ValidationConfig(per_class=draw(st.integers(1, 5)))
        else:
            dataset.update(samples_per_client=draw(st.one_of(
                st.integers(5, 60), st.lists(st.integers(5, 60), min_size=count, max_size=count)
                .map(tuple))))
        # an attack needs floor(fraction * count) >= 1 attackers
        attack_kind = draw(st.sampled_from((None, *clients.ATTACKS))) if count >= 3 else None
        attack = None if attack_kind is None else clients.AttackSpec(
            attack_kind, draw(st.one_of(st.none(), st.floats(1e-3, 1e3)))
        )
        return config.ExperimentConfig(
            dataset=config.DatasetConfig(kind=kind, num_clients=count, **dataset),
            model_hidden=draw(st.sampled_from(((), (3,)))),
            malicious_fraction=0.0 if attack is None else draw(st.floats(1 / count, 0.49)),
            attack=attack,
            m_percent=draw(st.floats(10.0, 100.0)),
            participation_ratio=draw(st.floats(0.3, 1.0)),
            ddpg=config.DdpgConfig(hidden=draw(st.integers(1, 8))),
            validation=validation,
            aggregator=draw(st.sampled_from(config.AGGREGATORS)),
            seed=draw(st.integers(0, 1000)),
        )

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @hypothesis.given(configs())
    def check(cfg):
        try:
            from_text = orchestrator.build_experiment(config.parse_config_text(config.emit_config(cfg)))
        except ConfigError:
            hypothesis.reject()
        assert _experiment_bytes(orchestrator.build_experiment(cfg)) == _experiment_bytes(from_text)
        seen.update((cfg.dataset.kind, cfg.attack and cfg.attack.kind, cfg.aggregator))

    # one example of each dataset kind, attack kind and aggregator, as
    # hypothesis draws differently with the modules loaded
    for index, attack in enumerate((None, *clients.ATTACKS)):
        check = hypothesis.example(config.ExperimentConfig(
            dataset=config.DatasetConfig(kind=datasets[index % len(datasets)], num_clients=10,
                                         samples_per_client=20, total_samples=400),
            malicious_fraction=0.0 if attack is None else 0.3,
            attack=attack and clients.AttackSpec(attack),
            aggregator=config.AGGREGATORS[index % 2],
            validation=config.ValidationConfig(per_class=2), m_percent=50.0,
            ddpg=config.DdpgConfig(hidden=4),
        ))(check)
    check()
    assert seen == {*datasets, *clients.ATTACKS, *config.AGGREGATORS, None}


@pytest.mark.parametrize("text, message", [
    ("dataset = synthetic_dirichlet\ndataset.num_clients = 50\ndataset.total_samples = 200\n",
     "dataset.total_samples = 200 with dataset.num_clients = 50 leaves 4 samples a client; "
     "synthetic_dirichlet needs at least 5"),
    ("dataset.num_clients = 10\nparticipation_ratio = 0.1\n",
     "participation_ratio = 0.1 with dataset.num_clients = 10 yields a cohort of 1; "
     "the distance selector needs at least 2"),
    ("dataset.num_clients = 10\nparticipation_ratio = 0.01\naggregator = fedavg\n",
     "participation_ratio = 0.01 with dataset.num_clients = 10 yields an empty cohort"),
], ids=["dirichlet samples", "fedaa cohort", "fedavg cohort"])
def test_a_config_too_small_for_its_run_fails_typed(text, message):
    # checked when the config is built, so a sweep checks it before any cell runs
    with pytest.raises(ConfigError) as caught:
        config.parse_config_text(text)
    assert str(caught.value) == message


def write_idx(images_path, labels_path, images, labels):
    """An IDX pair: unsigned-byte images of shape (count, rows, cols) and
    their labels."""
    count, rows, cols = images.shape
    header = np.array([2051, count, rows, cols], dtype=">u4").tobytes()
    images_path.write_bytes(header + images.astype(np.uint8).tobytes())
    labels_path.write_bytes(np.array([2049, count], dtype=">u4").tobytes()
                            + labels.astype(np.uint8).tobytes())


def loaded_configs(tmp_path):
    """A 900-row CSV of 5 features and a 900-image 4 x 4 IDX pair, each of
    3 classes of 300 rows, and a config text that runs each."""
    rng = np.random.default_rng(11)
    labels = np.arange(900) % 3
    table = np.column_stack([rng.normal(size=(900, 5)) + labels[:, None], labels])
    csv = tmp_path / "table.csv"
    np.savetxt(csv, table, delimiter=",", header="a,b,c,d,e,label", comments="")
    write_idx(tmp_path / "images.idx", tmp_path / "labels.idx",
              rng.integers(0, 256, size=(900, 4, 4)), labels)
    base = "dataset.num_clients = 10\nrounds = 3\nlocal.epochs = 2\n"
    return {
        "csv": f"dataset = csv\ndataset.csv_path = {csv}\n" + base,
        "idx": (f"dataset = idx\ndataset.idx_images = {tmp_path / 'images.idx'}\n"
                f"dataset.idx_labels = {tmp_path / 'labels.idx'}\n" + base
                + "malicious_fraction = 0.2\nattack = gaussian\n"),
    }


@pytest.mark.parametrize("kind, text, message", [
    ("csv", "validation.per_class = 1,2\n",
     "validation.per_class = 1,2: 2 class counts given for 3 classes"),
    ("csv", "validation.per_class = 301\n",
     "validation.per_class = 301: class 0: need 301 samples, source has 300"),
    ("csv", "dataset.num_clients = 61\n",
     "dataset.num_clients = 61: source has 600 samples, need >= 610"),
    (None, "dataset = synthetic_dirichlet\ndataset.num_clients = 10\n",
     "validation.per_class = 100 (unset): class 7: need 100 samples, source has 89"),
], ids=["count list length", "count above the source", "csv clients", "dirichlet short"])
def test_a_data_error_names_its_config_key(tmp_path, kind, text, message):
    base = loaded_configs(tmp_path)[kind].replace("dataset.num_clients = 10\n", "") if kind else ""
    with pytest.raises(ConfigError) as caught:
        orchestrator.build_experiment(config.parse_config_text(base + text))
    assert str(caught.value) == message


@pytest.mark.parametrize("kind", ["csv", "idx"])
def test_a_loaded_dataset_runs_byte_identically_with_100_validation_rows_per_class(
    tmp_path, kind
):
    cfg = config.parse_config_text(loaded_configs(tmp_path)[kind])
    assert cfg.validation.per_class is None
    exp = orchestrator.build_experiment(cfg)
    assert np.bincount(exp.val_set.labels).tolist() == [100, 100, 100]
    assert sum(len(c.train) + len(c.test) for c in exp.clients) == 600
    written = []
    for rerun in ("a", "b"):
        path = tmp_path / f"results-{rerun}.csv"
        results.emit_results(orchestrator.run_experiment(cfg), str(path), "csv")
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + cfg.rounds


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


# a huge rate with a hidden layer overflows activations within a round
OVERFLOWING = dict(model_hidden=(4,), local=nn.SgdConfig(learning_rate=1e200, batch_size=8, epochs=2))


def test_errors_carry_round_prefix():
    with pytest.raises(NumericError, match=r"^round 0: client \d+ \(benign\): non-finite loss"):
        orchestrator.run_experiment(small_cfg(**OVERFLOWING))


# the numpy error handling a run keeps whatever the caller's: its checks
# report a value gone non-finite, typed
RUN_ERRSTATE = {"divide": "warn", "over": "ignore", "under": "ignore", "invalid": "ignore"}


def test_a_run_restores_the_callers_error_handling(monkeypatch):
    seen = []
    evaluate_reward = orchestrator.evaluate_reward

    def recording(*args):
        seen.append(np.geterr())
        return evaluate_reward(*args)

    monkeypatch.setattr(orchestrator, "evaluate_reward", recording)
    with np.errstate(divide="raise", over="print", under="warn", invalid="raise"):
        callers = np.geterr()
        orchestrator.run_experiment(small_cfg())
        assert np.geterr() == callers
        with pytest.raises(NumericError):
            orchestrator.run_experiment(small_cfg(**OVERFLOWING))
        assert np.geterr() == callers
    assert len(seen) == 4 and all(state == RUN_ERRSTATE for state in seen)


def run_outcome(cfg, path):
    """The results.csv bytes of a run of ``cfg``, or its error's type and
    message."""
    try:
        records = orchestrator.run_experiment(cfg)
    except FedaaError as exc:
        return type(exc), str(exc)
    results.emit_results(records, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("overflows", [False, True], ids=["finishes", "overflows"])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_run_ignores_the_callers_error_handling(monkeypatch, forks, tmp_path, cpus, overflows):
    # on two CPUs a forked child trains half of every round, under the
    # handling that it inherits from the run
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: cpus)
    cfg = small_cfg(**(OVERFLOWING if overflows else {}))
    want = run_outcome(cfg, tmp_path / "want.csv")
    with np.errstate(all="raise"):
        got = run_outcome(cfg, tmp_path / "got.csv")
    assert got == want
    assert isinstance(want, tuple) == overflows
    if overflows:
        assert want[0] is NumericError and want[1].startswith("round 0: client ")
    assert len(forks) == 2 * (cpus - 1)
    assert_no_child_left()


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


# attacks whose uploads overflow to non-finite values, or to values beyond
# selection.LIMIT, leaving too few measurable uploads for a selection of
# every participant
OVERFLOWING_UPLOADS = {
    ("attack = sign_flip", "attack.tau = 1e200", "m_percent = 100"),
    ("attack = ipm", "attack.ipm_epsilon = 1e200", "m_percent = 100"),
    ("attack = same_value", "attack.tau = 1e200", "m_percent = 100"),
}


@pytest.mark.parametrize("settings", extreme_settings(), ids=", ".join)
def test_extreme_config_finishes_or_fails_typed_in_its_round(settings):
    # fedavg runs no policy, so it takes no ddpg keys
    policy = () if "aggregator = fedavg" in settings else ("ddpg.warmup = 2",)
    cfg = config.parse_config_text(EXTREME_BASE + "\n".join(settings + policy) + "\n")
    try:
        records = orchestrator.run_experiment(cfg)
    except FedaaError as exc:
        assert type(exc) is not FedaaError
        assert str(exc).startswith("round ")
        if settings in OVERFLOWING_UPLOADS:
            # the selection error names the clients whose uploads overflowed:
            # attackers, and only attackers
            assert isinstance(exc, SimulationError)
            named = re.fullmatch(
                r"round \d+: only \d+ measurable uploads for a selection of \d+; "
                r"clients ([\d, ]+) uploaded values that are non-finite or beyond \+-2\^480",
                str(exc),
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
    # round over the benign uploads plus the one vector all ipm attackers
    # send; 5 rows of 610 take the numpy route, squareform(pdist(.)) bit
    # for bit, and scipy's pdist never runs
    cfg = small_cfg(
        malicious_fraction=0.4, attack=clients.AttackSpec("ipm", scale=0.7)
    )
    exp = orchestrator.build_experiment(cfg)
    rows = []
    pdist, squareform = scipy.spatial.distance.pdist, scipy.spatial.distance.squareform
    distance_matrix = selection.distance_matrix

    def counting(y):
        rows.append(len(y))
        want = squareform(pdist(y))
        got = distance_matrix(y)
        assert got.tobytes() == want.tobytes()
        return got

    def no_pdist(y):
        raise AssertionError("pdist ran on the numpy route")

    monkeypatch.setattr(selection, "distance_matrix", counting)
    monkeypatch.setattr(scipy.spatial.distance, "pdist", no_pdist)
    orchestrator.run_rounds(exp)
    benign = sum(c.role == "benign" for c in exp.clients)
    assert benign == 4
    assert rows == [1] + [benign + 1] * cfg.rounds


def test_the_gram_kernel_measures_each_distinct_upload_once(monkeypatch):
    # as above, with every selection on the Gram route
    cfg = small_cfg(
        malicious_fraction=0.4, attack=clients.AttackSpec("ipm", scale=0.7)
    )
    exp = orchestrator.build_experiment(cfg)
    rows = []
    distance_matrix = selection.distance_matrix

    def counting(y):
        rows.append(len(y))
        return distance_matrix(y)

    def no_pdist(y):
        raise AssertionError("pdist ran on the Gram route")

    monkeypatch.setattr(selection, "GRAM_WORK", 0)
    monkeypatch.setattr(selection, "distance_matrix", counting)
    monkeypatch.setattr(scipy.spatial.distance, "pdist", no_pdist)
    orchestrator.run_rounds(exp)
    assert rows == [1] + [4 + 1] * cfg.rounds  # 4 benign uploads and the ipm vector


def one_process_pool(exp):
    """The run's training pool as ``run_rounds`` makes it, on one CPU: its
    parameter matrix has a row per client, but one that every ipm
    attacker shares under fedaa, each the initial parameters."""
    rows = clients.row_index(exp.clients, exp.cfg.aggregator)
    return clients.TrainingPool(exp.clients, exp.arch, exp.cfg.local, exp.initial_params, 1, rows)


def collect(exp, participants, global_params, round_index, pool=None):
    """``_collect_uploads`` on ``pool``, by default a new pool of one
    process; returns its parameter matrix."""
    pool = one_process_pool(exp) if pool is None else pool
    with pool:
        orchestrator._collect_uploads(exp, participants, global_params, round_index, pool)
    return pool.out


@pytest.mark.parametrize("ratio", [1.0, 0.5])
@pytest.mark.parametrize("aggregator", ["fedaa", "fedavg"])
def test_a_run_makes_one_parameter_matrix_and_reads_it_in_place(monkeypatch, aggregator, ratio):
    # a row per client, whoever takes part; selection reads the matrix
    # itself through the cohort's rows, and fedavg's merge the matrix
    # itself under full participation, not a per-round copy of it, and
    # otherwise a copy of the cohort's rows
    made, read = [], []
    pool, select, aggregate = (
        orchestrator.TrainingPool, orchestrator.select_clients, orchestrator.aggregate
    )

    def recording_pool(*args):
        made.append(pool(*args))
        return made[-1]

    def recording_select(ids, uploads, *args, rows):
        assert uploads is made[0].out
        assert rows.tolist() == made[0].rows[ids].tolist()
        read.append(uploads[rows])
        return select(ids, uploads, *args, rows=rows)

    def recording_aggregate(rows, action):
        if aggregator == "fedavg":
            read.append(rows)
        return aggregate(rows, action)

    monkeypatch.setattr(orchestrator, "TrainingPool", recording_pool)
    monkeypatch.setattr(orchestrator, "select_clients", recording_select)
    monkeypatch.setattr(orchestrator, "aggregate", recording_aggregate)
    exp = orchestrator.build_experiment(small_cfg(aggregator=aggregator, participation_ratio=ratio))
    orchestrator.run_rounds(exp)
    assert not hasattr(exp, "local_models")
    assert [p.out.shape for p in made] == [(6, exp.initial_params.size)]
    assert len(read) == (exp.cfg.rounds + 1 if aggregator == "fedaa" else exp.cfg.rounds)
    for rows in read:
        assert rows.shape == (exp.cohort_size, exp.initial_params.size)
        if aggregator == "fedavg":
            assert np.shares_memory(rows, made[0].out) == (ratio == 1.0)


def test_benign_uploads_become_the_local_models():
    exp = orchestrator.build_experiment(
        small_cfg(malicious_fraction=0.4, attack=clients.AttackSpec("sign_flip"))
    )
    participants = [0, 2, 3, 5]
    models = collect(exp, participants, exp.initial_params, 0)
    plain = orchestrator.build_experiment(exp.cfg)
    local_models = initial_models(plain)
    want = reference.per_client_uploads(plain, participants, exp.initial_params, 0, local_models)
    # a participant's row is its upload, and a benign client's its local model
    assert models[participants].tobytes() == want.tobytes()
    benign = [c.id for c in exp.clients if c.role == "benign"]
    assert models[benign].tobytes() == local_models[benign].tobytes()
    # only participants write their rows
    for cid in (1, 4):
        assert np.array_equal(models[cid], exp.initial_params)
    assert {exp.clients[c].role for c in participants} == {"benign", "malicious"}


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
    with one_process_pool(exp) as pool:
        models = pool.out
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            orchestrator._collect_uploads(exp, participants, exp.initial_params, 0, pool)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert not (models == exp.initial_params).all(axis=1).any()
    # one stack's worth of training buffers, and no gathered copy of the
    # matrix's benign rows (all of them)
    assert peak < 0.5 * models.nbytes


def test_ipm_uploads_equal_the_scaled_benign_mean():
    cfg = small_cfg(
        malicious_fraction=0.4, attack=clients.AttackSpec("ipm", scale=0.7)
    )
    exp = orchestrator.build_experiment(cfg)
    pool = one_process_pool(exp)
    uploads = collect(exp, list(range(6)), exp.initial_params, 0, pool)
    # 4 benign rows and one that both attackers share
    assert uploads.shape == (5, exp.initial_params.size)
    benign = [uploads[pool.rows[c.id]] for c in exp.clients if c.role == "benign"]
    attackers = [uploads[pool.rows[c.id]] for c in exp.clients if c.role == "malicious"]
    assert len(attackers) == 2
    expected = -0.7 * np.mean(np.stack(benign), axis=0)
    for upload in attackers:
        assert np.array_equal(upload, expected)
    # the attackers share one row, which no benign client holds
    assert np.shares_memory(attackers[0], attackers[1])
    assert not any(np.shares_memory(attackers[0], upload) for upload in benign)


def test_ipm_round_without_benign_uploads_fails():
    cfg = small_cfg(malicious_fraction=0.4, attack=clients.AttackSpec("ipm"))
    exp = orchestrator.build_experiment(cfg)
    attackers = [c.id for c in exp.clients if c.role == "malicious"]
    with pytest.raises(SimulationError, match=r"client \d+ \(malicious\): ipm attack requires"):
        collect(exp, attackers, exp.initial_params, 0)


def ipm_cfg(**overrides):
    """small_cfg with 4 ipm attackers among 10 clients."""
    base = dict(
        dataset=config.DatasetConfig(kind="synthetic00", num_clients=10, samples_per_client=20),
        model_hidden=(8,),
        malicious_fraction=0.4,
        attack=clients.AttackSpec("ipm", scale=0.7),
    )
    return small_cfg(**{**base, **overrides})


def recorded_pools(monkeypatch):
    """The training pools that runs make from here on."""
    made, pool = [], orchestrator.TrainingPool

    def recording_pool(*args):
        made.append(pool(*args))
        return made[-1]

    monkeypatch.setattr(orchestrator, "TrainingPool", recording_pool)
    return made


@pytest.mark.parametrize("aggregator", ["fedaa", "fedavg"])
def test_ipm_attackers_share_a_row_only_under_fedaa(monkeypatch, aggregator):
    made = recorded_pools(monkeypatch)
    exp = orchestrator.build_experiment(ipm_cfg(aggregator=aggregator))
    orchestrator.run_rounds(exp)
    (pool,) = made
    attackers = [c.id for c in exp.clients if c.role == "malicious"]
    benign = [c.id for c in exp.clients if c.role == "benign"]
    assert len(attackers) == 4
    if aggregator == "fedaa":
        # N - k + 1 rows: one for each benign client and one for all 4 attackers
        assert pool.out.shape == (10 - 4 + 1, exp.initial_params.size)
        assert len(set(pool.rows[attackers].tolist())) == 1
    else:
        assert pool.out.shape == (10, exp.initial_params.size)
        assert pool.rows.tolist() == list(range(10))
    # every row is held, numbered in ascending id of its first holder, and
    # a benign client's row is its own
    assert list(dict.fromkeys(pool.rows.tolist())) == list(range(len(pool.out)))
    assert len(set(pool.rows[benign].tolist()) - set(pool.rows[attackers].tolist())) == len(benign)


@pytest.mark.parametrize("scope", selection.SCOPES)
@pytest.mark.parametrize("processes", [1, 2])
@pytest.mark.parametrize("ratio", [1.0, 0.5])
def test_a_shared_ipm_row_gives_the_results_of_a_row_per_client(
    monkeypatch, tmp_path, forks, ratio, processes, scope
):
    # the same run with the index patched to a row per client is the
    # oracle: its results.csv must be the same bytes
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: processes)
    made = recorded_pools(monkeypatch)
    cfg = ipm_cfg(participation_ratio=ratio, distance_scope=scope, rounds=4)
    written = []
    for oracle in (False, True):
        if oracle:
            monkeypatch.setattr(orchestrator, "row_index", lambda clients, _: np.arange(len(clients)))
        path = tmp_path / f"results-{oracle}.csv"
        results.emit_results(orchestrator.run_experiment(cfg), str(path), "csv")
        written.append(path.read_bytes())
    assert written[0] == written[1]
    assert written[0].count(b"\n") == 1 + cfg.rounds
    assert [len(pool.out) for pool in made] == [7, 10]
    # each run forked its one child where it had two CPUs
    assert len(forks) == 2 * (processes - 1)
    assert_no_child_left()


def test_a_shared_ipm_row_keeps_the_run_below_a_row_per_client_in_memory():
    # 64 clients of d = 7,110, 28 of them ipm attackers: with a row per
    # client, selection alone holds the (64, d) matrix and a copy of its 37
    # distinct uploads (36 benign, one ipm); sharing the attackers' row, the
    # matrix is 37 rows and the whole run peaks below that
    cfg = ipm_cfg(
        dataset=config.DatasetConfig(kind="synthetic00", num_clients=64, samples_per_client=20),
        model_hidden=(100,),
        malicious_fraction=0.45,
    )
    exp = orchestrator.build_experiment(cfg)
    d = exp.initial_params.size
    assert d == 7110 and sum(c.role == "malicious" for c in exp.clients) == 28
    # selection takes the Gram route, as server_heavy's does
    assert 37 * 36 // 2 * d >= selection.GRAM_WORK
    tracemalloc.start()
    try:
        orchestrator.run_rounds(exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (64 + 37) * d * 8


def test_the_local_models_allocation_error_names_the_rows_made(monkeypatch):
    def failing_pool(clients, arch, cfg, broadcast, cpus, rows):
        raise MemoryError

    monkeypatch.setattr(orchestrator, "TrainingPool", failing_pool)
    exp = orchestrator.build_experiment(ipm_cfg())
    d = exp.initial_params.size
    with pytest.raises(ConfigError) as raised:
        orchestrator.run_rounds(exp)
    # 6 benign rows and the one the 4 attackers share
    assert str(raised.value).startswith(
        f"dataset.num_clients = 10 and model.hidden = [8]: the local models' {7 * d} parameters"
    )


def test_training_errors_are_raised_in_their_clients_turn(monkeypatch):
    # train_lockstep returns each failed client's error by id; the round
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

    def failing_train_lockstep(cohort, *args):
        train_lockstep(cohort, *args)
        return {c.id: errors[c.id] for c in cohort if c.id in errors}

    monkeypatch.setattr(orchestrator, "train_lockstep", failing_train_lockstep)
    with pytest.raises(NumericError) as raised:
        collect(exp, list(range(6)), exp.initial_params, 0)
    assert str(raised.value) == f"client {last_benign} (benign): {errors[last_benign]}"
    assert raised.value.__cause__ is errors[last_benign]


def initial_models(exp):
    """A local-model matrix for ``exp``, each client's row its initial
    parameters, for ``reference.per_client_uploads`` to copy benign
    uploads into."""
    return np.tile(exp.initial_params, (len(exp.clients), 1))


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
    local_models = initial_models(plain)
    part_rng = stream(lockstep.cfg.seed, "participation")
    params = lockstep.initial_params
    pool = one_process_pool(lockstep)
    models, rows = pool.out, pool.rows
    assert len(models) < 12  # the ipm attackers share a row
    benign = [c.id for c in lockstep.clients if c.role == "benign"]
    kinds = set()
    for t in range(3):
        participants = orchestrator.sample_participants(12, 0.75, part_rng)
        collect(lockstep, participants, params, t, pool)
        want = reference.per_client_uploads(plain, participants, params, t, local_models)
        # a participant's row is its upload, and every benign client's row
        # its local model, a past round's upload if it sat this one out
        assert models[rows[participants]].tobytes() == want.tobytes()
        assert models[rows[benign]].tobytes() == local_models[benign].tobytes()
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
    # ipm attackers draw nothing, so they make no stream; every other
    # client makes its stream once, where it draws (see
    # test_lockstep_uploads_equal_per_client_updates for the uploads)
    exp = mixed_experiment()
    exp.clients[1].attack = clients.AttackSpec("gaussian")
    streamed = []

    def recording_stream(seed, *labels):
        if labels[0] == "local":
            streamed.append(labels[2])
        return stream(seed, *labels)

    monkeypatch.setattr(orchestrator, "stream", recording_stream)
    collect(exp, list(range(12)), exp.initial_params, 0)
    kinds = {c.id: c.attack.kind if c.attack else None for c in exp.clients}
    assert {"ipm", "sign_flip", "gaussian", None} <= set(kinds.values())
    assert sorted(streamed) == [c for c in range(12) if kinds[c] != "ipm"]


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
            reference.per_client_uploads(plain, range(6), plain.initial_params, 0, initial_models(plain))
        with pytest.raises(NumericError) as stacked:
            orchestrator.run_rounds(exp)
        if huge_row is not None:
            # the precondition: client 3 diverges under its next shuffle
            rng = stream(exp.cfg.seed, "local", 0, 3)
            rng.permutation(22)
            train = exp.clients[3].train
            trained = reference.replay_backward_ce(exp.arch, exp.initial_params, train.features,
                                                   train.labels, exp.cfg.local, rng)
            assert isinstance(trained, NumericError)
    prefix = f"client {named} (benign): non-finite loss; first non-finite activations at layer"
    assert str(alone.value).startswith(prefix)
    assert str(stacked.value) == f"round 0: {alone.value}"


@pytest.fixture
def pool_forks(forks, monkeypatch):
    """Runs that train every round on a pool of two processes."""
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: 2)
    return forks


@pytest.mark.parametrize("aggregator", ["fedaa", "fedavg"])
@pytest.mark.parametrize("processes", [2, 3])
def test_a_run_on_a_pool_equals_a_run_on_one_process(monkeypatch, pool_forks, processes, aggregator):
    # sign flippers, lognormal train sizes and three-quarter cohorts
    cfg = small_cfg(
        dataset=config.DatasetConfig(
            kind="synthetic00", num_clients=12, samples_per_client="lognormal"
        ),
        malicious_fraction=0.3,
        attack=clients.AttackSpec("sign_flip"),
        participation_ratio=0.75,
        local=nn.SgdConfig(learning_rate=0.05, batch_size=8, epochs=2),
        aggregator=aggregator,
    )
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: 1)
    want = orchestrator.run_experiment(cfg)
    assert not pool_forks
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: processes)
    assert orchestrator.run_experiment(cfg) == want
    # forked once for the run's three rounds
    assert len(pool_forks) == processes - 1
    assert_no_child_left()


def test_a_diverging_client_in_a_child_fails_its_round_by_name(pool_forks):
    exp, plain = diverging_experiment((5,)), diverging_experiment((5,))
    # the child trains the second share
    assert [5] in clients.lockstep_shares(exp.clients, exp.cfg.local, exp.initial_params.size, 2)[1]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as alone:
            reference.per_client_uploads(plain, range(6), plain.initial_params, 0, initial_models(plain))
        with pytest.raises(NumericError) as split:
            orchestrator.run_rounds(exp)
    assert str(alone.value).startswith("client 5 (benign): non-finite loss")
    assert str(split.value) == f"round 0: {alone.value}"
    assert len(pool_forks) == 1
    assert_no_child_left()


def test_an_error_in_this_process_share_stops_the_pool(pool_forks):
    exp = diverging_experiment(())
    assert [1, 3] in clients.lockstep_shares(exp.clients, exp.cfg.local, exp.initial_params.size, 2)[0]
    # a train split of the wrong width fails sgd_epoch's checks
    train = exp.clients[1].train
    exp.clients[1].train = LabeledDataset(train.features[:, :-1], train.labels, train.num_classes)
    with pytest.raises(ConfigError, match=r"^round 0: .*incompatible with input_dim"):
        orchestrator.run_rounds(exp)
    assert len(pool_forks) == 1
    assert_no_child_left()


def test_a_child_killed_mid_run_fails_the_next_round_typed(monkeypatch, pool_forks):
    fairness = orchestrator.evaluate_fairness

    def killing_fairness(*args):
        for pid in pool_forks:
            os.kill(pid, signal.SIGKILL)
        return fairness(*args)

    monkeypatch.setattr(orchestrator, "evaluate_fairness", killing_fairness)
    with pytest.raises(SimulationError, match=r"^round 1: a training process exited without its results$"):
        orchestrator.run_experiment(small_cfg())
    assert len(pool_forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("split_steps, forked", [(None, False), (0, True)])
def test_only_a_run_that_can_split_forks(monkeypatch, split_steps, forked):
    monkeypatch.setattr(orchestrator, "usable_cpus", lambda: 2)
    if split_steps is not None:
        monkeypatch.setattr(clients, "SPLIT_STEPS", split_steps)
    made = []
    fork = os.fork
    monkeypatch.setattr(clients.os, "fork", lambda: made.append(1) or fork())
    exp = orchestrator.build_experiment(small_cfg())
    orchestrator.run_rounds(exp)
    # the whole population of 6 trains in 12 steps a round
    assert bool(made) == forked
    assert_no_child_left()


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
    want = reference.per_client_uploads(plain, range(6), params, 0, initial_models(plain))
    monkeypatch.setattr(nn, "_finite_ce_loss", counting_loss)
    got = collect(exp, list(range(6)), params, 0)
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


# The child limits its own address space to its size after the imports
# plus a margin, and only then builds the population; if the limit cannot
# be set, it exits before building anything.
LIMITED_CHILD = textwrap.dedent("""
    import resource
    from fedaa import config, orchestrator
    from fedaa.errors import ConfigError

    cfg = config.parse_config_text(
        "dataset = synthetic11\\n"
        "dataset.num_clients = 200\\n"
        "dataset.samples_per_client = 20\\n"
        "model.hidden = {hidden}\\n"
    )
    with open("/proc/self/status") as fh:
        size = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = size * 1024 + ({margin_mib} << 20)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
""")


def run_limited(hidden, margin_mib, body):
    """stdout of a child that runs ``body`` under LIMITED_CHILD's limit."""
    pytest.importorskip("resource")
    src = pathlib.Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))
    script = LIMITED_CHILD.format(hidden=hidden, margin_mib=margin_mib) + textwrap.dedent(body)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_population_too_large_for_memory_fails_typed():
    # 200 clients at model.hidden = 20000 need 2.12 GiB of local models,
    # made when the run starts
    out = run_limited(20000, 1024, """
        exp = orchestrator.build_experiment(cfg)
        try:
            orchestrator.run_rounds(exp)
        except ConfigError as exc:
            print(exc)
    """)
    assert out.strip() == (
        "dataset.num_clients = 200 and model.hidden = [20000]: the local models' "
        "284002000 parameters need 2.12 GiB, more than this process can allocate"
    )


@pytest.mark.parametrize("overrides, message", [
    # 60 inputs, 10 classes: 71 x 10**11 + 10 parameters
    ({"model_hidden": (10**11,)},
     "model.hidden = [100000000000]: the model's 7100000000010 parameters need 52899.12 GiB"),
    # a cohort of 6 at m_percent 50 keeps 3: an actor of 7 x 10**11 + 3
    # and a critic of 8 x 10**11 + 1 parameters, each with its target
    ({"ddpg": config.DdpgConfig(hidden=10**11, warmup=2, batch_size=4)},
     "ddpg.hidden = 100000000000: the DDPG networks' 3000000000008 parameters need 22351.74 GiB"),
    # past the largest array numpy makes
    ({"model_hidden": (10**17,)}, "the model's 7100000000000000010 parameters need"),
], ids=["model.hidden", "ddpg.hidden", "model.hidden-past-numpy"])
def test_a_network_too_wide_for_memory_fails_typed(overrides, message):
    # widths whose allocation fails at once, on any host
    with pytest.raises(ConfigError, match=re.escape(message) + ".*, more than this process can allocate"):
        orchestrator.build_experiment(small_cfg(**overrides))


@pytest.mark.parametrize("dataset, keys", [
    # the lognormal sizes' own draw, then the list of sizes, then the
    # samples: each past what numpy or Python can allocate
    ({"num_clients": 10**20}, f"num_clients = {10**20} and dataset.samples_per_client = lognormal"),
    ({"num_clients": 10**20, "samples_per_client": 20},
     f"num_clients = {10**20} and dataset.samples_per_client = 20"),
    ({"samples_per_client": 10**13}, f"num_clients = 6 and dataset.samples_per_client = {10**13}"),
    ({"kind": "synthetic_dirichlet", "total_samples": 10**20},
     f"num_clients = 6 and dataset.total_samples = {10**20}"),
], ids=["lognormal", "samples_per_client", "samples", "total_samples"])
def test_synthetic_data_too_large_for_memory_fails_typed(dataset, keys):
    # sizes whose allocation fails at once, on any host
    dataset = config.DatasetConfig(
        **{"kind": "synthetic00", "num_clients": 6, "samples_per_client": "lognormal", **dataset}
    )
    with pytest.raises(ConfigError) as raised:
        orchestrator.build_experiment(small_cfg(dataset=dataset))
    assert str(raised.value) == (
        f"dataset.{keys}: the synthetic data need more than this process can allocate"
    )
