"""Config parsing, canonical emission, and result serialization."""

import dataclasses
import json
import math
import pathlib
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fedaa import clients, config, results
from fedaa.ddpg import ReplayBuffer
from fedaa.errors import ConfigError, NumericError, ParseError
from fedaa.orchestrator import RoundRecord
from fedaa.selection import SCOPES


def make_record(rnd=0, reward=0.5, **overrides):
    kw = dict(
        round=rnd,
        reward=reward,
        mean_benign_acc=0.6,
        acc_std=0.1,
        acc_var=0.01,
        loss_std=0.2,
        mean_global_acc=0.55,
        selected_ids=[1, 4],
        action=[0.25, 0.75],
        per_class_val_acc=[0.5, 0.7],
    )
    kw.update(overrides)
    return RoundRecord(**kw)


# ------------------------------------------------------------ parsing


def test_empty_config_gives_defaults():
    cfg = config.parse_config_text("")
    assert cfg.dataset.kind == "synthetic00"
    assert cfg.dataset.num_clients == 100
    assert cfg.dataset.alpha == 0.0 and cfg.dataset.beta == 0.0
    assert cfg.model_hidden == ()
    assert cfg.malicious_fraction == 0.0
    assert cfg.attack is None
    assert cfg.m_percent == 30.0
    assert cfg.participation_ratio == 1.0
    assert cfg.rounds == 50
    assert cfg.local.learning_rate == 0.1
    assert cfg.local.batch_size == 64
    assert cfg.local.epochs == 20
    assert cfg.local.weight_decay == 0.0
    assert cfg.ddpg.gamma == 0.99
    assert cfg.ddpg.epsilon_soft == 0.001
    assert cfg.ddpg.actor_lr == 0.01
    assert cfg.ddpg.critic_lr == 0.01
    assert cfg.ddpg.weight_decay == 1e-5
    assert cfg.distance_scope == "all_layers"
    assert cfg.aggregator == "fedaa"
    assert cfg.seed == 0


def test_comments_and_blanks_skipped():
    cfg = config.parse_config_text(
        "# a comment\n\n  \nseed = 7\n# another\nrounds = 3\n"
    )
    assert cfg.seed == 7
    assert cfg.rounds == 3


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2: unknown key 'sneed'"):
        config.parse_config_text("seed = 1\nsneed = 2\n")
    with pytest.raises(ParseError, match="line 3: duplicate key 'seed'"):
        config.parse_config_text("seed = 1\nrounds = 2\nseed = 3\n")
    with pytest.raises(ParseError, match="line 1: expected 'key = value'"):
        config.parse_config_text("seed 1\n")
    with pytest.raises(ParseError, match="line 1: rounds: not an integer"):
        config.parse_config_text("rounds = many\n")
    with pytest.raises(ParseError, match="line 1: malicious_fraction: must be < 0.5"):
        config.parse_config_text("malicious_fraction = 0.6\n")
    with pytest.raises(ParseError, match="line 1"):
        config.parse_config_text("dataset = cifar\n")
    with pytest.raises(ParseError, match="m_percent"):
        config.parse_config_text("m_percent = 0\n")


def test_seed_below_two_to_the_64():
    # derive_seed keeps a seed's low 64 bits, so 2**64 would alias seed 0
    limit = 1 << 64
    assert config.parse_config_text(f"seed = {limit - 1}\n").seed == limit - 1
    with pytest.raises(ParseError, match=f"line 1: seed: must be < {limit}"):
        config.parse_config_text(f"seed = {limit}\n")
    # values that skip the key's parser, as a sweep's later seeds do
    with pytest.raises(ConfigError, match=f"seed = {limit} must be < {limit}"):
        config.build_config({"seed": limit})


def test_buffer_capacity_below_two_to_the_63():
    # the replay buffer's deque holds at most 2**63 - 1
    limit = 1 << 63
    cfg = config.parse_config_text(f"ddpg.buffer_capacity = {limit - 1}\n")
    assert len(ReplayBuffer(cfg.ddpg.buffer_capacity)) == 0
    with pytest.raises(ParseError, match=f"line 2: ddpg.buffer_capacity: must be < {limit}"):
        config.parse_config_text(f"rounds = 3\nddpg.buffer_capacity = {limit}\n")


@pytest.mark.parametrize("key", ["m_percent", "local.lr"])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_floats_rejected_with_line(key, raw):
    # m_percent is bounded on both sides, local.lr only from below
    with pytest.raises(ParseError, match=f"line 2: {key}: not a finite number: '{raw}'"):
        config.parse_config_text(f"seed = 1\n{key} = {raw}\n")


def test_cross_validation_errors():
    with pytest.raises(ConfigError, match="require an attack"):
        config.parse_config_text("attack.tau = 5\n")
    with pytest.raises(ConfigError, match="csv_path"):
        config.parse_config_text("dataset = csv\n")
    with pytest.raises(ConfigError, match="idx_images"):
        config.parse_config_text("dataset = idx\n")
    with pytest.raises(ConfigError, match="alpha/beta"):
        config.parse_config_text("dataset = synthetic00\ndataset.alpha = 2\n")
    with pytest.raises(ConfigError, match="per_class"):
        config.parse_config_text("validation.per_class = 100\n")
    with pytest.raises(ConfigError, match="requires an attack"):
        config.parse_config_text("malicious_fraction = 0.2\n")
    with pytest.raises(ConfigError, match="ipm_epsilon"):
        config.parse_config_text(
            "malicious_fraction = 0.2\nattack = gaussian\nattack.ipm_epsilon = 0.4\n"
        )
    with pytest.raises(ConfigError, match="attack.tau applies only to attack = same_value"):
        config.parse_config_text("malicious_fraction = 0.2\nattack = ipm\nattack.tau = 3\n")
    with pytest.raises(ConfigError, match="lists 3 sizes for 4 clients"):
        config.parse_config_text(
            "dataset.num_clients = 4\ndataset.samples_per_client = 10,10,10\n"
        )
    with pytest.raises(ConfigError, match="total_samples"):
        config.parse_config_text("dataset.total_samples = 2000\n")


def test_a_replay_buffer_smaller_than_the_warmup_is_rejected():
    # such a buffer never holds ddpg.warmup transitions, so the policy
    # would never take a step
    with pytest.raises(
        ConfigError,
        match=r"^ddpg\.buffer_capacity = 3 is below ddpg\.warmup = 4: the replay buffer never",
    ):
        config.parse_config_text("ddpg.buffer_capacity = 3\nddpg.warmup = 4\n")
    cfg = config.parse_config_text("ddpg.buffer_capacity = 4\nddpg.warmup = 4\n")
    assert (cfg.ddpg.buffer_capacity, cfg.ddpg.warmup) == (4, 4)


def test_an_attack_without_an_attacker_is_rejected():
    # floor(fraction * num_clients) = 0 attackers would run a clean
    # population under an attack's name
    with pytest.raises(
        ConfigError,
        match=r"^attack = sign_flip with malicious_fraction = 0\.0 of dataset\.num_clients = 100 "
        r"makes floor\(0\.0 \* 100\) = 0 attackers",
    ):
        config.parse_config_text("attack = sign_flip\nattack.tau = 3\n")
    with pytest.raises(ConfigError, match=r"floor\(0\.04 \* 20\) = 0 attackers"):
        config.parse_config_text(
            "dataset.num_clients = 20\nmalicious_fraction = 0.04\nattack = ipm\n"
        )
    # one attacker is enough; 0.29 * 100 floats to 28.999999999999996
    for fraction, count, attackers in (("0.05", 20, 1), ("0.1", 10, 1), ("0.29", 100, 29)):
        cfg = config.parse_config_text(
            f"dataset.num_clients = {count}\nmalicious_fraction = {fraction}\nattack = gaussian\n"
        )
        assert clients.attacker_count(count, cfg.malicious_fraction) == attackers
    assert config.parse_config_text("attack = none\n").attack is None


def test_fedavg_rejects_and_omits_the_selection_and_policy_keys():
    # fedavg runs no distance selection and no policy, so their keys would
    # be accepted and then ignored
    keys = [key.name for key in config.KEYS if key.aggregators == ("fedaa",)]
    assert {"m_percent", "distance_scope"} < set(keys) and len(keys) == 13
    assert {key for key in keys if key.startswith("ddpg.")} == {
        f"ddpg.{f.name}" for f in dataclasses.fields(config.DdpgConfig)
    }

    def emitted(text):
        canonical = config.emit_config(config.parse_config_text(text))
        return dict(line.split(" = ", 1) for line in canonical.splitlines())

    fedaa, fedavg = emitted(""), emitted("aggregator = fedavg\n")
    for key in keys:
        assert key in fedaa and key not in fedavg
        with pytest.raises(ConfigError, match="only to aggregator = fedaa$"):
            config.parse_config_text(f"aggregator = fedavg\n{key} = {fedaa[key]}\n")
    with pytest.raises(ConfigError, match="^m_percent applies only to aggregator = fedaa$"):
        config.parse_config_text("aggregator = fedavg\nm_percent = 30\n")


def test_synthetic_kind_pins_alpha_beta():
    cfg = config.parse_config_text("dataset = synthetic11\n")
    assert cfg.dataset.alpha == 1.0 and cfg.dataset.beta == 1.0
    cfg = config.parse_config_text(
        "dataset = synthetic\ndataset.alpha = 2.5\ndataset.beta = 0.5\n"
    )
    assert cfg.dataset.alpha == 2.5 and cfg.dataset.beta == 0.5
    # the pin holds for a config built in code too
    for kind, spread in config.PINNED_SPREAD.items():
        dataset = config.DatasetConfig(kind=kind)
        assert dataset.alpha == dataset.beta == spread
        assert config.DatasetConfig(kind=kind, alpha=spread, beta=spread) == dataset
        with pytest.raises(ConfigError, match=f"dataset = {kind} pins dataset.beta"):
            config.DatasetConfig(kind=kind, beta=spread + 0.5)
    assert config.DatasetConfig(kind="synthetic").alpha == 0.0


def test_attack_defaults_and_overrides():
    cfg = config.parse_config_text("malicious_fraction = 0.3\nattack = sign_flip\n")
    assert cfg.attack.kind == "sign_flip"
    assert cfg.attack.scale == 10.0
    cfg = config.parse_config_text(
        "malicious_fraction = 0.3\nattack = same_value\nattack.tau = 50\n"
    )
    assert cfg.attack.scale == 50.0
    cfg = config.parse_config_text(
        "malicious_fraction = 0.1\nattack = ipm\nattack.ipm_epsilon = 0.7\n"
    )
    assert cfg.attack.scale == 0.7


def test_sizes_value_forms():
    cfg = config.parse_config_text("dataset.samples_per_client = 40\n")
    assert cfg.dataset.samples_per_client == 40
    cfg = config.parse_config_text(
        "dataset.num_clients = 3\ndataset.samples_per_client = 30,40,50\n"
    )
    assert cfg.dataset.samples_per_client == (30, 40, 50)
    cfg = config.parse_config_text("dataset.samples_per_client = lognormal\n")
    assert cfg.dataset.samples_per_client == "lognormal"


# ------------------------------------------------------------ emission


ROUND_TRIP_TEXTS = [
    "",
    "dataset = synthetic\ndataset.alpha = 3.5\ndataset.beta = 0.25\n"
    "dataset.num_clients = 12\ndataset.samples_per_client = 40\n",
    "dataset = synthetic_dirichlet\ndataset.total_samples = 4000\n"
    "dataset.dirichlet_concentration = 0.5\nvalidation.per_class = 100,100,10,10,10,10,10,10,10,10\n",
    "dataset = csv\ndataset.csv_path = /tmp/data.csv\nvalidation.per_class = 20\n",
    "malicious_fraction = 0.25\nattack = ipm\nattack.ipm_epsilon = 0.4\n",
    "malicious_fraction = 0.3\nattack = sign_flip\nattack.tau = 12.5\n",
    "aggregator = fedavg\nparticipation_ratio = 0.5\n"
    "model.hidden = 100,100\nrounds = 7\nseed = 11\n",
    "m_percent = 80\nmodel.hidden = 100,100\ndistance_scope = last_hidden_layer\n"
    "ddpg.hidden = 32\nddpg.warmup = 3\n",
]


@pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
def test_emit_parse_round_trip(text):
    cfg = config.parse_config_text(text)
    canonical = config.emit_config(cfg)
    again = config.parse_config_text(canonical)
    assert again == cfg
    assert config.emit_config(again) == canonical


def test_emit_is_sorted_and_complete():
    canonical = config.emit_config(config.parse_config_text(""))
    keys = [line.split(" = ")[0] for line in canonical.splitlines()]
    assert keys == sorted(keys)
    assert "seed = 0" in canonical
    assert "ddpg.gamma = 0.99" in canonical
    # inapplicable keys stay out of the canonical text
    assert "attack.tau" not in canonical
    assert "dataset.csv_path" not in canonical


def _config_values(st):
    """Parsed key values of configs of every dataset kind, attack kind and
    aggregator. Each
    key that applies may appear, with a value text that the key's own
    parser accepts: one of a fixed set of examples, or a random number or
    list."""
    examples = config.DATASET_KINDS + config.ALL_ATTACKS + SCOPES + config.AGGREGATORS + (
        "lognormal", "data.csv", "", "0", "0.5", "1", "7", "120", "5000", "10,20", "30,40,50",
    )
    numbers = st.one_of(
        st.integers(0, 300).map(str),
        st.integers(100, 10**4).map(str),
        st.floats(0.0, 2.0).map(repr),
        st.floats(0.0, 1e4).map(repr),
        st.lists(st.integers(0, 120), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    )

    def accepts(key, text):
        try:
            key.parse(text)
        except ValueError:
            return False
        return True

    fixed = {key.name: [text for text in examples if accepts(key, text)] for key in config.KEYS}

    @st.composite
    def values(draw):
        kinds = (
            draw(st.sampled_from(config.DATASET_KINDS)),
            draw(st.sampled_from(config.ALL_ATTACKS)),
            draw(st.sampled_from(config.AGGREGATORS)),
        )
        out = {"dataset": kinds[0], "attack": kinds[1], "aggregator": kinds[2]}
        for key in config.KEYS:
            if key.name in out or not config._applies(key, kinds):
                continue
            text = draw(st.one_of(st.sampled_from(fixed[key.name]), numbers, st.none()))
            if text is not None and accepts(key, text):
                out[key.name] = key.parse(text)
        sizes = out.get("dataset.samples_per_client")
        if isinstance(sizes, tuple) and len(sizes) >= 2:
            out["dataset.num_clients"] = len(sizes)
        # an attack needs at least one attacker, floor(fraction * clients)
        count = out.get("dataset.num_clients", config.DatasetConfig.num_clients)
        if kinds[1] != "none" and count >= 3 and out.get("malicious_fraction", 0.0) * count < 1.0:
            out["malicious_fraction"] = draw(st.floats(1.0 / count, 0.49))
        return out

    return values()


# Six configs that hold every key and every dataset kind, attack kind and
# aggregator between them, so the generated round trip covers them all
# whatever its derandomized draws reach.
ROUND_TRIP_EXAMPLES = (
    "dataset = synthetic\ndataset.alpha = 0.5\ndataset.beta = 1.5\n"
    "dataset.samples_per_client = 10,20,30\ndataset.num_clients = 3\nmodel.hidden = 4,3\n"
    "malicious_fraction = 0.3\nattack = gaussian\nattack.tau = 7.5\nm_percent = 60\n"
    "participation_ratio = 0.5\nrounds = 4\nlocal.lr = 0.2\nlocal.weight_decay = 0.001\n"
    "local.batch_size = 8\nlocal.epochs = 2\nddpg.gamma = 0.9\nddpg.epsilon_soft = 0.1\n"
    "ddpg.actor_lr = 0.01\nddpg.critic_lr = 0.02\nddpg.weight_decay = 0.0001\n"
    "ddpg.hidden = 16\nddpg.buffer_capacity = 50\nddpg.batch_size = 4\nddpg.warmup = 2\n"
    "ddpg.noise_sigma = 0.3\nddpg.noise_sigma_end = 0.05\n"
    "distance_scope = last_hidden_layer\naggregator = fedaa\nseed = 7\n",
    "dataset = synthetic00\ndataset.samples_per_client = lognormal\nattack = sign_flip\n"
    "malicious_fraction = 0.2\naggregator = fedavg\n",
    "dataset = synthetic11\nattack = same_value\nmalicious_fraction = 0.1\naggregator = fedaa\n",
    "dataset = synthetic_dirichlet\ndataset.total_samples = 5000\n"
    "dataset.dirichlet_concentration = 0.5\nvalidation.per_class = 20\n"
    "attack = ipm\nattack.ipm_epsilon = 2.0\nmalicious_fraction = 0.4\naggregator = fedavg\n",
    "dataset = csv\ndataset.csv_path = data.csv\nattack = none\naggregator = fedaa\n",
    "dataset = idx\ndataset.idx_images = images.idx\ndataset.idx_labels = labels.idx\n"
    "attack = none\naggregator = fedavg\n",
)


def test_emit_parse_round_trip_generated():
    hypothesis = pytest.importorskip("hypothesis")
    seen_keys, seen_kinds = set(), set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(_config_values(hypothesis.strategies))
    def check(values):
        try:
            cfg = config.build_config(values)
        except ConfigError:
            hypothesis.reject()
        seen_keys.update(values)
        seen_kinds.update((values["dataset"], values["attack"], values["aggregator"]))
        canonical = config.emit_config(cfg)
        again = config.parse_config_text(canonical)
        assert again == cfg
        assert config.emit_config(again) == canonical

    for text in ROUND_TRIP_EXAMPLES:
        check = hypothesis.example(config.parse_config_values(text))(check)
    check()
    assert seen_keys == set(config.SCHEMA)
    assert seen_kinds == set(config.DATASET_KINDS + config.ALL_ATTACKS + config.AGGREGATORS)


def test_readme_config_table_lists_every_key():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config reference", 1)[1].split("\n## ", 1)[0]
    # the first cell may name several keys: `ddpg.actor_lr` / `ddpg.critic_lr`
    rows = [
        (re.findall(r"`([^`]+)`", cells[1]), re.fullmatch(r"`([^`]*)`", cells[2].strip()))
        for line in section.splitlines()
        if line.startswith("| `")
        for cells in [line.split("|")]
    ]
    keys = [key for row_keys, _ in rows for key in row_keys]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(config.SCHEMA)
    # a literal default reads as the default config emits the key, or, for
    # a key of another dataset or attack kind, a config that picks that kind
    emitted = {}
    for text in ("", "dataset = synthetic\n", "dataset = synthetic_dirichlet\n",
                 "malicious_fraction = 0.1\nattack = ipm\n"):
        for line in config.emit_config(config.parse_config_text(text)).splitlines():
            key, _, value = line.partition(" = ")
            emitted.setdefault(key, value)
    for row_keys, default in rows:
        for key in row_keys if default else ():
            assert emitted[key] == default.group(1), key
    # attack.tau's per-kind defaults name its kinds in table order
    tau_row = next(line for line in section.splitlines() if line.startswith("| `attack.tau`"))
    named, defaults = re.search(r"for ((?:`\w+`(?: / )?)+), defaults ([\d. /]+):", tau_row).groups()
    assert tuple(re.findall(r"`(\w+)`", named)) == config.TAU_ATTACKS
    assert [float(d) for d in defaults.split(" / ")] == [
        clients.ATTACKS[kind].default_scale for kind in config.TAU_ATTACKS
    ]
    # the rows whose default is a path, a word or a rule, not a value
    assert {key for row_keys, default in rows if not default for key in row_keys} == {
        "dataset.csv_path", "dataset.idx_images", "dataset.idx_labels",
        "model.hidden", "attack.tau", "validation.per_class",
    }


def test_config_hash_tracks_content():
    base = config.parse_config_text("")
    same = config.parse_config_text("seed = 0\n")
    bumped = config.parse_config_text("seed = 1\n")
    assert config.config_hash(base) == config.config_hash(same)
    assert config.config_hash(base) != config.config_hash(bumped)
    assert len(config.config_hash(base)) == 64


# Code-built values of every float key, as ints and numpy floats: two
# configs whose scopes hold every float key between them.
CODE_BUILT_FLOATS = (
    {"dataset": "synthetic", "dataset.alpha": 2, "dataset.beta": np.float64(0.5),
     "attack": "gaussian", "attack.tau": 7, "malicious_fraction": np.float64(0.3),
     "m_percent": 50, "participation_ratio": 1, "local.lr": np.float64(0.05),
     "local.weight_decay": 0, "ddpg.gamma": 1, "ddpg.epsilon_soft": np.float64(0.1),
     "ddpg.actor_lr": np.float64(1e-3), "ddpg.critic_lr": 0, "ddpg.weight_decay": np.float32(0.25),
     "ddpg.noise_sigma": 1, "ddpg.noise_sigma_end": np.float64(0.0)},
    {"dataset": "synthetic_dirichlet", "dataset.dirichlet_concentration": 1,
     "attack": "ipm", "attack.ipm_epsilon": np.float64(2.0), "malicious_fraction": np.float64(0.4),
     "m_percent": np.float64(60.0), "aggregator": "fedaa"},
)


@pytest.mark.parametrize("values", CODE_BUILT_FLOATS, ids=["synthetic", "synthetic_dirichlet"])
def test_a_code_built_config_emits_text_that_reads_back_to_itself(values):
    cfg = config.build_config(values)
    canonical = config.emit_config(cfg)
    again = config.parse_config_text(canonical)
    assert config.emit_config(again) == canonical
    assert config.config_hash(again) == config.config_hash(cfg)
    # every float key given is written as the float it holds
    lines = dict(line.split(" = ") for line in canonical.splitlines())
    for name, value in values.items():
        if not isinstance(value, str):
            assert lines[name] == repr(float(value)), name
    # a numpy float, and an int beside an int attack scale
    for cfg in (config.ExperimentConfig(m_percent=np.float64(50.0)),
                config.ExperimentConfig(m_percent=50, malicious_fraction=0.3,
                                        attack=clients.AttackSpec("gaussian", scale=7))):
        canonical = config.emit_config(cfg)
        assert "m_percent = 50.0\n" in canonical
        again = config.parse_config_text(canonical)
        assert config.config_hash(again) == config.config_hash(cfg)


# ------------------------------------------------------------ results


def test_readme_results_schema_lists_every_column():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Results schema", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    listed = [tuple(re.findall(r"[a-z_]+", block)) for block in blocks]
    sweep_columns = tuple(results.sweep_row(config.parse_config_text(""), make_record(), 1.0, {}))
    assert listed == [results.ROUND_COLUMNS, sweep_columns]


def test_round_columns_are_the_record_fields():
    assert results.ROUND_COLUMNS == tuple(f.name for f in dataclasses.fields(RoundRecord))
    record = make_record(
        rnd=np.int64(2),
        selected_ids=[np.int64(1), np.int64(4)],
        per_class_val_acc=[0.1234567, np.float64(0.5)],
    )
    row = results.records_to_rows([record])[0]
    assert tuple(row) == results.ROUND_COLUMNS
    assert type(row["round"]) is int and [type(c) for c in row["selected_ids"]] == [int, int]
    assert row["per_class_val_acc"] == [0.123457, 0.5]
    with pytest.raises(NumericError, match="non-finite value in field 'per_class_val_acc'"):
        make_record(rnd=2, per_class_val_acc=[0.5, math.nan])


def test_records_to_rows_rounds_floats():
    rows = results.records_to_rows([make_record(reward=0.123456789)])
    assert rows[0]["reward"] == 0.123457
    assert rows[0]["selected_ids"] == [1, 4]


def test_records_to_rows_rejects_non_finite():
    # a record holds only finite values, so no row can carry a non-finite cell
    with pytest.raises(NumericError, match="field 'reward'"):
        make_record(rnd=3, reward=math.nan)
    with pytest.raises(NumericError, match="field 'action'"):
        make_record(action=[math.inf, 1.0], selected_ids=[0, 1])


def test_emit_results_csv(tmp_path):
    path = str(tmp_path / "results.csv")
    results.emit_results([make_record(), make_record(rnd=1, reward=0.25)], path)
    lines = pathlib.Path(path).read_text().splitlines()
    assert lines[0] == ",".join(results.ROUND_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "0.5"
    assert first[7] == "1|4"
    assert first[8] == "0.25|0.75"


def test_emit_results_empty_is_header_only(tmp_path):
    path = str(tmp_path / "results.csv")
    results.emit_results([], path)
    assert pathlib.Path(path).read_text() == ",".join(results.ROUND_COLUMNS) + "\n"


def test_emit_results_json(tmp_path):
    path = str(tmp_path / "results.json")
    results.emit_results([make_record()], path, fmt="json")
    rows = json.loads(pathlib.Path(path).read_text())
    assert rows[0]["reward"] == 0.5
    assert rows[0]["action"] == [0.25, 0.75]
    for fmt in ("yaml", "xml"):
        with pytest.raises(ConfigError, match=f"unknown results format: '{fmt}'"):
            results.emit_results([make_record()], str(tmp_path / "x"), fmt)


def test_sig6_examples():
    assert results.sig6(0.123456789) == 0.123457
    assert results.sig6(123456789.0) == 123457000.0
    assert results.sig6(1.0) == 1.0


def test_sweep_table_layout(tmp_path):
    cfg = config.parse_config_text("")
    row = results.sweep_row(
        cfg, make_record(mean_benign_acc=0.8123456, acc_std=0.05, acc_var=0.0025), 1.25, {}
    )
    path = str(tmp_path / "sweep.csv")
    results.emit_sweep_table([[row]], path)
    lines = pathlib.Path(path).read_text().splitlines()
    assert lines == [
        "method,dataset,attack,malicious_pct,m_pct,c_pct,seed,mean_acc,acc_std,acc_var,"
        "runtime_seconds",
        "fedaa,synthetic00,none,0,30,100,0,0.812346,0.05,0.0025,1.25",
    ]
    # a cell of two seeds: its rows, then their mean over the measured cells
    second = results.sweep_row(
        config.parse_config_text("seed = 1\n"), make_record(mean_benign_acc=0.7), 0.5, {"seed": 1}
    )
    results.emit_sweep_table([[row, second], [row]], path)
    assert pathlib.Path(path).read_text().splitlines()[1:] == [
        "fedaa,synthetic00,none,0,30,100,0,0.812346,0.05,0.0025,1.25",
        "fedaa,synthetic00,none,0,30,100,1,0.7,0.1,0.01,0.5",
        "fedaa,synthetic00,none,0,30,100,mean,0.756173,0.075,0.00625,0.875",
        "fedaa,synthetic00,none,0,30,100,0,0.812346,0.05,0.0025,1.25",
    ]
    # a varied key without a column of its own gets one after c_pct, in
    # --vary order; a list joins with '|', and the mean row keeps the cell's
    cell = {"model.hidden": (8, 4), "seed": 0, "local.lr": 0.05, "m_percent": 30.0}
    rows = [
        results.sweep_row(
            config.parse_config_text(f"model.hidden = 8,4\nlocal.lr = 0.05\nseed = {seed}\n"),
            make_record(mean_benign_acc=acc), 1.0, cell,
        )
        for seed, acc in ((0, 0.5), (1, 0.7))
    ]
    results.emit_sweep_table([rows], path)
    assert pathlib.Path(path).read_text().splitlines() == [
        "method,dataset,attack,malicious_pct,m_pct,c_pct,model.hidden,local.lr,seed,mean_acc,"
        "acc_std,acc_var,runtime_seconds",
        "fedaa,synthetic00,none,0,30,100,8|4,0.05,0,0.5,0.1,0.01,1",
        "fedaa,synthetic00,none,0,30,100,8|4,0.05,1,0.7,0.1,0.01,1",
        "fedaa,synthetic00,none,0,30,100,8|4,0.05,mean,0.6,0.1,0.01,1",
    ]


def test_manifest_round_trip(tmp_path):
    manifest = results.RunManifest(
        config_hash="ab" * 32,
        seed=3,
        subsystem_seeds={"data": 12, "roles": 99},
        started="2024-01-01T00:00:00+00:00",
        finished="2024-01-01T00:00:05+00:00",
        artifacts=["results.csv"],
        version="0.1.0",
    )
    path = str(tmp_path / "manifest.json")
    results.write_manifest(manifest, path)
    data = json.loads(pathlib.Path(path).read_text())
    assert data["config_hash"] == "ab" * 32
    assert data["subsystem_seeds"] == {"data": 12, "roles": 99}
    assert data["artifacts"] == ["results.csv"]


# ------------------------------------------------------------ plots


def test_render_curves_svg_well_formed(tmp_path):
    path = str(tmp_path / "plot.svg")
    results.render_curves_svg(
        [
            ("reward", [0, 1, 2], [0.1, 0.4, 0.9]),
            ("accuracy", [0, 1, 2], [0.2, 0.3, 0.5]),
        ],
        path,
        title="training",
        y_label="value",
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2
    texts = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert "reward" in texts and "accuracy" in texts and "training" in texts


def test_render_curves_svg_degenerate_series(tmp_path):
    path = str(tmp_path / "flat.svg")
    results.render_curves_svg([("flat", [0.0], [0.7])], path)
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


def test_render_curves_svg_errors(tmp_path):
    with pytest.raises(ConfigError, match="at least one series"):
        results.render_curves_svg([], str(tmp_path / "x.svg"))
    with pytest.raises(ConfigError, match="no points"):
        results.render_curves_svg([("empty", [], [])], str(tmp_path / "z.svg"))
    with pytest.raises(ConfigError, match="3 x values, 2 y values"):
        results.render_curves_svg(
            [("bad", [0, 1, 2], [0.0, 1.0])], str(tmp_path / "y.svg")
        )
