"""Experiment configuration: schema, parsing, canonical emission.

The on-disk format is one ``key = value`` pair per line. Blank lines
and lines starting with ``#`` are skipped. Dotted prefixes group keys
(``ddpg.gamma = 0.95``). Unknown and duplicate keys are rejected with
the offending line number, as are values outside their documented
ranges. ``emit_config`` renders a config back to canonical text (sorted
keys, every applicable key present but an unset ``validation.per_class``,
which means 100 rows per class), and ``parse . emit`` is the identity;
the canonical text is also what the run manifest hashes.

``KEYS`` is the one table of keys; README.md lists them with their
defaults and ranges, and a test keeps the two in step.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

from .errors import ConfigError, ParseError
from .clients import ATTACKS, AttackSpec, attacker_count
from .data import round_half_up
from .ddpg import DdpgConfig
from .nn import SgdConfig
from .seeding import SEED_LIMIT
from .selection import SCOPES

SYNTHETIC_KINDS = ("synthetic00", "synthetic11", "synthetic")
PARTITIONED_KINDS = ("synthetic_dirichlet", "csv", "idx")
DATASET_KINDS = SYNTHETIC_KINDS + PARTITIONED_KINDS
AGGREGATORS = ("fedaa", "fedavg")


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synthetic00"
    num_clients: int = 100
    # None: the kind's PINNED_SPREAD, or 0.0 for a kind that pins none
    alpha: float | None = None
    beta: float | None = None
    # int applies to every client; "lognormal" draws seeded sizes in [20, 1000]
    samples_per_client: int | tuple[int, ...] | str = "lognormal"
    total_samples: int = 5000
    dirichlet_concentration: float = 0.1
    csv_path: str = ""
    idx_images: str = ""
    idx_labels: str = ""

    def __post_init__(self) -> None:
        pinned = PINNED_SPREAD.get(self.kind)
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, 0.0 if pinned is None else pinned)
            elif pinned is not None and value != pinned:
                raise ConfigError(f"dataset = {self.kind} pins dataset.{name} to {pinned} (got {value})")


@dataclass(frozen=True)
class ValidationConfig:
    # per-class sample counts for the held-out reward set; None defers to
    # the dataset kind (upload pool for synthetic kinds, 100 per class else)
    per_class: int | tuple[int, ...] | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model_hidden: tuple[int, ...] = ()
    malicious_fraction: float = 0.0
    attack: AttackSpec | None = None
    m_percent: float = 30.0
    participation_ratio: float = 1.0
    rounds: int = 50
    local: SgdConfig = field(default_factory=SgdConfig)
    ddpg: DdpgConfig = field(default_factory=DdpgConfig)
    distance_scope: str = "all_layers"
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    aggregator: str = "fedaa"
    seed: int = 0


def _int(lo: int, below: int | None = None) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"not an integer: {raw!r}") from None
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        if below is not None and value >= below:
            raise ValueError(f"must be < {below}")
        return value

    return parse


def _float(
    lo: float | None = None,
    hi: float | None = None,
    lo_open: bool = False,
    hi_open: bool = False,
) -> Callable[[str], float]:
    def parse(raw: str) -> float:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"not a number: {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        if lo is not None and (value <= lo if lo_open else value < lo):
            raise ValueError(f"must be {'>' if lo_open else '>='} {lo}")
        if hi is not None and (value >= hi if hi_open else value > hi):
            raise ValueError(f"must be {'<' if hi_open else '<='} {hi}")
        return value

    parse.emits_float = True  # emit_config writes the key's value as a float
    return parse


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {raw!r}")
        return raw

    return parse


def _intlist(min_value: int) -> Callable[[str], tuple[int, ...]]:
    def parse(raw: str) -> tuple[int, ...]:
        if raw == "":
            return ()
        out = []
        for part in raw.split(","):
            try:
                value = int(part.strip())
            except ValueError:
                raise ValueError(f"not an integer: {part.strip()!r}") from None
            if value < min_value:
                raise ValueError(f"entries must be >= {min_value}")
            out.append(value)
        return tuple(out)

    return parse


def _counts(min_value: int, *words: str) -> Callable[[str], int | tuple[int, ...] | str]:
    """An integer, a comma list of integers, or one of ``words``."""
    def parse(raw: str) -> int | tuple[int, ...] | str:
        if raw in words:
            return raw
        parsed = _intlist(min_value)(raw)
        if not parsed:
            choices = "".join(f"{word!r}, " for word in words)
            raise ValueError(f"expected {choices}an integer, or a comma list")
        return parsed[0] if len(parsed) == 1 and "," not in raw else parsed

    return parse


_string = str  # paths and other free text are taken verbatim

ALL_ATTACKS = ("none", *ATTACKS)
TAU_ATTACKS = tuple(kind for kind, row in ATTACKS.items() if not row.scales_benign_mean)
IPM_ATTACKS = tuple(kind for kind, row in ATTACKS.items() if row.scales_benign_mean)
# the generated kinds but synthetic fix both spread parameters to one value
PINNED_SPREAD = {"synthetic00": 0.0, "synthetic11": 1.0, "synthetic_dirichlet": 0.0}


@dataclass(frozen=True)
class Key:
    """One config key. It is accepted and emitted only under the listed
    dataset and attack kinds and aggregators; ``field`` is its path in
    ExperimentConfig when that differs from the key name."""

    name: str
    parse: Callable[[str], object]
    datasets: tuple[str, ...] = DATASET_KINDS
    attacks: tuple[str, ...] = ALL_ATTACKS
    aggregators: tuple[str, ...] = AGGREGATORS
    field: str = ""


# the keys of distance selection and the policy, which fedavg does not run
FEDAA = ("fedaa",)


KEYS = (
    Key("dataset", _choice(*DATASET_KINDS), field="dataset.kind"),
    Key("dataset.num_clients", _int(lo=2)),
    Key("dataset.alpha", _float(lo=0.0), datasets=("synthetic",)),
    Key("dataset.beta", _float(lo=0.0), datasets=("synthetic",)),
    Key("dataset.samples_per_client", _counts(5, "lognormal"), datasets=SYNTHETIC_KINDS),
    Key("dataset.total_samples", _int(lo=100), datasets=("synthetic_dirichlet",)),
    Key("dataset.dirichlet_concentration", _float(lo=0.0, lo_open=True), datasets=PARTITIONED_KINDS),
    Key("dataset.csv_path", _string, datasets=("csv",)),
    Key("dataset.idx_images", _string, datasets=("idx",)),
    Key("dataset.idx_labels", _string, datasets=("idx",)),
    Key("model.hidden", _intlist(1), field="model_hidden"),
    Key("malicious_fraction", _float(lo=0.0, hi=0.5, hi_open=True)),
    Key("attack", _choice(*ALL_ATTACKS), field="attack.kind"),
    Key("attack.tau", _float(lo=0.0, lo_open=True), attacks=TAU_ATTACKS, field="attack.scale"),
    Key("attack.ipm_epsilon", _float(lo=0.0, lo_open=True), attacks=IPM_ATTACKS, field="attack.scale"),
    Key("m_percent", _float(lo=0.0, hi=100.0, lo_open=True), aggregators=FEDAA),
    Key("participation_ratio", _float(lo=0.0, hi=1.0, lo_open=True)),
    Key("rounds", _int(lo=1)),
    Key("local.lr", _float(lo=0.0), field="local.learning_rate"),
    Key("local.weight_decay", _float(lo=0.0)),
    Key("local.batch_size", _int(lo=1)),
    Key("local.epochs", _int(lo=1)),
    Key("ddpg.gamma", _float(lo=0.0, hi=1.0, lo_open=True), aggregators=FEDAA),
    Key("ddpg.epsilon_soft", _float(lo=0.0, hi=1.0, lo_open=True), aggregators=FEDAA),
    Key("ddpg.actor_lr", _float(lo=0.0), aggregators=FEDAA),
    Key("ddpg.critic_lr", _float(lo=0.0), aggregators=FEDAA),
    Key("ddpg.weight_decay", _float(lo=0.0), aggregators=FEDAA),
    Key("ddpg.hidden", _int(lo=1), aggregators=FEDAA),
    Key("ddpg.buffer_capacity", _int(lo=1, below=2**63), aggregators=FEDAA),
    Key("ddpg.batch_size", _int(lo=1), aggregators=FEDAA),
    Key("ddpg.warmup", _int(lo=1), aggregators=FEDAA),
    Key("ddpg.noise_sigma", _float(lo=0.0), aggregators=FEDAA),
    Key("ddpg.noise_sigma_end", _float(lo=0.0), aggregators=FEDAA),
    Key("distance_scope", _choice(*SCOPES), aggregators=FEDAA),
    # the synthetic kinds build the reward set from client uploads
    Key("validation.per_class", _counts(1), datasets=PARTITIONED_KINDS),
    Key("aggregator", _choice(*AGGREGATORS)),
    Key("seed", _int(lo=0, below=SEED_LIMIT)),
)
SCHEMA: dict[str, Callable[[str], object]] = {key.name: key.parse for key in KEYS}
# each section of the key paths is an ExperimentConfig field holding a dataclass
SECTIONS = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if f.default_factory is not MISSING
}


def parse_config_values(text: str) -> dict[str, object]:
    """Parse config text into a key-value map without cross-validation.

    ParseError carries the offending line number.
    """
    values: dict[str, object] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {number}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ParseError(f"line {number}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {number}: duplicate key {key!r}")
        try:
            values[key] = SCHEMA[key](value)
        except ValueError as exc:
            raise ParseError(f"line {number}: {key}: {exc}") from None
    return values


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and cross-validate config text."""
    return build_config(parse_config_values(text))


def read_text(path: str, what: str) -> str:
    """The text of a UTF-8 ``what`` file (a config, results); ConfigError
    naming the file if it cannot be read, and the byte offset if it is
    not UTF-8 (read whole, the file decodes in one piece)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"cannot read {what} {path}: byte {exc.start} is not UTF-8 ({exc.reason})"
        ) from None


def parse_config(path: str) -> ExperimentConfig:
    return parse_config_text(read_text(path, "config"))


def _scope(key: Key) -> tuple[tuple[str, ...], ...]:
    return key.datasets, key.attacks, key.aggregators


def _applies(key: Key, kinds: tuple[str, str, str]) -> bool:
    """Whether ``key`` applies under (dataset kind, attack kind, aggregator)."""
    return all(kind in allowed for kind, allowed in zip(kinds, _scope(key)))


def _scope_error(key: Key, kinds: tuple[str, str, str]) -> str:
    """Why ``key`` is rejected, naming with it the keys of its section
    that share its scope (``dataset.alpha/beta``)."""
    section, _, _ = key.name.rpartition(".")
    peers = [
        k.name.rpartition(".")[2]
        for k in KEYS
        if section and k.name.startswith(section + ".") and _scope(k) == _scope(key)
    ]
    names = f"{section}.{'/'.join(peers)} apply" if len(peers) > 1 else f"{key.name} applies"
    if kinds[0] not in key.datasets:
        return f"{names} only to dataset = {', '.join(key.datasets)}"
    if kinds[1] == "none" and "none" not in key.attacks:
        return f"{names} only with an attack; keys in {section}.* require an attack"
    if kinds[1] not in key.attacks:
        return f"{names} only to attack = {', '.join(key.attacks)}"
    return f"{names} only to aggregator = {', '.join(key.aggregators)}"


def build_config(values: dict[str, object]) -> ExperimentConfig:
    """Assemble and cross-validate a config from parsed key values.

    Keys left out take the dataclass defaults.
    """
    by_section: dict[str, dict[str, object]] = defaultdict(dict)
    for key in KEYS:
        if key.name in values:
            section, _, attr = (key.field or key.name).rpartition(".")
            by_section[section][attr] = values[key.name]
    attack = by_section.pop("attack", {})
    kinds = (
        by_section["dataset"].get("kind", DatasetConfig.kind),
        attack.get("kind", "none"),
        values.get("aggregator", ExperimentConfig.aggregator),
    )
    for key in KEYS:
        if key.name in values and not _applies(key, kinds):
            raise ConfigError(_scope_error(key, kinds))
    # a file-backed kind needs every path key that belongs to it alone
    missing = [
        key.name
        for key in KEYS
        if key.parse is _string and key.datasets == kinds[:1] and not values.get(key.name)
    ]
    if missing:
        raise ConfigError(f"dataset = {kinds[0]} requires {' and '.join(missing)}")
    cfg = ExperimentConfig(
        attack=None if kinds[1] == "none" else AttackSpec(**attack),
        **by_section.pop("", {}),
        **{section: SECTIONS[section](**kw) for section, kw in by_section.items()},
    )
    if cfg.seed >= SEED_LIMIT:  # a sweep's seeds past its start skip the key's parser
        raise ConfigError(f"seed = {cfg.seed} must be < {SEED_LIMIT}")
    sizes, count = cfg.dataset.samples_per_client, cfg.dataset.num_clients
    if isinstance(sizes, tuple) and len(sizes) != count:
        raise ConfigError(f"dataset.samples_per_client lists {len(sizes)} sizes for {count} clients")
    if cfg.malicious_fraction != 0.0 and cfg.attack is None:
        raise ConfigError("malicious_fraction > 0 requires an attack")
    if cfg.attack is not None and attacker_count(count, cfg.malicious_fraction) == 0:
        raise ConfigError(
            f"attack = {cfg.attack.kind} with malicious_fraction = {cfg.malicious_fraction} "
            f"of dataset.num_clients = {count} makes floor({cfg.malicious_fraction} * {count}) "
            f"= 0 attackers, so no client attacks"
        )
    if cfg.ddpg.buffer_capacity < cfg.ddpg.warmup:
        raise ConfigError(
            f"ddpg.buffer_capacity = {cfg.ddpg.buffer_capacity} is below ddpg.warmup = "
            f"{cfg.ddpg.warmup}: the replay buffer never warms up, so the policy never trains"
        )
    if cfg.distance_scope == "last_hidden_layer" and not cfg.model_hidden:
        raise ConfigError("distance_scope = last_hidden_layer requires a hidden layer in model.hidden")
    cohort = round_half_up(cfg.participation_ratio * count)
    yields = f"participation_ratio = {cfg.participation_ratio} with dataset.num_clients = {count} yields"
    if cfg.aggregator == "fedaa" and cohort < 2:
        raise ConfigError(f"{yields} a cohort of {cohort}; the distance selector needs at least 2")
    if cohort < 1:
        raise ConfigError(f"{yields} an empty cohort")
    total = cfg.dataset.total_samples
    if cfg.dataset.kind == "synthetic_dirichlet" and total // count < 5:
        raise ConfigError(
            f"dataset.total_samples = {total} with dataset.num_clients = {count} leaves "
            f"{total // count} samples a client; synthetic_dirichlet needs at least 5"
        )
    return cfg


def _fmt(value: object, key: Key) -> str:
    """``value`` as ``key``'s text: a float key's value as the float its
    parser reads (an int or a numpy float built in code included)."""
    if getattr(key.parse, "emits_float", False):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _value(cfg: ExperimentConfig, path: str) -> object:
    """The value at a dotted field path; under no attack, the attack
    fields read as "none"."""
    value: object = cfg
    for attr in path.split("."):
        if value is None:
            return "none"
        value = getattr(value, attr)
    return value


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text: sorted keys, every applicable key spelled out but
    one left unset. That is ``validation.per_class`` of a ``csv``, ``idx``
    or ``synthetic_dirichlet`` run, whose absence means 100 validation
    rows per class."""
    kinds = cfg.dataset.kind, _value(cfg, "attack.kind"), cfg.aggregator
    pairs = {key.name: (key, _value(cfg, key.field or key.name)) for key in KEYS if _applies(key, kinds)}
    return "".join(
        f"{name} = {_fmt(value, key)}\n" for name, (key, value) in sorted(pairs.items())
        if value is not None
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonical config text."""
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()
