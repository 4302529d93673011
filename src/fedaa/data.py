"""Datasets: synthetic generator, non-IID partitioning, file loaders.

All features are float64 matrices of shape (n, dim); labels are integer
vectors with every value in [0, num_classes). A population of clients
is a list of (train, test) pairs. Second arguments to normal draws below
are variances, matching the generative recipes they implement.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, IngestionError


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass
class LabeledDataset:
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1:
            raise ConfigError("features must be 2-D and labels 1-D")
        if self.features.shape[0] != self.labels.size:
            raise ConfigError(
                f"{self.features.shape[0]} feature rows but {self.labels.size} labels"
            )
        if self.labels.size == 0:
            raise ConfigError("dataset must hold at least one sample")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigError("label outside [0, num_classes)")
        if not np.isfinite(self.features).all():
            raise ConfigError("features contain non-finite values")

    def __len__(self) -> int:
        return self.labels.size

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.num_classes)


# one (train, test) pair per client, in client order
Clients = list[tuple[LabeledDataset, LabeledDataset]]

# the synthetic source's feature count and classes
SYNTHETIC_DIM = 60
SYNTHETIC_CLASSES = 10
# the share of a client's samples held out as its test split
TEST_FRACTION = 0.2


@dataclass
class SyntheticGenerator:
    """Per-client generative model: softmax classifier plus feature center."""

    weight: np.ndarray  # (num_classes, input_dim)
    bias: np.ndarray    # (num_classes,)
    center: float       # v_k, shared mean of every feature coordinate


def draw_synthetic_generators(
    alpha: float, beta: float, count: int, rng: np.random.Generator
) -> list[SyntheticGenerator]:
    """Draw ``count`` clients' generators. alpha scales the variance of
    each client's model-mean draw, beta that of its feature-center mean;
    both zero, every client shares the same generative centers (the
    models still differ through the unit-variance draws around them)."""
    if alpha < 0 or beta < 0:
        raise ConfigError("alpha and beta must be non-negative")
    out = []
    for _ in range(count):
        u = float(rng.normal(0.0, math.sqrt(alpha)))
        weight = rng.normal(u, 1.0, size=(SYNTHETIC_CLASSES, SYNTHETIC_DIM))
        bias = rng.normal(u, 1.0, size=SYNTHETIC_CLASSES)
        mu = float(rng.normal(0.0, math.sqrt(beta)))
        v = float(rng.normal(mu, 1.0))
        out.append(SyntheticGenerator(weight, bias, v))
    return out


def feature_scales(input_dim: int) -> np.ndarray:
    """Per-coordinate standard deviations: variance of feature j is 1/j^1.2, j from 1."""
    j = np.arange(1, input_dim + 1, dtype=np.float64)
    return np.sqrt(1.0 / j**1.2)


def sample_from_generator(
    gen: SyntheticGenerator, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n feature rows around the client center, labeled by its classifier."""
    if n < 1:
        raise ConfigError("sample count must be >= 1")
    dim = gen.weight.shape[1]
    x = gen.center + rng.standard_normal((n, dim)) * feature_scales(dim)
    y = np.argmax(x @ gen.weight.T + gen.bias, axis=1)
    return x, y.astype(np.int64)


def synthetic_samples(
    alpha: float, beta: float, sizes: Sequence[int], rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each client's (features, labels), ``sizes[k]`` rows for client k.

    Every generator is drawn first; then each client's sample is drawn
    as it is asked for, so draws the caller makes between two clients
    come after the first one's sample and before the next one's.
    """
    if any(n < 5 for n in sizes):
        raise ConfigError("every client needs at least 5 samples")
    for gen, n in zip(draw_synthetic_generators(alpha, beta, len(sizes), rng), sizes):
        yield sample_from_generator(gen, n, rng)


def split_train_test(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shuffled (train, test) index split; both sides non-empty for n >= 2."""
    if n < 2:
        raise ConfigError("need at least 2 samples to split")
    perm = rng.permutation(n)
    n_test = min(max(1, round_half_up(TEST_FRACTION * n)), n - 1)
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])


def stratified_split(labels: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-class split where class counts allow; both sides non-empty."""
    labels = np.asarray(labels)
    n = labels.size
    if n < 2:
        raise ConfigError("need at least 2 samples to split")
    test: list[int] = []
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        k = round_half_up(TEST_FRACTION * idx.size)
        test.extend(idx[:k].tolist())
    mask = np.zeros(n, dtype=bool)
    mask[test] = True
    if mask.all():
        mask[np.flatnonzero(mask)[0]] = False
    if not mask.any():
        mask[n - 1] = True
    return np.flatnonzero(~mask), np.flatnonzero(mask)


def generate_synthetic(
    alpha: float, beta: float, sizes: Sequence[int], rng: np.random.Generator
) -> Clients:
    """Per-client synthetic datasets, each split 80/20 into train/test."""
    clients = []
    for x, y in synthetic_samples(alpha, beta, sizes, rng):
        train_idx, test_idx = split_train_test(y.size, rng)
        clients.append(
            (
                LabeledDataset(x[train_idx], y[train_idx], SYNTHETIC_CLASSES),
                LabeledDataset(x[test_idx], y[test_idx], SYNTHETIC_CLASSES),
            )
        )
    return clients


def dirichlet_partition(
    source: LabeledDataset,
    num_clients: int,
    concentration: float,
    rng: np.random.Generator,
) -> Clients:
    """Label-skewed partition: per class, client shares ~ Dirichlet(concentration).

    Every source sample lands on exactly one client. Clients left with
    fewer than 2 samples are topped up from the largest client. Each
    client is then split 80/20, stratified where class counts allow.
    """
    if num_clients < 1:
        raise ConfigError("num_clients must be >= 1")
    if concentration <= 0:
        raise ConfigError("concentration must be positive")
    if len(source) < num_clients * 10:
        raise ConfigError(
            f"source has {len(source)} samples, need >= {num_clients * 10}"
        )
    owned: list[list[int]] = [[] for _ in range(num_clients)]
    for c in range(source.num_classes):
        idx = rng.permutation(np.flatnonzero(source.labels == c))
        if idx.size == 0:
            continue
        shares = rng.dirichlet(np.full(num_clients, concentration))
        cuts = np.floor(np.cumsum(shares)[:-1] * idx.size).astype(int)
        for k, piece in enumerate(np.split(idx, cuts)):
            owned[k].extend(piece.tolist())
    # top up starved clients from whichever client currently holds the most
    for k in range(num_clients):
        while len(owned[k]) < 2:
            donor = max(range(num_clients), key=lambda i: len(owned[i]))
            if donor == k or len(owned[donor]) < 3:
                raise ConfigError("not enough samples to give every client 2")
            owned[k].append(owned[donor].pop())
    clients = []
    for k in range(num_clients):
        idx = np.sort(np.asarray(owned[k], dtype=np.int64))
        train_pos, test_pos = stratified_split(source.labels[idx], rng)
        clients.append((source.subset(idx[train_pos]), source.subset(idx[test_pos])))
    return clients


def build_validation_set(
    source: LabeledDataset,
    per_class_counts: Sequence[int],
    rng: np.random.Generator,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Draw a class-count-exact validation set; returns (validation, remainder).

    The remainder is the source minus the drawn rows, so downstream
    partitions built from it are disjoint from the validation set by
    construction.
    """
    counts = [int(c) for c in per_class_counts]
    if len(counts) != source.num_classes:
        raise ConfigError(
            f"{len(counts)} class counts given for {source.num_classes} classes"
        )
    if any(c < 1 for c in counts):
        raise ConfigError("every per-class count must be >= 1")
    chosen: list[np.ndarray] = []
    for c, want in enumerate(counts):
        idx = np.flatnonzero(source.labels == c)
        if idx.size < want:
            raise ConfigError(f"class {c}: need {want} samples, source has {idx.size}")
        chosen.append(rng.permutation(idx)[:want])
    val_idx = np.sort(np.concatenate(chosen))
    mask = np.zeros(len(source), dtype=bool)
    mask[val_idx] = True
    rest_idx = np.flatnonzero(~mask)
    if rest_idx.size == 0:
        raise ConfigError("validation set would consume the entire source")
    return source.subset(val_idx), source.subset(rest_idx)


def extract_server_pool(
    clients: Clients, rng: np.random.Generator
) -> tuple[LabeledDataset, Clients]:
    """Server-side validation pool via the client upload rule.

    With n the smallest client sample count, every client moves
    max(1, round(0.1 * n)) seeded train samples into the pool; moved
    samples leave the client's train set, keeping the pool disjoint.
    """
    totals = [len(train) + len(test) for train, test in clients]
    upload = max(1, round_half_up(0.1 * min(totals)))
    pool_x, pool_y = [], []
    trimmed = []
    for train, test in clients:
        if len(train) - upload < 1:
            raise ConfigError(
                f"client train split of {len(train)} cannot spare {upload} uploads"
            )
        pick = np.sort(rng.choice(len(train), size=upload, replace=False))
        kept = np.ones(len(train), dtype=bool)
        kept[pick] = False
        keep = np.flatnonzero(kept)
        pool_x.append(train.features[pick])
        pool_y.append(train.labels[pick])
        trimmed.append((train.subset(keep), test))
    pool = LabeledDataset(np.vstack(pool_x), np.concatenate(pool_y), clients[0][0].num_classes)
    return pool, trimmed


def lognormal_sizes(
    num_clients: int,
    rng: np.random.Generator,
    median: float = 100.0,
    sigma: float = 0.8,
    lo: int = 20,
    hi: int = 1000,
) -> list[int]:
    """Log-normal client sizes around the median, clamped to [lo, hi]."""
    raw = np.exp(rng.normal(math.log(median), sigma, size=num_clients))
    return [int(v) for v in np.clip(np.floor(raw), lo, hi)]


_IMAGE_MAGIC = 2051
_LABEL_MAGIC = 2049


def _read_exact(blob: bytes, fmt: str, offset: int, path: str) -> tuple:
    size = struct.calcsize(fmt)
    if offset + size > len(blob):
        raise IngestionError(f"{path}: truncated at byte {len(blob)} (needed {offset + size})")
    return struct.unpack_from(fmt, blob, offset)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load a big-endian IDX image/label pair into a flat float dataset.

    Pixels are scaled to [0, 1] by dividing by 255; each image flattens
    row-major to rows * cols features.
    """
    blob = _read_bytes(images_path)
    magic, count, rows, cols = _read_exact(blob, ">IIII", 0, images_path)
    if magic != _IMAGE_MAGIC:
        raise IngestionError(
            f"{images_path}: bad magic {magic} at byte 0 (expected {_IMAGE_MAGIC})"
        )
    if count == 0:
        raise IngestionError(f"{images_path}: holds no images")
    need = 16 + count * rows * cols
    if len(blob) < need:
        raise IngestionError(f"{images_path}: truncated at byte {len(blob)} (needed {need})")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=count * rows * cols, offset=16)
    features = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0

    blob = _read_bytes(labels_path)
    magic, label_count = _read_exact(blob, ">II", 0, labels_path)
    if magic != _LABEL_MAGIC:
        raise IngestionError(
            f"{labels_path}: bad magic {magic} at byte 0 (expected {_LABEL_MAGIC})"
        )
    if label_count != count:
        raise IngestionError(
            f"{labels_path}: {label_count} labels for {count} images"
        )
    need = 8 + label_count
    if len(blob) < need:
        raise IngestionError(f"{labels_path}: truncated at byte {len(blob)} (needed {need})")
    labels = np.frombuffer(blob, dtype=np.uint8, count=label_count, offset=8).astype(np.int64)
    num_classes = max(int(labels.max()) + 1, 2) if labels.size else 2
    return LabeledDataset(features, labels, num_classes)


def load_csv(path: str) -> LabeledDataset:
    """Numeric CSV with a header row; the final column is the integer label."""
    try:
        with warnings.catch_warnings():
            # an empty table is reported below, as this loader's own error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (ValueError, OSError) as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    if table.shape[0] == 0:
        raise IngestionError(f"{path}: the file has no data rows")
    if table.shape[1] < 2:
        raise IngestionError(f"{path}: need at least one feature column plus labels")
    labels = table[:, -1]
    if not np.array_equal(labels, np.floor(labels)):
        raise IngestionError(f"{path}: label column holds non-integer values")
    # every class up to the largest label needs a row of its own
    big = np.flatnonzero(labels >= len(labels))
    if big.size:
        raise IngestionError(
            f"{path}: data row {big[0] + 1}: label {labels[big[0]]:.0f} is not below the "
            f"{len(labels)} data rows, so some class below it has no row"
        )
    labels = labels.astype(np.int64)
    if labels.min() < 0:
        raise IngestionError(f"{path}: negative label")
    features = table[:, :-1]
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise IngestionError(f"{path}: data row {bad[0] + 1}: non-finite feature value")
    return LabeledDataset(features, labels, max(int(labels.max()) + 1, 2))
