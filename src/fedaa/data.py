"""Datasets: synthetic generator, non-IID partitioning, file loaders.

All features are float64 matrices of shape (n, dim); labels are integer
vectors with every value in [0, num_classes). A population of clients
is a sequence of (train, test) pairs. Second arguments to normal draws
below are variances, matching the generative recipes they implement.

A synthetic population is built as whole arrays: only the random draws
are made client by client, in the order a client-by-client build makes
them, and the scaling, labelling, checks, splits and the server pool's
gathers each run once over all clients' rows. The population is checked
once, as one ``LabeledDataset``; each client's sets are row views of
one train set and one test set, and a row subset of a checked set is
not checked again.
"""

from __future__ import annotations

import math
import mmap
import struct
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

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

    def subset(self, indices: np.ndarray | slice) -> "LabeledDataset":
        """The rows ``indices`` (an index array, a row mask, or a slice,
        which gives views). A row subset of a checked set is not checked
        again; only that it holds a row."""
        out = object.__new__(LabeledDataset)
        out.features, out.labels = self.features[indices], self.labels[indices]
        out.num_classes = self.num_classes
        if out.labels.size == 0:
            raise ConfigError("dataset must hold at least one sample")
        return out


# one (train, test) pair per client, in client order
Clients = Sequence[tuple[LabeledDataset, LabeledDataset]]

# the synthetic source's feature count and classes
SYNTHETIC_DIM = 60
SYNTHETIC_CLASSES = 10
# the share of a client's samples held out as its test split
TEST_FRACTION = 0.2


class Population(tuple):
    """A synthetic population: its clients' (train, test) pairs, which
    cannot change, and ``train``, the one set whose consecutive row
    slices are their train sets, in client order."""

    train: LabeledDataset

    def __new__(cls, pairs: Iterable[tuple[LabeledDataset, LabeledDataset]],
                train: LabeledDataset) -> "Population":
        self = super().__new__(cls, pairs)
        self.train = train
        return self


def _row_slices(whole: LabeledDataset, counts: Sequence[int]) -> list[LabeledDataset]:
    """``whole`` cut into consecutive row views of ``counts`` rows each."""
    ends = np.cumsum(counts).tolist()
    return [whole.subset(slice(end - n, end)) for n, end in zip(counts, ends)]


@dataclass
class SyntheticGenerators:
    """Per-client generative models, client k's at index k: a softmax
    classifier plus a feature center."""

    weight: np.ndarray  # (clients, num_classes, input_dim)
    bias: np.ndarray    # (clients, num_classes)
    center: np.ndarray  # (clients,): v_k, shared mean of every feature coordinate


def draw_synthetic_generators(
    alpha: float, beta: float, count: int, rng: np.random.Generator
) -> SyntheticGenerators:
    """Draw ``count`` clients' generators. alpha scales the variance of
    each client's model-mean draw, beta that of its feature-center mean;
    both zero, every client shares the same generative centers (the
    models still differ through the unit-variance draws around them).

    Client after client, the draws are u_k ~ N(0, alpha), its weights
    and biases ~ N(u_k, 1), mu_k ~ N(0, beta) and v_k ~ N(mu_k, 1): one
    block of standard normals z, each value formed as ``rng.normal(loc,
    scale)`` forms it, loc + scale * z. The weights, biases and centers
    are views of the block, shifted in place, so the generators make no
    second array of their size.
    """
    if alpha < 0 or beta < 0:
        raise ConfigError("alpha and beta must be non-negative")
    size = SYNTHETIC_CLASSES * SYNTHETIC_DIM
    z = rng.standard_normal((count, size + SYNTHETIC_CLASSES + 3))
    z[:, 1:-2] += 0.0 + math.sqrt(alpha) * z[:, :1]  # weights and biases around u_k
    z[:, -1] += 0.0 + math.sqrt(beta) * z[:, -2]  # v_k around mu_k
    weight = z[:, 1 : size + 1].reshape(count, SYNTHETIC_CLASSES, SYNTHETIC_DIM)
    return SyntheticGenerators(weight, z[:, size + 1 : -2], z[:, -1])


def feature_scales(input_dim: int) -> np.ndarray:
    """Per-coordinate standard deviations: variance of feature j is 1/j^1.2, j from 1."""
    j = np.arange(1, input_dim + 1, dtype=np.float64)
    return np.sqrt(1.0 / j**1.2)


def synthetic_population(
    alpha: float, beta: float, sizes: Sequence[int], rng: np.random.Generator,
    permute: bool = False,
) -> tuple[LabeledDataset, np.ndarray | None]:
    """Every client's rows, client after client, as one checked set:
    ``sizes[k]`` rows for client k, around its center and labeled by its
    classifier; and with ``permute``, each client's permutation of its
    own rows (``rng.permutation(sizes[k])``), one after the other.

    Every generator is drawn first; then each client's (n, dim) block of
    standard normals, and with ``permute`` its permutation after it. The
    blocks are scaled and centred in place, and the bias add and argmax
    run once over all rows; the affine scores take one matmul per client,
    on its own rows, because BLAS may round a row by the rows beside it.
    """
    if any(n < 5 for n in sizes):
        raise ConfigError("every client needs at least 5 samples")
    gens = draw_synthetic_generators(alpha, beta, len(sizes), rng)
    bounds = list(zip(np.cumsum(sizes).tolist(), sizes))
    # the build's largest temporary: in its own mapping, its pages go back
    # to the system when the build drops it, where the allocator's heap
    # would keep them and add them to the peak RSS of the run that follows
    rows = sum(sizes)
    x = np.frombuffer(mmap.mmap(-1, 8 * SYNTHETIC_DIM * max(rows, 1)))[: rows * SYNTHETIC_DIM]
    x = x.reshape(rows, SYNTHETIC_DIM)
    perms = np.empty(rows, dtype=np.int64) if permute else None
    for end, n in bounds:
        rng.standard_normal(out=x[end - n : end])
        if permute:
            perms[end - n : end] = rng.permutation(n)
    x *= feature_scales(SYNTHETIC_DIM)
    x += np.repeat(gens.center, sizes)[:, None]
    scores = np.empty((rows, SYNTHETIC_CLASSES))
    for weight, (end, n) in zip(gens.weight, bounds):
        np.matmul(x[end - n : end], weight.T, out=scores[end - n : end])
    scores += np.repeat(gens.bias, sizes, axis=0)
    return LabeledDataset(x, np.argmax(scores, axis=1), SYNTHETIC_CLASSES), perms


def generate_synthetic(
    alpha: float, beta: float, sizes: Sequence[int], rng: np.random.Generator
) -> Population:
    """Per-client synthetic datasets, each split 80/20 into train/test.

    Client k's test rows are the first round(0.2 * n) entries of its
    permutation, in row order, and its train rows the rest; n >= 5 puts
    rows on both sides. All train rows are gathered into one set and all
    test rows into another, and each client's sets are row views of
    those two.
    """
    population, perms = synthetic_population(alpha, beta, sizes, rng, permute=True)
    n_test = [round_half_up(TEST_FRACTION * n) for n in sizes]
    # each row's client's first row; ``first`` marks the first n_test
    # places of each client's permutation, whose entries are its test rows
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    first = np.arange(len(perms)) - starts < np.repeat(n_test, sizes)
    is_test = np.zeros(len(perms), dtype=bool)
    is_test[starts[first] + perms[first]] = True
    train = population.subset(~is_test)
    tests = _row_slices(population.subset(is_test), n_test)
    trains = _row_slices(train, [n - t for n, t in zip(sizes, n_test)])
    return Population(zip(trains, tests), train)


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

    The picks are drawn client after client (``rng.choice``). The pool
    and the kept train rows are then each gathered once from all train
    rows, client after client: a Population's ``train``, else the
    concatenation of the train sets, which share one class count. The
    trimmed train sets are row views of the kept rows.
    """
    sizes = [len(train) for train, _ in clients]
    upload = max(1, round_half_up(0.1 * min(n + len(test) for n, (_, test) in zip(sizes, clients))))
    picks = np.empty((len(clients), upload), dtype=np.int64)
    for k, n in enumerate(sizes):
        if n - upload < 1:
            raise ConfigError(f"client train split of {n} cannot spare {upload} uploads")
        picks[k] = rng.choice(n, size=upload, replace=False)
    if isinstance(clients, Population):
        whole = clients.train
    else:
        whole = LabeledDataset(
            np.concatenate([train.features for train, _ in clients]),
            np.concatenate([train.labels for train, _ in clients]),
            clients[0][0].num_classes,
        )
    picked = np.zeros(len(whole), dtype=bool)
    picked[picks + (np.cumsum(sizes) - sizes)[:, None]] = True
    trains = _row_slices(whole.subset(~picked), [n - upload for n in sizes])
    return whole.subset(picked), list(zip(trains, (test for _, test in clients)))


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
