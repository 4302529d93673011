"""Distance-based client selection and the policy state it produces.

Selection scores each upload by its summed Euclidean distance to every
other upload and keeps the lowest-sum clients: outliers sit far from
the benign cluster, so large row sums flag suspicion. The normalized
row sums of the retained clients form the observation handed to the
weight policy.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import ConfigError, SimulationError
from .data import round_half_up
from .nn import ArchSpec, layer_slices, param_count

SCOPES = ("all_layers", "last_hidden_layer")

# Pair-columns (pairs i < j times the row width) below which the distance
# matrix is one band. On a 2-vCPU Xeon two bands took 0.33 ms over 20 rows
# of 610 (115,900 pair-columns) against 0.09 ms for one, broke even near
# 3.5e6 and took 24 ms over 121 rows of 14,210 (1.03e8) against 42 ms.
BAND_WORK = 1 << 22

# fedaa sweep's worker processes share the CPUs between them already, so
# each keeps its selections at one band (see one_band_per_process)
_one_band = False


@dataclass
class SelectionResult:
    selected_ids: list[int]          # ascending client ids
    state: np.ndarray                # normalized row sums, aligned with selected_ids
    raw_row_sums: np.ndarray         # unnormalized, aligned with selected_ids


def top_count(m_percent: float, n_participants: int) -> int:
    """Round-half-up count of clients retained at m_percent, at least 1."""
    if not 0.0 < m_percent <= 100.0:
        raise ConfigError("m_percent must lie in (0, 100]")
    if n_participants < 1:
        raise ConfigError("n_participants must be >= 1")
    return max(1, round_half_up(m_percent * n_participants / 100.0))


def normalize_state(row_sums: np.ndarray) -> np.ndarray:
    """Min-max normalization to [0, 1]; a constant vector maps to zeros."""
    x = np.asarray(row_sums, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("row sums must be a non-empty 1-D vector")
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def one_band_per_process() -> None:
    """Keep every later selection in this process at one band."""
    global _one_band
    _one_band = True


def band_count(rows: int, cols: int) -> int:
    """Bands for the distance matrix of ``rows`` rows of ``cols`` columns:
    one below BAND_WORK pair-columns, else one per usable CPU."""
    if _one_band or rows * (rows - 1) // 2 * cols < BAND_WORK:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, rows - 1)


def distance_matrix(y: np.ndarray, bands: int) -> np.ndarray:
    """``squareform(pdist(y))``, bit for bit, computed in row bands.

    The rows split into up to ``bands`` contiguous bands of about equal
    numbers of pairs ``i < j``. Band ``[lo, hi)`` measures its own pairs
    with ``pdist(y[lo:hi])`` and its pairs with the later rows with
    ``cdist(y[lo:hi], y[hi:])``, mirrored below the diagonal; both run
    scipy's one euclidean kernel on the same operands, so every entry is
    the one ``pdist(y)`` gives. Band 0 runs on the calling thread and the
    others on worker threads, as scipy releases the GIL in both kernels.
    """
    n = len(y)
    if bands < 2 or n < 2:
        return squareform(pdist(y))
    # imported here, as a run that never bands would pay 0.1 MiB of peak RSS
    from concurrent.futures import ThreadPoolExecutor

    row = np.arange(n)
    before = row * (2 * n - 1 - row) // 2  # pairs i < j in the rows above each row
    cuts = np.unique(np.searchsorted(before, np.arange(bands) * (before[-1] / bands)))
    d = np.zeros((n, n))

    def fill(lo: int, hi: int) -> None:
        d[lo:hi, lo:hi] = squareform(pdist(y[lo:hi]))
        if hi < n:
            d[lo:hi, hi:] = cdist(y[lo:hi], y[hi:])
            d[hi:, lo:hi] = d[lo:hi, hi:].T

    spans = list(zip(cuts.tolist(), [*cuts[1:].tolist(), n]))
    with ThreadPoolExecutor(max_workers=len(spans) - 1) as pool:
        rest = [pool.submit(fill, lo, hi) for lo, hi in spans[1:]]
        fill(*spans[0])
        for band in rest:
            band.result()
    return d


def _scoped_columns(uploads: np.ndarray, scope: str, arch: ArchSpec | None) -> np.ndarray:
    """The columns of the uploads that the scope measures, as a view."""
    if scope == "last_hidden_layer":
        if arch is None:
            raise ConfigError("last_hidden_layer scope requires the model architecture")
        if uploads.shape[1] != param_count(arch):
            raise ConfigError("uploads do not match the given architecture")
        if not arch.hidden_dims:
            raise ConfigError("last_hidden_layer scope requires a hidden layer")
        # weight and bias of the final hidden layer are adjacent in the flat layout
        wsl, bsl = layer_slices(arch)[len(arch.hidden_dims) - 1]
        return uploads[:, wsl.start : bsl.stop]
    elif scope != "all_layers":
        raise ConfigError(f"unknown distance scope: {scope!r}")
    return uploads


def _distinct_rows(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given rows of x, merged when their bytes are equal.

    Returns ``first``, the row of x that stands for each distinct row,
    and ``inverse``, the position in ``first`` of each given row's equal,
    so ``x[first][inverse]`` equals ``x[rows]`` byte for byte. Rows are
    bucketed by the wrapping sum of their 64-bit words, and every match
    in a bucket is confirmed by comparing all its words, so rows that
    differ anywhere (``0.0`` and ``-0.0`` included) are never merged.
    """
    words = x.view(np.uint64)
    keys = np.add.reduce(words, axis=1).tolist()
    first: list[int] = []
    inverse = np.empty(rows.size, dtype=np.intp)
    buckets: dict[int, list[int]] = {}
    for pos, row in enumerate(rows.tolist()):
        bucket = buckets.setdefault(keys[row], [])
        for slot in bucket:
            if np.array_equal(words[row], words[first[slot]]):
                inverse[pos] = slot
                break
        else:
            inverse[pos] = len(first)
            bucket.append(len(first))
            first.append(row)
    return np.asarray(first, dtype=np.intp), inverse


def select_clients(
    ids: list[int],
    uploads: np.ndarray,
    m_percent: float,
    scope: str = "all_layers",
    arch: ArchSpec | None = None,
) -> SelectionResult:
    """Keep the m_percent of uploads with the smallest summed distances.

    ``uploads`` holds one row per client, the clients ``ids`` in strictly
    ascending order. Clients with non-finite uploads get +inf row sums
    and are never retained; finite clients' sums are taken over finite
    peers only. Ties break toward the smaller client id. Raises
    SimulationError, naming the clients with non-finite uploads, if fewer
    finite uploads remain than the selection needs.

    Byte-equal uploads (round 0's broadcast copies, the clones an IPM
    attack sends) are measured once: ``distance_matrix`` runs over the
    distinct finite rows, in bands on the usable CPUs when they are many
    (``band_count``), and the full distance matrix is rebuilt from them,
    so each row sum adds the same floats in the same order as
    ``squareform(pdist(x)).sum(axis=1)`` over every finite row.
    """
    ids = np.asarray(ids, dtype=np.int64)
    uploads = np.asarray(uploads, dtype=np.float64)
    if uploads.ndim != 2 or ids.shape != uploads.shape[:1]:
        raise ConfigError(f"{ids.size} client ids for uploads of shape {uploads.shape}")
    if (np.diff(ids) <= 0).any():
        raise ConfigError("client ids must be strictly ascending")
    n = ids.size
    if n < 2:
        raise ConfigError("selection needs at least 2 uploads")
    x = _scoped_columns(uploads, scope, arch)
    finite = np.isfinite(x).all(axis=1)
    count = top_count(m_percent, n)
    good = np.flatnonzero(finite)
    if good.size < count:
        bad = ", ".join(str(c) for c in ids[~finite])
        raise SimulationError(
            f"only {good.size} finite uploads for a selection of {count}; "
            f"non-finite uploads from clients {bad}"
        )
    first, inverse = _distinct_rows(x, good)
    sums = np.full(n, np.inf)
    # a single distinct upload gives squareform's [[0.]], a zero sum; x[first]
    # is the only copy of the rows, since a second one (of x[good]) raised
    # the peak RSS of a 200-client, d = 14,210 run by 7%
    d = distance_matrix(x[first], band_count(first.size, x.shape[1]))
    sums[good] = d[np.ix_(inverse, inverse)].sum(axis=1)
    # a stable sort on the row sums breaks ties toward the smaller id
    keep = np.sort(np.argsort(sums, kind="stable")[:count])
    raw = sums[keep]
    return SelectionResult(
        selected_ids=ids[keep].tolist(),
        state=normalize_state(raw),
        raw_row_sums=raw,
    )
