"""Distance-based client selection and the policy state it produces.

Selection scores each upload by its summed Euclidean distance to every
other upload and keeps the lowest-sum clients: outliers sit far from
the benign cluster, so large row sums flag suspicion. The normalized
row sums of the retained clients form the observation handed to the
weight policy. ``distance_matrix`` measures small selections on numpy
alone, bit for bit as scipy's ``pdist`` would, and large ones with a
centred Gram product on BLAS, so selection never loads scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError
from .data import round_half_up
from .nn import ArchSpec, layer_slices, param_count

SCOPES = ("all_layers", "last_hidden_layer")

# Pair-columns (pairs i < j times the row width) from which the distance
# matrix is a centred Gram product: 5.4 ms against pdist's 35.4 ms over
# 121 rows of 14,210 (1.03e8) on a 2-vCPU Xeon. Below it, numpy builds the
# exact matrix, such as 20 rows of 610 (115,900) in 0.37 ms, where pdist
# takes 0.05 ms but importing scipy.spatial adds 37 MiB of peak RSS and
# 0.16 s to a run.
GRAM_WORK = 1 << 22

# Entries beyond +-LIMIT make an upload unmeasurable: 16 * d * LIMIT**2
# bounds every term of a squared distance between centred rows of d
# columns, and stays finite for any d below 2**59.
LIMIT = 2.0**480

# _distinct_rows keys each row by the sum of about KEY_WORDS of its words:
# a key pass over every word took 0.66 ms of its 1.2-1.8 ms on 200 uploads
# of 14,210, 2-vCPU Xeon
KEY_WORDS = 64


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


def distance_matrix(y: np.ndarray) -> np.ndarray:
    """The Euclidean distance matrix of the rows of ``y``, which it may
    overwrite.

    Below GRAM_WORK pair-columns it is built on numpy alone: for each row
    ``i``, the squared differences ``(y[j] - y[i])**2`` of the later rows
    are summed left to right by ``np.add.accumulate``, the order in which
    scipy's ``pdist`` sums them, so the matrix is ``squareform(pdist(y))``
    bit for bit and ``y`` is left as it was. From GRAM_WORK, the rows are
    centred in place on their column mean, ``c``, and ``g = c @ c.T`` is
    one BLAS syrk, exactly symmetric; then
    ``d_ij = sqrt(max(g_ii + g_jj - 2 g_ij, 0))``, exactly symmetric with
    a zero diagonal. Away from underflow, each entry lies within
    ``min(sqrt(e), e / d)`` of the exact distance ``d``, where
    ``e = (cols + 4) * 2**-52 * (g_ii + g_jj)``.
    """
    n, cols = y.shape
    if n * (n - 1) // 2 * cols < GRAM_WORK:
        d = np.zeros((n, n))
        for i in range(n - 1):
            diff = y[i + 1 :] - y[i]
            diff *= diff
            d[i, i + 1 :] = np.sqrt(np.add.accumulate(diff, axis=1, out=diff)[:, -1])
            del diff  # before the next block is allocated
        return d + d.T
    y -= y.mean(axis=0)
    g = y @ y.T
    d = g.diagonal()[:, None] + g.diagonal()
    g *= 2.0
    d -= g
    return np.sqrt(np.maximum(d, 0.0, out=d), out=d)


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


def _measurable(row: np.ndarray) -> bool:
    """Whether no entry of ``row`` is non-finite or beyond +-LIMIT.

    One read of the row, where np.abs(row) would copy it: a row whose sum
    of squares, added in any order, stays below LIMIT**2 holds no entry
    beyond +-LIMIT, as no rounding of a sum of non-negative terms falls
    below a term; NaN and overflow fail the test, and only a row that
    fails it is read again, entry by entry. Call it with numpy's overflow
    and invalid-value errors ignored.
    """
    return bool(np.dot(row, row) < LIMIT * LIMIT or (-LIMIT <= row.min() and row.max() <= LIMIT))


def _distinct_rows(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given rows of x, merged when their bytes are equal.

    Returns ``first``, the row of x that stands for each distinct row, in
    the order of first occurrence in ``rows``, and ``inverse``, the
    position in ``first`` of each given row's equal, so
    ``x[first][inverse]`` equals ``x[rows]`` byte for byte. Only the
    rows given are read, each once: a row given twice is one upload.
    Rows are bucketed by the wrapping sum of about KEY_WORDS of their
    64-bit words, evenly spaced, and every match in a bucket is
    confirmed by comparing all its words, so different rows that differ
    anywhere (``0.0`` and ``-0.0`` included) are never merged.
    """
    words = x.view(np.uint64)
    given = list(dict.fromkeys(rows.tolist()))
    keys = np.add.reduce(words[given, :: max(1, words.shape[1] // KEY_WORDS)], axis=1)
    first: list[int] = []
    slots: dict[int, int] = {}  # each given row's position in first
    buckets: dict[int, list[int]] = {}
    for row, key in zip(given, keys.tolist()):
        bucket = buckets.setdefault(key, [])
        for slot in bucket:
            if np.array_equal(words[row], words[first[slot]]):
                break
        else:
            slot = len(first)
            bucket.append(slot)
            first.append(row)
        slots[row] = slot
    inverse = np.asarray([slots[row] for row in rows.tolist()], dtype=np.intp)
    return np.asarray(first, dtype=np.intp), inverse


def select_clients(
    ids: list[int],
    uploads: np.ndarray,
    m_percent: float,
    scope: str = "all_layers",
    arch: ArchSpec | None = None,
    rows: np.ndarray | None = None,
) -> SelectionResult:
    """Keep the m_percent of uploads with the smallest summed distances.

    The clients ``ids``, in strictly ascending order, uploaded the rows
    ``rows`` of ``uploads``, which default to one row per client, in
    order. Clients may share a row, and rows no client references are
    never read. A client whose upload is non-finite or beyond +-LIMIT
    gets a +inf row sum and is never retained; the other clients' sums
    are taken over these measurable peers only. Ties break toward the
    smaller client id. Raises SimulationError, naming every client with
    an unmeasurable upload, if too few measurable uploads remain.

    Each referenced row is read in place, with no gathered copy of the
    cohort's rows, and byte-equal uploads (a row that clients share,
    round 0's broadcast copies, the clones an IPM attack sends) are
    measured once: ``distance_matrix`` runs over the distinct measurable
    rows, in the order in which ascending ids first reach them, and the
    full matrix is rebuilt from them, so the result is bit-identical to
    ``select_clients(ids, uploads[rows], ...)``, and below GRAM_WORK each
    row sum adds the same floats in the same order as
    ``squareform(pdist(x)).sum(axis=1)`` over every measurable upload.
    """
    ids = np.asarray(ids, dtype=np.int64)
    uploads = np.asarray(uploads, dtype=np.float64)
    if rows is None:
        rows = np.arange(len(uploads) if uploads.ndim else 0)  # a row per id
    rows = np.asarray(rows, dtype=np.intp)
    if (
        uploads.ndim != 2
        or ids.ndim != 1
        or rows.shape != ids.shape
        or not ((0 <= rows) & (rows < len(uploads))).all()
    ):
        raise ConfigError(
            f"{ids.size} client ids for rows {rows.tolist()} of uploads of shape {uploads.shape}"
        )
    if (np.diff(ids) <= 0).any():
        raise ConfigError("client ids must be strictly ascending")
    n = ids.size
    if n < 2:
        raise ConfigError("selection needs at least 2 uploads")
    x = _scoped_columns(uploads, scope, arch)
    # each referenced row measured once, as clients that share a row share
    # its upload
    with np.errstate(over="ignore", invalid="ignore"):
        verdicts = {row: _measurable(x[row]) for row in dict.fromkeys(rows.tolist())}
    measurable = np.array([verdicts[row] for row in rows.tolist()], dtype=bool)
    count = top_count(m_percent, n)
    good = np.flatnonzero(measurable)
    if good.size < count:
        bad = ", ".join(str(c) for c in ids[~measurable])
        raise SimulationError(
            f"only {good.size} measurable uploads for a selection of {count}; "
            f"clients {bad} uploaded values that are non-finite or beyond +-2^480"
        )
    first, inverse = _distinct_rows(x, rows[good])
    sums = np.full(n, np.inf)
    # a single distinct upload gives [[0.]], a zero sum; x[first] is the
    # only copy of the rows, which distance_matrix may centre in place,
    # since a second one (of x[good]) raised the peak RSS of a 200-client,
    # d = 14,210 run by 7%
    d = distance_matrix(x[first])
    sums[good] = d[np.ix_(inverse, inverse)].sum(axis=1)
    # a stable sort on the row sums breaks ties toward the smaller id
    keep = np.sort(np.argsort(sums, kind="stable")[:count])
    raw = sums[keep]
    return SelectionResult(
        selected_ids=ids[keep].tolist(),
        state=normalize_state(raw),
        raw_row_sums=raw,
    )
