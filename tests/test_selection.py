"""Distance-based selection: counts, oracles, quarantine, scopes."""

import math
import threading

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from fedaa import config, selection
from fedaa.errors import ConfigError, SimulationError
from fedaa.nn import ArchSpec, layer_slices, param_count


def pairwise_oracle(vectors):
    """Hand-rolled distance matrix, independent of scipy."""
    n = len(vectors)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = math.sqrt(float(np.sum((vectors[i] - vectors[j]) ** 2)))
    return out


def all_rows_oracle(ids, uploads, m_percent, scope, arch):
    """The selection with squareform(pdist(.)) over every finite row, as
    (selected ids, state, raw row sums); None if too few rows are finite."""
    x = uploads
    if scope == "last_hidden_layer":
        wsl, bsl = layer_slices(arch)[len(arch.hidden_dims) - 1]
        x = x[:, wsl.start : bsl.stop]
    finite = np.isfinite(x).all(axis=1)
    count = selection.top_count(m_percent, len(ids))
    if finite.sum() < count:
        return None
    sums = np.full(len(ids), np.inf)
    sums[finite] = squareform(pdist(x[finite])).sum(axis=1)
    keep = np.sort(np.lexsort((ids, sums))[:count])
    return [ids[i] for i in keep], selection.normalize_state(sums[keep]), sums[keep]


# ------------------------------------------------------------ counts


def test_top_count_round_half_up():
    assert selection.top_count(30.0, 20) == 6
    assert selection.top_count(30.0, 10) == 3
    assert selection.top_count(100.0, 7) == 7
    assert selection.top_count(50.0, 5) == 3  # 2.5 rounds up
    assert selection.top_count(80.0, 20) == 16
    assert selection.top_count(1.0, 3) == 1  # floor at one client
    assert selection.top_count(34.0, 3) == 1
    assert selection.top_count(67.0, 3) == 2


def test_top_count_bounds():
    with pytest.raises(ConfigError):
        selection.top_count(0.0, 10)
    with pytest.raises(ConfigError):
        selection.top_count(101.0, 10)
    with pytest.raises(ConfigError):
        selection.top_count(50.0, 0)


# ------------------------------------------------------------ state


def test_normalize_state_min_max():
    out = selection.normalize_state(np.array([10.0, 15.0, 20.0]))
    assert np.allclose(out, [0.0, 0.5, 1.0], atol=1e-15)
    # constant vectors normalize to zeros
    assert np.array_equal(selection.normalize_state(np.array([4.0, 4.0])), [0.0, 0.0])
    with pytest.raises(ConfigError):
        selection.normalize_state(np.array([]))


# ------------------------------------------------------------ selection oracle


def test_three_client_hand_computed_selection():
    # distances: d(0,1) = 5, d(0,2) = 10, d(1,2) = 5 -> row sums [15, 10, 15]
    uploads = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
    one = selection.select_clients([0, 1, 2], uploads, 34.0)
    assert one.selected_ids == [1]
    assert np.allclose(one.raw_row_sums, [10.0])
    assert np.array_equal(one.state, [0.0])  # single value is degenerate
    two = selection.select_clients([0, 1, 2], uploads, 67.0)
    # 1 wins outright; 0 and 2 tie at 15 and the lower id enters
    assert two.selected_ids == [0, 1]
    assert np.allclose(two.raw_row_sums, [15.0, 10.0])
    assert np.allclose(two.state, [1.0, 0.0])


def test_identical_uploads_tie_break_by_id():
    res = selection.select_clients([0, 1, 2], np.ones((3, 4)), 67.0)
    assert res.selected_ids == [0, 1]
    assert np.array_equal(res.state, [0.0, 0.0])


def test_distance_matrix_matches_oracle():
    rng = np.random.default_rng(30)
    vectors = rng.normal(size=(7, 12))
    res = selection.select_clients(list(range(7)), vectors, 50.0)
    oracle = pairwise_oracle(vectors)
    assert np.allclose(oracle, oracle.T, atol=1e-12)
    assert np.all(np.diag(oracle) == 0.0)
    # row sums align with the oracle for the selected ids
    sums = oracle.sum(axis=1)
    order = np.lexsort((np.arange(7), sums))
    expect = sorted(order[:4].tolist())
    assert res.selected_ids == expect
    assert np.allclose(res.raw_row_sums, sums[expect], rtol=1e-12, atol=0.0)


def permuted_rows(rows, perm):
    """Row i moved to row perm[i]: client i relabelled as perm[i], with the
    ids kept ascending."""
    moved = np.empty_like(rows)
    moved[perm] = rows
    return moved


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    vectors = rng.normal(size=(6, 9))
    ids = list(range(6))
    base = selection.select_clients(ids, vectors, 50.0)
    perm = [4, 0, 5, 2, 1, 3]
    shuffled = selection.select_clients(ids, permuted_rows(vectors, perm), 50.0)
    assert sorted(perm[i] for i in base.selected_ids) == shuffled.selected_ids


def test_scale_invariance_of_membership_and_state():
    rng = np.random.default_rng(32)
    uploads = rng.normal(size=(8, 10))
    base = selection.select_clients(list(range(8)), uploads, 40.0)
    scaled = selection.select_clients(list(range(8)), 2.0 * uploads, 40.0)
    assert base.selected_ids == scaled.selected_ids
    assert np.allclose(base.state, scaled.state, atol=1e-12)
    assert np.allclose(2.0 * base.raw_row_sums, scaled.raw_row_sums, atol=1e-9)


def test_state_range():
    rng = np.random.default_rng(33)
    res = selection.select_clients(list(range(10)), rng.normal(size=(10, 6)), 60.0)
    assert res.state.min() == 0.0
    assert res.state.max() <= 1.0
    assert np.all((res.state >= 0.0) & (res.state <= 1.0))


def test_selection_equals_the_all_rows_oracle_generated():
    # repeated rows are measured once; the outputs must still be the
    # all-rows oracle's, bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    arch = ArchSpec(2, (2,), 2)  # 12 parameters; the scoped block is 6 of them
    size = param_count(arch)
    value = st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 1e-300, 3e5])
    row = st.one_of(
        st.lists(value, min_size=size, max_size=size).map(np.array),
        st.sampled_from(["zero", "-zero", "nan", "inf"]).map(
            {"zero": np.zeros(size), "-zero": np.full(size, -0.0),
             "nan": np.full(size, np.nan), "inf": np.r_[np.inf, np.zeros(size - 1)]}.get
        ),
    )
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        pool=st.lists(row, min_size=1, max_size=4),
        swap=st.booleans(),
        picks=st.lists(st.integers(0, 4), min_size=2, max_size=10),
        ids=st.lists(st.integers(0, 50), min_size=10, max_size=10, unique=True),
        m_percent=st.sampled_from([1.0, 30.0, 50.0, 100.0]),
        scope=st.sampled_from(selection.SCOPES),
    )
    def check(pool, swap, picks, ids, m_percent, scope):
        if swap:
            # two words swapped: the same wrapping word sum, other bytes
            pool = [*pool, pool[0][[1, 0, *range(2, size)]]]
        ids = sorted(ids[: len(picks)])
        uploads = np.array([pool[p % len(pool)] for p in picks])
        want = all_rows_oracle(ids, uploads, m_percent, scope, arch)
        if want is None:
            with pytest.raises(SimulationError):
                selection.select_clients(ids, uploads, m_percent, scope, arch)
            return
        got = selection.select_clients(ids, uploads, m_percent, scope, arch)
        assert got.selected_ids == want[0]
        assert got.state.tobytes() == want[1].tobytes()
        assert got.raw_row_sums.tobytes() == want[2].tobytes()
        keys = [v.tobytes() for v in uploads if np.isfinite(v).all()]
        seen.add(scope)
        if len(set(keys)) < len(keys):
            seen.add("repeated rows")
        if len(keys) < len(uploads):
            seen.add("non-finite rows")
        if len(keys) == 1:
            seen.add("a single finite row")
        if {np.zeros(size).tobytes(), np.full(size, -0.0).tobytes()} <= set(keys):
            seen.add("0.0 and -0.0 rows")
        pair = {pool[0].tobytes(), pool[-1].tobytes()}
        if swap and len(pair) == 2 and pair <= set(keys):
            seen.add("rows of one word sum")

    check()
    assert seen >= {*selection.SCOPES, "repeated rows", "non-finite rows",
                    "a single finite row", "0.0 and -0.0 rows", "rows of one word sum"}


def test_permutation_equivariance_with_repeated_rows_generated():
    # rows on one axis at integer points have exact distances, so every row
    # sum is exact in any summation order; relabelling the clients then
    # keeps each kept client's sum, and only ties at the cut may change
    # which of the tied clients is kept
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    point = st.one_of(
        st.integers(-4, 4).map(lambda a: np.array([float(a), 0.0, 0.0])),
        st.sampled_from([np.full(3, -0.0), np.array([np.nan, 0.0, 0.0])]),
    )
    seen = set()

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        data=st.data(),
        rows=st.lists(point, min_size=2, max_size=9),
        m_percent=st.sampled_from([30.0, 50.0, 80.0]),
    )
    def check(data, rows, m_percent):
        n = len(rows)
        perm = data.draw(st.permutations(range(n)))
        ids = list(range(n))
        rows = np.array(rows)
        try:
            base = selection.select_clients(ids, rows, m_percent)
        except SimulationError:
            with pytest.raises(SimulationError):
                selection.select_clients(ids, permuted_rows(rows, perm), m_percent)
            return
        moved = selection.select_clients(ids, permuted_rows(rows, perm), m_percent)
        assert sorted(base.raw_row_sums.tolist()) == sorted(moved.raw_row_sums.tolist())
        assert sorted(base.state.tolist()) == sorted(moved.state.tolist())
        cut = base.raw_row_sums.max()
        moved_sums = dict(zip(moved.selected_ids, moved.raw_row_sums.tolist()))
        for cid, total in zip(base.selected_ids, base.raw_row_sums.tolist()):
            if total < cut or perm[cid] in moved_sums:
                assert moved_sums[perm[cid]] == total
        keys = [v.tobytes() for v in rows]
        if len(set(keys)) < len(keys):
            seen.add("repeated rows")
        if not all(np.isfinite(v).all() for v in rows):
            seen.add("non-finite rows")

    check()
    assert seen == {"repeated rows", "non-finite rows"}


# ------------------------------------------------------------ bands


def test_banded_distance_matrix_is_pdist_generated():
    # every band count, over random shapes and repeated rows, gives
    # squareform(pdist(.)) bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        data=st.data(),
        shape=st.tuples(st.integers(1, 5), st.integers(1, 14), st.integers(1, 40)),
        bands=st.integers(1, 4),
        scale=st.sampled_from([1e-300, 1.0, 3e5, 1e150]),
    )
    def check(data, shape, bands, scale):
        distinct, n, cols = shape
        pool = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
            scale=scale, size=(distinct, cols)
        )
        picks = data.draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
        y = pool[picks]
        got = selection.distance_matrix(y, bands)
        assert got.tobytes() == squareform(pdist(y)).tobytes()
        seen.add(bands)
        if len(set(picks)) < n:
            seen.add("repeated rows")
        if n > bands:
            seen.add(f"{bands} bands over more rows")

    check()
    assert seen >= {1, 2, 3, 4, "repeated rows", *(f"{b} bands over more rows" for b in (2, 3, 4))}


def test_bands_split_the_pairs_evenly_on_threads(monkeypatch):
    # band 0 runs on the calling thread, every other band on a worker
    calls = []
    for name in ("pdist", "cdist"):
        kernel = getattr(selection, name)

        def recording(*rows, kernel=kernel, name=name):
            calls.append((name, len(rows[0]), threading.get_ident()))
            return kernel(*rows)

        monkeypatch.setattr(selection, name, recording)
    y = np.random.default_rng(40).normal(size=(60, 5))
    assert selection.distance_matrix(y, 3).tobytes() == squareform(pdist(y)).tobytes()
    tops = sorted((c for c in calls if c[0] == "pdist"), key=lambda c: c[1])
    # 60 rows hold 1,770 pairs i < j: bands of 11, 15 and 34 rows hold 594, 615 and 561
    assert [c[1] for c in tops] == [11, 15, 34]
    assert sum(c[0] == "cdist" for c in calls) == 2
    main = threading.get_ident()
    assert [c[1] for c in calls if c[2] == main] == [11, 11]  # band 0: rows 0-10


def test_band_count_follows_the_work_and_the_cpus(monkeypatch):
    monkeypatch.setattr(selection, "_one_band", False)
    monkeypatch.setattr(selection.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert selection.band_count(20, 610) == 1  # a logistic round: below BAND_WORK
    assert selection.band_count(121, 14_210) == 4
    assert selection.band_count(3, 1 << 22) == 2  # at most one band per row with pairs
    monkeypatch.setattr(selection.os, "sched_getaffinity", lambda pid: {5})
    assert selection.band_count(121, 14_210) == 1
    monkeypatch.delattr(selection.os, "sched_getaffinity")
    monkeypatch.setattr(selection.os, "cpu_count", lambda: 2)
    assert selection.band_count(121, 14_210) == 2
    selection.one_band_per_process()
    assert selection.band_count(121, 14_210) == 1


@pytest.mark.parametrize("scope", selection.SCOPES)
def test_selection_is_the_same_in_one_band_and_in_several(monkeypatch, scope):
    arch = ArchSpec(6, (5,), 3)
    rng = np.random.default_rng(41)
    uploads = rng.normal(size=(30, param_count(arch)))
    uploads[20:26] = uploads[3]  # repeated uploads, measured once
    uploads[27, 4] = np.nan
    results = []
    for bands in (1, 2, 3, 4):
        monkeypatch.setattr(selection, "band_count", lambda rows, cols, bands=bands: bands)
        results.append(selection.select_clients(list(range(30)), uploads, 40.0, scope, arch))
    for res in results[1:]:
        assert res.selected_ids == results[0].selected_ids
        assert res.state.tobytes() == results[0].state.tobytes()
        assert res.raw_row_sums.tobytes() == results[0].raw_row_sums.tobytes()
    want = all_rows_oracle(list(range(30)), uploads, 40.0, scope, arch)
    assert results[0].raw_row_sums.tobytes() == want[2].tobytes()


# ------------------------------------------------------------ quarantine


def test_nan_upload_never_selected():
    rng = np.random.default_rng(34)
    uploads = rng.normal(size=(5, 5))
    uploads[2, 3] = np.nan
    res = selection.select_clients(list(range(5)), uploads, 80.0)
    assert 2 not in res.selected_ids
    assert len(res.selected_ids) == 4
    assert np.all(np.isfinite(res.raw_row_sums))
    # finite clients' row sums ignore the quarantined one
    finite = [0, 1, 3, 4]
    oracle = pairwise_oracle([uploads[i] for i in finite])
    assert np.allclose(res.raw_row_sums, oracle.sum(axis=1), atol=1e-12)


def test_all_nonfinite_uploads_rejected():
    uploads = np.array([np.full(3, np.nan), np.full(3, np.inf)])
    with pytest.raises(SimulationError):
        selection.select_clients([0, 1], uploads, 50.0)


def test_too_few_finite_uploads_rejected():
    uploads = np.array([np.zeros(3), np.full(3, np.nan), [1.0, np.inf, 0.0]])
    with pytest.raises(
        SimulationError,
        match=r"^only 1 finite uploads for a selection of 2; non-finite uploads from clients 4, 7$",
    ):
        selection.select_clients([0, 4, 7], uploads, 67.0)  # needs 2, only 1 finite


# ------------------------------------------------------------ scopes


def test_last_hidden_layer_scope_slices_correct_block():
    arch = ArchSpec(4, (3, 2), 2)
    wsl, bsl = layer_slices(arch)[1]  # final hidden layer
    rng = np.random.default_rng(35)
    base = rng.normal(size=param_count(arch))
    # clients 0/1 differ only OUTSIDE the slice; 2 differs only inside it
    a = base.copy()
    b = base.copy()
    b[0] += 50.0  # first-layer weight, invisible to the scoped distance
    c = base.copy()
    c[wsl.start] += 1.0
    uploads = np.array([a, b, c])
    res = selection.select_clients([0, 1, 2], uploads, 67.0, scope="last_hidden_layer", arch=arch)
    # scoped distances: d(0, 1) = 0 and d(0, 2) = d(1, 2) = 1
    assert np.allclose(res.raw_row_sums, [1.0, 1.0], rtol=0.0, atol=1e-12)
    # under the full-vector scope client 1 is the outlier instead: d(0, 1) = 50
    full = selection.select_clients([0, 1, 2], uploads, 67.0)
    assert np.allclose(full.raw_row_sums, [51.0, 1.0 + math.sqrt(2501.0)], rtol=0.0, atol=1e-9)
    assert full.selected_ids == [0, 2]
    assert res.selected_ids == [0, 1]


def test_last_hidden_layer_requires_a_hidden_layer():
    with pytest.raises(ConfigError, match=r"distance_scope = last_hidden_layer .*model\.hidden"):
        config.parse_config_text("distance_scope = last_hidden_layer\n")
    with pytest.raises(ConfigError, match="model.hidden"):
        config.parse_config_text("distance_scope = last_hidden_layer\nmodel.hidden =\n")
    assert config.parse_config_text(
        "distance_scope = last_hidden_layer\nmodel.hidden = 4\n"
    ).model_hidden == (4,)
    arch = ArchSpec(5, (), 3)
    uploads = np.random.default_rng(36).normal(size=(4, param_count(arch)))
    with pytest.raises(ConfigError, match="requires a hidden layer"):
        selection.select_clients([0, 1, 2, 3], uploads, 50.0, scope="last_hidden_layer", arch=arch)


def test_scope_errors():
    uploads = np.array([np.zeros(4), np.ones(4)])
    with pytest.raises(ConfigError):
        selection.select_clients([0, 1], uploads, 50.0, scope="last_hidden_layer")  # no arch
    with pytest.raises(ConfigError):
        selection.select_clients([0, 1], uploads, 50.0, scope="first_layer")
    with pytest.raises(ConfigError):
        selection.select_clients(
            [0, 1], uploads, 50.0, scope="last_hidden_layer", arch=ArchSpec(3, (2,), 2)
        )  # arch size mismatch


def test_input_validation():
    with pytest.raises(ConfigError, match="at least 2 uploads"):
        selection.select_clients([0], np.zeros((1, 3)), 50.0)
    # one row per client id, the ids strictly ascending
    for ids, uploads in [
        ([0, 1, 2], np.zeros(3)),
        ([0, 1], np.zeros((3, 2))),
        ([0, 1, 2], np.zeros((2, 2))),
        ([1, 0], np.zeros((2, 2))),
        ([0, 0, 1], np.zeros((3, 2))),
    ]:
        with pytest.raises(ConfigError, match="client ids"):
            selection.select_clients(ids, uploads, 50.0)


# ------------------------------------------------------------ robustness


def test_outlier_exclusion_trials():
    # benign uploads cluster tightly around a shared random center; a few
    # constant-vector outliers with huge magnitudes must never be kept
    master = np.random.default_rng(37)
    hits = 0
    trials = 50
    for _ in range(trials):
        seed = master.integers(0, 2**32)
        rng = np.random.default_rng(seed)
        center = rng.normal(size=30)
        uploads = np.empty((13, 30))
        uploads[:10] = center + rng.normal(0.0, 0.1, size=(10, 30))
        uploads[10:] = rng.normal(0.0, 100.0, size=(3, 1))
        res = selection.select_clients(list(range(13)), uploads, 30.0)  # keeps 4 of 13
        if all(c < 10 for c in res.selected_ids):
            hits += 1
    assert hits == trials
