"""Distance-based selection: counts, oracles, quarantine, scopes."""

import math

import numpy as np
import pytest

from fedaa import selection
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
    uploads = {
        0: np.array([0.0, 0.0]),
        1: np.array([3.0, 4.0]),
        2: np.array([6.0, 8.0]),
    }
    one = selection.select_clients(uploads, 34.0)
    assert one.selected_ids == [1]
    assert np.allclose(one.raw_row_sums, [10.0])
    assert np.array_equal(one.state, [0.0])  # single value is degenerate
    two = selection.select_clients(uploads, 67.0)
    # 1 wins outright; 0 and 2 tie at 15 and the lower id enters
    assert two.selected_ids == [0, 1]
    assert np.allclose(two.raw_row_sums, [15.0, 10.0])
    assert np.allclose(two.state, [1.0, 0.0])


def test_identical_uploads_tie_break_by_id():
    uploads = {i: np.ones(4) for i in range(3)}
    res = selection.select_clients(uploads, 67.0)
    assert res.selected_ids == [0, 1]
    assert np.array_equal(res.state, [0.0, 0.0])


def test_distance_matrix_matches_oracle():
    rng = np.random.default_rng(30)
    vectors = [rng.normal(size=12) for _ in range(7)]
    uploads = {i: v for i, v in enumerate(vectors)}
    res = selection.select_clients(uploads, 50.0)
    oracle = pairwise_oracle(vectors)
    assert np.allclose(oracle, oracle.T, atol=1e-12)
    assert np.all(np.diag(oracle) == 0.0)
    # row sums align with the oracle for the selected ids
    sums = oracle.sum(axis=1)
    order = np.lexsort((np.arange(7), sums))
    expect = sorted(order[:4].tolist())
    assert res.selected_ids == expect
    assert np.allclose(res.raw_row_sums, sums[expect], rtol=1e-12, atol=0.0)


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    vectors = [rng.normal(size=9) for _ in range(6)]
    base = selection.select_clients({i: v for i, v in enumerate(vectors)}, 50.0)
    # relabel client i as perm[i]
    perm = [4, 0, 5, 2, 1, 3]
    shuffled = selection.select_clients(
        {perm[i]: v for i, v in enumerate(vectors)}, 50.0
    )
    assert sorted(perm[i] for i in base.selected_ids) == shuffled.selected_ids


def test_scale_invariance_of_membership_and_state():
    rng = np.random.default_rng(32)
    uploads = {i: rng.normal(size=10) for i in range(8)}
    base = selection.select_clients(uploads, 40.0)
    scaled = selection.select_clients({i: 2.0 * v for i, v in uploads.items()}, 40.0)
    assert base.selected_ids == scaled.selected_ids
    assert np.allclose(base.state, scaled.state, atol=1e-12)
    assert np.allclose(2.0 * base.raw_row_sums, scaled.raw_row_sums, atol=1e-9)


def test_state_range():
    rng = np.random.default_rng(33)
    uploads = {i: rng.normal(size=6) for i in range(10)}
    res = selection.select_clients(uploads, 60.0)
    assert res.state.min() == 0.0
    assert res.state.max() <= 1.0
    assert np.all((res.state >= 0.0) & (res.state <= 1.0))


# ------------------------------------------------------------ quarantine


def test_nan_upload_never_selected():
    rng = np.random.default_rng(34)
    uploads = {i: rng.normal(size=5) for i in range(5)}
    uploads[2] = uploads[2].copy()
    uploads[2][3] = np.nan
    res = selection.select_clients(uploads, 80.0)
    assert 2 not in res.selected_ids
    assert len(res.selected_ids) == 4
    assert np.all(np.isfinite(res.raw_row_sums))
    # finite clients' row sums ignore the quarantined one
    finite = [0, 1, 3, 4]
    oracle = pairwise_oracle([uploads[i] for i in finite])
    assert np.allclose(res.raw_row_sums, oracle.sum(axis=1), atol=1e-12)


def test_all_nonfinite_uploads_rejected():
    uploads = {0: np.full(3, np.nan), 1: np.full(3, np.inf)}
    with pytest.raises(SimulationError):
        selection.select_clients(uploads, 50.0)


def test_too_few_finite_uploads_rejected():
    uploads = {0: np.zeros(3), 1: np.full(3, np.nan), 2: np.full(3, np.nan)}
    with pytest.raises(SimulationError):
        selection.select_clients(uploads, 67.0)  # needs 2, only 1 finite


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
    uploads = {0: a, 1: b, 2: c}
    res = selection.select_clients(uploads, 67.0, scope="last_hidden_layer", arch=arch)
    # scoped distances: d(0, 1) = 0 and d(0, 2) = d(1, 2) = 1
    assert np.allclose(res.raw_row_sums, [1.0, 1.0], rtol=0.0, atol=1e-12)
    # under the full-vector scope client 1 is the outlier instead: d(0, 1) = 50
    full = selection.select_clients(uploads, 67.0)
    assert np.allclose(full.raw_row_sums, [51.0, 1.0 + math.sqrt(2501.0)], rtol=0.0, atol=1e-9)
    assert full.selected_ids == [0, 2]
    assert res.selected_ids == [0, 1]


def test_last_hidden_layer_degenerates_for_logistic():
    arch = ArchSpec(5, (), 3)
    rng = np.random.default_rng(36)
    uploads = {i: rng.normal(size=param_count(arch)) for i in range(4)}
    scoped = selection.select_clients(uploads, 50.0, scope="last_hidden_layer", arch=arch)
    full = selection.select_clients(uploads, 50.0)
    assert scoped.selected_ids == full.selected_ids
    assert np.allclose(scoped.state, full.state, atol=1e-15)


def test_scope_errors():
    uploads = {0: np.zeros(4), 1: np.ones(4)}
    with pytest.raises(ConfigError):
        selection.select_clients(uploads, 50.0, scope="last_hidden_layer")  # no arch
    with pytest.raises(ConfigError):
        selection.select_clients(uploads, 50.0, scope="first_layer")
    with pytest.raises(ConfigError):
        selection.select_clients(
            uploads, 50.0, scope="last_hidden_layer", arch=ArchSpec(3, (2,), 2)
        )  # arch size mismatch


def test_input_validation():
    with pytest.raises(ConfigError):
        selection.select_clients({0: np.zeros(3)}, 50.0)
    with pytest.raises(ConfigError):
        selection.select_clients({0: np.zeros(3), 1: np.zeros(4)}, 50.0)


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
        uploads = {}
        for i in range(10):
            uploads[i] = center + rng.normal(0.0, 0.1, size=30)
        for i in range(10, 13):
            uploads[i] = np.full(30, rng.normal(0.0, 100.0))
        res = selection.select_clients(uploads, 30.0)  # keeps 4 of 13
        if all(c < 10 for c in res.selected_ids):
            hits += 1
    assert hits == trials
