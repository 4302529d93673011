"""Synthetic generator, partitioners, validation sets, file loaders."""

import re
import struct
import warnings

import numpy as np
import pytest
from scipy.special import softmax as scipy_softmax

import conftest
from fedaa import data
from fedaa.errors import ConfigError, IngestionError


def balanced_source(per_class=60, num_classes=5, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(num_classes), per_class)
    return data.LabeledDataset(rng.normal(size=(labels.size, dim)), labels, num_classes)


# ------------------------------------------------------------ datasets


def test_labeled_dataset_validation():
    with pytest.raises(ConfigError):
        data.LabeledDataset(np.zeros((2, 3)), np.array([0, 2]), 2)  # label too big
    with pytest.raises(ConfigError):
        data.LabeledDataset(np.zeros((2, 3)), np.array([0]), 2)  # row mismatch
    with pytest.raises(ConfigError):
        data.LabeledDataset(np.zeros((0, 3)), np.array([], dtype=int), 2)
    with pytest.raises(ConfigError):
        data.LabeledDataset(np.full((2, 3), np.nan), np.array([0, 1]), 2)


def test_synthetic_draws_validate_their_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match="^every client needs at least 5 samples$"):
        data.synthetic_population(0.0, 0.0, (30, 4), rng)  # below sample floor
    with pytest.raises(ConfigError, match="^alpha and beta must be non-negative$"):
        data.draw_synthetic_generators(-1.0, 0.0, 1, rng)
    with pytest.raises(ConfigError, match="^alpha and beta must be non-negative$"):
        data.generate_synthetic(0.0, -1.0, (30,), rng)


# ------------------------------------------------------------ generator


def test_degenerate_means_are_exactly_zero():
    gens = data.draw_synthetic_generators(0.0, 0.0, 6, np.random.default_rng(1))
    assert gens.weight.shape == (6, 10, 60) and gens.bias.shape == (6, 10)
    # zero-variance means are exactly 0.0, so the weights, biases and
    # centers are the unit normal draws themselves
    replay = np.random.default_rng(1)
    for k in range(6):
        replay.normal()  # u_k
        assert np.array_equal(gens.weight[k], replay.normal(0.0, 1.0, size=(10, 60)))
        assert np.array_equal(gens.bias[k], replay.normal(0.0, 1.0, size=10))
        replay.normal()  # mu_k
        assert gens.center[k] == replay.normal(0.0, 1.0)
    # centers still vary with unit variance around the zero mean
    assert np.std(gens.center) > 0.0


def test_alpha_beta_are_variances():
    # sample many generators and check the empirical variance of the means
    gens = data.draw_synthetic_generators(4.0, 9.0, 3000, np.random.default_rng(2))
    # u_k draws every weight and bias at unit variance around it, and
    # mu_k the center: their spreads add alpha and beta to that noise
    draws = np.concatenate([gens.weight.reshape(3000, -1), gens.bias], axis=1)
    u_hat = draws.mean(axis=1)
    expected_u = 4.0 + 1.0 / draws.shape[1]
    assert abs(np.var(u_hat) - expected_u) / expected_u < 0.15
    assert abs(np.var(gens.center) - 10.0) / 10.0 < 0.15
    # weight entries sit at unit variance around u_k
    assert abs(np.var(gens.weight[0]) - 1.0) < 0.15


def test_feature_scales_follow_power_law():
    scales = data.feature_scales(60)
    assert scales[0] == 1.0
    assert abs(scales[9] ** 2 - 10.0**-1.2) < 1e-12
    assert abs(scales[59] ** 2 - 60.0**-1.2) < 1e-12
    assert np.all(np.diff(scales) < 0)


def test_feature_variance_monte_carlo():
    # the population draws its generators first, so the same seed replays them
    gens = data.draw_synthetic_generators(0.0, 0.0, 1, np.random.default_rng(3))
    population, perms = data.synthetic_population(0.0, 0.0, (20000,), np.random.default_rng(3))
    assert perms is None
    x = population.features
    emp = np.var(x, axis=0)
    for j in (1, 10, 60):
        want = 1.0 / j**1.2
        assert abs(emp[j - 1] - want) / want < 0.1
    # every coordinate is centered on the client's center value
    assert abs(x.mean() - gens.center[0]) < 0.05


def test_labels_are_argmax_of_softmax_scores():
    gens = data.draw_synthetic_generators(1.0, 1.0, 3, np.random.default_rng(5))
    population, _ = data.synthetic_population(1.0, 1.0, (500, 7, 120), np.random.default_rng(5))
    # independent route: scipy softmax over each client's affine scores
    for k, rows in enumerate((slice(0, 500), slice(500, 507), slice(507, 627))):
        x, y = population.features[rows], population.labels[rows]
        probs = scipy_softmax(x @ gens.weight[k].T + gens.bias[k], axis=1)
        assert np.array_equal(y, np.argmax(probs, axis=1))
    assert population.labels.min() >= 0 and population.labels.max() < 10


def test_generate_synthetic_sizes_and_split():
    sizes = (30, 50, 100)
    clients = data.generate_synthetic(0.0, 0.0, sizes, np.random.default_rng(7))
    assert len(clients) == 3
    for (train, test), n in zip(clients, sizes):
        assert len(train) + len(test) == n
        assert len(test) == round(0.2 * n)
        assert train.num_classes == 10
        assert train.features.shape[1] == 60
    # 80/20 of 5: 4 train, 1 test
    ((train, test),) = data.generate_synthetic(0.0, 0.0, (5,), np.random.default_rng(8))
    assert (len(train), len(test)) == (4, 1)


def test_generate_synthetic_deterministic():
    a = data.generate_synthetic(1.0, 1.0, (30,) * 4, np.random.default_rng(9))
    b = data.generate_synthetic(1.0, 1.0, (30,) * 4, np.random.default_rng(9))
    for (ta, _), (tb, _) in zip(a, b):
        assert ta.features.tobytes() == tb.features.tobytes()


# the spreads the generator tests draw at
SPREADS = (0.0, 0.5, 1.0, 1e3)


def test_synthetic_generators_are_drawn_as_rng_normal_draws_them():
    # each client's u_k, weights, biases, mu_k and v_k, one rng.normal call
    # per value or array
    for spread in SPREADS:
        rng, replay = np.random.default_rng(11), np.random.default_rng(11)
        gens = data.draw_synthetic_generators(spread, 3 * spread, 4, rng)
        for k in range(4):
            u = replay.normal(0.0, np.sqrt(spread))
            assert gens.weight[k].tobytes() == replay.normal(u, 1.0, size=(10, 60)).tobytes()
            assert gens.bias[k].tobytes() == replay.normal(u, 1.0, size=10).tobytes()
            center = replay.normal(replay.normal(0.0, np.sqrt(3 * spread)), 1.0)
            assert gens.center[k].tobytes() == np.float64(center).tobytes()
        assert rng.bit_generator.state == replay.bit_generator.state


# ------------------------------------------------------------ the per-client oracle


def _set_bytes(ds):
    return (ds.num_classes, ds.features.dtype.str, ds.features.shape, ds.features.tobytes(),
            ds.labels.dtype.str, ds.labels.tobytes())


def _synthetic_build(module, alpha, beta, sizes, seed):
    """A synthetic build through ``module``'s functions, from three streams
    of ``seed``: every client's sets, the server pool, the trimmed clients'
    sets and the pooled synthetic_dirichlet source, as bytes (or the
    ConfigError's text); and the three streams' states after it."""
    rngs = [np.random.default_rng([seed, i]) for i in range(3)]
    try:
        clients = module.generate_synthetic(alpha, beta, sizes, rngs[0])
        pool, trimmed = module.extract_server_pool(clients, rngs[1])
        if module is data:
            source, _ = data.synthetic_population(alpha, beta, sizes, rngs[2])
        else:
            xs, ys = zip(*conftest.synthetic_samples(alpha, beta, sizes, rngs[2]))
            source = data.LabeledDataset(np.concatenate(xs), np.concatenate(ys), 10)
        sets = [split for pair in (*clients, *trimmed) for split in pair] + [pool, source]
        out = [_set_bytes(split) for split in sets]
    except ConfigError as exc:
        out = str(exc)
    return out, [rng.bit_generator.state for rng in rngs]


def test_the_whole_array_build_is_the_per_client_build_generated():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    lognormal = st.tuples(st.integers(1, 6), st.integers(0, 2**32)).map(
        lambda a: data.lognormal_sizes(a[0], np.random.default_rng(a[1])))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        alpha=st.sampled_from(SPREADS),
        beta=st.sampled_from(SPREADS),
        # a 4 is below the sample floor: both builds fail before any draw
        sizes=st.one_of(st.lists(st.integers(4, 60), min_size=1, max_size=10), lognormal),
        seed=st.integers(0, 2**32),
    )
    @hypothesis.example(alpha=0.0, beta=0.0, sizes=[5], seed=0)
    @hypothesis.example(alpha=0.5, beta=1e3, sizes=[60], seed=1)
    @hypothesis.example(alpha=1.0, beta=0.5, sizes=[5, 60, 13, 5, 7], seed=2)
    @hypothesis.example(alpha=1e3, beta=1.0, sizes=[5] * 9, seed=3)
    @hypothesis.example(alpha=1.0, beta=1.0, sizes=data.lognormal_sizes(5, np.random.default_rng(4)), seed=4)
    @hypothesis.example(alpha=0.0, beta=0.5, sizes=[30, 4, 30], seed=5)
    def check(alpha, beta, sizes, seed):
        got = _synthetic_build(data, alpha, beta, sizes, seed)
        want = _synthetic_build(conftest, alpha, beta, sizes, seed)
        assert got == want

    check()


def _starved_clients():
    """Three clients whose second train set of 3 rows cannot spare the 3
    uploads that the smallest client's 32 rows ask of each."""
    rng = np.random.default_rng(30)
    sets = [data.LabeledDataset(rng.normal(size=(n, 4)), rng.integers(0, 3, n), 3) for n in (30, 3, 40)]
    tests = [data.LabeledDataset(rng.normal(size=(n, 4)), rng.integers(0, 3, n), 3) for n in (2, 40, 9)]
    return list(zip(sets, tests))


def test_a_starved_client_fails_the_pool_after_the_picks_before_it():
    clients = _starved_clients()
    whole = data.LabeledDataset(np.concatenate([t.features for t, _ in clients]),
                                np.concatenate([t.labels for t, _ in clients]), 3)
    for given in (clients, data.Population(clients, whole)):
        rng, oracle_rng = np.random.default_rng(31), np.random.default_rng(31)
        with pytest.raises(ConfigError, match="^client train split of 3 cannot spare 3 uploads$"):
            data.extract_server_pool(given, rng)
        with pytest.raises(ConfigError, match="^client train split of 3 cannot spare 3 uploads$"):
            conftest.extract_server_pool(clients, oracle_rng)
        # the first client's picks were drawn, as the oracle draws them
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert rng.bit_generator.state != np.random.default_rng(31).bit_generator.state


def test_generated_clients_are_row_views_of_one_train_and_one_test_set():
    clients = data.generate_synthetic(1.0, 1.0, (5, 40, 17), np.random.default_rng(32))
    assert isinstance(clients, data.Population)
    tests = [test for _, test in clients]
    for train, test in clients:
        assert train.features.base is clients.train.features
        assert train.labels.base is clients.train.labels
        assert test.features.base is tests[0].features.base
    assert sum(len(train) for train, _ in clients) == len(clients.train)
    pool, trimmed = data.extract_server_pool(clients, np.random.default_rng(33))
    kept = trimmed[0][0].features.base
    assert all(train.features.base is kept for train, _ in trimmed)
    assert not np.shares_memory(kept, clients.train.features)


# ------------------------------------------------------------ splits


def test_synthetic_splits_cover_each_client_once():
    sizes = (100, 5, 6, 7, 8, 12, 13)
    clients = data.generate_synthetic(0.0, 0.0, sizes, np.random.default_rng(10))
    population, _ = data.synthetic_population(
        0.0, 0.0, sizes, np.random.default_rng(10), permute=True
    )
    # the rows are distinct normal draws: each client's train and test rows
    # are its own population rows, each once, each side in row order
    lo = 0
    for (train, test), n, n_test in zip(clients, sizes, (20, 1, 1, 1, 2, 2, 3)):
        assert (len(train), len(test)) == (n - n_test, n_test)
        rows = {row.tobytes(): i for i, row in enumerate(population.features[lo : lo + n])}
        places = [[rows[row.tobytes()] for row in split.features] for split in (train, test)]
        assert sorted(places[0] + places[1]) == list(range(n))
        assert places[0] == sorted(places[0]) and places[1] == sorted(places[1])
        lo += n


def test_stratified_split_balances_classes():
    labels = np.array([0] * 10 + [1] * 10)
    train, test = data.stratified_split(labels, np.random.default_rng(13))
    assert test.size == 4
    assert np.sum(labels[test] == 0) == 2 and np.sum(labels[test] == 1) == 2


def test_stratified_split_never_empties_a_side():
    # tiny classes round to zero test samples; the fixer moves one over
    labels = np.array([0, 1])
    train, test = data.stratified_split(labels, np.random.default_rng(14))
    assert train.size == 1 and test.size == 1


# ------------------------------------------------------------ dirichlet


def test_dirichlet_partition_covers_source_exactly_once():
    source = balanced_source()
    clients = data.dirichlet_partition(source, 6, 0.5, np.random.default_rng(15))
    # the source rows are distinct normal draws, so comparing rows by their
    # bytes finds each source row's place
    seen = [row.tobytes() for pair in clients for split in pair for row in split.features]
    assert sorted(seen) == sorted(row.tobytes() for row in source.features)
    for train, test in clients:
        assert len(train) >= 1 and len(test) >= 1


def test_dirichlet_partition_minimum_two_samples():
    source = balanced_source(per_class=30, num_classes=2)
    clients = data.dirichlet_partition(source, 6, 0.05, np.random.default_rng(16))
    for train, test in clients:
        assert len(train) + len(test) >= 2


def test_dirichlet_high_concentration_is_near_uniform():
    source = balanced_source(per_class=600, num_classes=5, dim=3)
    clients = data.dirichlet_partition(source, 5, 1e6, np.random.default_rng(17))
    for train, test in clients:
        labels = np.concatenate([train.labels, test.labels])
        shares = np.bincount(labels, minlength=5) / labels.size
        assert np.all(np.abs(shares - 0.2) < 0.05)


def test_dirichlet_low_concentration_skews_labels():
    source = balanced_source(per_class=500, num_classes=10, dim=3)
    clients = data.dirichlet_partition(source, 100, 0.1, np.random.default_rng(18))
    top_shares = []
    for train, test in clients:
        labels = np.concatenate([train.labels, test.labels])
        top_shares.append(np.bincount(labels, minlength=10).max() / labels.size)
    assert np.mean(top_shares) > 0.5


def test_dirichlet_source_too_small():
    source = balanced_source(per_class=5, num_classes=2)
    with pytest.raises(ConfigError):
        data.dirichlet_partition(source, 2, 0.5, np.random.default_rng(19))


# ------------------------------------------------------------ validation sets


def test_validation_set_balanced_counts():
    source = balanced_source(per_class=150, num_classes=10, dim=4)
    val, rest = data.build_validation_set(source, [100] * 10, np.random.default_rng(20))
    assert len(val) == 1000
    assert np.array_equal(np.bincount(val.labels, minlength=10), [100] * 10)
    assert len(rest) == len(source) - 1000
    # per-class conservation proves disjointness of the two subsets
    total = np.bincount(source.labels, minlength=10)
    assert np.array_equal(
        np.bincount(val.labels, minlength=10) + np.bincount(rest.labels, minlength=10), total
    )


def test_validation_set_unfair_counts():
    source = balanced_source(per_class=150, num_classes=10, dim=4)
    counts = [100, 100] + [10] * 8
    val, _ = data.build_validation_set(source, counts, np.random.default_rng(21))
    assert len(val) == 280
    assert np.array_equal(np.bincount(val.labels, minlength=10), counts)


def test_validation_set_errors():
    source = balanced_source(per_class=50, num_classes=3)
    with pytest.raises(ConfigError):
        data.build_validation_set(source, [10, 0, 10], np.random.default_rng(22))
    with pytest.raises(ConfigError, match="class 2"):
        data.build_validation_set(source, [10, 10, 60], np.random.default_rng(23))
    with pytest.raises(ConfigError):
        data.build_validation_set(source, [10, 10], np.random.default_rng(24))


# ------------------------------------------------------------ server pool


def test_extract_server_pool_upload_rule():
    rng = np.random.default_rng(25)
    clients = []
    for total in (50, 100, 200):
        labels = rng.integers(0, 3, size=total)
        ds = data.LabeledDataset(rng.normal(size=(total, 4)), labels, 3)
        cut = total - total // 5
        clients.append((ds.subset(slice(0, cut)), ds.subset(slice(cut, total))))
    pool, trimmed = data.extract_server_pool(clients, np.random.default_rng(26))
    # smallest client holds 50 samples: every client uploads round(5.0) = 5
    assert len(pool) == 15
    for (before, _), (after, _) in zip(clients, trimmed):
        assert len(after) == len(before) - 5
    # pool plus trimmed trains reassemble the original trains
    total_before = sum(len(tr) for tr, _ in clients)
    total_after = sum(len(tr) for tr, _ in trimmed)
    assert total_after + len(pool) == total_before


def test_extract_server_pool_keeps_the_setdiff_of_its_picks_generated():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    class Recording:
        """A generator that records the picks it is asked for."""

        def __init__(self, seed):
            self.rng, self.picks = np.random.default_rng(seed), []

        def choice(self, *args, **kwargs):
            self.picks.append(self.rng.choice(*args, **kwargs))
            return self.picks[-1]

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        sizes=st.lists(st.integers(5, 300), min_size=1, max_size=6), seed=st.integers(0, 2**32)
    )
    def check(sizes, seed):
        rng = np.random.default_rng(seed)
        clients = [
            (data.LabeledDataset(rng.normal(size=(n, 3)), rng.integers(0, 2, n), 2),
             data.LabeledDataset(rng.normal(size=(2, 3)), np.array([0, 1]), 2))
            for n in sizes
        ]
        recording = Recording(seed)
        pool, trimmed = data.extract_server_pool(clients, recording)
        assert len(recording.picks) == len(sizes)
        for (train, test), (kept, kept_test), pick in zip(clients, trimmed, recording.picks):
            keep = np.setdiff1d(np.arange(len(train)), pick)
            assert kept.features.tobytes() == train.features[keep].tobytes()
            assert kept.labels.tobytes() == train.labels[keep].tobytes()
            assert kept_test is test
        picked = [train.features[np.sort(p)] for (train, _), p in zip(clients, recording.picks)]
        assert pool.features.tobytes() == np.vstack(picked).tobytes()

    check()


def test_extract_server_pool_rejects_tiny_trains():
    rng = np.random.default_rng(27)
    ds = data.LabeledDataset(rng.normal(size=(40, 2)), rng.integers(0, 2, 40), 2)
    # train split of 2 cannot spare round(0.1*40)=4 uploads
    clients = [(ds.subset(np.arange(2)), ds.subset(np.arange(2, 40)))]
    with pytest.raises(ConfigError):
        data.extract_server_pool(clients, np.random.default_rng(28))


def test_lognormal_sizes_bounds():
    sizes = data.lognormal_sizes(500, np.random.default_rng(29))
    assert len(sizes) == 500
    assert min(sizes) >= 20 and max(sizes) <= 1000
    again = data.lognormal_sizes(500, np.random.default_rng(29))
    assert sizes == again


# ------------------------------------------------------------ idx loader


def write_idx_pair(tmp_path, images, labels, image_magic=2051, label_magic=2049,
                   truncate_images=0, label_count=None):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        blob = blob[:-truncate_images]
    img_path = tmp_path / "images.idx"
    img_path.write_bytes(blob)
    count = n if label_count is None else label_count
    lab_path = tmp_path / "labels.idx"
    lab_path.write_bytes(struct.pack(">II", label_magic, count) + labels.tobytes()[:count])
    return str(img_path), str(lab_path)


def test_idx_round_trip_and_scaling(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[1, 1, 1] = 128
    labels = np.array([1, 0, 2], dtype=np.uint8)
    ds = data.load_idx(*write_idx_pair(tmp_path, images, labels))
    assert ds.features.shape == (3, 4)
    assert ds.features[0, 0] == 1.0
    assert ds.features[1, 3] == 128 / 255
    assert ds.features.min() == 0.0
    assert np.array_equal(ds.labels, [1, 0, 2])
    assert ds.num_classes == 3
    # row-major flattening: pixel (r, c) lands at index r*cols + c
    images2 = np.arange(4, dtype=np.uint8).reshape(1, 2, 2)
    ds2 = data.load_idx(*write_idx_pair(tmp_path, images2, np.array([0, ]), ))
    assert np.allclose(ds2.features[0] * 255, [0, 1, 2, 3])


def test_idx_bad_magic(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0], image_magic=1234)
    with pytest.raises(IngestionError, match="byte 0"):
        data.load_idx(*paths)
    paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0], label_magic=7)
    with pytest.raises(IngestionError, match="byte 0"):
        data.load_idx(*paths)


def test_idx_truncated_payload(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1], truncate_images=3)
    with pytest.raises(IngestionError, match="truncated"):
        data.load_idx(*paths)


def test_idx_missing_or_unreadable_file(tmp_path):
    images, labels = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
    missing = str(tmp_path / "missing.idx")
    with pytest.raises(IngestionError, match=re.escape(missing)):
        data.load_idx(missing, labels)
    with pytest.raises(IngestionError, match=re.escape(missing)):
        data.load_idx(images, missing)
    # a directory exists but cannot be read as a file
    with pytest.raises(IngestionError, match=re.escape(str(tmp_path))):
        data.load_idx(str(tmp_path), labels)


def test_idx_pair_without_images(tmp_path):
    images, labels = write_idx_pair(tmp_path, np.zeros((0, 2, 2), np.uint8), [])
    with pytest.raises(IngestionError, match=f"^{re.escape(images)}: holds no images$"):
        data.load_idx(images, labels)


def test_idx_label_count_mismatch(tmp_path):
    paths = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 1], label_count=2)
    with pytest.raises(IngestionError, match="2 labels for 3 images"):
        data.load_idx(*paths)


# ------------------------------------------------------------ csv loader


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,1\n0.0,0.0,1\n")
    ds = data.load_csv(str(path))
    assert ds.features.shape == (3, 2)
    assert np.allclose(ds.features[1], [-1.0, 2.0])
    assert np.array_equal(ds.labels, [0, 1, 1])
    assert ds.num_classes == 2


def test_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,label\n1.0,0.5\n")
    with pytest.raises(IngestionError, match="non-integer"):
        data.load_csv(str(path))
    path.write_text("label\n1\n")
    with pytest.raises(IngestionError):
        data.load_csv(str(path))
    path.write_text("f0,label\n1.0,not_a_number\n")
    with pytest.raises(IngestionError):
        data.load_csv(str(path))


@pytest.mark.parametrize("text", ["f0,f1,label\n", "f0,f1,label\n\n\n", ""],
                         ids=["header", "header-and-blank-lines", "empty"])
def test_csv_without_data_rows(tmp_path, text):
    # named as a file without rows, not blamed on its columns, and no
    # numpy warning escapes
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestionError, match=re.escape(f"{path}: the file has no data rows")):
            data.load_csv(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_csv_non_finite_feature(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,label\n0.5,1.5,0\n1.0,{value},1\n")
    with pytest.raises(IngestionError, match=re.escape(f"{path}: data row 2: non-finite feature")):
        data.load_csv(str(path))


def test_csv_label_beyond_the_rows(tmp_path):
    # a label of n or more among n rows leaves some class below it without
    # a row; a Unix timestamp as a label would ask for 1.7e9 classes
    rng = np.random.default_rng(0)
    rows = [f"{x:.3f},{y:.3f},{label}" for x, y, label in
            zip(rng.normal(size=600), rng.normal(size=600), rng.integers(0, 3, 600))]
    path = tmp_path / "stamped.csv"
    path.write_text("\n".join(["f0,f1,label", *rows[:400], "0.1,0.2,1700000000", *rows[400:]]) + "\n")
    with pytest.raises(IngestionError, match=re.escape(
        f"{path}: data row 401: label 1700000000 is not below the 601 data rows"
    )):
        data.load_csv(str(path))
    path.write_text("f0,label\n0.5,0\n1.0,2\n0.0,1\n")
    assert data.load_csv(str(path)).num_classes == 3
    for label in ("3", "inf"):
        path.write_text(f"f0,label\n0.5,0\n1.0,{label}\n0.0,1\n")
        with pytest.raises(IngestionError, match=f"data row 2: label {label} is not below the 3"):
            data.load_csv(str(path))
