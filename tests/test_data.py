"""Synthetic generator, partitioners, validation sets, file loaders."""

import re
import struct
import warnings

import numpy as np
import pytest
from scipy.special import softmax as scipy_softmax

from fedaa import data
from fedaa.errors import ConfigError, IngestionError


def spec(alpha=0.0, beta=0.0, clients=4, size=30):
    return data.SyntheticSpec(alpha, beta, clients, (size,) * clients)


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


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        data.SyntheticSpec(0.0, 0.0, 3, (30, 30))  # wrong length
    with pytest.raises(ConfigError):
        data.SyntheticSpec(0.0, 0.0, 2, (30, 4))  # below sample floor
    with pytest.raises(ConfigError):
        data.SyntheticSpec(-1.0, 0.0, 1, (30,))


# ------------------------------------------------------------ generator


def test_degenerate_means_are_exactly_zero():
    gens = data.draw_synthetic_generators(spec(0.0, 0.0, clients=6), np.random.default_rng(1))
    # zero-variance means are exactly 0.0, so the weights, biases and
    # centers are the unit normal draws themselves
    replay = np.random.default_rng(1)
    for g in gens:
        replay.normal()  # u_k
        assert np.array_equal(g.weight, replay.normal(0.0, 1.0, size=g.weight.shape))
        assert np.array_equal(g.bias, replay.normal(0.0, 1.0, size=g.bias.shape))
        replay.normal()  # mu_k
        assert g.center == replay.normal(0.0, 1.0)
    # centers still vary with unit variance around the zero mean
    centers = [g.center for g in gens]
    assert np.std(centers) > 0.0


def test_alpha_beta_are_variances():
    # sample many generators and check the empirical variance of the means
    n = 3000
    big = data.SyntheticSpec(4.0, 9.0, n, (5,) * n)
    gens = data.draw_synthetic_generators(big, np.random.default_rng(2))
    # u_k draws every weight and bias at unit variance around it, and
    # mu_k the center: their spreads add alpha and beta to that noise
    draws = [np.concatenate([g.weight.ravel(), g.bias]) for g in gens]
    u_hat = np.array([d.mean() for d in draws])
    centers = np.array([g.center for g in gens])
    expected_u = 4.0 + 1.0 / draws[0].size
    assert abs(np.var(u_hat) - expected_u) / expected_u < 0.15
    assert abs(np.var(centers) - 10.0) / 10.0 < 0.15
    # weight entries sit at unit variance around u_k
    assert abs(np.var(gens[0].weight) - 1.0) < 0.15


def test_feature_scales_follow_power_law():
    scales = data.feature_scales(60)
    assert scales[0] == 1.0
    assert abs(scales[9] ** 2 - 10.0**-1.2) < 1e-12
    assert abs(scales[59] ** 2 - 60.0**-1.2) < 1e-12
    assert np.all(np.diff(scales) < 0)


def test_feature_variance_monte_carlo():
    gens = data.draw_synthetic_generators(spec(clients=1), np.random.default_rng(3))
    x, _ = data.sample_from_generator(gens[0], 20000, np.random.default_rng(4))
    emp = np.var(x, axis=0)
    for j in (1, 10, 60):
        want = 1.0 / j**1.2
        assert abs(emp[j - 1] - want) / want < 0.1
    # every coordinate is centered on the client's center value
    assert abs(x.mean() - gens[0].center) < 0.05


def test_labels_are_argmax_of_softmax_scores():
    gens = data.draw_synthetic_generators(spec(1.0, 1.0, clients=1), np.random.default_rng(5))
    x, y = data.sample_from_generator(gens[0], 500, np.random.default_rng(6))
    # independent route: scipy softmax over the affine scores
    probs = scipy_softmax(x @ gens[0].weight.T + gens[0].bias, axis=1)
    assert np.array_equal(y, np.argmax(probs, axis=1))
    assert y.min() >= 0 and y.max() < 10


def test_generate_synthetic_sizes_and_split():
    sizes = (30, 50, 100)
    part = data.generate_synthetic(
        data.SyntheticSpec(0.0, 0.0, 3, sizes), np.random.default_rng(7)
    )
    assert part.num_clients == 3
    for (train, test), n in zip(part.clients, sizes):
        assert len(train) + len(test) == n
        assert len(test) == round(0.2 * n)
        assert train.num_classes == 10
    # 80/20 of 5: 4 train, 1 test
    tiny = data.generate_synthetic(
        data.SyntheticSpec(0.0, 0.0, 1, (5,)), np.random.default_rng(8)
    )
    assert (len(tiny.clients[0][0]), len(tiny.clients[0][1])) == (4, 1)


def test_generate_synthetic_deterministic():
    a = data.generate_synthetic(spec(1.0, 1.0), np.random.default_rng(9))
    b = data.generate_synthetic(spec(1.0, 1.0), np.random.default_rng(9))
    for (ta, _), (tb, _) in zip(a.clients, b.clients):
        assert ta.features.tobytes() == tb.features.tobytes()


# ------------------------------------------------------------ splits


def test_split_train_test_fractions():
    train, test = data.split_train_test(100, np.random.default_rng(10))
    assert (train.size, test.size) == (80, 20)
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(100))
    train, test = data.split_train_test(2, np.random.default_rng(11))
    assert train.size == 1 and test.size == 1
    with pytest.raises(ConfigError):
        data.split_train_test(1, np.random.default_rng(12))


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
    part = data.dirichlet_partition(source, 6, 0.5, np.random.default_rng(15))
    seen = np.concatenate([np.concatenate(pair) for pair in part.source_indices])
    assert sorted(seen.tolist()) == list(range(len(source)))
    for train, test in part.clients:
        assert len(train) >= 1 and len(test) >= 1


def test_dirichlet_partition_minimum_two_samples():
    source = balanced_source(per_class=30, num_classes=2)
    part = data.dirichlet_partition(source, 6, 0.05, np.random.default_rng(16))
    for train, test in part.clients:
        assert len(train) + len(test) >= 2


def test_dirichlet_high_concentration_is_near_uniform():
    source = balanced_source(per_class=600, num_classes=5, dim=3)
    part = data.dirichlet_partition(source, 5, 1e6, np.random.default_rng(17))
    for train, test in part.clients:
        labels = np.concatenate([train.labels, test.labels])
        shares = np.bincount(labels, minlength=5) / labels.size
        assert np.all(np.abs(shares - 0.2) < 0.05)


def test_dirichlet_low_concentration_skews_labels():
    source = balanced_source(per_class=500, num_classes=10, dim=3)
    part = data.dirichlet_partition(source, 100, 0.1, np.random.default_rng(18))
    top_shares = []
    for train, test in part.clients:
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
        train, test = data.split_train_test(total, rng)
        clients.append((ds.subset(train), ds.subset(test)))
    part = data.ClientPartition(clients)
    pool, trimmed = data.extract_server_pool(part, np.random.default_rng(26))
    # smallest client holds 50 samples: every client uploads round(5.0) = 5
    assert len(pool) == 15
    for (before, _), (after, _) in zip(part.clients, trimmed.clients):
        assert len(after) == len(before) - 5
    # pool plus trimmed trains reassemble the original trains
    total_before = sum(len(tr) for tr, _ in part.clients)
    total_after = sum(len(tr) for tr, _ in trimmed.clients)
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
        part = data.ClientPartition([
            (data.LabeledDataset(rng.normal(size=(n, 3)), rng.integers(0, 2, n), 2),
             data.LabeledDataset(rng.normal(size=(2, 3)), np.array([0, 1]), 2))
            for n in sizes
        ])
        recording = Recording(seed)
        pool, trimmed = data.extract_server_pool(part, recording)
        assert len(recording.picks) == len(sizes)
        for (train, test), (kept, kept_test), pick in zip(part.clients, trimmed.clients, recording.picks):
            keep = np.setdiff1d(np.arange(len(train)), pick)
            assert kept.features.tobytes() == train.features[keep].tobytes()
            assert kept.labels.tobytes() == train.labels[keep].tobytes()
            assert kept_test is test
        picked = [train.features[np.sort(p)] for (train, _), p in zip(part.clients, recording.picks)]
        assert pool.features.tobytes() == np.vstack(picked).tobytes()

    check()


def test_extract_server_pool_rejects_tiny_trains():
    rng = np.random.default_rng(27)
    ds = data.LabeledDataset(rng.normal(size=(40, 2)), rng.integers(0, 2, 40), 2)
    # train split of 2 cannot spare round(0.1*40)=4 uploads
    part = data.ClientPartition([(ds.subset(np.arange(2)), ds.subset(np.arange(2, 40)))])
    with pytest.raises(ConfigError):
        data.extract_server_pool(part, np.random.default_rng(28))


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
