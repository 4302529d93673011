"""Network engine: architecture bookkeeping, forward/backward, SGD."""

import math

import numpy as np
import pytest

from conftest import max_grad_rel_err, rel_err
from fedaa import nn
from fedaa.errors import ConfigError, NumericError
from fedaa.reference import central_diff, replay_backward_ce


def small_model(seed=0, arch=None):
    """(arch, params) of a small network."""
    arch = arch or nn.ArchSpec(4, (5,), 3)
    rng = np.random.default_rng(seed)
    return arch, nn.init_params(arch, rng)


def sgd_alone(arch, start, x, y, cfg, rng):
    """sgd_epoch on a stack of one client, started from a copy of
    ``start``: the trained parameters, or the NumericError."""
    params = start[None].copy()
    errors = nn.sgd_epoch(arch, params, [x], [y], cfg, [rng])
    return errors.get(0, params[0])


# ---------------------------------------------------------------- arch


def test_param_count_formula():
    # counts recomputed from shapes: sum of fan_in*fan_out + fan_out
    mnist = nn.ArchSpec(784, (100,), 10)
    assert nn.param_count(mnist) == 784 * 100 + 100 + 100 * 10 + 10
    assert nn.param_count(mnist) == 79510
    emnist = nn.ArchSpec(784, (100, 100), 62)
    assert nn.param_count(emnist) == 784 * 100 + 100 + 100 * 100 + 100 + 100 * 62 + 62
    assert nn.param_count(emnist) == 94862
    logistic = nn.ArchSpec(60, (), 10)
    assert nn.param_count(logistic) == 60 * 10 + 10 == 610


def test_layer_slices_layout():
    arch = nn.ArchSpec(3, (2,), 2)
    (w0, b0), (w1, b1) = nn.layer_slices(arch)
    assert (w0.start, w0.stop) == (0, 6)
    assert (b0.start, b0.stop) == (6, 8)
    assert (w1.start, w1.stop) == (8, 12)
    assert (b1.start, b1.stop) == (12, 14)


def test_arch_validation():
    with pytest.raises(ConfigError):
        nn.ArchSpec(0, (), 2)
    with pytest.raises(ConfigError):
        nn.ArchSpec(3, (0,), 2)
    with pytest.raises(ConfigError):
        nn.ArchSpec(3, (), 0)


def test_init_params_ranges_and_biases():
    arch = nn.ArchSpec(10, (7,), 4)
    params = nn.init_params(arch, np.random.default_rng(3))
    (w0sl, b0sl), (w1sl, b1sl) = nn.layer_slices(arch)
    assert np.all(params[b0sl] == 0.0) and np.all(params[b1sl] == 0.0)
    lim0 = math.sqrt(6.0 / (10 + 7))
    lim1 = math.sqrt(6.0 / (7 + 4))
    assert np.all(np.abs(params[w0sl]) <= lim0)
    assert np.all(np.abs(params[w1sl]) <= lim1)
    # same seed, same draw
    again = nn.init_params(arch, np.random.default_rng(3))
    assert params.tobytes() == again.tobytes()


@pytest.mark.parametrize("shape", [(5,), (9,), (2, 4), (8, 1), (1, 1, 8)])
def test_params_must_be_a_vector_or_a_stack_of_the_arch_size(shape):
    # a 2-D array of the right size would otherwise be sliced by rows
    arch = nn.ArchSpec(3, (), 2)
    assert nn.param_count(arch) == 8
    params, x, y = np.zeros(shape), np.zeros((1, 3)), np.array([0])
    with pytest.raises(ConfigError, match=r"parameters of shape"):
        nn.unflatten(arch, params)
    with pytest.raises(ConfigError, match=r"parameters of shape"):
        nn.forward(arch, params, x)
    with pytest.raises(ConfigError, match=r"parameters of shape"):
        nn.backward_ce(arch, params, x, y)
    assert nn.forward(arch, np.zeros(8), x).shape == (1, 2)
    # (1, 8) is a stack of one network
    assert [w.shape for w, _ in nn.unflatten(arch, np.zeros((1, 8)))] == [(1, 3, 2)]


def test_a_stack_goes_only_where_a_stack_is_taken():
    arch = nn.ArchSpec(3, (4,), 2)
    d = nn.param_count(arch)
    one, stack = np.zeros(d), np.zeros((2, d))
    x, xs, y = np.zeros((4, 3)), np.zeros((2, 4, 3)), np.array([0, 1, 0, 1])
    assert nn.forward(arch, stack, xs).shape == nn.forward(arch, one, xs).shape == (2, 4, 2)
    # the gradient paths take one network on one 2-D batch
    batches = r"batch shape \(2, 4, 3\) incompatible with input_dim 3"
    with pytest.raises(ConfigError, match=batches):
        nn.backward_ce(arch, one, xs, y)
    with pytest.raises(ConfigError, match=batches):
        nn.sgd_epoch(arch, np.zeros((1, d)), [xs], [y], nn.SgdConfig(), [np.random.default_rng(0)])
    for params in (stack, stack[:1]):
        with pytest.raises(ConfigError, match="networks for a batch of shape"):
            nn.forward(arch, params, x)
        with pytest.raises(ConfigError, match="networks for a batch of shape"):
            nn.backward_ce(arch, params, x, y)
    with pytest.raises(ConfigError, match="networks for a batch of shape"):
        nn.forward(arch, stack, np.zeros((3, 4, 3)))
    one_on_one = r"one \(d,\) network on one 2-D batch"
    _, cache = nn.forward_cached(arch, one, x)
    with pytest.raises(ConfigError, match=one_on_one):
        nn.backward_from_output(arch, stack, cache, np.zeros((4, 2)))
    _, cache = nn.forward_cached(arch, stack, xs)
    with pytest.raises(ConfigError, match=one_on_one):
        nn.backward_from_output(arch, one, cache, np.zeros((2, 4, 2)))


# ---------------------------------------------------------------- forward


def test_softmax_hand_values():
    out = nn.softmax(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)
    out = nn.softmax(np.array([[math.log(1.0), math.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_stability():
    out = nn.softmax(np.array([[1000.0, 1000.0], [800.0, 0.0]]))
    assert np.isfinite(out).all()
    assert np.allclose(out[0], [0.5, 0.5])
    assert out[1, 0] > 0.999999
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_forward_logistic_hand():
    arch = nn.ArchSpec(2, (), 2)
    # W rows are per-input, columns per-output: flat [w00, w01, w10, w11, b0, b1]
    params = np.array([1.0, 0.0, 0.0, 1.0, 0.5, -0.5])
    out = nn.forward(arch, params, np.array([[1.0, 2.0]]))
    assert np.allclose(out, [[1.5, 1.5]], atol=1e-15)


def test_forward_relu_hand():
    arch = nn.ArchSpec(2, (2,), 1)
    flat = np.array([1.0, -1.0, 0.0, 1.0,  # W0 rows [1,-1], [0,1]
                     0.0, 0.0,              # b0
                     1.0, 1.0,              # W1
                     0.25])                 # b1
    params = flat
    # z0 = [1, 0] -> relu [1, 0] -> out = 1 + 0 + 0.25
    out = nn.forward(arch, params, np.array([[1.0, 1.0]]))
    assert np.allclose(out, [[1.25]], atol=1e-15)
    # negative pre-activation is clipped: x = [0, -1] -> z0 = [0, -1] -> h = [0, 0]
    out = nn.forward(arch, params, np.array([[0.0, -1.0]]))
    assert np.allclose(out, [[0.25]], atol=1e-15)


def test_forward_batch_shape_error():
    arch, params = small_model()
    with pytest.raises(ConfigError):
        nn.forward(arch, params, np.zeros((2, 7)))
    with pytest.raises(ConfigError):
        nn.forward(arch, params, np.zeros(4))  # 1-D batches are rejected


# ---------------------------------------------------------------- loss


def test_ce_loss_hand_values():
    # two equally likely classes, true label either way: loss = ln 2
    loss = nn.ce_loss_from_logits(np.array([[0.0, 0.0]]), np.array([0]))
    assert rel_err(loss, math.log(2.0)) < 1e-12
    # p(correct) = 3/4 -> loss = ln(4/3)
    loss = nn.ce_loss_from_logits(np.array([[math.log(3.0), 0.0]]), np.array([0]))
    assert rel_err(loss, math.log(4.0 / 3.0)) < 1e-12


def test_ce_loss_of_a_stack_is_each_rows_loss_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in (1, 7, 9, 129):  # sums of up to 8 terms, unrolled, pairwise
        logits, labels = 5.0 * rng.normal(size=(3, n, 4)), rng.integers(0, 4, (3, n))
        want = [float(-nn.log_softmax(z)[np.arange(n), y].mean()) for z, y in zip(logits, labels)]
        assert [nn.ce_loss_from_logits(z, y) for z, y in zip(logits, labels)] == want
        assert nn.ce_loss_from_logits(logits, labels).tolist() == want


def test_ce_loss_confident_prediction_tends_to_zero():
    loss = nn.ce_loss_from_logits(np.array([[50.0, 0.0]]), np.array([0]))
    assert 0.0 <= loss < 1e-12


def test_backward_ce_label_validation():
    arch, params = small_model()
    x = np.zeros((2, 4))
    with pytest.raises(ConfigError):
        nn.backward_ce(arch, params, x, np.array([0, 3]))  # label out of range
    with pytest.raises(ConfigError):
        nn.backward_ce(arch, params, x, np.array([], dtype=int))
    with pytest.raises(ConfigError):
        nn.backward_ce(arch, params, x, np.array([0]))  # row count mismatch
    # labels index the rows of the probabilities, so they are integers, as
    # sgd_epoch asks
    for labels in (np.array([1.0, 0.0]), np.array([True, False])):
        with pytest.raises(ConfigError, match="labels must be a non-empty 1-D integer array"):
            nn.backward_ce(arch, params, x, labels)


def test_backward_ce_nonfinite_params_raise():
    arch, params = small_model()
    params[0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="layer 0"):
        nn.backward_ce(arch, params, np.ones((2, 4)), np.array([0, 1]))


# ---------------------------------------------------------------- gradients


def test_ce_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    arch = nn.ArchSpec(4, (5,), 3)
    params = nn.init_params(arch, rng)
    x = rng.normal(size=(7, 4))
    y = rng.integers(0, 3, size=7)
    _, grad = nn.backward_ce(arch, params, x, y)

    def loss_at(p):
        return nn.backward_ce(arch, p, x, y)[0]

    err = max_grad_rel_err(loss_at, params, grad, range(params.size))
    assert err < 1e-5


def test_scalar_head_gradient_matches_central_differences():
    rng = np.random.default_rng(18)
    arch = nn.ArchSpec(5, (6,), 1)
    params = nn.init_params(arch, rng)
    x = rng.normal(size=(8, 5))

    def objective(p):
        return float(nn.forward(arch, p, x).mean())

    out, cache = nn.forward_cached(arch, params, x)
    dout = np.full_like(out, 1.0 / out.size)
    grad, _ = nn.backward_from_output(arch, params, cache, dout)
    err = max_grad_rel_err(objective, params, grad, range(params.size))
    assert err < 1e-5


def test_input_gradient_matches_central_differences():
    rng = np.random.default_rng(20)
    arch = nn.ArchSpec(4, (6,), 1)
    params = nn.init_params(arch, rng)
    x = rng.normal(size=(3, 4))
    out, cache = nn.forward_cached(arch, params, x)
    dout = np.ones_like(out)
    _, dinput = nn.backward_from_output(arch, params, cache, dout)

    flat = x.ravel().copy()

    def objective(v):
        return float(nn.forward(arch, params, v.reshape(3, 4)).sum())

    fd = central_diff(objective, flat, range(flat.size))
    for k, val in fd.items():
        assert rel_err(val, dinput.ravel()[k]) < 1e-5


# ---------------------------------------------------------------- sgd


def test_sgd_single_step_hand_computed():
    # one sample, zero init: p = [0.5, 0.5], dz = [-0.5, 0.5]
    arch = nn.ArchSpec(1, (), 2)
    params = np.zeros(4)
    cfg = nn.SgdConfig(learning_rate=0.5, batch_size=4, epochs=1)
    x = np.array([[2.0]])
    y = np.array([0])
    trained = sgd_alone(arch, params, x, y, cfg, np.random.default_rng(0))
    # dW = x^T dz = [-1, 1]; db = [-0.5, 0.5]; step = -lr * grad
    assert np.allclose(trained, [0.5, -0.5, 0.25, -0.25], atol=1e-15)


def test_sgd_weight_decay_hand_computed():
    arch = nn.ArchSpec(1, (), 2)
    params = np.ones(4)
    cfg = nn.SgdConfig(learning_rate=0.5, weight_decay=0.1, batch_size=1, epochs=1)
    x = np.array([[0.0]])  # zero input isolates the bias gradient
    y = np.array([0])
    trained = sgd_alone(arch, params, x, y, cfg, np.random.default_rng(0))
    # logits = b = [1,1] -> dz = [-0.5, 0.5]; grads: W 0, b as dz; decay adds 0.1*p
    expected = np.array(
        [1 - 0.5 * 0.1, 1 - 0.5 * 0.1, 1 - 0.5 * (-0.5 + 0.1), 1 - 0.5 * (0.5 + 0.1)]
    )
    assert np.allclose(trained, expected, atol=1e-15)


def test_sgd_zero_lr_leaves_params_unchanged():
    arch, params = small_model(7)
    cfg = nn.SgdConfig(learning_rate=0.0, epochs=3, batch_size=2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 4))
    y = rng.integers(0, 3, size=10)
    trained = sgd_alone(arch, params, x, y, cfg, rng)
    assert trained.tobytes() == params.tobytes()


def test_sgd_short_final_batch_used():
    # 5 samples, batch 4: the 1-sample tail must contribute an update.
    # Compare against the two-step replay of backward_ce.
    arch = nn.ArchSpec(2, (), 2)
    rng_data = np.random.default_rng(2)
    x = rng_data.normal(size=(5, 2))
    y = rng_data.integers(0, 2, size=5)
    cfg = nn.SgdConfig(learning_rate=0.1, batch_size=4, epochs=1)
    start = nn.init_params(arch, np.random.default_rng(3))
    trained = sgd_alone(arch, start, x, y, cfg, np.random.default_rng(9))
    # replay: same shuffle stream, batches of rows 0-3 and 4
    params = replay_backward_ce(arch, start, x, y, cfg, np.random.default_rng(9))
    assert np.array_equal(trained, params)


def test_sgd_matches_backward_ce_replay_generated():
    # a stack of k clients, each with its own start, data and generator,
    # must give each client exactly its own backward_ce replay; clients
    # with features scaled to overflow or a NaN start bias diverge, and
    # then get the replay's error while the others train on
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    # the derandomized draws follow this function's source, and need not
    # reach every category the coverage assertion asks for; these do
    @hypothesis.example(k=2, n=7, batch_size=3, epochs=2, weight_decay=1e-3, classes=3,
                        hidden=(1,), seed=5, starts=["", "nan", "", "", ""])
    @hypothesis.example(k=1, n=5, batch_size=8, epochs=0, weight_decay=0.0, classes=2,
                        hidden=(), seed=6, starts=["", "", "", "", ""])
    @hypothesis.example(k=5, n=10, batch_size=4, epochs=3, weight_decay=0.3, classes=4,
                        hidden=(6,), seed=7, starts=["nan", "", "huge", "", ""])
    @hypothesis.example(k=2, n=12, batch_size=4, epochs=1, weight_decay=0.0, classes=5,
                        hidden=(5, 3), seed=8, starts=["", "", "", "", ""])
    @hypothesis.given(
        k=st.sampled_from([1, 2, 5]),
        n=st.integers(1, 40),
        batch_size=st.integers(1, 48),
        epochs=st.integers(0, 3),
        weight_decay=st.sampled_from([0.0, 1e-3, 0.3]),
        classes=st.integers(2, 5),
        hidden=st.sampled_from([(), (6,), (5, 3), (1,)]),
        seed=st.integers(0, 2**16),
        starts=st.lists(st.sampled_from(["", "", "", "huge", "nan"]), min_size=5, max_size=5),
    )
    def check(k, n, batch_size, epochs, weight_decay, classes, hidden, seed, starts):
        rng = np.random.default_rng(seed)
        arch = nn.ArchSpec(3, hidden, classes)
        start_params = np.stack([nn.init_params(arch, rng) for _ in range(k)])
        xs = [rng.normal(size=(n, 3)) for _ in range(k)]
        ys = [rng.integers(0, classes, size=n) for _ in range(k)]
        for row, x, start in zip(start_params, xs, starts):
            if start == "huge":
                x *= 1e200
            elif start == "nan":
                row[nn.layer_slices(arch)[-1][1]] = np.nan
        cfg = nn.SgdConfig(learning_rate=0.5, weight_decay=weight_decay,
                           batch_size=batch_size, epochs=epochs)
        seeds = [seed + i for i in range(k)]
        params = start_params.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            errors = nn.sgd_epoch(arch, params, xs, ys, cfg,
                                  [np.random.default_rng(s) for s in seeds])
            expected = [replay_backward_ce(arch, start, x, y, cfg,
                                           np.random.default_rng(s))
                        for start, x, y, s in zip(start_params, xs, ys, seeds)]
        assert set(errors) == {i for i, e in enumerate(expected) if isinstance(e, NumericError)}
        for i, want in enumerate(expected):
            if isinstance(want, NumericError):
                assert str(errors[i]) == str(want)
                seen.add("diverging non-first client" if i else "diverging first client")
            else:
                assert np.array_equal(params[i], want, equal_nan=True)
        if any(isinstance(e, NumericError) for e in expected) and any(
            isinstance(e, np.ndarray) for e in expected
        ):
            seen.add("diverging and surviving clients in one stack")
        seen.update({("k", k), ("hidden", hidden), ("epochs", epochs), ("decay", weight_decay > 0)})
        seen.add("batch > n" if batch_size > n else "short final batch" if n % batch_size else "")
        if batch_size < n and n % batch_size == 1:
            seen.add("final batch of one row")

    check()
    assert seen >= {("k", 1), ("k", 2), ("k", 5), ("hidden", ()), ("hidden", (6,)),
                    ("hidden", (5, 3)), ("hidden", (1,)), ("epochs", 0), ("epochs", 3),
                    ("decay", True), ("decay", False), "batch > n", "short final batch",
                    "final batch of one row", "diverging first client",
                    "diverging non-first client",
                    "diverging and surviving clients in one stack"}


def test_sgd_writes_only_its_params_rows():
    # the stack is rows 1 and 2 of a larger array: training writes those
    # rows in place, and leaves the other rows, the features and the
    # labels as they were
    arch = nn.ArchSpec(4, (), 3)
    start = nn.init_params(arch, np.random.default_rng(0))
    rows = np.tile(start, (4, 1))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    x_before, y_before = x.copy(), y.copy()
    cfg = nn.SgdConfig(epochs=1, batch_size=4)
    errors = nn.sgd_epoch(arch, rows[1:3], [x, x], [y, y], cfg,
                          [np.random.default_rng(2), np.random.default_rng(2)])
    assert errors == {}
    alone = sgd_alone(arch, start, x, y, cfg, np.random.default_rng(2))
    assert not np.array_equal(alone, start)
    for row in (1, 2):
        assert np.array_equal(rows[row], alone)
    for row in (0, 3):
        assert np.array_equal(rows[row], start)
    assert np.array_equal(x, x_before) and np.array_equal(y, y_before)


def test_sgd_stack_validation():
    arch = nn.ArchSpec(4, (), 3)
    d = nn.param_count(arch)
    params = np.zeros((2, d))
    x4, x5 = np.zeros((4, 4)), np.zeros((5, 4))
    y4, y5 = np.zeros(4, dtype=int), np.zeros(5, dtype=int)
    cfg = nn.SgdConfig(epochs=1)
    rngs = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ConfigError, match="one train size"):
        nn.sgd_epoch(arch, params, [x4, x5], [y4, y5], cfg, rngs)
    with pytest.raises(ConfigError, match="per row"):
        nn.sgd_epoch(arch, params, [x4], [y4, y4], cfg, rngs)
    with pytest.raises(ConfigError, match="per row"):
        nn.sgd_epoch(arch, np.zeros((0, d)), [], [], cfg, [])
    # each client's labels are checked as a lone client's are
    with pytest.raises(ConfigError):
        nn.sgd_epoch(arch, params, [x4, x4], [y4, np.array([0, 1, 3, 0])], cfg, rngs)


def read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("params", [
    # non-contiguous: reshaping its layer views would train a copy
    np.zeros((2, 2 * 15))[:, ::2],
    np.asfortranarray(np.zeros((2, 15))),
    # not float64
    np.zeros((2, 15), dtype=np.float32),
    np.zeros((2, 15), dtype=np.int64),
    # the wrong width or rank
    np.zeros((2, 14)),
    np.zeros(15),
    # read-only
    read_only(np.zeros((2, 15))),
], ids=["strided", "fortran", "float32", "int64", "width", "1-d", "read-only"])
def test_sgd_rejects_params_it_cannot_train_in_place(params):
    arch = nn.ArchSpec(4, (), 3)
    assert nn.param_count(arch) == 15
    x, y = np.zeros((4, 4)), np.zeros(4, dtype=int)
    with pytest.raises(ConfigError, match="C-contiguous float64"):
        nn.sgd_epoch(arch, params, [x, x], [y, y], nn.SgdConfig(epochs=1),
                     [np.random.default_rng(0), np.random.default_rng(1)])


def failing_stack():
    """Three clients of one stack; the middle one starts with a NaN output
    bias, so its loss is non-finite at the first step."""
    arch = nn.ArchSpec(4, (3,), 3)
    good = nn.init_params(arch, np.random.default_rng(0))
    other = nn.init_params(arch, np.random.default_rng(1))
    params = np.stack([good, good, other])
    params[1, nn.layer_slices(arch)[1][1]] = np.nan  # the output bias
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    return arch, params, x, y


def test_sgd_stack_nonfinite_loss_names_the_layer():
    arch, params, x, y = failing_stack()
    starts = params.copy()
    # 3 epochs of 3 steps: the survivors train on for 8 steps after the failure
    cfg = nn.SgdConfig(epochs=3, batch_size=2)
    seeds = [4, 5, 6]
    with np.errstate(invalid="ignore"):
        errors = nn.sgd_epoch(arch, params, [x] * 3, [y] * 3, cfg,
                              [np.random.default_rng(s) for s in seeds])
    assert list(errors) == [1]
    assert str(errors[1]) == "non-finite loss; first non-finite activations at layer 1"
    # each survivor trains on as it would alone
    for row in (0, 2):
        alone = sgd_alone(arch, starts[row], x, y, cfg,
                          np.random.default_rng(seeds[row]))
        assert np.array_equal(params[row], alone)


def test_sgd_stack_checks_a_failed_clients_loss_once(monkeypatch):
    # the loss guard is per client: once the failing client has its error,
    # its NaN rows make no later step compute anyone's loss
    arch, params, x, y = failing_stack()
    calls = []
    finite_ce_loss = nn._finite_ce_loss

    def counting_finite_ce_loss(pre, labels):
        calls.append(len(labels))
        return finite_ce_loss(pre, labels)

    monkeypatch.setattr(nn, "_finite_ce_loss", counting_finite_ce_loss)
    cfg = nn.SgdConfig(epochs=3, batch_size=2)
    with np.errstate(invalid="ignore"):
        errors = nn.sgd_epoch(arch, params, [x] * 3, [y] * 3, cfg,
                              [np.random.default_rng(s) for s in (4, 5, 6)])
    assert list(errors) == [1]
    # one call, for the failing client at the first step
    assert calls == [2]


def test_sgd_nonfinite_start_params_raise_naming_the_layer():
    arch, params = small_model()
    params[0] = np.inf
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    with np.errstate(invalid="ignore"):
        got = sgd_alone(arch, params, x, y, nn.SgdConfig(epochs=1), rng)
    assert isinstance(got, NumericError)
    assert str(got).endswith("layer 0")


def test_sgd_label_validation():
    arch, params = small_model()
    x = np.zeros((4, 4))
    cfg = nn.SgdConfig(epochs=1, batch_size=2)
    for labels in (np.array([0, 1, 2, 3]), np.array([0, -1, 1, 1]), np.array([0, 1, 2]),
                   np.array([0, 1, 2, 0, 1]), np.zeros((4, 1), dtype=int),
                   np.array([0.0, 1.0, 2.0, 0.0]), np.array([True, False, True, False])):
        with pytest.raises(ConfigError):
            sgd_alone(arch, params, x, labels, cfg, np.random.default_rng(0))


def test_sgd_empty_dataset_rejected():
    arch, params = small_model()
    with pytest.raises(ConfigError):
        sgd_alone(arch, params, np.zeros((0, 4)), np.array([], dtype=int),
                  nn.SgdConfig(), np.random.default_rng(0))


def test_sgd_deterministic_under_seed():
    arch, params = small_model(4)
    rng_data = np.random.default_rng(5)
    x = rng_data.normal(size=(20, 4))
    y = rng_data.integers(0, 3, size=20)
    cfg = nn.SgdConfig(learning_rate=0.1, batch_size=8, epochs=3)
    a = sgd_alone(arch, params, x, y, cfg, np.random.default_rng(11))
    b = sgd_alone(arch, params, x, y, cfg, np.random.default_rng(11))
    assert a.tobytes() == b.tobytes()


def test_sgd_learns_separable_blobs():
    rng = np.random.default_rng(21)
    n = 40
    x = np.vstack(
        [rng.normal((-2.0, 0.0), 0.5, size=(n, 2)), rng.normal((2.0, 0.0), 0.5, size=(n, 2))]
    )
    y = np.array([0] * n + [1] * n)
    for arch in (nn.ArchSpec(2, (), 2), nn.ArchSpec(2, (8,), 2)):
        params = nn.init_params(arch, rng)
        cfg = nn.SgdConfig(learning_rate=0.5, batch_size=16, epochs=30)
        trained = sgd_alone(arch, params, x, y, cfg, np.random.default_rng(22))
        acc = (np.argmax(nn.forward(arch, trained, x), axis=1) == y).mean()
        assert acc >= 0.95
