"""Dense feed-forward networks on flat float64 parameter vectors.

A network is its architecture and its row: an ``ArchSpec`` plus one
flat float64 (d,) vector, often a row of a larger matrix. Every entry
point takes the two as ``(arch, params)``, and no object wraps them.
``unflatten``, ``forward`` and ``forward_cached`` also take a (k, d)
stack of such rows, one network each, ``ce_loss_from_logits`` a stack's
(k, n, C) logits, and ``sgd_epoch`` trains a stack; the gradient paths
(``backward_ce``, ``backward_from_output``) take one network on one 2-D
batch. The flat layout is fixed and relied on by the parameter distance
computations elsewhere in the package:

    layer 0 weight (fan_in x fan_out, row-major), layer 0 bias,
    layer 1 weight, layer 1 bias, ...

Hidden layers use ReLU, and every network returns the raw affine
output of its last layer: class logits for the client models, and for
the policy networks the actor's logits (``ddpg`` applies their softmax)
and the critic's value. All arithmetic is float64; nothing here
depends on global random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError


@dataclass(frozen=True)
class ArchSpec:
    """Shape of a dense network; owns no parameters."""

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    output_dim: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError("input_dim and output_dim must be positive")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError("hidden layer widths must be positive")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per affine layer, input to output."""
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        return list(zip(dims[:-1], dims[1:]))


def param_count(arch: ArchSpec) -> int:
    """Total parameters: sum of fan_in * fan_out + fan_out over layers."""
    return sum(fi * fo + fo for fi, fo in arch.layer_dims())


def layer_slices(arch: ArchSpec) -> list[tuple[slice, slice]]:
    """(weight, bias) slices of each layer inside the flat vector."""
    slices = []
    offset = 0
    for fan_in, fan_out in arch.layer_dims():
        w = slice(offset, offset + fan_in * fan_out)
        b = slice(w.stop, w.stop + fan_out)
        slices.append((w, b))
        offset = b.stop
    return slices


def init_params(arch: ArchSpec, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-lim, lim) weights with lim = sqrt(6/(fan_in+fan_out)); zero biases."""
    parts = []
    for fan_in, fan_out in arch.layer_dims():
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        parts.append(rng.uniform(-lim, lim, size=fan_in * fan_out))
        parts.append(np.zeros(fan_out))
    return np.concatenate(parts)


def unflatten(arch: ArchSpec, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views per layer, no copies: of a (d,) vector,
    (fan_in, fan_out) weights and (fan_out,) biases; of a (k, d) stack of
    rows, (k, fan_in, fan_out) weights and (k, 1, fan_out) biases, each
    row's part laid out as in its own vector."""
    params = np.asarray(params, dtype=np.float64)
    d = param_count(arch)
    if params.ndim not in (1, 2) or params.shape[-1] != d:
        raise ConfigError(f"parameters of shape {params.shape}, arch needs ({d},) or (k, {d})")
    lead = params.shape[:-1]  # () for a vector, (k,) for a stack
    # a stack's biases take a unit sample axis, to broadcast over its batches
    samples = (1,) * len(lead)
    return [
        (
            params[..., wsl].reshape(*lead, fan_in, fan_out),
            params[..., bsl].reshape(*lead, *samples, fan_out),
        )
        for (wsl, bsl), (fan_in, fan_out) in zip(layer_slices(arch), arch.layer_dims())
    ]


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))


def _check_batch(arch: ArchSpec, batch: np.ndarray, stacked: bool = False) -> np.ndarray:
    """The batch as float64: (n, input_dim), or (k, n, input_dim) if ``stacked``."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 + stacked or x.shape[-1] != arch.input_dim:
        raise ConfigError(
            f"batch shape {x.shape} incompatible with input_dim {arch.input_dim}"
        )
    return x


def forward_cached(
    arch: ArchSpec, params: np.ndarray, batch: np.ndarray
) -> tuple[np.ndarray, tuple[list, list]]:
    """``forward``'s output and the activations a backward pass needs:
    ``(inputs, pre)``, ``inputs[l]`` feeding layer l, ``pre[l]`` its affine output."""
    layers = unflatten(arch, params)
    x = _check_batch(arch, batch, stacked=np.ndim(batch) == 3)
    networks = layers[0][0].shape[:-2]  # () for one network, (k,) for a stack
    if networks and x.shape[:-2] != networks:
        raise ConfigError(f"{networks[0]} networks for a batch of shape {x.shape}")
    inputs, pre = [], []
    h = x
    for index, (weight, bias) in enumerate(layers):
        inputs.append(h)
        z = h @ weight + bias
        pre.append(z)
        if index < len(layers) - 1:
            h = np.maximum(z, 0.0)
    return pre[-1], (inputs, pre)


def forward(arch: ArchSpec, params: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Affine output of the last layer: (n, output_dim) for an (n,
    input_dim) batch through one (d,) network, and (k, n, output_dim) for
    a (k, n, input_dim) stack of batches, all through one (d,) network or
    batch i through row i of a (k, d) stack.

    A stack runs each layer as one stacked matmul, ``(k, n, fan_in) @
    (k, fan_in, fan_out)``, whose item i is the matmul that batch i alone
    makes through its network, on operands laid out as there; so on
    C-contiguous batches every item is bit-identical to the 2-D forward,
    which ``fedaa selftest`` checks on the installed numpy and BLAS.
    """
    return forward_cached(arch, params, batch)[0]


def backward_from_output(
    arch: ArchSpec, params: np.ndarray, cache: tuple[list, list], dout: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate d(objective)/d(network output) through ``forward_cached``'s cache.

    Returns (flat parameter gradient, gradient w.r.t. the input batch).
    """
    inputs, pre = cache
    if np.ndim(params) != 1 or inputs[0].ndim != 2:
        raise ConfigError("backpropagation takes one (d,) network on one 2-D batch")
    dz = np.asarray(dout, dtype=np.float64)
    if dz.shape != pre[-1].shape:
        raise ConfigError(f"dout shape {dz.shape} != output shape {pre[-1].shape}")
    grad = np.empty(param_count(arch))
    slices = layer_slices(arch)
    layers = unflatten(arch, params)
    for index in range(len(layers) - 1, -1, -1):
        weight, _ = layers[index]
        wsl, bsl = slices[index]
        grad[wsl] = (inputs[index].T @ dz).ravel()
        grad[bsl] = dz.sum(axis=0)
        dh = dz @ weight.T
        if index > 0:
            dz = dh * (pre[index - 1] > 0.0)
    return grad, dh


def ce_loss_from_logits(logits: np.ndarray, labels: np.ndarray) -> float | np.ndarray:
    """Mean cross-entropy of integer labels under the given logits, over
    the sample axis: a float for (n, C) logits and (n,) labels, and one
    per network, shape (k,), for (k, n, C) logits and (k, n) labels."""
    picked = np.take_along_axis(log_softmax(logits), labels[..., None], axis=-1)[..., 0]
    loss = -picked.mean(axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def _finite_ce_loss(pre: list[np.ndarray], labels: np.ndarray) -> float:
    """Loss of the logits ``pre[-1]``; NumericError naming the first layer
    with non-finite activations if it is not finite."""
    loss = ce_loss_from_logits(pre[-1], labels)
    if not math.isfinite(loss):
        layer = next(
            (index for index, z in enumerate(pre) if not np.isfinite(z).all()), len(pre) - 1
        )
        raise NumericError(f"non-finite loss; first non-finite activations at layer {layer}")
    return loss


def _ce_labels(arch: ArchSpec, labels: np.ndarray) -> np.ndarray:
    """Labels for a cross-entropy objective, checked against the output."""
    labels = np.asarray(labels)
    # the labels index rows, where a boolean array would be a mask
    if labels.ndim != 1 or labels.size == 0 or not np.issubdtype(labels.dtype, np.integer):
        raise ConfigError("labels must be a non-empty 1-D integer array")
    if labels.min() < 0 or labels.max() >= arch.output_dim:
        raise ConfigError("label out of range for the output dimension")
    return labels


def backward_ce(
    arch: ArchSpec, params: np.ndarray, batch: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its flat parameter gradient.

    The network output is taken as logits; raises NumericError naming
    the first offending layer if the loss is not finite.
    """
    labels = _ce_labels(arch, labels)
    logits, (inputs, pre) = forward_cached(arch, params, _check_batch(arch, batch))
    if labels.size != logits.shape[0]:
        raise ConfigError(f"{logits.shape[0]} rows but {labels.size} labels")
    loss = _finite_ce_loss(pre, labels)
    probs = softmax(logits)
    dz = probs.copy()
    dz[np.arange(labels.size), labels] -= 1.0
    dz /= labels.size
    grad, _ = backward_from_output(arch, params, (inputs, pre), dz)
    return loss, grad


@dataclass(frozen=True)
class SgdConfig:
    """Plain minibatch SGD with optional decoupled L2 weight decay."""

    learning_rate: float = 0.1
    weight_decay: float = 0.0
    batch_size: int = 64
    epochs: int = 20

    def __post_init__(self) -> None:
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ConfigError("learning_rate and weight_decay must be non-negative")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigError("batch_size must be >= 1 and epochs >= 0")


def sgd_epoch(
    arch: ArchSpec,
    params: np.ndarray,
    features: Sequence[np.ndarray],
    labels: Sequence[np.ndarray],
    cfg: SgdConfig,
    rngs: Sequence[np.random.Generator],
) -> dict[int, NumericError]:
    """Run cfg.epochs of shuffled minibatch SGD on a stack of k clients, in place.

    ``params`` is a C-contiguous float64 (k, param_count(arch)) array,
    one client's flat parameter vector per row; with it come k feature
    arrays of one length, k label arrays and k generators. Each row
    trains in place, and the call returns, by row, the NumericError of
    each client whose loss turned non-finite, naming the first layer with
    non-finite activations; that client's row then holds whatever its
    steps left there. Each epoch reshuffles; the short final batch is used
    as is. The update is params -= lr * (grad + weight_decay * params).

    The k clients train as one stack: each step runs every matmul once,
    ``(k, batch, fan_in) @ (k, fan_in, fan_out)``, and each client draws
    its permutations from its own generator. A client's rows in the
    stacked matmuls, reductions and update never meet another client's,
    so a failing client leaves the others as they are, and every row ends
    as the client's would training alone. A failed client's rows run on
    unchecked, and the call ends once every client has failed.

    Each step makes, for every client in the stack, the floating-point
    operations of a ``backward_ce`` step on its batch (the update only
    swaps the operands of its sums and products), so each result is
    bit-identical to a loop of ``backward_ce`` steps; ``fedaa selftest``
    checks this on the installed numpy and BLAS. Inputs are checked and
    the layer views built once per call, and the losses are computed only
    when the logits could make one of them non-finite.
    """
    # the layer views below must be views: on any other array, reshape
    # would train a copy and leave the caller's rows at their start
    d = param_count(arch)
    if not (
        isinstance(params, np.ndarray) and params.dtype == np.float64 and params.ndim == 2
        and params.shape[1] == d and params.flags.c_contiguous and params.flags.writeable
    ):
        raise ConfigError(
            f"sgd_epoch trains the rows of a writeable C-contiguous float64 (k, {d}) array"
        )
    k = params.shape[0]
    if k == 0 or not len(features) == len(labels) == len(rngs) == k:
        raise ConfigError("a stack needs one feature array, label array and generator per row")
    xs = [_check_batch(arch, x) for x in features]
    n = xs[0].shape[0]
    if n == 0:
        raise ConfigError("cannot train on an empty dataset")
    if any(x.shape[0] != n for x in xs):
        raise ConfigError("the clients of a stack must have one train size")
    ys = [_sgd_labels(arch, y, n) for y in labels]
    grad = np.empty_like(params)
    layers, grads = unflatten(arch, params), unflatten(arch, grad)
    back = [weight.transpose(0, 2, 1) for weight, _ in layers]
    step = np.empty_like(params)
    targets = [np.eye(arch.output_dim)[y] for y in ys]
    # each epoch's shuffled rows, gathered once; batches are views of them
    x_epoch = np.empty((k, n, arch.input_dim))
    t_epoch = np.empty((k, n, arch.output_dim))
    last = len(layers) - 1
    # Exact guard for a finite loss. If every shifted logit z - max(row)
    # is finite and above -bound, each log-probability lies in
    # [-(bound + log C), 0], and their mean over at most batch_size rows
    # cannot overflow, since batch_size * bound <= 1e307. A NaN or an
    # infinite logit makes the minimum NaN or -inf and fails the guard.
    # When the stack fails it, the guard is taken per client: the loss of
    # each client whose own guard fails, and which has not failed yet, is
    # computed and checked as backward_ce does, so a failed client's NaN
    # rows make no later step compute a loss.
    floor = -min(1e300, 1e307 / cfg.batch_size)
    errors: dict[int, NumericError] = {}
    for _ in range(cfg.epochs):
        orders = [r.permutation(n) for r in rngs]
        for i, order in enumerate(orders):
            # mode="clip" writes straight into out; the rows are all in range
            xs[i].take(order, axis=0, out=x_epoch[i], mode="clip")
            targets[i].take(order, axis=0, out=t_epoch[i], mode="clip")
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            inputs = [x_epoch[:, start:stop]]
            pre = []
            for index, (weight, bias) in enumerate(layers):
                z = inputs[index] @ weight
                z += bias
                pre.append(z)
                if index < last:
                    inputs.append(np.maximum(z, 0.0))
            # ufunc reductions are what ndarray.max/min/sum call, without
            # their Python wrappers
            dz = pre[-1] - np.maximum.reduce(pre[-1], axis=2, keepdims=True)
            if not np.minimum.reduce(dz, axis=None) > floor:
                low = np.minimum.reduce(dz, axis=(1, 2))
                for i in np.flatnonzero(~(low > floor)).tolist():
                    if i in errors:
                        continue
                    try:
                        _finite_ce_loss([z[i] for z in pre], ys[i][orders[i][start:stop]])
                    except NumericError as exc:
                        errors[i] = exc
                if len(errors) == k:
                    return errors
            np.exp(dz, out=dz)
            dz /= np.add.reduce(dz, axis=2, keepdims=True)
            # subtracts 1.0 at each label, as backward_ce does; the other
            # entries lose 0.0, which leaves every float as it is
            dz -= t_epoch[:, start:stop]
            dz /= dz.shape[1]
            for index in range(last, -1, -1):
                weight_grad, bias_grad = grads[index]
                np.matmul(inputs[index].transpose(0, 2, 1), dz, out=weight_grad)
                np.add.reduce(dz, axis=1, keepdims=True, out=bias_grad)
                if index > 0:
                    dz = dz @ back[index]
                    dz *= pre[index - 1] > 0.0
            np.multiply(params, cfg.weight_decay, out=step)
            step += grad
            step *= cfg.learning_rate
            params -= step
    return errors


def _sgd_labels(arch: ArchSpec, labels: np.ndarray, n: int) -> np.ndarray:
    labels = _ce_labels(arch, labels)
    if labels.size != n:
        raise ConfigError(f"{n} rows but {labels.size} labels")
    return labels
