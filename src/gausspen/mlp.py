"""A small from-scratch ReLU multilayer perceptron trained by mini-batch
gradient descent with a triangular learning-rate schedule and patience-based
early stopping, with any of the scalar penalty families applied to the
weights (never the biases).

Memory: besides its splits and weights, a run holds one mini-batch's forward
cache and one gradient buffer that its layers share, and, only while it
scores a split, one cache-free pass that scores it ``EVAL_ROWS`` rows at a time.

Weight checkpoints use a self-describing binary layout:

    magic b"MLPW" | uint32 version (1) | uint32 L = number of layer sizes
    | L x uint32 layer sizes | per layer pair: weight matrix then bias
    vector, float64 little-endian, row-major.
"""

import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

from .data import write_file
from .errors import ConfigurationError, DivergenceError, DomainError, FormatError
from .penalties import PenaltySpec, grad_array, value_array

EVAL_ROWS = 128  # rows of a split evaluated at a time
CHECKPOINT_MAGIC = b"MLPW"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(FormatError):
    """Malformed weight checkpoint; ``offset`` is the byte position of the problem."""


@dataclass
class MlpArchitecture:
    """Layer widths, input first and output last; hidden layers are ReLU and
    the output layer feeds a softmax cross-entropy loss."""

    layer_sizes: tuple

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 3:
            raise ConfigurationError("need at least one hidden layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ConfigurationError("every layer size must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings; a family ``none`` or a ``lam`` of 0 makes the one
    unpenalized config, ``PenaltySpec("none")`` at ``lam = 0.0``."""

    penalty: PenaltySpec = field(default_factory=lambda: PenaltySpec("none"))
    lam: float = 0.0
    lr_min: float = 0.01
    lr_max: float = 0.25
    batch_size: int = 64
    patience: int = 20
    max_epochs: int = 250
    seed: int = 1

    def __post_init__(self):
        if not 0 < self.lr_min < self.lr_max:
            raise ConfigurationError("need 0 < lr_min < lr_max")
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("patience, max_epochs, batch_size must be >= 1")
        if not 0 <= self.lam < np.inf:
            raise ConfigurationError("lam must be finite and nonnegative")
        if self.penalty.family == "none" or self.lam == 0.0:
            object.__setattr__(self, "penalty", PenaltySpec("none"))
            object.__setattr__(self, "lam", 0.0)


@dataclass
class TrainRun:
    """One training trajectory: per-epoch log, stopping info, test error."""

    epoch_log: list  # (epoch, train objective, total validation loss, lr at epoch start)
    best_epoch: int
    best_val_loss: float
    stop_reason: str  # "patience" or "max_epochs"
    weights: list  # best (W, b) pairs
    test_error_rate: float


def init_weights(arch, seed):
    """Gaussian init with per-matrix variance 4/(fan_in + fan_out); zero biases."""
    rng = np.random.default_rng(seed)
    sizes = arch.layer_sizes
    weights = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        std = np.sqrt(4.0 / (fan_in + fan_out))
        W = std * rng.standard_normal((fan_in, fan_out))
        weights.append((W, np.zeros(fan_out)))
    return weights


def triangular_lr(iteration, config, cycle):
    """Piecewise-linear cyclic rate: lr_min up to lr_max over ``cycle``
    iterations, back down over the next ``cycle``, repeating.

    The convex-combination form makes the breakpoints exact.
    """
    if cycle < 1:
        raise ConfigurationError("cycle must be >= 1")
    pos = iteration % (2 * cycle)
    if pos <= cycle:
        t = pos / cycle
    else:
        t = (2 * cycle - pos) / cycle
    return (1.0 - t) * config.lr_min + t * config.lr_max


def _pass_arrays(weights, rows, cache=True):
    """Per-layer (activations, pre-activations) that a forward pass over up to
    ``rows`` examples writes.  Without ``cache`` each ReLU runs in place: the
    pass then leaves its logits, but not what :func:`backward` reads."""
    pre = [np.empty((rows, W.shape[1])) for W, _ in weights]
    return [np.empty_like(z) if cache else z for z in pre[:-1]] + pre[-1:], pre


def forward(weights, inputs, *, out=None):
    """Forward pass; returns (logits, cache) with everything backward needs.

    ``out`` takes :func:`_pass_arrays` arrays for the pass to write its first
    ``len(inputs)`` rows into; by default they are fresh."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != weights[0][0].shape[0]:
        raise ConfigurationError(
            f"input width {inputs.shape} does not match first layer {weights[0][0].shape}"
        )
    rows = len(inputs)
    act, pre = out if out is not None else _pass_arrays(weights, rows)
    activations, pres = [inputs], []
    for i, (W, b) in enumerate(weights):
        z = np.matmul(activations[-1], W, out=pre[i][:rows])
        z += b
        pres.append(z)
        activations.append(np.maximum(z, 0.0, out=act[i][:rows]) if i < len(weights) - 1 else z)
    return activations[-1], (activations, pres)


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _picked_log_probs(logits, labels):
    return _log_softmax(logits)[np.arange(len(labels)), labels]


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy against integer labels."""
    return float(-_picked_log_probs(logits, labels).mean())


def penalty_term(weights, penalty, lam):
    """lam * sum of penalty values over all weight-matrix entries (not biases)."""
    if lam == 0.0:
        return 0.0
    return lam * sum(float(np.sum(value_array(penalty, W))) for W, _ in weights)


def composite_objective(weights, inputs, labels, penalty, lam):
    logits, _ = forward(weights, inputs)
    return cross_entropy(logits, labels) + penalty_term(weights, penalty, lam)


def backward(weights, cache, labels, penalty, lam, *, out=None, lr=None):
    """Gradient of mean cross-entropy plus the penalty term on the weights.

    A penalty with a kink at the origin contributes its subgradient 0 at a
    weight of exactly 0, so singular-at-origin families remain trainable
    from zero weights.  ``lam * P'(W)`` is one ``grad_array`` temporary,
    added into the weight gradient in place.

    ``out`` takes (gW, gb) arrays shaped like ``weights``, and backward then
    writes its deltas over ``cache``.  With ``lr`` it steps each layer by
    ``lr`` times its gradient, which the returned arrays then hold, as soon as
    the layer's weights have given the delta below.  By default every array is fresh.
    """
    activations, pre = cache
    batch = len(labels)
    logits = activations[-1]
    probs = np.exp(_log_softmax(logits))
    delta = probs
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch
    grads = out if out is not None else [(np.empty_like(W), np.empty_like(b)) for W, b in weights]
    for i in range(len(weights) - 1, -1, -1):
        W, b = weights[i]
        gW, gb = grads[i]
        np.matmul(activations[i].T, delta, out=gW)
        np.sum(delta, axis=0, out=gb)
        if lam > 0.0:
            gW += grad_array(penalty, W, lam)
        if i > 0:
            # a float 0/1 mask in place of pre[i - 1] multiplies like the bool one
            mask = np.greater(pre[i - 1], 0.0, out=pre[i - 1] if out is not None else None)
            delta = np.matmul(delta, W.T, out=activations[i] if out is not None else None)
            delta *= mask
        if lr is not None:
            for grad, param in ((gW, W), (gb, b)):
                grad *= lr
                param -= grad
    return grads


def _per_row(weights, dataset, row_values):
    """``row_values(logits, labels)`` of every row of ``dataset``, gathered
    from forward passes over ``EVAL_ROWS`` rows at a time into one cache-free
    :func:`_pass_arrays` made for the call."""
    out = _pass_arrays(weights, min(EVAL_ROWS, dataset.n), cache=False)
    return np.concatenate([
        row_values(forward(weights, dataset.features[lo:lo + EVAL_ROWS], out=out)[0],
                   dataset.labels[lo:lo + EVAL_ROWS])
        for lo in range(0, dataset.n, EVAL_ROWS)])


def evaluate(weights, dataset):
    """Fraction of argmax-misclassified examples; argmax ties resolve to the
    lowest class index (numpy argmax convention)."""
    errors = _per_row(weights, dataset, lambda logits, labels: logits.argmax(1) != labels)
    return float(np.mean(errors))


@np.errstate(all="ignore", over="raise")  # an overflow ends the run; nothing warns
def train(train_set, val_set, test_set, arch, config, *, weights=None):
    """Run the full protocol: shuffled mini-batches, a triangular learning
    rate per iteration that rises over four epochs and falls over the next
    four, per-epoch total validation loss, best-weights checkpointing, and
    stopping on patience or the epoch cap.  It starts from a copy of
    ``weights``, (W, b) pairs of ``arch``'s shapes, or by default from
    ``init_weights(arch, config.seed)``.

    The returned :class:`TrainRun` carries the best weights (restored before
    test evaluation); :func:`save_weights` stores them on disk.  An epoch whose
    loss is not finite or whose arithmetic overflows raises DivergenceError.
    """
    if weights is None:
        weights = init_weights(arch, config.seed)
    else:
        weights = [(np.array(W, dtype=float), np.array(b, dtype=float)) for W, b in weights]
        sizes = arch.layer_sizes  # (fan_in, fan_out) of W, then (fan_out,) of b
        if [W.shape + b.shape for W, b in weights] != list(zip(sizes, sizes[1:], sizes[1:])):
            raise ConfigurationError(f"starting weights do not have the shapes of {sizes}")
    shuffle_rng = np.random.default_rng([config.seed, 1])
    n_train = train_set.n
    cycle = 4 * -(-n_train // config.batch_size)  # iterations in four epochs
    # the step's forward cache; a short last batch uses its first rows
    step_arrays = _pass_arrays(weights, min(config.batch_size, n_train))
    # one gradient buffer: backward steps each layer before the next one writes
    grad_buffer = np.empty(max(W.size + b.size for W, b in weights))
    grads = [(grad_buffer[:W.size].reshape(W.shape), grad_buffer[W.size:W.size + b.size])
             for W, b in weights]

    iteration = 0
    best_val = np.inf
    best_epoch = 0
    best_weights = [(W.copy(), b.copy()) for W, b in weights]
    epoch_log = []
    stop_reason = "max_epochs"

    for epoch in range(1, config.max_epochs + 1):
        lr_start = triangular_lr(iteration, config, cycle)
        order = shuffle_rng.permutation(n_train)
        try:
            for lo in range(0, n_train, config.batch_size):
                batch = order[lo:lo + config.batch_size]
                lr = triangular_lr(iteration, config, cycle)
                # the batch's rows, a copy gathered by the index, are freed with its step
                backward(weights, forward(weights, train_set.features[batch], out=step_arrays)[1],
                         train_set.labels[batch], config.penalty, config.lam, out=grads, lr=lr)
                iteration += 1
            # each split's mean cross-entropy, reduced once over all its rows
            train_ce, val_ce = (float(-_per_row(weights, s, _picked_log_probs).mean())
                                for s in (train_set, val_set))
            train_obj = train_ce + penalty_term(weights, config.penalty, config.lam)
            val_loss = val_ce * val_set.n  # total, not mean
        except (DomainError, FloatingPointError):  # non-finite weights or overflowing arithmetic
            train_obj = val_loss = np.nan
        if not (np.isfinite(train_obj) and np.isfinite(val_loss)):
            raise DivergenceError(f"non-finite loss at epoch {epoch}")
        epoch_log.append((epoch, train_obj, val_loss, lr_start))

        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            for (W_best, b_best), (W, b) in zip(best_weights, weights):
                W_best[...], b_best[...] = W, b
        elif epoch - best_epoch >= config.patience:
            stop_reason = "patience"
            break

    return TrainRun(epoch_log, best_epoch, float(best_val), stop_reason, best_weights,
                    evaluate(best_weights, test_set))


def save_weights(path, weights):
    """Write (W, b) pairs in the self-describing checkpoint layout, atomically
    through :func:`~gausspen.data.write_file`."""
    sizes = [weights[0][0].shape[0]] + [W.shape[1] for W, _ in weights]
    header = struct.pack(f"<4sII{len(sizes)}I", CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                         len(sizes), *sizes)
    arrays = (np.ascontiguousarray(a, dtype="<f8") for pair in weights for a in pair)
    write_file(path, itertools.chain([header], arrays))


def _unpack(blob, fmt, offset, part):
    if len(blob) < offset + struct.calcsize(fmt):
        raise CheckpointFormatError(f"checkpoint {part} is truncated", len(blob))
    return struct.unpack_from(fmt, blob, offset)


def load_weights(path):
    """Read a checkpoint written by :func:`save_weights`; a malformed file
    raises :class:`CheckpointFormatError`."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if not CHECKPOINT_MAGIC.startswith(blob[:4]):
        raise CheckpointFormatError("not a weight checkpoint (bad magic bytes)", 0)
    version, n_sizes = _unpack(blob, "<4xII", 0, "header")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}", 4)
    if n_sizes < 2:
        raise CheckpointFormatError(f"checkpoint has {n_sizes} layer sizes, need at least 2", 8)
    sizes = _unpack(blob, f"<{n_sizes}I", 12, "layer-size table")
    if 0 in sizes:
        raise CheckpointFormatError("checkpoint has a layer of size 0", 12 + 4 * sizes.index(0))
    shapes = list(zip(sizes[:-1], sizes[1:]))
    offset = 12 + 4 * n_sizes
    end = offset + 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
    if len(blob) < end:
        raise CheckpointFormatError("checkpoint body is truncated", len(blob))
    if len(blob) > end:
        raise CheckpointFormatError("checkpoint has trailing bytes", end)
    weights = []
    for fan_in, fan_out in shapes:
        W = np.frombuffer(blob, dtype="<f8", count=fan_in * fan_out, offset=offset)
        offset += W.nbytes
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset)
        offset += b.nbytes
        weights.append((W.reshape(fan_in, fan_out).copy(), b.copy()))
    return weights
