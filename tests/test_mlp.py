import dataclasses
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import traced_peak
from gausspen import data, mlp
from gausspen.errors import ConfigurationError, DivergenceError
from gausspen.mlp import (
    CheckpointFormatError,
    MlpArchitecture,
    TrainConfig,
    TrainRun,
    backward,
    composite_objective,
    cross_entropy,
    evaluate,
    forward,
    init_weights,
    load_weights,
    penalty_term,
    save_weights,
    train,
    triangular_lr,
)
from gausspen.penalties import PenaltySpec, grad_array, value_array


def flatten(weights):
    return np.concatenate([np.concatenate([W.ravel(), b.ravel()]) for W, b in weights])


def unflatten(vector, weights):
    out = []
    pos = 0
    for W, b in weights:
        w_new = vector[pos:pos + W.size].reshape(W.shape)
        pos += W.size
        b_new = vector[pos:pos + b.size]
        pos += b.size
        out.append((w_new, b_new))
    return out


def toy_splits(seed=0, classes=2, per_class=40, dimension=2, separation=6.0):
    dataset = data.make_blobs(classes, per_class, dimension, separation, seed)
    return data.split(dataset, (0.5, 0.25, 0.25), seed=seed)


# --- architecture / config ----------------------------------------------------


def test_architecture_validation():
    with pytest.raises(ConfigurationError):
        MlpArchitecture((4, 2))  # no hidden layer
    with pytest.raises(ConfigurationError):
        MlpArchitecture((4, 0, 2))
    MlpArchitecture((4, 3, 2))


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(lr_min=0.25, lr_max=0.01)
    with pytest.raises(ConfigurationError):
        TrainConfig(patience=0)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            TrainConfig(lam=lam)


def test_config_is_frozen_run_key():
    # train-mlp keys each run by its TrainConfig: equal configs hash alike,
    # and a config cannot change once it is a key
    a = TrainConfig(penalty=PenaltySpec("gaussian", kappa=10.0), lam=0.01, seed=2)
    b = TrainConfig(penalty=PenaltySpec("gaussian", kappa=10.0), lam=0.01, seed=2)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != TrainConfig(penalty=PenaltySpec("gaussian", kappa=10.0), lam=0.01, seed=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.lam = 0.1


@pytest.mark.parametrize("penalty, lam", [
    (PenaltySpec("gaussian", kappa=10.0), 0.0),
    (PenaltySpec("lasso"), 0),
    (PenaltySpec("none"), 0.1),
    (PenaltySpec("none", kappa=3.0), 0.0),
])
def test_unpenalized_configs_are_one_config(penalty, lam):
    # family none or lambda 0 is the one unpenalized config, so train-mlp
    # trains each such cell of a seed once
    config = TrainConfig(penalty=penalty, lam=lam, seed=2)
    assert config == TrainConfig(seed=2) and hash(config) == hash(TrainConfig(seed=2))
    assert config.penalty == PenaltySpec("none") and repr(config.lam) == "0.0"


# --- init ----------------------------------------------------------------------


def test_init_variance_target():
    arch = MlpArchitecture((784, 1024, 10))
    weights = init_weights(arch, seed=1)
    target = 4.0 / (784 + 1024)
    assert target == pytest.approx(0.0022124, abs=1e-7)
    assert weights[0][0].var() == pytest.approx(target, rel=0.05)
    assert np.array_equal(weights[0][1], np.zeros(1024))
    assert weights[1][0].var() == pytest.approx(4.0 / (1024 + 10), rel=0.05)


def test_init_small_layer_variance_target():
    # 2 -> 2: variance 4/(2+2) = 1; check across many draws by pooling
    pool = [init_weights(MlpArchitecture((2, 2, 2)), seed=s)[0][0] for s in range(500)]
    assert np.var(np.concatenate([w.ravel() for w in pool])) == pytest.approx(1.0, rel=0.05)


def test_init_deterministic():
    arch = MlpArchitecture((5, 4, 3))
    a = init_weights(arch, seed=9)
    b = init_weights(arch, seed=9)
    assert all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) for x, y in zip(a, b))


# --- learning rate schedule ----------------------------------------------------


def test_triangular_breakpoints_exact():
    config = TrainConfig()
    with pytest.raises(ConfigurationError):
        triangular_lr(0, config, 0)
    assert triangular_lr(0, config, 8) == 0.01
    assert triangular_lr(8, config, 8) == 0.25
    assert triangular_lr(16, config, 8) == 0.01
    assert triangular_lr(24, config, 8) == 0.25
    assert triangular_lr(4, config, 8) == pytest.approx(0.13)
    assert triangular_lr(12, config, 8) == pytest.approx(0.13)


def test_triangular_piecewise_linear():
    config = TrainConfig()
    up = [triangular_lr(i, config, 10) for i in range(11)]
    down = [triangular_lr(i, config, 10) for i in range(10, 21)]
    assert np.allclose(np.diff(up), (0.25 - 0.01) / 10)
    assert np.allclose(np.diff(down), -(0.25 - 0.01) / 10)


# --- forward -------------------------------------------------------------------


def test_zero_weights_uniform_softmax():
    arch = MlpArchitecture((3, 4, 5))
    weights = [(np.zeros_like(W), np.zeros_like(b)) for W, b in init_weights(arch, 0)]
    logits, _ = forward(weights, np.random.default_rng(0).standard_normal((6, 3)))
    assert np.array_equal(logits, np.zeros((6, 5)))
    assert cross_entropy(logits, np.zeros(6, dtype=int)) == pytest.approx(np.log(5.0))


def test_identity_passthrough():
    # identity weight stacks reproduce nonnegative inputs as logits
    weights = [(np.eye(3), np.zeros(3)), (np.eye(3), np.zeros(3))]
    x = np.abs(np.random.default_rng(1).standard_normal((4, 3)))
    logits, _ = forward(weights, x)
    assert np.allclose(logits, x)


def test_forward_shape_mismatch():
    weights = init_weights(MlpArchitecture((3, 4, 2)), 0)
    with pytest.raises(ConfigurationError):
        forward(weights, np.zeros((5, 7)))


def test_loss_matches_scalar_reimplementation():
    rng = np.random.default_rng(2)
    weights = init_weights(MlpArchitecture((4, 6, 3)), 3)
    x = rng.standard_normal((8, 4))
    labels = rng.integers(0, 3, size=8)
    logits, _ = forward(weights, x)
    # independent scalar recomputation, one example at a time
    total = 0.0
    for xi, yi in zip(x, labels):
        h = xi
        for i, (W, b) in enumerate(weights):
            z = h @ W + b
            h = np.maximum(z, 0.0) if i < len(weights) - 1 else z
        ez = np.exp(h - h.max())
        total += -np.log(ez[yi] / ez.sum())
    assert cross_entropy(logits, labels) == pytest.approx(total / 8, abs=1e-10)


# --- backward -------------------------------------------------------------------


@pytest.mark.parametrize(
    "sizes,data_seed,weight_seed",
    [((3, 5, 2), 10, 11), ((4, 6, 6, 3), 19, 11), ((2, 8, 4, 4, 2), 21, 12)],
)
def test_gradient_matches_finite_difference(sizes, data_seed, weight_seed):
    # seeds chosen so every ReLU pre-activation sits > 1e-3 from its kink,
    # keeping the central difference on one side of the hinge
    rng = np.random.default_rng(data_seed)
    arch = MlpArchitecture(sizes)
    weights = init_weights(arch, seed=weight_seed)
    x = rng.standard_normal((12, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=12)
    penalty = PenaltySpec("gaussian", kappa=10.0)
    lam = 0.05
    _, cache = forward(weights, x)
    assert min(np.abs(z).min() for z in cache[1][:-1]) > 1e-3
    grads = backward(weights, cache, labels, penalty, lam)
    flat_w = flatten(weights)
    flat_g = flatten(grads)
    h = 1e-5
    idx = rng.choice(flat_w.size, size=min(120, flat_w.size), replace=False)
    for i in idx:
        bumped = flat_w.copy()
        bumped[i] += h
        up = composite_objective(unflatten(bumped, weights), x, labels, penalty, lam)
        bumped[i] -= 2 * h
        down = composite_objective(unflatten(bumped, weights), x, labels, penalty, lam)
        fd = (up - down) / (2 * h)
        assert flat_g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_penalty_gradient_additivity():
    rng = np.random.default_rng(4)
    arch = MlpArchitecture((3, 5, 2))
    weights = init_weights(arch, seed=5)
    x = rng.standard_normal((10, 3))
    labels = rng.integers(0, 2, size=10)
    penalty = PenaltySpec("gaussian", kappa=10.0)
    _, cache = forward(weights, x)
    with_pen = backward(weights, cache, labels, penalty, 0.7)
    without = backward(weights, cache, labels, penalty, 0.0)
    for (gw1, gb1), (gw0, gb0), (W, _) in zip(with_pen, without, weights):
        expected = 0.7 * 2.0 * 10.0 * W * np.exp(-10.0 * W * W)
        assert np.allclose(gw1 - gw0, expected, atol=1e-12)
        assert np.array_equal(gb1, gb0)  # biases are never penalized


def test_zero_weights_zero_penalty_gradient():
    # the smooth-at-origin property: at all-zero weights the gaussian penalty
    # contributes exactly nothing, so the first step is pure loss descent
    arch = MlpArchitecture((3, 4, 2))
    weights = [(np.zeros_like(W), np.zeros_like(b)) for W, b in init_weights(arch, 0)]
    x = np.random.default_rng(5).standard_normal((6, 3))
    labels = np.array([0, 1, 0, 1, 0, 1])
    _, cache = forward(weights, x)
    gauss = backward(weights, cache, labels, PenaltySpec("gaussian", kappa=10.0), 0.5)
    plain = backward(weights, cache, labels, PenaltySpec("gaussian", kappa=10.0), 0.0)
    for (gw1, _), (gw0, _) in zip(gauss, plain):
        assert np.array_equal(gw1, gw0)


def test_lasso_breaks_smoothness_contrast():
    # same check fails by design for lasso: right after the first step the
    # lasso penalty gradient has magnitude lam on every nonzero weight, while
    # the gaussian one vanishes with the weights
    rng = np.random.default_rng(6)
    arch = MlpArchitecture((3, 4, 2))
    weights = init_weights(arch, seed=7)
    small = [(1e-6 * W, b) for W, b in weights]  # one tiny step away from 0
    x = rng.standard_normal((6, 3))
    labels = np.array([0, 1, 1, 0, 1, 0])
    lam = 0.5
    _, cache = forward(small, x)
    for family, vanishes in (("gaussian", True), ("lasso", False)):
        pen = backward(small, cache, labels, PenaltySpec(family, kappa=10.0), lam)
        plain = backward(small, cache, labels, PenaltySpec(family, kappa=10.0), 0.0)
        gap = max(np.abs(gw1 - gw0).max() for (gw1, _), (gw0, _) in zip(pen, plain))
        if vanishes:
            assert gap < 1e-4 * lam
        else:
            assert gap == pytest.approx(lam)


# --- evaluate -------------------------------------------------------------------


def test_evaluate_constant_predictor():
    # always-class-0 weights on balanced k-class data: error 1 - 1/k
    k, per = 4, 25
    dataset = data.make_blobs(k, per, 3, 1.0, seed=8)
    arch = MlpArchitecture((3, 2, k))
    weights = [(np.zeros((3, 2)), np.zeros(2)), (np.zeros((2, k)), np.zeros(k))]
    weights[1] = (np.zeros((2, k)), np.array([1.0] + [0.0] * (k - 1)))
    assert evaluate(weights, dataset) == pytest.approx(1.0 - 1.0 / k)


def test_evaluate_chance_level():
    dataset = data.make_blobs(10, 100, 5, 0.0, seed=9)
    weights = init_weights(MlpArchitecture((5, 16, 10)), seed=10)
    assert evaluate(weights, dataset) == pytest.approx(0.9, abs=0.05)


def test_evaluate_empty_rejected():
    weights = init_weights(MlpArchitecture((2, 2, 2)), seed=0)
    with pytest.raises(ConfigurationError):
        evaluate(weights, data.LabeledDataset(np.zeros((0, 2)), np.zeros(0)))


# --- train ----------------------------------------------------------------------


def test_separable_data_reaches_zero_error():
    tr, va, te = toy_splits(seed=0)
    run = train(tr, va, te, MlpArchitecture((2, 8, 2)), TrainConfig(seed=1, batch_size=16))
    assert run.test_error_rate == 0.0
    assert len(run.epoch_log) <= 250


def test_patience_stops_exactly_after_plateau():
    # learning rates small enough that no update changes any weight bit, so
    # the validation loss is exactly flat from the first epoch on
    tr, va, te = toy_splits(seed=1)
    config = TrainConfig(lr_min=1e-30, lr_max=2e-30, patience=20, seed=2, batch_size=16)
    run = train(tr, va, te, MlpArchitecture((2, 4, 2)), config)
    assert run.stop_reason == "patience"
    assert run.best_epoch == 1
    assert len(run.epoch_log) == run.best_epoch + 20


def test_max_epochs_cap():
    tr, va, te = toy_splits(seed=2)
    config = TrainConfig(patience=300, max_epochs=250, seed=3, batch_size=16)
    run = train(tr, va, te, MlpArchitecture((2, 4, 2)), config)
    assert run.stop_reason == "max_epochs"
    assert len(run.epoch_log) == 250


def test_best_epoch_attains_minimum():
    tr, va, te = toy_splits(seed=3)
    run = train(tr, va, te, MlpArchitecture((2, 6, 2)), TrainConfig(seed=4, batch_size=16))
    losses = [v for _, _, v, _ in run.epoch_log]
    assert run.best_val_loss == min(losses)
    assert run.epoch_log[run.best_epoch - 1][2] == run.best_val_loss
    if run.stop_reason == "patience":
        assert len(run.epoch_log) - run.best_epoch == 20


def test_huge_lambda_still_terminates():
    tr, va, te = toy_splits(seed=4)
    config = TrainConfig(
        penalty=PenaltySpec("gaussian", kappa=10.0), lam=1e6,
        max_epochs=30, seed=5, batch_size=16,
    )
    run = train(tr, va, te, MlpArchitecture((2, 4, 2)), config)
    assert len(run.epoch_log) <= 30
    assert all(np.isfinite(v) for _, v, _, _ in run.epoch_log)


def test_training_deterministic():
    tr, va, te = toy_splits(seed=5)
    config = TrainConfig(seed=6, batch_size=16, max_epochs=40)
    a = train(tr, va, te, MlpArchitecture((2, 5, 2)), config)
    b = train(tr, va, te, MlpArchitecture((2, 5, 2)), config)
    assert a.epoch_log == b.epoch_log
    assert a.test_error_rate == b.test_error_rate
    assert all(
        np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
        for x, y in zip(a.weights, b.weights)
    )


# --- train against the allocate-per-step reference ---------------------------------


def _reference_forward(weights, inputs):
    activations, pre = [inputs], []
    for i, (W, b) in enumerate(weights):
        z = activations[-1] @ W + b
        pre.append(z)
        activations.append(np.maximum(z, 0.0) if i < len(weights) - 1 else z)
    return activations, pre


def _reference_backward(weights, activations, pre, labels, penalty, lam):
    logits = activations[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    delta = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
    delta[np.arange(len(labels)), labels] -= 1.0
    delta /= len(labels)
    grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        W, _ = weights[i]
        gW = activations[i].T @ delta
        if lam > 0.0 and penalty.family != "none":
            gW += grad_array(penalty, W, lam)
        grads[i] = (gW, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ W.T) * (pre[i - 1] > 0.0)
    return grads


def _reference_train(train_set, val_set, test_set, arch, config):
    """The training protocol as one loop that allocates every array it
    computes, step by step: the reference :func:`train` must match bit for bit."""
    weights = init_weights(arch, config.seed)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    n_train = train_set.n
    cycle = 4 * -(-n_train // config.batch_size)
    penalty, lam = config.penalty, config.lam

    def objective(dataset):
        logits = _reference_forward(weights, dataset.features)[0][-1]
        return cross_entropy(logits, dataset.labels)

    iteration, best_val, best_epoch, since = 0, np.inf, 0, 0
    best_weights = [(W.copy(), b.copy()) for W, b in weights]
    epoch_log, stop_reason = [], "max_epochs"
    for epoch in range(1, config.max_epochs + 1):
        lr_start = triangular_lr(iteration, config, cycle)
        order = shuffle_rng.permutation(n_train)
        for lo in range(0, n_train, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            lr = triangular_lr(iteration, config, cycle)
            activations, pre = _reference_forward(weights, train_set.features[batch])
            grads = _reference_backward(weights, activations, pre, train_set.labels[batch],
                                        penalty, lam)
            for (W, b), (gW, gb) in zip(weights, grads):
                W -= lr * gW
                b -= lr * gb
            iteration += 1
        train_obj = objective(train_set)
        if lam != 0.0:
            train_obj += lam * sum(float(np.sum(value_array(penalty, W))) for W, _ in weights)
        val_loss = objective(val_set) * val_set.n
        epoch_log.append((epoch, train_obj, val_loss, lr_start))
        if val_loss < best_val:
            best_val, best_epoch, since = val_loss, epoch, 0
            best_weights = [(W.copy(), b.copy()) for W, b in weights]
        else:
            since += 1
            if since >= config.patience:
                stop_reason = "patience"
                break
    logits = _reference_forward(best_weights, test_set.features)[0][-1]
    error = float(np.mean(np.argmax(logits, axis=1) != test_set.labels))
    return TrainRun(epoch_log, best_epoch, float(best_val), stop_reason, best_weights, error)


def _run_bits(run):
    return ([tuple(v.hex() if isinstance(v, float) else v for v in row) for row in run.epoch_log],
            [(W.tobytes(), b.tobytes()) for W, b in run.weights],
            run.best_epoch, run.best_val_loss.hex(), run.stop_reason, run.test_error_rate.hex())


PROPERTY_PENALTIES = {
    "none": PenaltySpec("none"),
    "gaussian": PenaltySpec("gaussian", kappa=10.0),
    "lasso": PenaltySpec("lasso"),
    "arctan": PenaltySpec("arctan", gamma=2.0),
}


@settings(max_examples=40, deadline=None)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    batch_size=st.sampled_from([1, 5, 7, 8, 10, 16, 23, 40, 64]),
    family=st.sampled_from(sorted(PROPERTY_PENALTIES)),
    lam=st.sampled_from([0.0, 1e-3, 0.05]),
    seed=st.integers(0, 50),
    patience=st.integers(1, 4),
    rates=st.just("cyclic"),
)
# learning rates too small to move any weight bit: the validation loss is
# flat, so the run stops on patience right after its first epoch
@example(hidden=[4], batch_size=16, family="gaussian", lam=0.05, seed=2, patience=3,
         rates="flat")
def test_train_matches_allocating_reference(hidden, batch_size, family, lam, seed, patience,
                                            rates):
    # 40 training rows: the batch sizes include divisors (5, 8, 10, 40),
    # non-divisors that leave a short last batch (7, 16, 23) and one above
    # the row count
    tr, va, te = toy_splits(seed=seed % 7, classes=4, per_class=20, dimension=3)
    assert tr.n == 40
    arch = MlpArchitecture((3, *hidden, 4))
    flat = {"lr_min": 1e-30, "lr_max": 2e-30} if rates == "flat" else {}
    config = TrainConfig(penalty=PROPERTY_PENALTIES[family], lam=lam, batch_size=batch_size,
                         patience=patience, max_epochs=12, seed=seed, **flat)
    run = train(tr, va, te, arch, config)
    assert _run_bits(run) == _run_bits(_reference_train(tr, va, te, arch, config))
    if rates == "flat":
        assert run.stop_reason == "patience"
        assert run.best_epoch == 1 and len(run.epoch_log) == 1 + patience


@pytest.mark.parametrize("eval_rows", [1, 7, 16])
def test_evaluation_across_block_boundaries(monkeypatch, eval_rows):
    # splits of 40, 20 and 20 rows span several EVAL_ROWS blocks: the error
    # rate is exactly that of one whole-split pass, and each epoch's train
    # objective and validation loss are the whole-split values up to the
    # order of a sum (the reference evaluates each split in one pass)
    tr, va, te = toy_splits(seed=3, classes=4, per_class=20, dimension=3)
    arch = MlpArchitecture((3, 6, 5, 4))
    config = TrainConfig(penalty=PenaltySpec("gaussian", kappa=10.0), lam=0.01, batch_size=7,
                         max_epochs=6, seed=2)
    monkeypatch.setattr(mlp, "EVAL_ROWS", eval_rows)
    weights = init_weights(arch, seed=5)
    for split in (tr, va, te):
        logits, _ = forward(weights, split.features)
        assert evaluate(weights, split) == float(np.mean(np.argmax(logits, 1) != split.labels))
    run = train(tr, va, te, arch, config)
    reference = _reference_train(tr, va, te, arch, config)
    assert len(run.epoch_log) == len(reference.epoch_log) == 6
    for row, expected in zip(run.epoch_log, reference.epoch_log):
        assert row[::3] == expected[::3]  # the epoch and its starting rate
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(row[1:3], expected[1:3]))
    assert [(W.tobytes(), b.tobytes()) for W, b in run.weights] == \
        [(W.tobytes(), b.tobytes()) for W, b in reference.weights]
    assert run.test_error_rate == reference.test_error_rate


def test_train_memory_grows_only_with_its_splits():
    # four times the rows: the peak grows by less than the extra training
    # rows' features and labels, as evaluation runs in blocks of EVAL_ROWS
    # rows and no working array is as long as a split
    arch = MlpArchitecture((16, 32, 32, 4))
    config = TrainConfig(batch_size=32, max_epochs=2, seed=1)
    peaks, sizes = [], []
    for per_class in (100, 400):
        splits = toy_splits(seed=1, classes=4, per_class=per_class, dimension=16)
        peaks.append(traced_peak(train, *splits, arch, config))
        sizes.append(splits[0].features.nbytes + splits[0].labels.nbytes)
    assert peaks[1] - peaks[0] < sizes[1] - sizes[0]


def test_train_holds_an_evaluation_pass_only_while_it_scores_a_split():
    # a 256-wide net fed 128-row batches of 256 features: one evaluation
    # pass (128 rows of 256 + 256 + 8 activations, 520 KiB) and one batch of
    # features (256 KiB) are each a visible share of the run.  Unpenalized,
    # the peak is the weights, the best weights, the shared gradient buffer,
    # the step's forward cache and one evaluation pass, plus less than half a
    # batch of temporaries: an evaluation pass or a batch buffer held across
    # the steps would add one of its own
    arch = MlpArchitecture((256, 256, 256, 8))
    splits = toy_splits(seed=1, classes=8, per_class=64, dimension=256)
    rows = 128
    assert splits[0].n == 2 * rows
    weights = init_weights(arch, seed=1)
    weight_bytes = sum(W.nbytes + b.nbytes for W, b in weights)
    grad_bytes = max(W.nbytes + b.nbytes for W, b in weights)
    hidden, classes = sum(arch.layer_sizes[1:-1]), arch.layer_sizes[-1]
    cache_bytes = 8 * rows * (2 * hidden + classes)  # activations and pre-activations
    eval_bytes = 8 * rows * (hidden + classes)  # each ReLU in place
    batch_bytes = 8 * rows * arch.layer_sizes[0]
    peak = traced_peak(train, *splits, arch, TrainConfig(batch_size=rows, max_epochs=2, seed=1))
    assert peak < 2 * weight_bytes + grad_bytes + cache_bytes + eval_bytes + batch_bytes // 2


def test_results_do_not_change_after_later_calls():
    # a run keeps its working arrays to itself: nothing a call returns is a
    # view of an array that a later call writes
    tr, va, te = toy_splits(seed=8, classes=3, per_class=30, dimension=4)
    arch = MlpArchitecture((4, 6, 5, 3))
    penalty = PenaltySpec("gaussian", kappa=10.0)
    weights = init_weights(arch, seed=1)
    logits, cache = forward(weights, tr.features)
    grads = backward(weights, cache, tr.labels, penalty, 0.1)
    config = TrainConfig(penalty=penalty, lam=0.01, batch_size=7, max_epochs=5, seed=2)
    run = train(tr, va, te, arch, config)
    kept = (logits.copy(), [a.copy() for a in cache[0]],
            [(gW.copy(), gb.copy()) for gW, gb in grads],
            [(W.copy(), b.copy()) for W, b in run.weights])

    # the same shapes again, with other weights, data and settings
    other = init_weights(arch, seed=3)
    _, other_cache = forward(other, tr.features[::-1])
    backward(other, other_cache, tr.labels[::-1], penalty, 0.5)
    train(tr, va, te, arch, TrainConfig(penalty=penalty, lam=0.5, batch_size=7, max_epochs=5,
                                        seed=4))
    evaluate(other, te)
    assert logits.tobytes() == kept[0].tobytes()
    assert all(a.tobytes() == k.tobytes() for a, k in zip(cache[0], kept[1]))
    for (gW, gb), (kW, kb) in zip(grads, kept[2]):
        assert gW.tobytes() == kW.tobytes() and gb.tobytes() == kb.tobytes()
    for (W, b), (kW, kb) in zip(run.weights, kept[3]):
        assert W.tobytes() == kW.tobytes() and b.tobytes() == kb.tobytes()


@pytest.mark.parametrize("family", sorted(PROPERTY_PENALTIES))
def test_given_starting_weights_train_as_the_default_draw(family):
    # the CLI draws a seed's weights once and hands them to each of its runs
    tr, va, te = toy_splits(seed=3, classes=3, per_class=20, dimension=3)
    arch = MlpArchitecture((3, 6, 5, 3))
    config = TrainConfig(penalty=PROPERTY_PENALTIES[family], lam=0.01, batch_size=7,
                         max_epochs=8, seed=4)
    weights = init_weights(arch, config.seed)
    kept = [(W.tobytes(), b.tobytes()) for W, b in weights]
    run = train(tr, va, te, arch, config, weights=weights)
    assert _run_bits(run) == _run_bits(train(tr, va, te, arch, config))
    assert [(W.tobytes(), b.tobytes()) for W, b in weights] == kept  # never written
    again = train(tr, va, te, arch, config, weights=weights)
    assert _run_bits(again) == _run_bits(run)


@pytest.mark.parametrize("shapes", [
    [((3, 6), (6,)), ((6, 3), (3,))],  # one layer short
    [((3, 6), (6,)), ((6, 5), (5,)), ((5, 3), (3,)), ((3, 3), (3,))],  # one too many
    [((6, 3), (6,)), ((6, 5), (5,)), ((5, 3), (3,))],  # a transposed matrix
    [((3, 6), (5,)), ((6, 5), (5,)), ((5, 3), (3,))],  # a bias of the wrong width
])
def test_starting_weights_of_other_shapes_are_rejected(shapes):
    tr, va, te = toy_splits(seed=3, classes=3, per_class=20, dimension=3)
    weights = [(np.zeros(w), np.zeros(b)) for w, b in shapes]
    with pytest.raises(ConfigurationError, match="shapes"):
        train(tr, va, te, MlpArchitecture((3, 6, 5, 3)), TrainConfig(max_epochs=2),
              weights=weights)


# a learning rate of 5 to 50 sends these runs' weights to inf or NaN; before
# the loss shows it, a penalty's gradient (gaussian) or value (ridge) can
# meet them
@pytest.mark.parametrize("penalty, lam, seed, epoch", [
    (PenaltySpec("gaussian", kappa=10.0), 0.01, 1, 4),
    (PenaltySpec("ridge"), 0.01, 1, 5),
    (PenaltySpec("none"), 0.0, 3, 4),
], ids=["gaussian", "ridge", "none"])
def test_diverging_run_reports_its_epoch_and_no_warning(penalty, lam, seed, epoch):
    splits = data.split(data.make_blobs(3, 60, 8, 3.0, 0), (0.5, 0.25, 0.25), seed=0)
    config = TrainConfig(penalty=penalty, lam=lam, lr_min=5.0, lr_max=50.0, batch_size=32,
                         seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=f"non-finite loss at epoch {epoch}$"):
            train(*splits, MlpArchitecture((8, 64, 64, 3)), config)


def test_overflowing_run_is_a_diverged_run():
    # at batch size 64 this run's weights grow to about 1e207 and stay
    # finite, while its matmuls overflow: that is divergence, not a run
    # that stops on patience with a finite (1e288) validation loss
    splits = data.split(data.make_blobs(3, 60, 8, 3.0, 0), (0.5, 0.25, 0.25), seed=0)
    config = TrainConfig(lr_min=5.0, lr_max=50.0, batch_size=64, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 6$"):
            train(*splits, MlpArchitecture((8, 64, 64, 3)), config)


def test_overflowing_penalty_sum_is_a_diverged_run():
    # a ridge weight of 1.2e154 has the finite value 1.44e308, but lam = 2
    # times it overflows in penalty_term's Python floats, which raise
    # nothing; the weight meets only an input column of zeros, so every
    # numpy pass stays finite, and a small rate keeps it that large through
    # epoch 1: the train objective alone is not finite
    splits = toy_splits(dimension=3)
    for split in splits:
        split.features[:, -1] = 0.0
    ridge = PenaltySpec("ridge")
    weights = init_weights(MlpArchitecture((3, 4, 2)), seed=1)
    weights[0][0][-1, 0] = 1.2e154
    assert all(math.isfinite(float(np.sum(value_array(ridge, W)))) for W, _ in weights)
    assert penalty_term(weights, ridge, 2.0) == math.inf
    config = TrainConfig(penalty=ridge, lam=2.0, lr_min=1e-6, lr_max=1e-5, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 1$"):
            train(*splits, MlpArchitecture((3, 4, 2)), config, weights=weights)


def assert_trains_as_no_penalty(penalty, lam):
    """A run under ``penalty`` matches family none in its weights, epochs and
    test error: all but its train objective, which adds lam * P(W)."""
    tr, va, te = toy_splits(seed=3, classes=3, per_class=20, dimension=3)
    arch = MlpArchitecture((3, 6, 5, 3))
    config = TrainConfig(penalty=penalty, lam=lam, batch_size=7, max_epochs=30, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = train(tr, va, te, arch, config)
    none = train(tr, va, te, arch, dataclasses.replace(config, penalty=PenaltySpec("none")))

    def trained(r):  # all but the train objective
        return ([(W.tobytes(), b.tobytes()) for W, b in r.weights], [row[2:] for row in r.epoch_log],
                r.best_epoch, r.stop_reason, r.test_error_rate)
    assert trained(run) == trained(none)


@pytest.mark.parametrize("lam", [1e-4, 1.0])
def test_gaussian_of_the_largest_kappa_trains_as_no_penalty(lam):
    # at kappa = 1.7e308 the derivative is exactly 0 at every weight above
    # 2e-153 in size, whether the constant 2 * (kappa * lam) is finite (lam
    # = 1e-4) or inf (lam = 1); the step adds nothing (each weight's value
    # is 1)
    assert_trains_as_no_penalty(PenaltySpec("gaussian", kappa=1.7e308), lam)


def test_laplace_of_a_subnormal_epsilon_trains_as_no_penalty():
    # at epsilon = 1e-310 the derivative is exactly 0 at every weight above
    # 7.5e-308 in size, where |W|/epsilon overflows from 0.018 up: that
    # overflow is the penalty's own, so the run does not end at epoch 1
    assert_trains_as_no_penalty(PenaltySpec("laplace", epsilon=1e-310), 1e-4)


@pytest.mark.parametrize("kappa, lam, planted", [(10.0, 1e308, None), (1e300, 1e160, 1e-150)],
                         ids=["shipped-data", "gradient-only"])
def test_overflowing_penalty_gradient_is_a_diverged_run(kappa, lam, planted):
    # lam * P'(W) overflows in the first step: at kappa = 10 for the weights
    # near the peak of |P'| at 1/sqrt(2 kappa); at kappa = 1e300 only for a
    # planted weight of 1e-150, where P' = 7.4e149 while the penalty value
    # stays finite and every other pass does too
    splits = data.split(data.make_blobs(3, 60, 8, 3.0, 0), (0.5, 0.25, 0.25), seed=0)
    arch = MlpArchitecture((8, 64, 64, 3))
    penalty = PenaltySpec("gaussian", kappa=kappa)
    weights = init_weights(arch, seed=1)
    if planted is not None:
        weights[0][0][0, 0] = planted
        assert math.isfinite(penalty_term(weights, penalty, lam))
    config = TrainConfig(penalty=penalty, lam=lam, batch_size=32, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 1$"):
            train(*splits, arch, config, weights=weights)


def test_failed_save_keeps_the_earlier_checkpoint(tmp_path):
    # the last bias cannot become float64, so the header and the first
    # layer are written before the save fails
    path = tmp_path / "w.mlpw"
    weights = init_weights(MlpArchitecture((4, 3, 2)), seed=0)
    save_weights(path, weights)
    before = path.read_bytes()
    assert len(before) == 208
    with pytest.raises(ValueError):
        save_weights(path, [*weights[:-1], (weights[-1][0], np.array(["x", "y"]))])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["w.mlpw"]
    assert all(np.array_equal(W, W2) and np.array_equal(b, b2)
               for (W, b), (W2, b2) in zip(weights, load_weights(path)))


def test_checkpoint_reproduces_best_val_loss(tmp_path):
    tr, va, te = toy_splits(seed=6)
    path = tmp_path / "best.mlpw"
    config = TrainConfig(seed=7, batch_size=16, max_epochs=60)
    run = train(tr, va, te, MlpArchitecture((2, 6, 2)), config)
    save_weights(path, run.weights)
    loaded = load_weights(path)
    assert all(
        np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
        for x, y in zip(run.weights, loaded)
    )
    logits, _ = forward(loaded, va.features)
    assert cross_entropy(logits, va.labels) * va.n == run.best_val_loss


def test_checkpoint_roundtrip_formats(tmp_path):
    weights = init_weights(MlpArchitecture((7, 5, 3)), seed=12)
    path = tmp_path / "w.mlpw"
    save_weights(path, weights)
    raw = path.read_bytes()
    assert raw[:4] == b"MLPW"
    loaded = load_weights(path)
    assert all(
        np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])
        for x, y in zip(weights, loaded)
    )
    with pytest.raises(ConfigurationError):
        save_weights(path, weights)
        (tmp_path / "bad.mlpw").write_bytes(b"NOPE" + raw[4:])
        load_weights(tmp_path / "bad.mlpw")


def test_malformed_checkpoints_raise_typed_errors(tmp_path):
    weights = init_weights(MlpArchitecture((3, 2, 2)), seed=4)
    good = tmp_path / "w.mlpw"
    save_weights(good, weights)
    raw = good.read_bytes()
    bad = tmp_path / "bad.mlpw"

    def offset_of(blob):
        bad.write_bytes(blob)
        with pytest.raises(CheckpointFormatError) as err:
            load_weights(bad)
        assert isinstance(err.value, ConfigurationError)
        assert f"byte offset {err.value.offset}" in str(err.value)
        return err.value.offset

    # every truncation, inside the header, the size table or the body
    for length in range(len(raw)):
        assert offset_of(raw[:length]) == length
    assert offset_of(raw + b"\0") == len(raw)
    assert offset_of(b"NOPE" + raw[4:]) == 0
    assert offset_of(raw[:4] + (2).to_bytes(4, "little") + raw[8:]) == 4
    # a size count below 2 or a layer size of 0, which save_weights never writes
    header = raw[:8]
    assert offset_of(header + (0).to_bytes(4, "little")) == 8
    assert offset_of(header + (1).to_bytes(4, "little") + (3).to_bytes(4, "little")) == 8
    for i in range(3):
        sizes = raw[12:24]
        zeroed = sizes[:4 * i] + bytes(4) + sizes[4 * i + 4:]
        assert offset_of(raw[:12] + zeroed + raw[24:]) == 12 + 4 * i


# --- checkpoint properties -------------------------------------------------------

# every float64 bit pattern hypothesis reaches: NaN, +-inf, -0.0, subnormals
ANY_DOUBLE = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def checkpoint_weights(draw):
    """(W, b) pairs for 1-4 layers of size 1-8, with any float64 entries."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=2, max_size=5))
    return [(draw(hnp.arrays(np.float64, (fan_in, fan_out), elements=ANY_DOUBLE)),
             draw(hnp.arrays(np.float64, fan_out, elements=ANY_DOUBLE)))
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]


def _checkpoint_blob(weights):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "w.mlpw"
        save_weights(path, weights)
        return path.read_bytes()


def _load_blob(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "w.mlpw"
        path.write_bytes(blob)
        return load_weights(path)


@settings(max_examples=100, deadline=None)
@given(checkpoint_weights())
def test_checkpoint_roundtrip_is_bit_exact(weights):
    loaded = _load_blob(_checkpoint_blob(weights))
    assert len(loaded) == len(weights)
    for (W, b), (W2, b2) in zip(weights, loaded):
        assert W2.dtype == b2.dtype == np.float64
        assert W2.shape == W.shape and b2.shape == b.shape
        assert W2.tobytes() == W.tobytes() and b2.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(checkpoint_weights(), st.data())
def test_any_header_byte_change_is_typed_error(weights, drawn):
    blob = bytearray(_checkpoint_blob(weights))
    header = 12 + 4 * (len(weights) + 1)  # magic, version, size count, size table
    position = drawn.draw(st.integers(0, header - 1), label="position")
    blob[position] = (blob[position] + drawn.draw(st.integers(1, 255), label="delta")) % 256
    with pytest.raises(CheckpointFormatError) as err:
        _load_blob(bytes(blob))
    assert 0 <= err.value.offset <= len(blob)
