"""Bayesian single-hidden-layer classifier with sampled weights.

Weights are Gaussian, parameterized per entry as mean + std * eps with eps
drawn standard normal at each forward pass; prediction averages the softmax
outputs of many such draws, and training runs plain per-sample SGD on the
means through the sampled weights (stds stay at their initial values).
Prediction samples each next draw on a worker thread during the current
forward pass; draws own their child streams and sum in sample order.

Training runs at batch size one and uses an exact shortcut for the first
layer: the sampled-weight forward only exposes layer-1 noise through
z1 = x (W1_mean + W1_std o eps) + b1, whose noise term is Gaussian with
diagonal covariance (x^2) (W1_std^2) across hidden units (disjoint eps
columns), and the backward pass never touches the sampled W1.  Sampling
that noise vector directly is therefore distribution-identical to
materializing all of eps_1 and two orders of magnitude cheaper at MNIST
width.  Layer 2 is always sampled literally, entry by entry, because the
same eps_2 realization appears in both the forward and backward passes.

Without gradient clipping (which is what ``qtnn train bnn`` always runs)
the W1 gradient x^T dhidden is rank one, so the SGD step touches only the
rows of W1_mean whose input feature is non-zero and the dense gradient is
never formed.  Each entry is still the one rounded product x_i * dhidden_j
scaled by the learning rate, so the result is bit-identical to the dense
step, except that a W1_mean entry of exactly -0.0 on a zero-input row
stays -0.0 where the dense step may turn it into +0.0 by subtracting -0.0.
Clipped runs keep the dense step: the clip norm is a sum over the dense
gradient, and the zero-std model matches the feedforward trainer only if
that sum is formed alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# activate, softmax_crossentropy and clip_gradients run inside the shared
# dense core in .fnn; they stay bound here because perfbench traces each
# trainer module's names (bench_workloads.trace_targets)
from .activation import Activation, activate, softmax_crossentropy  # noqa: F401
from .fnn import (
    _backward_hidden, _check_input, _check_layers, _dense_forward, _dense_step, fnn_backward,
)
from .numerics import InputError, ShapeError
from .trainutil import TrainingTrace, eval_stream, noise_stream, sgd_epochs
from .trainutil import clip_gradients  # noqa: F401

__all__ = [
    "BnnModel",
    "bnn_init",
    "bnn_sample_forward",
    "bnn_predict",
    "bnn_train",
    "bnn_evaluate",
]

EVAL_BATCH = 512  # rows per bnn_evaluate batch; each batch's draws spawn from its start row


@dataclass
class BnnModel:
    w1_mean: np.ndarray
    w1_std: np.ndarray
    w2_mean: np.ndarray
    w2_std: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    hidden_act: Activation
    n_samples: int = 50

    def check(self):
        if self.w1_mean.shape != self.w1_std.shape or self.w2_mean.shape != self.w2_std.shape:
            raise ShapeError("mean and std shapes differ")
        _check_layers(self.w1_mean, self.b1, self.w2_mean, self.b2)
        if (self.w1_std < 0).any() or (self.w2_std < 0).any():
            raise InputError("std entries must be non-negative")
        if self.n_samples < 1:
            raise InputError("n_samples must be >= 1")
        return self

    def copy(self):
        return BnnModel(
            self.w1_mean.copy(), self.w1_std.copy(),
            self.w2_mean.copy(), self.w2_std.copy(),
            self.b1.copy(), self.b2.copy(), self.hidden_act, self.n_samples,
        )


def bnn_init(n_features, n_hidden, n_classes, hidden_act, rng, std_init=0.01, n_samples=50):
    """Means as in the feedforward init, stds constant at ``std_init``.

    The means are drawn in the same order as the feedforward initializer,
    so a zero-std model matches an FnnModel built from the same stream.
    """
    w1_mean = rng.normal_matrix(n_features, n_hidden, std=1.0 / np.sqrt(n_features))
    w2_mean = rng.normal_matrix(n_hidden, n_classes, std=1.0 / np.sqrt(n_hidden))
    return BnnModel(
        w1_mean, np.full_like(w1_mean, std_init),
        w2_mean, np.full_like(w2_mean, std_init),
        np.zeros((1, n_hidden)), np.zeros((1, n_classes)),
        hidden_act, n_samples,
    ).check()


def _forward_with_weights(model, x, w1s, w2s, onehot=None):
    # prediction (no onehot) never reads dh
    return _dense_forward(
        x, x @ w1s + model.b1, w2s, model.b2, model.hidden_act, onehot, grad=onehot is not None
    )


def bnn_sample_forward(model, x, rng, onehot=None):
    """One stochastic forward pass: draw eps per weight entry, then run.

    Returns (probs, cache, sampled, loss, dlogits) where sampled is the
    (w1, w2) pair that was actually used; the draw order is all of eps_1
    (row-major) followed by all of eps_2.  Without ``onehot`` the loss,
    dlogits and the cached activation derivative ``cache["dh"]`` are None.
    """
    x = _check_input(x, model.w1_mean.shape[0])
    w1s, w2s = _sample_weights(model, rng)
    probs, cache, loss, dlogits = _forward_with_weights(model, x, w1s, w2s, onehot)
    return probs, cache, (w1s, w2s), loss, dlogits


def _sample_weights(model, rng):
    """(w1, w2) of one draw, each formed in its eps buffer as mean + std * eps."""
    w1s = rng.normals(model.w1_mean.size).reshape(model.w1_mean.shape)
    w1s *= model.w1_std
    w1s += model.w1_mean
    w2s = rng.normals(model.w2_mean.size).reshape(model.w2_mean.shape)
    w2s *= model.w2_std
    w2s += model.w2_mean
    return w1s, w2s


def bnn_predict(model, x, rng):
    """Posterior-averaged class probabilities over model.n_samples draws.

    Each draw runs from its own child stream (seed, sample index), so the
    average is independent of evaluation order or parallel scheduling: a worker
    thread samples draw i + 1 while this thread runs draw i, and the sum keeps
    sample order.  A draw's exception is raised here, after the worker exits.
    """
    from concurrent.futures import ThreadPoolExecutor  # lazy: only prediction uses a pool
    x = _check_input(x, model.w1_mean.shape[0])
    acc = 0.0
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = worker.submit(_sample_weights, model, rng.spawn(0))
        for i in range(model.n_samples):
            w1s, w2s = ahead.result()
            if i + 1 < model.n_samples:
                ahead = worker.submit(_sample_weights, model, rng.spawn(i + 1))
            acc += _forward_with_weights(model, x, w1s, w2s)[0]
    return acc / model.n_samples


def bnn_train(model, data, cfg, eval_data=None):
    """Per-sample SGD on the weight means; stds are never updated.

    ``cfg.batch_size`` must be 1: weights are redrawn for every sample, and
    layer-1 noise is sampled in its exact z1 distribution as described in
    the module docstring.  Without clipping, only the W1 rows of non-zero
    input features are updated (see the module docstring).  The gradients
    w.r.t. the means equal those w.r.t. the sampled weights
    (dW/dW_mean = 1 entrywise), so the feedforward backward pass forms them.

    The posterior-averaged metrics on ``eval_data`` are recorded after the
    last epoch only.
    """
    if cfg.batch_size != 1:
        raise InputError(f"batch_size must be 1, got {cfg.batch_size}")
    rng_noise = noise_stream(cfg.seed)
    w1_var = model.w1_std**2  # stds never change during training
    params = (model.w1_mean, model.b1, model.w2_mean, model.b2)

    def forward(idx):
        xb, yb = data.rows(idx), data.labels_onehot[idx]
        z1 = xb @ model.w1_mean + model.b1
        z1 += np.sqrt((xb[0] ** 2) @ w1_var) * rng_noise.normals(z1.shape[1])
        eps2 = rng_noise.normals(model.w2_mean.size).reshape(model.w2_mean.shape)
        w2s = model.w2_mean + model.w2_std * eps2
        return _dense_forward(xb, z1, w2s, model.b2, model.hidden_act, yb)

    def update(cache, dlogits):
        if cfg.clip_norm is not None:
            _dense_step(params, fnn_backward(model, cache, dlogits), cfg)
            return
        dhidden, *rest = _backward_hidden(cache, dlogits)
        x = cache["x"][0]
        nz = np.flatnonzero(x)  # zero features leave their W1 rows alone
        model.w1_mean[nz] -= cfg.lr * (x[nz, None] * dhidden)
        for p, g in zip(params[1:], rest):
            p -= cfg.lr * g

    trace = TrainingTrace()
    for epoch, loss, acc in sgd_epochs(data.labels(), cfg, forward, update):
        evaluation = None
        if eval_data is not None and epoch == cfg.epochs - 1:
            evaluation = bnn_evaluate(model, eval_data, eval_stream(cfg.seed).spawn(epoch))
        trace.record(loss, acc, evaluation)
    return trace


def bnn_evaluate(model, data, rng):
    """(accuracy, mean loss) from posterior-averaged probabilities."""
    n = data.n_samples
    if n == 0:
        raise InputError("dataset is empty")
    correct = 0
    total_loss = 0.0
    for start in range(0, n, EVAL_BATCH):
        xb = data.rows(slice(start, start + EVAL_BATCH))
        yb = data.labels_onehot[start : start + EVAL_BATCH]
        probs = bnn_predict(model, xb, rng.spawn(start))
        correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
        true_p = np.clip((probs * yb).sum(axis=1), 1e-300, None)
        total_loss += float(-np.log(true_p).sum())
    return correct / n, total_loss / n
