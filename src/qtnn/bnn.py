"""Bayesian single-hidden-layer classifier with sampled weights.

Weights are Gaussian, mean + std * eps per entry with eps drawn standard
normal at each forward pass.  Prediction averages the softmax outputs of many
draws; training runs per-sample SGD on the means through the sampled weights
(stds stay at their initial values).  Both draw their noise ahead on the
worker of ``trainutil._ahead``: prediction samples draw i + 1, from its own
child stream, during draw i's forward pass and sums in sample order; training
draws a chunk of rows' noise (about 1 MiB) ahead, from its one noise stream in
the order the rows are visited.  No result depends on the thread schedule.

Training runs at batch size one with an exact shortcut for layer 1: its noise
reaches the forward pass only through z1 = x (W1_mean + W1_std o eps) + b1,
whose noise term is Gaussian with diagonal covariance (x^2) (W1_std^2) across
hidden units (disjoint eps columns), and the backward pass never touches the
sampled W1.  Sampling that vector directly is distribution-identical to
drawing all of eps_1 and two orders of magnitude cheaper at MNIST width.
Layer 2 is sampled entry by entry: one eps_2 realization feeds both passes.

Without gradient clipping (what ``qtnn train bnn`` always runs) the W1
gradient x^T dhidden is rank one, so the SGD step touches only the W1_mean
rows of non-zero input features.  Each entry is still the one rounded product
x_i * dhidden_j scaled by the learning rate, bit-identical to the dense step
except that a -0.0 entry on a zero-input row stays -0.0 where the dense step
may make it +0.0.  Clipped runs keep the dense step: the clip norm is a sum
over the dense gradient, and the zero-std model matches the feedforward
trainer only if that sum is formed alike.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import chain

import numpy as np

# activate, softmax_crossentropy and clip_gradients run inside the shared
# dense core in .fnn; they stay bound here because perfbench traces each
# trainer module's names (bench_workloads.trace_targets)
from .activation import Activation, activate, softmax_crossentropy  # noqa: F401
from .fnn import _backward_hidden, _check_input, _check_layers, _dense_forward, _dense_step
from .fnn import fnn_backward, fnn_init
from .numerics import InputError, ShapeError
from .trainutil import TrainingTrace, _ahead, eval_stream, noise_stream, sgd_epochs
from .trainutil import clip_gradients  # noqa: F401

__all__ = ["BnnModel", "bnn_init", "bnn_sample_forward", "bnn_predict", "bnn_train", "bnn_evaluate"]

EVAL_BATCH = 512  # rows per bnn_evaluate batch; each batch's draws spawn from its start row
_CHUNK = 131072  # training noise doubles per chunk drawn ahead: 1 MiB, as activation._BLOCK


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


def bnn_init(n_features, n_hidden, n_classes, hidden_act, rng, std_init=0.01, n_samples=50):
    """The feedforward init's weights and biases as means, stds constant at ``std_init``.

    So a zero-std model matches an FnnModel built from the same stream.
    """
    f = fnn_init(n_features, n_hidden, n_classes, hidden_act, rng)
    return BnnModel(f.w1, np.full_like(f.w1, std_init), f.w2, np.full_like(f.w2, std_init),
                    f.b1, f.b2, hidden_act, n_samples).check()


def _forward_with_weights(model, x, w1s, w2s, onehot=None):
    # prediction (no onehot) never reads dh
    return _dense_forward(
        x, x @ w1s + model.b1, w2s, model.b2, model.hidden_act, onehot, grad=onehot is not None
    )


def bnn_sample_forward(model, x, rng, onehot=None):
    """One stochastic forward pass: draw eps per weight entry, then run.

    Returns (probs, cache, (w1, w2) as sampled, loss, dlogits); all of eps_1
    (row-major) is drawn before eps_2.  Without ``onehot`` the loss, dlogits
    and the cached activation derivative ``cache["dh"]`` are None.
    """
    x = _check_input(x, model.w1_mean.shape[0])
    w1s, w2s = _sample_weights(model, rng)
    probs, cache, loss, dlogits = _forward_with_weights(model, x, w1s, w2s, onehot)
    return probs, cache, (w1s, w2s), loss, dlogits


def _sample_weights(model, rng):
    """(w1, w2) of one draw, each formed in its eps buffer as mean + std * eps."""
    w1s = rng.normal_matrix(*model.w1_mean.shape, std=model.w1_std)
    w1s += model.w1_mean
    w2s = rng.normal_matrix(*model.w2_mean.shape, std=model.w2_std)
    w2s += model.w2_mean
    return w1s, w2s


def bnn_predict(model, x, rng):
    """Posterior-averaged class probabilities over model.n_samples draws.

    Draw i runs from the child stream rng.spawn(i) and the sum keeps sample
    order, so the result does not depend on when the worker samples a draw.
    """
    x = _check_input(x, model.w1_mean.shape[0])
    draws = _ahead(lambda i: _sample_weights(model, rng.spawn(i)), range(model.n_samples))
    acc = 0.0
    with closing(draws):  # map holds no draw past its forward: at most two are alive
        for probs in map(lambda draw: _forward_with_weights(model, x, *draw)[0], draws):
            acc += probs
    return acc / model.n_samples


def bnn_train(model, data, cfg, eval_data=None):
    """Per-sample SGD on the weight means; stds are never updated.

    ``cfg.batch_size`` must be 1; the module docstring describes the layer-1
    shortcut, the sparse step and the noise drawn ahead.  Gradients w.r.t. the
    means equal those w.r.t. the sampled weights (dW/dW_mean = 1 entrywise), so
    the feedforward backward pass forms them.  Posterior-averaged metrics on
    ``eval_data`` are recorded after the last epoch only.
    """
    if cfg.batch_size != 1:
        raise InputError(f"batch_size must be 1, got {cfg.batch_size}")
    rng_noise = noise_stream(cfg.seed)
    w1_var = model.w1_std**2  # stds never change during training
    params = (model.w1_mean, model.b1, model.w2_mean, model.b2)
    n_hidden, w2_std = model.b1.size, model.w2_std

    def draw(rows):  # on the worker: per row, the layer-1 noise, then eps_2 * w2_std
        return [(rng_noise.normals(n_hidden), rng_noise.normal_matrix(*w2_std.shape, std=w2_std))
                for _ in range(rows)]

    total, chunk = cfg.epochs * data.n_samples, max(1, _CHUNK // (n_hidden + w2_std.size))
    chunks = _ahead(draw, (min(chunk, total - start) for start in range(0, total, chunk)))
    noise = chain.from_iterable(chunks)  # drops each chunk before asking for the next

    def forward(idx):
        xb, yb = data.rows(idx), data.onehot(idx)
        eps1, w2_noise = next(noise)
        z1 = xb @ model.w1_mean + model.b1
        z1 += np.sqrt((xb[0] ** 2) @ w1_var) * eps1
        return _dense_forward(xb, z1, model.w2_mean + w2_noise, model.b2, model.hidden_act, yb)

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

    def score(epoch):
        if eval_data is not None and epoch == cfg.epochs - 1:
            return bnn_evaluate(model, eval_data, eval_stream(cfg.seed).spawn(epoch))

    trace = TrainingTrace()
    with closing(chunks):
        for _, loss, acc, evaluation in sgd_epochs(data.labels, cfg, forward, update, score):
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
        rows = slice(start, start + EVAL_BATCH)
        probs = bnn_predict(model, data.rows(rows), rng.spawn(start))
        correct += int((probs.argmax(axis=1) == data.labels[rows]).sum())
        true_p = np.clip((probs * data.onehot(rows)).sum(axis=1), 1e-300, None)
        total_loss += float(-np.log(true_p).sum())
    return correct / n, total_loss / n
