"""Shared training plumbing: configs, traces, clipping, divergence errors
and the mini-batch SGD loop of the dense classifiers.

All trainers derive their random streams from ``Rng(cfg.seed)`` the same
way — substream 0 initializes weights, substream 1 drives shuffling,
substream 2 (Bayesian trainer only) drives weight-noise draws and
substream 3 (Bayesian trainer only) drives the posterior draws that score
``eval_data`` — so models that coincide mathematically also coincide
bit-for-bit under one seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import InputError, Rng

__all__ = [
    "TrainConfig",
    "TrainingTrace",
    "TrainingDiverged",
    "clip_gradients",
    "init_stream",
    "shuffle_stream",
    "noise_stream",
    "eval_stream",
    "sgd_train",
]

INIT_SUBSTREAM = 0
SHUFFLE_SUBSTREAM = 1
NOISE_SUBSTREAM = 2
EVAL_SUBSTREAM = 3


def init_stream(seed):
    return Rng.substream(seed, INIT_SUBSTREAM)


def shuffle_stream(seed):
    return Rng.substream(seed, SHUFFLE_SUBSTREAM)


def noise_stream(seed):
    return Rng.substream(seed, NOISE_SUBSTREAM)


def eval_stream(seed):
    return Rng.substream(seed, EVAL_SUBSTREAM)


@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 64
    clip_norm: float | None = 5.0
    seed: int = 0

    def __post_init__(self):
        if not self.lr >= 0.0:
            raise InputError("lr must be non-negative")
        if self.epochs < 1 or self.batch_size < 1:
            raise InputError("epochs and batch_size must be >= 1")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise InputError("clip_norm must be positive or None")


class TrainingDiverged(ArithmeticError):
    """Loss became NaN; reports where training stopped."""

    def __init__(self, epoch, batch):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"loss is NaN at epoch {epoch}, batch {batch}")


@dataclass
class TrainingTrace:
    """Per-epoch metrics collected during training."""

    train_loss: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    eval_loss: list = field(default_factory=list)
    eval_accuracy: list = field(default_factory=list)

    def record(self, train_loss, train_acc, eval_loss=None, eval_acc=None):
        self.train_loss.append(float(train_loss))
        self.train_accuracy.append(float(train_acc))
        if eval_loss is not None:
            self.eval_loss.append(float(eval_loss))
            self.eval_accuracy.append(float(eval_acc))

    @property
    def epochs_run(self):
        return len(self.train_loss)

    def to_json(self):
        return json.dumps(
            {
                "train_loss": self.train_loss,
                "train_accuracy": self.train_accuracy,
                "eval_loss": self.eval_loss,
                "eval_accuracy": self.eval_accuracy,
            },
            sort_keys=True,
        )


def clip_gradients(grads, clip_norm):
    """Scale all gradients in place so their global norm is at most clip_norm.

    Returns the pre-clip global norm, or None when clipping is disabled
    (no norm is computed in that case; at MNIST widths the reduction alone
    costs a third of a training step).
    """
    if clip_norm is None:
        return None
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads:
            g *= scale
    return norm


def sgd_train(data, cfg, forward, update, evaluate=None):
    """Shuffled mini-batch epochs over ``data``; returns the TrainingTrace.

    ``forward(xb, yb)`` returns (probs, cache, loss, dlogits) for one batch
    and ``update(cache, dlogits)`` applies its SGD step.  The loss is
    checked before the step, so a batch whose loss is NaN raises
    TrainingDiverged with the weights as that batch found them.  The trace
    records the running mean loss and accuracy over each epoch's batches,
    plus the (accuracy, loss) that ``evaluate(epoch)`` returns, unless that
    is (None, None).
    """
    rng_shuffle = shuffle_stream(cfg.seed)
    n = data.n_samples
    trace = TrainingTrace()
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, n, cfg.batch_size):
            batch_idx = order[start : start + cfg.batch_size]
            xb = data.rows(batch_idx)
            yb = data.labels_onehot[batch_idx]
            probs, cache, loss, dlogits = forward(xb, yb)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, start // cfg.batch_size)
            update(cache, dlogits)
            epoch_loss += loss * len(batch_idx)
            epoch_correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
        ev_acc, ev_loss = evaluate(epoch) if evaluate is not None else (None, None)
        trace.record(epoch_loss / n, epoch_correct / n, ev_loss, ev_acc)
    return trace
