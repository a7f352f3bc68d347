"""Shared training plumbing: configs, traces, clipping, divergence errors,
the SGD epoch loop of the three trainers and a one-job-ahead worker thread.

All trainers derive their random streams from ``Rng(cfg.seed)`` the same
way — substream 0 initializes weights, substream 1 drives shuffling,
substream 2 (Bayesian trainer only) drives weight-noise draws and
substream 3 (Bayesian trainer only) drives the posterior draws that score
``eval_data`` — so models that coincide mathematically also coincide
bit-for-bit under one seed.
"""

from __future__ import annotations

import json
from contextvars import copy_context
from dataclasses import asdict, dataclass, field

import numpy as np

from .numerics import InputError, NonFiniteInput, Rng

__all__ = ["TrainConfig", "TrainingTrace", "TrainingDiverged", "clip_gradients", "init_stream",
           "shuffle_stream", "noise_stream", "eval_stream", "sgd_epochs"]


def init_stream(seed):
    return Rng.substream(seed, 0)


def shuffle_stream(seed):
    return Rng.substream(seed, 1)


def noise_stream(seed):
    return Rng.substream(seed, 2)


def eval_stream(seed):
    return Rng.substream(seed, 3)


@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 1
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
    """Loss or activation input went non-finite; reports where (batch None: scoring)."""

    def __init__(self, epoch, batch, what="loss is NaN"):
        self.epoch = epoch
        self.batch = batch
        where = "scoring" if batch is None else f"batch {batch}"
        super().__init__(f"{what} at epoch {epoch}, {where}")


@dataclass
class TrainingTrace:
    """Per-epoch metrics collected during training."""

    train_loss: list = field(default_factory=list)
    train_accuracy: list = field(default_factory=list)
    eval_loss: list = field(default_factory=list)
    eval_accuracy: list = field(default_factory=list)

    def record(self, train_loss, train_acc, evaluation=None):
        """Append one epoch; ``evaluation`` is an evaluator's (accuracy, loss)."""
        self.train_loss.append(float(train_loss))
        self.train_accuracy.append(float(train_acc))
        if evaluation is not None:
            self.eval_accuracy.append(float(evaluation[0]))
            self.eval_loss.append(float(evaluation[1]))

    @property
    def epochs_run(self):
        return len(self.train_loss)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def clip_gradients(grads, clip_norm):
    """Scale all gradients in place so their global norm is at most clip_norm.

    Returns the pre-clip global norm, or None when clipping is disabled.  A
    one-pass ``np.vdot`` screen and the exact ordered ``(g * g).sum()`` fold
    both lie within N * 2**-53 relative of the true square norm (N elements),
    so a screen 1e-6 below ``clip_norm**2`` leaves the grads alone and returns
    its own norm; otherwise (non-finite grads too) the exact fold decides.
    """
    if clip_norm is None:
        return None
    bound = 0.0
    for g in grads:
        bound += float(np.vdot(g, g))
    if bound < clip_norm * clip_norm * (1.0 - 1e-6):
        return np.sqrt(bound)
    total = 0.0  # explicit folds: builtin sum() of floats is compensated from Python 3.12
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads:
            g *= scale
    return norm


def _ahead(fn, jobs):
    """Yield fn(job) for each job in order; a worker thread runs one job ahead.

    ``jobs`` is iterated on the caller's thread.  The worker stops when the jobs
    run out, when a job raises (the exception is raised here) and on close().
    """
    from concurrent.futures import ThreadPoolExecutor  # lazy: runs with no worker skip it
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = []  # the job running ahead, once there is one
        for job in jobs:
            done = [f.result() for f in ahead]  # the job ahead ends before the next one starts
            ahead = [worker.submit(copy_context().run, fn, job)]  # under the caller's errstate
            while done:  # keeps no result past its yield: none is alive when the next job is made
                yield done.pop()
        yield from (f.result() for f in ahead)


def sgd_epochs(labels, cfg, forward, update, score=lambda epoch: None):
    """Shuffled mini-batch SGD; yields (epoch, mean loss, accuracy, score(epoch)) per epoch.

    ``forward(idx)`` returns (probs, cache, loss, dlogits) for the sample
    indices ``idx``, ``update(cache, dlogits)`` applies their step and ``score``
    rates the epoch's weights.  A NaN loss raises TrainingDiverged before the
    step, with the weights as that batch found them; so does, with numpy's
    warnings silenced, a non-finite activation input in either pass (the data
    are finite: the weights overflowed).  Loss and accuracy are running means
    over the epoch's batches; a sample is correct when ``probs.argmax(1)`` is its label.
    """
    n = len(labels)
    if n == 0:
        raise InputError("training set is empty")
    rng_shuffle = shuffle_stream(cfg.seed)
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(n)
        epoch_loss, epoch_correct = 0.0, 0
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # overflow ends in a check here
                for batch, start in enumerate(range(0, n, cfg.batch_size)):
                    idx = order[start : start + cfg.batch_size]
                    probs, cache, loss, dlogits = forward(idx)
                    if not np.isfinite(loss):
                        raise TrainingDiverged(epoch, batch)
                    update(cache, dlogits)
                    epoch_loss += loss * len(idx)
                    epoch_correct += int((probs.argmax(axis=1) == labels[idx]).sum())
                batch = None
                evaluation = score(epoch)
        except NonFiniteInput:
            raise TrainingDiverged(epoch, batch, "activation input is not finite") from None
        yield epoch, epoch_loss / n, epoch_correct / n, evaluation
