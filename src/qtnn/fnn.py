"""Single-hidden-layer feedforward classifier trained by hand-rolled backprop.

Forward pass: z1 = x W1 + b1, h = act(z1), logits = h W2 + b2, softmax.
The backward pass propagates the softmax/cross-entropy error through the
cached activation derivative (elementwise product), clips the global
gradient norm and applies plain SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activation import Activation, activate, softmax, softmax_crossentropy
from .numerics import ShapeError, as_matrix
from .trainutil import (
    TrainingDiverged,
    TrainingTrace,
    clip_gradients,
    shuffle_stream,
)

__all__ = ["FnnModel", "fnn_init", "fnn_forward", "fnn_backward", "fnn_train", "fnn_evaluate"]


@dataclass
class FnnModel:
    w1: np.ndarray  # features x hidden
    b1: np.ndarray  # 1 x hidden
    w2: np.ndarray  # hidden x classes
    b2: np.ndarray  # 1 x classes
    hidden_act: Activation

    def check(self):
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ShapeError("w1 and w2 hidden dimensions differ")
        if self.b1.shape != (1, self.w1.shape[1]) or self.b2.shape != (1, self.w2.shape[1]):
            raise ShapeError("bias shapes do not match weight shapes")
        return self

    def copy(self):
        return FnnModel(
            self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(), self.hidden_act
        )


def fnn_init(n_features, n_hidden, n_classes, hidden_act, rng):
    """Weights ~ N(0, 1/sqrt(fan_in)), biases zero."""
    w1 = rng.normal_matrix(n_features, n_hidden, std=1.0 / np.sqrt(n_features))
    w2 = rng.normal_matrix(n_hidden, n_classes, std=1.0 / np.sqrt(n_hidden))
    return FnnModel(w1, np.zeros((1, n_hidden)), w2, np.zeros((1, n_classes)), hidden_act).check()


def _forward(model, x, grad):
    """Checked input, hidden values (with dT/dE when ``grad``) and logits."""
    x = as_matrix(x, "x", allow_vector=True)
    if x.shape[1] != model.w1.shape[0]:
        raise ShapeError(f"x has {x.shape[1]} features, model expects {model.w1.shape[0]}")
    h, dh = activate(x @ model.w1 + model.b1, model.hidden_act, grad=grad)
    return x, h, dh, h @ model.w2 + model.b2


def fnn_forward(model, x, onehot=None):
    """Probabilities plus the cache needed for one backward pass.

    With ``onehot`` given, also returns (loss, dlogits) from the softmax
    cross-entropy; otherwise those slots are None.
    """
    x, h, dh, logits = _forward(model, x, True)
    cache = {"x": x, "h": h, "dh": dh}
    if onehot is None:
        return softmax(logits), cache, None, None
    probs, loss, dlogits = softmax_crossentropy(logits, onehot)
    return probs, cache, loss, dlogits


def fnn_backward(model, cache, dlogits):
    """Gradients for (w1, b1, w2, b2) from a cached forward pass."""
    x, h, dh = cache["x"], cache["h"], cache["dh"]
    gw2 = h.T @ dlogits
    gb2 = dlogits.sum(axis=0, keepdims=True)
    dhidden = (dlogits @ model.w2.T) * dh
    gw1 = x.T @ dhidden
    gb1 = dhidden.sum(axis=0, keepdims=True)
    return gw1, gb1, gw2, gb2


def fnn_train(model, data, cfg, eval_data=None):
    """Mini-batch SGD with global-norm clipping; mutates the model in place.

    The trace records mean loss and accuracy per epoch on the training set
    (running means over the batches actually seen) and on ``eval_data``
    when provided.
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
            xb = data.inputs[batch_idx]
            yb = data.labels_onehot[batch_idx]
            probs, cache, loss, dlogits = fnn_forward(model, xb, yb)
            if not np.isfinite(loss):
                raise TrainingDiverged(epoch, start // cfg.batch_size)
            grads = fnn_backward(model, cache, dlogits)
            clip_gradients(grads, cfg.clip_norm)
            gw1, gb1, gw2, gb2 = grads
            model.w1 -= cfg.lr * gw1
            model.b1 -= cfg.lr * gb1
            model.w2 -= cfg.lr * gw2
            model.b2 -= cfg.lr * gb2
            epoch_loss += loss * len(batch_idx)
            epoch_correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
        if eval_data is not None:
            ev_acc, ev_loss = fnn_evaluate(model, eval_data)
            trace.record(epoch_loss / n, epoch_correct / n, ev_loss, ev_acc)
        else:
            trace.record(epoch_loss / n, epoch_correct / n)
    return trace


def fnn_evaluate(model, data, batch_size=1024):
    """(accuracy, mean loss) over a dataset; argmax ties go to the lowest class."""
    n = data.n_samples
    correct = 0
    total_loss = 0.0
    for start in range(0, n, batch_size):
        xb = data.inputs[start : start + batch_size]
        yb = data.labels_onehot[start : start + batch_size]
        # values only: the hidden-unit derivatives of fnn_forward go unused here
        probs, loss, _ = softmax_crossentropy(_forward(model, xb, False)[3], yb)
        correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
        total_loss += loss * xb.shape[0]
    return correct / n, total_loss / n
