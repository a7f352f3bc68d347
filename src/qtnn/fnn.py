"""Single-hidden-layer feedforward classifier trained by hand-rolled backprop.

Forward pass: z1 = x W1 + b1, h = act(z1), logits = h W2 + b2, softmax.
The backward pass propagates the softmax/cross-entropy error through the
cached activation derivative (elementwise product), clips the global
gradient norm and applies plain SGD.  The sampled-weight BNN (``bnn``)
runs the same layers above z1, backward pass and clipped step, the RNN the
same step, and all three trainers run the epoch loop ``trainutil.sgd_epochs``.

``fnn_evaluate`` forms batch k + 1's z1 on the worker of ``trainutil._ahead``
while the caller activates and scores batch k.  The worker only fills the
caller's z1 through the matmul and add of ``x @ W1 + b1``, and the batches
fold in order, so the results are bit-identical to a serial loop.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from itertools import starmap

import numpy as np

from .activation import Activation, activate, softmax, softmax_crossentropy
from .numerics import InputError, ShapeError, as_matrix
from .trainutil import TrainingTrace, _ahead, clip_gradients, sgd_epochs

__all__ = ["FnnModel", "fnn_init", "fnn_forward", "fnn_backward", "fnn_train", "fnn_evaluate"]

EVAL_BATCH = 1024


@dataclass
class FnnModel:
    w1: np.ndarray  # features x hidden
    b1: np.ndarray  # 1 x hidden
    w2: np.ndarray  # hidden x classes
    b2: np.ndarray  # 1 x classes
    hidden_act: Activation

    def check(self):
        _check_layers(self.w1, self.b1, self.w2, self.b2)
        return self


def _check_layers(w1, b1, w2, b2):
    """Raise ShapeError unless the two dense layers and their biases conform."""
    if w1.shape[1] != w2.shape[0]:
        raise ShapeError("w1 and w2 hidden dimensions differ")
    if b1.shape != (1, w1.shape[1]) or b2.shape != (1, w2.shape[1]):
        raise ShapeError("bias shapes do not match weight shapes")


def fnn_init(n_features, n_hidden, n_classes, hidden_act, rng):
    """Weights ~ N(0, 1/sqrt(fan_in)), biases zero."""
    w1 = rng.normal_matrix(n_features, n_hidden, std=1.0 / np.sqrt(n_features))
    w2 = rng.normal_matrix(n_hidden, n_classes, std=1.0 / np.sqrt(n_hidden))
    return FnnModel(w1, np.zeros((1, n_hidden)), w2, np.zeros((1, n_classes)), hidden_act).check()


def _check_width(width, n_features):
    if width != n_features:
        raise ShapeError(f"x has {width} features, model expects {n_features}")


def _check_input(x, n_features):
    x = as_matrix(x, "x", allow_vector=True)
    _check_width(x.shape[1], n_features)
    return x


def _dense_forward(x, z1, w2, b2, act, labels=None, grad=True):
    """The layers above z1 = x W1 + b1 -> (probs, cache, loss, dlogits).

    Shared with the sampled-weight BNN.  Without ``labels`` loss and dlogits
    are None, and without ``grad`` the cached dT/dE is None.  The cache keeps
    the w2 the pass used under "w2s" (the BNN passes its sampled draw).
    """
    h, dh = activate(z1, act, grad=grad)
    logits = h @ w2 + b2
    cache = {"x": x, "h": h, "dh": dh, "w2s": w2}
    if labels is None:
        return softmax(logits), cache, None, None
    probs, loss, dlogits = softmax_crossentropy(logits, labels)
    return probs, cache, loss, dlogits


def _backward_hidden(cache, dlogits):
    """(dhidden, gb1, gw2, gb2): the backward pass short of the W1 gradient.

    dhidden is the loss gradient w.r.t. z1, so the W1 gradient is
    ``x.T @ dhidden``; the cached w2 appears in the backward chain.
    """
    h, dh, w2 = cache["h"], cache["dh"], cache["w2s"]
    gw2 = h.T @ dlogits
    gb2 = dlogits.sum(axis=0, keepdims=True)
    dhidden = (dlogits @ w2.T) * dh
    gb1 = dhidden.sum(axis=0, keepdims=True)
    return dhidden, gb1, gw2, gb2


def _dense_step(params, grads, cfg):
    """Clip to the global norm ``cfg.clip_norm``, then one SGD step in place; consumes ``grads``."""
    clip_gradients(grads, cfg.clip_norm)
    for p, g in zip(params, grads):
        g *= cfg.lr  # rounds as ``p -= lr * g`` does, without a W1-sized temporary
        p -= g


def fnn_forward(model, x, labels=None):
    """Probabilities plus the cache needed for one backward pass.

    With ``labels`` (one class index per row of ``x``) given, also returns
    (loss, dlogits) from the softmax cross-entropy; otherwise those slots are None.
    """
    x = _check_input(x, model.w1.shape[0])
    return _dense_forward(x, x @ model.w1 + model.b1, model.w2, model.b2, model.hidden_act, labels)


def fnn_backward(model, cache, dlogits):
    """Gradients for (w1, b1, w2, b2) from a cached forward pass.

    The pass's own weights come from the cache, so ``model`` is not read.
    """
    dhidden, gb1, gw2, gb2 = _backward_hidden(cache, dlogits)
    return cache["x"].T @ dhidden, gb1, gw2, gb2


def fnn_train(model, data, cfg, eval_data=None):
    """Mini-batch SGD with global-norm clipping; mutates the model in place.

    The trace records mean loss and accuracy per epoch on the training set
    (running means over the batches actually seen) and on ``eval_data``
    when provided.
    """
    params = (model.w1, model.b1, model.w2, model.b2)
    trace = TrainingTrace()
    for _, loss, acc, evaluation in sgd_epochs(
        data.labels, cfg,
        lambda idx: fnn_forward(model, data.rows(idx), data.labels[idx]),
        lambda cache, dlogits: _dense_step(params, fnn_backward(model, cache, dlogits), cfg),
        lambda epoch: None if eval_data is None else fnn_evaluate(model, eval_data),
    ):
        trace.record(loss, acc, evaluation)
    return trace


def fnn_evaluate(model, data):
    """(accuracy, mean loss) over a dataset; argmax ties go to the lowest class."""
    # a LabeledDataset's rows are finite by construction: only the width is checked
    _check_width(data.n_features, model.w1.shape[0])
    n, batch, w1, b1 = data.n_samples, EVAL_BATCH, model.w1, model.b1
    if n == 0:
        raise InputError("dataset is empty")

    def first_layer(job):  # on the worker: fills in the z1 that the caller allocated
        x, z1, rows = job
        np.matmul(x, w1, out=z1)
        z1 += b1
        return z1, rows  # the inputs are not needed past z1

    def score(z1, rows):  # values only: the hidden-unit derivatives go unused here
        probs, _, loss, _ = _dense_forward(None, z1, model.w2, model.b2, model.hidden_act,
                                           data.labels[rows], grad=False)
        return int((probs.argmax(axis=1) == data.labels[rows]).sum()), loss * z1.shape[0]

    # (inputs, z1, row slice) per batch, made here as _ahead asks; starmap keeps no batch it scored
    jobs = ((data.rows(slice(s, s + batch)), np.empty((min(batch, n - s), b1.size)),
             slice(s, s + batch)) for s in range(0, n, batch))
    correct, total_loss = 0, 0.0
    with closing(_ahead(first_layer, jobs)) as layers:
        for right, loss in starmap(score, layers):
            correct += right
            total_loss += loss
    return correct / n, total_loss / n
