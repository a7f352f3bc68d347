"""Elman-style recurrent classifier over token sequences.

The hidden state follows h_t = act(W_x x_t + W_h h_{t-1} + b_h) from a zero
initial state; a phrase is classified from the final step's output through
softmax.  Training is per-sequence SGD with full backpropagation through
time and global-norm gradient clipping; its forward computes values only and
takes every step's activation derivative in one call per phrase.

Tokens enter through a learned embedding: a token's row of ``embed`` is
the input x_t.

Evaluation runs a corpus in lock-step: the phrases are zero-padded into one
(n, L_max) block and step t updates the rows longer than t as one block, so
a pass makes L_max activation calls, not one per token.  It is bit-identical
to running each phrase alone: the stacked (rows, 1, k) @ (k, m) matmuls use
the same per-row gemv as a 1-D ``row @ W``, the activation is elementwise,
and the losses are folded left to right in corpus order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activation import Activation, _crossentropy_rows, activate, softmax, softmax_crossentropy
from .data import split_corpus
from .fnn import _dense_step
from .numerics import InputError, ShapeError
# clip_gradients runs in fnn._dense_step; bound for bench_workloads.trace_targets
from .trainutil import TrainingTrace, clip_gradients, sgd_epochs  # noqa: F401

__all__ = ["RnnModel", "rnn_init", "rnn_forward", "rnn_train", "rnn_evaluate"]


@dataclass
class RnnModel:
    embed: np.ndarray  # vocab x emb
    wx: np.ndarray     # emb x hidden
    wh: np.ndarray     # hidden x hidden
    bh: np.ndarray     # 1 x hidden
    wy: np.ndarray     # hidden x classes
    by: np.ndarray     # 1 x classes
    hidden_act: Activation

    @property
    def vocab_size(self):
        return self.embed.shape[0]

    @property
    def n_hidden(self):
        return self.wh.shape[0]

    def check(self):
        """Raise ShapeError unless every array conforms to ``wx`` and ``wy``."""
        n_embed, n_hidden = self.wx.shape
        n_classes = self.wy.shape[1]
        expected = {"embed": (self.vocab_size, n_embed), "wh": (n_hidden, n_hidden),
                    "bh": (1, n_hidden), "wy": (n_hidden, n_classes), "by": (1, n_classes)}
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ShapeError(f"{name} is {getattr(self, name).shape}, expected {shape}")
        return self


def rnn_init(vocab_size, n_hidden, n_classes, hidden_act, rng, n_embed=16):
    """Fan-in scaled normal init of an ``n_embed``-wide embedding and the layers."""
    embed = rng.normal_matrix(vocab_size, n_embed, std=1.0 / np.sqrt(n_embed))
    wx = rng.normal_matrix(n_embed, n_hidden, std=1.0 / np.sqrt(n_embed))
    wh = rng.normal_matrix(n_hidden, n_hidden, std=1.0 / np.sqrt(n_hidden))
    wy = rng.normal_matrix(n_hidden, n_classes, std=1.0 / np.sqrt(n_hidden))
    return RnnModel(
        embed, wx, wh, np.zeros((1, n_hidden)), wy, np.zeros((1, n_classes)), hidden_act
    ).check()


def _check_sequence(model, seq):
    if len(seq) == 0:
        raise InputError("sequence must be non-empty")
    return _indices(seq, model.vocab_size, "token indices")


def _indices(values, upper, name):
    """``values`` as int64, checked to be integers in [0, upper): token ids or class labels."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu" and values.size:  # a cast would truncate 1.7 to 1
        raise InputError(f"{name} must be integers, got dtype {values.dtype}")
    if values.size and (values.min() < 0 or values.max() >= upper):
        raise InputError(f"{name} must lie in [0, {upper}), got range "
                         f"[{values.min()}, {values.max()}]")
    return values.astype(np.int64, copy=False)


def _pack(model, corpus):
    """Checked token ids zero-padded into an (n, L_max) block, lengths, checked labels."""
    lengths = [len(seq) for seq in corpus.phrases]
    tokens = np.zeros((len(lengths), max(lengths, default=0)), dtype=np.int64)
    for row, seq in zip(tokens, corpus.phrases):
        row[:len(seq)] = _check_sequence(model, seq)
    labels = _indices(corpus.labels, model.wy.shape[1], "labels")
    return tokens, np.asarray(lengths, dtype=np.int64), labels


def _rows_at(rows, w):
    """``rows @ w`` as a stacked product: one gemv per row, like a 1-D ``row @ w``."""
    return (rows[:, None, :] @ w)[:, 0]


def _unroll(model, tokens, lengths=None, grad=True):
    """Forward through time for an (n, L) block of token ids, caching what BPTT needs.

    Row i runs ``lengths[i]`` steps (all L when ``lengths`` is None), then keeps
    its last state.  Returns states (L + 1, n, hidden), activation derivatives
    (L, n, hidden; act'(0) past a row's end) or None, and logits (n, classes).
    """
    n, steps = tokens.shape
    states = np.zeros((steps + 1, n, model.n_hidden))
    zs = np.zeros((steps, n, model.n_hidden))  # the pre-activations
    for t in range(steps):
        live = slice(None) if lengths is None else lengths > t
        drive = _rows_at(model.embed[tokens[live, t]], model.wx)
        z = drive + _rows_at(states[t, live], model.wh) + model.bh[0]
        states[t + 1] = states[t]
        states[t + 1, live] = activate(z, model.hidden_act, grad=False)[0]
        zs[t, live] = z
    dacts = activate(zs, model.hidden_act)[1] if grad else None
    logits = _rows_at(states[-1], model.wy) + model.by[0]
    return states, dacts, logits


def rnn_forward(model, seq):
    """Class probabilities for one sequence plus all hidden states h_1..h_T."""
    seq = _check_sequence(model, seq)
    states, _, logits = _unroll(model, seq[None], grad=False)
    return softmax(logits[0]), states[1:, 0]


def _backward(model, seq, states, dacts, dlogits):
    """Full-unroll BPTT; returns grads aligned with the trainable arrays."""
    gwy = states[-1][:, None] * dlogits
    gby = dlogits.copy()
    gwx = np.zeros_like(model.wx)
    gwh = np.zeros_like(model.wh)
    gbh = np.zeros(model.n_hidden)
    gembed = np.zeros_like(model.embed)
    dh_next = dlogits @ model.wy.T
    for t in range(len(seq) - 1, -1, -1):
        dz = dh_next * dacts[t]
        token = seq[t]
        gwx += model.embed[token][:, None] * dz
        gembed[token] += dz @ model.wx.T
        gwh += states[t][:, None] * dz
        gbh += dz
        dh_next = dz @ model.wh.T
    return gwx, gwh, gbh, gwy, gby, gembed


def rnn_train(model, corpus, cfg, train_frac=0.75, stop_train_loss=None):
    """Per-sequence SGD with BPTT over a stratified train/test split.

    ``cfg.batch_size`` must be 1.  The split is derived from ``cfg.seed`` so
    runs are reproducible.  Every phrase is checked before the first update,
    so a bad token leaves the model untouched.  After each epoch of
    ``trainutil.sgd_epochs`` the trace records the train split (and a
    non-empty test split) re-scored; with ``stop_train_loss`` set, training
    stops after the first epoch whose re-scored train accuracy is 1.0 and
    train loss is below the threshold.  Returns (trace, train_corpus,
    test_corpus).
    """
    if cfg.batch_size != 1:
        raise InputError(f"batch_size must be 1, got {cfg.batch_size}")
    train_set, test_set = split_corpus(corpus, train_frac, seed=cfg.seed)
    train, test = _pack(model, train_set), _pack(model, test_set)
    tokens, lengths, labels = train
    # the order of _backward's gradients: the clip norm is an ordered sum
    params = (model.wx, model.wh, model.bh[0], model.wy, model.by[0], model.embed)

    def forward(idx):
        seq = tokens[idx[0], :lengths[idx[0]]]
        states, dacts, logits = _unroll(model, seq[None])
        probs, loss, dlogits = softmax_crossentropy(logits, labels[idx])
        return probs, (seq, states[:, 0], dacts[:, 0]), loss, dlogits

    def update(cache, dlogits):
        _dense_step(params, _backward(model, *cache, dlogits[0]), cfg)

    def score(epoch):  # the train split re-scored, then the test split if it has phrases
        return _score(model, *train), _score(model, *test) if len(test_set.phrases) else None

    trace = TrainingTrace()
    for *_, ((acc, loss), test_score) in sgd_epochs(labels, cfg, forward, update, score):
        trace.record(loss, acc, test_score)
        if stop_train_loss is not None and acc == 1.0 and loss < stop_train_loss:
            break
    return trace, train_set, test_set


def rnn_evaluate(model, corpus):
    """(accuracy, mean loss) over a corpus of sequences, run in lock-step."""
    return _score(model, *_pack(model, corpus))


def _score(model, tokens, lengths, labels):
    """(accuracy, mean loss) of a packed corpus."""
    if not len(labels):
        raise InputError("corpus is empty")
    _, _, logits = _unroll(model, tokens, lengths, grad=False)
    probs, losses = _crossentropy_rows(logits, labels)
    total_loss = 0.0
    for loss in losses.tolist():  # in corpus order; sum() may compensate
        total_loss += loss
    correct = np.count_nonzero(probs.argmax(axis=1) == labels)
    return int(correct) / len(labels), total_loss / len(labels)
