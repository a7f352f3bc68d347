"""The benchmark tracer's targets exist, so a rename shows up in the unit tests.

``perfbench/bench_workloads.py`` wraps each ``(owner, attribute)`` of
``trace_targets()`` for a ``--trace 1`` run and reads it with
``vars(owner)[attribute]``; a refactor that drops one of those names would
otherwise break only the traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

import qtnn.fnn
from qtnn.activation import Activation
from qtnn.bnn import bnn_init, bnn_train
from qtnn.data import LabeledDataset, SentimentCorpus
from qtnn.fnn import fnn_init, fnn_train
from qtnn.rnn import rnn_init, rnn_train
from qtnn.trainutil import TrainConfig, init_stream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_is_bound_on_its_owner():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench_workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    targets = bench_workloads.trace_targets()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert missing == []


def test_clip_span_sees_every_step(monkeypatch):
    # perfbench's trainutil.clip_gradients metrics count calls to fnn.clip_gradients,
    # which every trainer reaches through fnn._dense_step once per step
    calls = []
    clip = qtnn.fnn.clip_gradients

    def counting(grads, clip_norm):
        calls.append(clip_norm)
        return clip(grads, clip_norm)

    monkeypatch.setattr(qtnn.fnn, "clip_gradients", counting)
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.uniform(size=(10, 3)), np.arange(10) % 2, ["a", "b"])
    corpus = SentimentCorpus([[1, 2], [2], [3, 1], [3]], [1, 0, 1, 0],
                             {"a": 1, "b": 2, "c": 3})
    act = Activation.qt()
    runs = [
        (lambda: fnn_train(fnn_init(3, 4, 2, act, init_stream(0)), data,
                           TrainConfig(epochs=2, batch_size=4)), 2 * 3),
        (lambda: bnn_train(bnn_init(3, 4, 2, act, init_stream(0)), data,
                           TrainConfig(epochs=2)), 2 * 10),
        (lambda: rnn_train(rnn_init(4, 4, 2, act, init_stream(0)), corpus,
                           TrainConfig(epochs=3), train_frac=1.0), 3 * 4),
    ]
    for run, steps in runs:
        calls.clear()
        run()
        assert calls == [5.0] * steps
