"""The five workloads, the trace targets and the per-layer metrics.

Each workload has an untimed ``prepare`` that writes its seeded inputs, a
``setup`` (everything from after ``import qtnn`` up to the first train or
step call) and a ``body`` that runs the measured calls and returns a
:class:`Rep`.  Every call into the program goes through a module attribute
(``qtnn.fnn.fnn_train``, not a name bound at import), so the wrappers of a
traced run see the benchmark's own calls too.

Hyper-parameters mirror the files in ``configs/``; they are copied here so
that editing a config cannot silently change the benchmark.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import bench_data
import qtnn.bnn
import qtnn.checkpoint
import qtnn.data
import qtnn.esn
import qtnn.fnn
import qtnn.numerics
import qtnn.rnn
import qtnn.trainutil
import qtnn.wavepacket
from qtnn.activation import Activation, BarrierParams
from qtnn.trainutil import TrainConfig

SYNTHETIC_NOTE = (
    "synthetic data: seeded stand-ins with MNIST geometry, not the real MNIST "
    "or Fashion-MNIST files"
)


@dataclass
class Rep:
    """One measured repetition of a workload body."""

    run_s: float
    main: tuple      # (units of work, seconds) of the main phase
    readout: tuple   # (units of work, seconds) of the readout phase
    digest: str      # SHA-256 of the outputs
    checks: dict     # check name -> passed
    facts: dict      # output values shown in the detail block
    setup_s: float = 0.0      # wall seconds of the set-up before this body
    scale: float = 1.0        # reference seconds per wall second, for the body
    setup_scale: float = 1.0  # the same, for the set-up


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(str(part).encode())
    return h.hexdigest()


def _all_finite(values):
    return all(math.isfinite(v) for v in values)


class FnnMnist:
    """configs/mnist-fnn-qt.json for one epoch on synthetic MNIST geometry."""

    name = "fnn-mnist"
    main_metric = "train_rows_per_s"
    readout_metric = "eval_rows_per_s"
    # bench_reference loops whose drift follows the body and the set-up
    reference, setup_reference = "matvec", "matvec"
    extra_setups = 3
    ACCURACY_FLOOR = 0.5   # chance is 0.1; one epoch on seed 1 data scores 0.95

    def prepare(self, seed, tmp):
        self.paths, density = bench_data.write_image_set(seed, 60000, 10000, tmp / "mnist")
        self.checkpoint = tmp / "fnn.ckpt"
        return {"data": SYNTHETIC_NOTE, "pixel_density": density, "train_rows": 60000,
                "test_rows": 10000}

    def setup(self):
        train = qtnn.data.load_idx(*self.paths["train"], qtnn.data.MNIST_CLASS_NAMES)
        test = qtnn.data.load_idx(*self.paths["t10k"], qtnn.data.MNIST_CLASS_NAMES)
        act = Activation.qt(BarrierParams(v0=2.0, a=1.0, m=1.0, hbar=1.0, ampl=1.0,
                                          mode="rectified"))
        tc = TrainConfig(lr=0.01, epochs=1, batch_size=64, clip_norm=5.0, seed=42)
        model = qtnn.fnn.fnn_init(train.n_features, 512, train.n_classes, act,
                                  qtnn.trainutil.init_stream(tc.seed))
        return train, test, tc, model

    def body(self, state):
        train, test, tc, model = state
        t0 = perf_counter()
        trace = qtnn.fnn.fnn_train(model, train, tc)
        t1 = perf_counter()
        accuracy, loss = qtnn.fnn.fnn_evaluate(model, test)
        t2 = perf_counter()
        qtnn.checkpoint.save_fnn(model, self.checkpoint)
        loaded = qtnn.checkpoint.load_fnn(self.checkpoint)
        t3 = perf_counter()
        weights = (model.w1, model.b1, model.w2, model.b2)
        back = (loaded.w1, loaded.b1, loaded.w2, loaded.b2)
        checks = {
            "train_loss_finite": _all_finite(trace.train_loss),
            "test_loss_finite": math.isfinite(loss),
            "test_accuracy_floor": accuracy >= self.ACCURACY_FLOOR,
            "checkpoint_bit_equal": loaded.hidden_act == model.hidden_act
            and all(a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(weights, back)),
        }
        return Rep(
            run_s=t3 - t0,
            main=(train.n_samples * tc.epochs, t1 - t0),
            readout=(test.n_samples, t2 - t1),
            digest=_digest(trace.to_json(), accuracy, loss, *weights),
            checks=checks,
            facts={"test_accuracy": accuracy, "test_loss": loss,
                   "train_loss": trace.train_loss[-1]},
        )


class BnnFashion:
    """configs/fashion-bnn-qt.json, one batch-1 epoch over a train prefix."""

    name = "bnn-fashion"
    main_metric = "train_rows_per_s"
    readout_metric = "eval_rows_per_s"
    # bench_reference loops whose drift follows the body and the set-up
    reference, setup_reference = "matvec", "interpreter"
    extra_setups = 5
    TRAIN_ROWS = 500
    TEST_ROWS = 512        # one full bnn_evaluate batch
    ACCURACY_FLOOR = 0.5   # chance is 0.1; seed 1 data scores 1.0

    def prepare(self, seed, tmp):
        self.paths, density = bench_data.write_image_set(seed, 10000, 2000, tmp / "fashion")
        return {"data": SYNTHETIC_NOTE, "pixel_density": density, "train_rows": 10000,
                "test_rows": 2000,
                "train_prefix": self.TRAIN_ROWS, "test_prefix": self.TEST_ROWS}

    def setup(self):
        names = qtnn.data.FASHION_CLASS_NAMES
        train = qtnn.data.load_idx(*self.paths["train"], names)
        test = qtnn.data.load_idx(*self.paths["t10k"], names)
        train = train.subset(np.arange(self.TRAIN_ROWS))
        test = test.subset(np.arange(self.TEST_ROWS))
        act = Activation.qt(BarrierParams(v0=2.0, a=1.0, m=1.0, hbar=1.0, ampl=1.0,
                                          mode="rectified"))
        tc = TrainConfig(lr=0.5, epochs=1, batch_size=1, clip_norm=None, seed=42)
        model = qtnn.bnn.bnn_init(train.n_features, 512, train.n_classes, act,
                                  qtnn.trainutil.init_stream(tc.seed), std_init=0.01,
                                  n_samples=50)
        return train, test, tc, model

    def body(self, state):
        train, test, tc, model = state
        # the stream bnn_train itself builds to score epoch 0; the CLI makes it
        # inside bnn_train, so it is timed in neither set-up nor a rate
        eval_rng = qtnn.numerics.Rng(tc.seed).spawn(3).spawn(0)
        t0 = perf_counter()
        trace = qtnn.bnn.bnn_train(model, train, tc)
        t1 = perf_counter()
        accuracy, loss = qtnn.bnn.bnn_evaluate(model, test, eval_rng)
        t2 = perf_counter()
        checks = {
            "train_loss_finite": _all_finite(trace.train_loss),
            "test_loss_finite": math.isfinite(loss),
            "test_accuracy_floor": accuracy >= self.ACCURACY_FLOOR,
        }
        return Rep(
            run_s=t2 - t0,
            main=(train.n_samples * tc.epochs, t1 - t0),
            readout=(test.n_samples, t2 - t1),
            digest=_digest(trace.to_json(), accuracy, loss, model.w1_mean, model.b1,
                           model.w2_mean, model.b2),
            checks=checks,
            facts={"test_accuracy": accuracy, "test_loss": loss,
                   "train_loss": trace.train_loss[-1]},
        )


class RnnSentiment:
    """configs/sentiment-rnn-qt.json for a fixed epoch count, stop_loss off.

    The input is the bundled 48-phrase corpus with its rows in a seeded
    order, which changes the vocabulary numbering and the train/test split.
    """

    name = "rnn-sentiment"
    main_metric = "train_tokens_per_s"
    readout_metric = "eval_tokens_per_s"
    # bench_reference loops whose drift follows the body and the set-up
    reference, setup_reference = "interpreter", "interpreter"
    extra_setups = 20
    EPOCHS = 20   # every seed tried reaches train accuracy 1.0 by epoch 15
    EVAL_PASSES = 20   # ~40 ms a pass: one pass is too short to time steadily

    def prepare(self, seed, tmp):
        self.corpus_path = bench_data.write_shuffled_corpus(
            seed, qtnn.data.bundled_sentiment_path(), tmp / "sentiment.csv")
        return {"corpus": "bundled sentiment48.csv, rows shuffled by seed",
                "epochs": self.EPOCHS}

    def setup(self):
        corpus = qtnn.data.load_sentiment(self.corpus_path)
        act = Activation.qt(BarrierParams(v0=2.0, a=1.0, m=1.0, hbar=1.0, ampl=5.0,
                                          mode="rectified"))
        tc = TrainConfig(lr=0.05, epochs=self.EPOCHS, batch_size=1, clip_norm=5.0, seed=42)
        model = qtnn.rnn.rnn_init(corpus.vocab_size, 32, 2, act,
                                  qtnn.trainutil.init_stream(tc.seed), n_embed=16)
        return corpus, tc, model

    def body(self, state):
        corpus, tc, model = state
        t0 = perf_counter()
        trace, train_set, _ = qtnn.rnn.rnn_train(model, corpus, tc, train_frac=0.75,
                                                 stop_train_loss=None)
        t1 = perf_counter()
        scores = [qtnn.rnn.rnn_evaluate(model, corpus) for _ in range(self.EVAL_PASSES)]
        t2 = perf_counter()
        accuracy, loss = scores[-1]
        train_tokens = sum(len(p) for p in train_set.phrases)
        checks = {
            "train_loss_finite": _all_finite(trace.train_loss),
            "train_accuracy_one": trace.train_accuracy[-1] == 1.0,
            "evaluation_repeats": all(s == scores[0] for s in scores),
        }
        return Rep(
            run_s=t2 - t0,
            main=(train_tokens * trace.epochs_run, t1 - t0),
            readout=(self.EVAL_PASSES * sum(len(p) for p in corpus.phrases), t2 - t1),
            digest=_digest(trace.to_json(), accuracy, loss, model.embed, model.wx,
                           model.wh, model.bh, model.wy, model.by),
            checks=checks,
            facts={"train_accuracy": trace.train_accuracy[-1],
                   "train_loss": trace.train_loss[-1], "corpus_accuracy": accuracy},
        )


class EsnMackeyGlass:
    """configs/mgts-esn-qt.json exactly, on mackey_glass(MgConfig(), 4000).

    The paper's fixed set-up: the seed does not enter, every seed runs the
    same inputs.
    """

    name = "esn-mackey-glass"
    main_metric = "fit_steps_per_s"
    readout_metric = "forecast_steps_per_s"
    # bench_reference loops whose drift follows the body and the set-up
    reference, setup_reference = "matvec", "matvec"
    extra_setups = 1
    TRAIN = 2000
    HORIZON = 2000
    MSE_500_BOUND = 2e-3   # the seed code scores 8.3e-4

    def prepare(self, seed, tmp):
        return {"series": "mackey_glass(MgConfig(), 4000)", "seed_used": False}

    def setup(self):
        series = qtnn.data.mackey_glass(qtnn.data.MgConfig(), self.TRAIN + self.HORIZON)
        act = Activation.qt(BarrierParams(v0=2.0, a=1.0, m=1.0, hbar=1.0, ampl=2.0,
                                          mode="bipolar"))
        model = qtnn.esn.esn_build(n_reservoir=1000, rho_target=1.5, density=0.1, seed=0,
                                   act=act, allow_rho_ge_1=True, washout=200,
                                   ridge_lambda=1e-8)
        return series, model

    def body(self, state):
        series, model = state
        train, target = series[: self.TRAIN], series[self.TRAIN :]
        t0 = perf_counter()
        w_out = qtnn.esn.esn_fit(model, train)
        t1 = perf_counter()
        forecast = qtnn.esn.esn_free_run(model, train, self.HORIZON)
        t2 = perf_counter()
        finite = bool(np.isfinite(forecast).all())
        mse_500 = float(np.mean((target[:500] - forecast[:500]) ** 2)) if finite else math.inf
        return Rep(
            run_s=t2 - t0,
            main=(train.size - 1, t1 - t0),
            readout=(self.HORIZON, t2 - t1),
            digest=_digest(w_out, forecast),
            checks={"forecast_finite": finite, "mse_500_bound": mse_500 <= self.MSE_500_BOUND},
            facts={"mse_500": mse_500},
        )


class WavepacketDoubleSlit:
    """Scenario(kind="double_slit") on the default 400x400 grid.

    The paper's fixed set-up: the seed does not enter.  The body does what
    ``wp_run`` and the CLI's wavepacket command do at their defaults
    (``snapshot_every`` 100, ``format`` text): a density frame at step 0 and
    every 100 steps, one probability partition at the end, then every frame
    written with ``frame_to_text``.  The readout phase is the frame and
    partition work; the stepping is the main phase.
    """

    name = "wavepacket-double-slit"
    main_metric = "grid_steps_per_s"
    readout_metric = "frames_per_s"
    # bench_reference loops whose drift follows the body and the set-up
    reference, setup_reference = "interpreter", "interpreter"
    extra_setups = 100
    STEPS = 300
    SNAPSHOT_EVERY = 100

    def prepare(self, seed, tmp):
        self.outdir = tmp / "frames"
        self.outdir.mkdir()
        return {"scenario": "Scenario(kind='double_slit')", "grid": "400x400",
                "steps": self.STEPS, "snapshot_every": self.SNAPSHOT_EVERY,
                "seed_used": False}

    def setup(self):
        return qtnn.wavepacket.wp_init(qtnn.wavepacket.Scenario(kind="double_slit"))

    def body(self, grid):
        step_s = 0.0
        t0 = perf_counter()
        frames = [(0, grid.density())]
        for step in range(self.SNAPSHOT_EVERY, self.STEPS + 1, self.SNAPSHOT_EVERY):
            ta = perf_counter()
            for _ in range(self.SNAPSHOT_EVERY):
                qtnn.wavepacket.wp_step(grid)
            step_s += perf_counter() - ta
            frames.append((step, grid.density()))
        partition = qtnn.wavepacket.probability_partition(grid)
        for step, frame in frames:
            qtnn.wavepacket.frame_to_text(frame, self.outdir / f"frame_{step:06d}.txt")
        t1 = perf_counter()
        last = frames[-1][1]
        drift = abs(1.0 - grid.norm())
        mirror = float(np.abs(last - last[:, ::-1]).max())
        part_sum = partition["reflected"] + partition["residual"] + partition["transmitted"]
        return Rep(
            run_s=t1 - t0,
            main=(self.STEPS, step_s),
            readout=(len(frames), t1 - t0 - step_s),
            digest=_digest(grid.psi, *(partition[k] for k in sorted(partition))),
            checks={
                "norm_drift": drift < 1e-6,
                "partition_sum": abs(part_sum - 1.0) < 1e-4,
                "mirror_symmetry": mirror < 1e-6,
            },
            facts={"norm_drift": drift, "mirror_asymmetry": mirror,
                   "transmitted": partition["transmitted"]},
        )


WORKLOADS = {w.name: w for w in (FnnMnist, BnnFashion, RnnSentiment, EsnMackeyGlass,
                                 WavepacketDoubleSlit)}


# --- traced run --------------------------------------------------------------

def _elements(counts, args, kwargs, result):
    counts["activation.activate.elements"] += np.size(args[0])


def _esn_activate(counts, args, kwargs, result):
    _elements(counts, args, kwargs, result)
    counts["esn.activate.calls"] += 1


def _draw_values(counts, args, kwargs, result):
    counts["numerics.Rng.draw.values"] += np.size(result)


def _cholesky_flops(counts, args, kwargs, result):
    counts["numerics.cholesky.flops"] += result.shape[0] ** 3 / 3.0


def _idx_bytes(counts, args, kwargs, result):
    counts["data.load_idx.bytes"] += sum(Path(p).stat().st_size for p in args[:2])


def _checkpoint_bytes(counts, args, kwargs, result):
    counts["checkpoint.save_fnn.bytes"] += Path(args[1]).stat().st_size


def _clipped(counts, args, kwargs, result):
    if result is not None and result > args[1]:
        counts["trainutil.clip_gradients.clipped"] += 1


def trace_targets():
    """(owner, attribute, span name, counter) at each attribute a caller looks up."""
    Rng, Grid2D = qtnn.numerics.Rng, qtnn.wavepacket.Grid2D
    targets = [
        (qtnn.esn, "activate", "activation.activate", _esn_activate),
        (Rng, "__init__", "numerics.Rng.init", None),
        (Rng, "spawn", "numerics.Rng.spawn", None),
        (Rng, "normals", "numerics.Rng.draw", _draw_values),
        (Rng, "uniforms", "numerics.Rng.draw", _draw_values),
        (Rng, "permutation", "numerics.Rng.permutation", None),
        (qtnn.esn, "spectral_radius", "numerics.spectral_radius", None),
        (qtnn.numerics, "cholesky", "numerics.cholesky", _cholesky_flops),
        (qtnn.esn, "solve_spd", "numerics.solve_spd", None),
        (qtnn.wavepacket, "wp_init", "wavepacket.wp_init", None),
        (qtnn.wavepacket, "wp_step", "wavepacket.wp_step", None),
        (Grid2D, "norm", "wavepacket.Grid2D.norm", None),
        (qtnn.data, "load_idx", "data.load_idx", _idx_bytes),
        (qtnn.data, "mackey_glass", "data.mackey_glass", None),
        (qtnn.data, "load_sentiment", "data.load_sentiment", None),
        (qtnn.checkpoint, "save_fnn", "checkpoint.save_fnn", _checkpoint_bytes),
        (qtnn.checkpoint, "load_fnn", "checkpoint.load_fnn", None),
    ]
    for module in (qtnn.fnn, qtnn.bnn, qtnn.rnn):
        targets += [
            (module, "activate", "activation.activate", _elements),
            (module, "softmax_crossentropy", "activation.softmax_crossentropy", None),
            (module, "clip_gradients", "trainutil.clip_gradients", _clipped),
        ]
    for module, functions in (
        (qtnn.fnn, ("fnn_forward", "fnn_backward", "fnn_train", "fnn_evaluate")),
        (qtnn.bnn, ("bnn_train", "bnn_sample_forward", "bnn_predict", "bnn_evaluate")),
        (qtnn.rnn, ("rnn_train", "rnn_evaluate")),
        (qtnn.esn, ("esn_build", "esn_fit", "ridge_readout", "esn_free_run")),
    ):
        short = module.__name__.rpartition(".")[2]
        targets += [(module, fn, f"{short}.{fn}", None) for fn in functions]
    return targets


def layer_metrics(names, totals, counts, n_reps):
    """Per-repetition values of the metrics ``names`` from span totals and counts.

    A metric is named ``<layer>.<quantity>``; a layer the workload never
    calls reports 0.  ``totals`` maps a span name to (calls, self seconds) summed over
    ``n_reps`` traced repetitions.  ``trace.overhead_s`` stays 0 for the
    caller to fill in, since only the caller knows the untraced times.
    """
    values = {}
    for metric in names:
        layer, _, quantity = metric.rpartition(".")
        if metric in counts:
            values[metric] = counts[metric] / n_reps
        elif quantity == "calls":
            values[metric] = totals.get(layer, (0, 0.0))[0] / n_reps
        elif quantity == "self_s":
            values[metric] = totals.get(layer, (0, 0.0))[1] / n_reps
        else:
            values[metric] = 0.0
    elements = values["activation.activate.elements"]
    if elements:
        values["activation.activate.ns_per_element"] = (
            values["activation.activate.self_s"] / elements * 1e9)
    clip_calls = values["trainutil.clip_gradients.calls"]
    if clip_calls:
        values["trainutil.clip_gradients.clipped_fraction"] = (
            counts.get("trainutil.clip_gradients.clipped", 0.0) / n_reps / clip_calls)
    return values
