import copy
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import qtnn.bnn
from conftest import numeric_gradient
from qtnn.activation import Activation, activate, softmax_crossentropy
from qtnn.bnn import (
    _forward_with_weights,
    bnn_evaluate,
    bnn_init,
    bnn_predict,
    bnn_sample_forward,
    bnn_train,
)
from qtnn.checkpoint import load_bnn, save_bnn
from qtnn.data import FormatError, LabeledDataset
from qtnn.fnn import (
    _backward_hidden, _dense_forward, _dense_step, fnn_backward, fnn_forward, fnn_init, fnn_train,
)
from qtnn.numerics import InputError, Rng, ShapeError
from qtnn.trainutil import (
    TrainConfig, TrainingDiverged, TrainingTrace, init_stream, noise_stream, sgd_epochs,
    shuffle_stream,
)
from test_fnn import separable_toy_set


def small_model(std=0.0, seed=0, kind=None):
    return bnn_init(4, 5, 3, kind or Activation.relu(), init_stream(seed), std_init=std)


def zero_rich_set(n=30, n_features=12, n_classes=3, seed=0):
    """Rows with at least half their features exactly zero; the last row is all zero."""
    rng = np.random.default_rng(seed)
    inputs = np.zeros((n, n_features))
    for row in inputs[:-1]:
        live = rng.choice(n_features, rng.integers(1, n_features // 2 + 1), replace=False)
        row[live] = rng.uniform(0.05, 1.0, live.size)
    labels = rng.integers(0, n_classes, n)
    return LabeledDataset(inputs, labels, [f"c{k}" for k in range(n_classes)])


def dense_batch1_train(model, data, cfg):
    """bnn_train's batch-1, unclipped loop with the dense W1 step; returns the epoch losses."""
    rng_shuffle = shuffle_stream(cfg.seed)
    rng_noise = noise_stream(cfg.seed)
    w1_var = model.w1_std**2
    losses = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for i in rng_shuffle.permutation(data.n_samples):
            xb = data.inputs[[i]]
            yb = data.labels[[i]]
            noise_scale = np.sqrt((xb[0] ** 2) @ w1_var)
            z1 = xb @ model.w1_mean + model.b1
            z1 += noise_scale * rng_noise.normals(z1.shape[1])
            h, dh = activate(z1, model.hidden_act)
            eps2 = rng_noise.normals(model.w2_mean.size).reshape(model.w2_mean.shape)
            w2s = model.w2_mean + model.w2_std * eps2
            _, loss, dlogits = softmax_crossentropy(h @ w2s + model.b2, yb)
            cache = {"x": xb, "h": h, "dh": dh, "w2s": w2s}
            gw1, gb1, gw2, gb2 = fnn_backward(model, cache, dlogits)
            model.w1_mean -= cfg.lr * gw1
            model.b1 -= cfg.lr * gb1
            model.w2_mean -= cfg.lr * gw2
            model.b2 -= cfg.lr * gb2
            epoch_loss += loss
        losses.append(epoch_loss / data.n_samples)
    return losses


def serial_bnn_train(model, data, cfg):
    """bnn_train with each row's noise drawn inline on the calling thread; returns the trace.

    The forward pass and the step are the ones bnn_train ran before its noise
    was drawn ahead on a worker: the draw-ahead must reproduce them bit for bit.
    """
    rng_noise = noise_stream(cfg.seed)
    w1_var = model.w1_std**2
    params = (model.w1_mean, model.b1, model.w2_mean, model.b2)

    def forward(idx):
        xb, yb = data.rows(idx), data.labels[idx]
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
        nz = np.flatnonzero(x)
        model.w1_mean[nz] -= cfg.lr * (x[nz, None] * dhidden)
        for p, g in zip(params[1:], rest):
            p -= cfg.lr * g

    trace = TrainingTrace()
    for _, loss, acc, _ in sgd_epochs(data.labels, cfg, forward, update):
        trace.record(loss, acc)
    return trace


def fashion_width_set(n, seed=0):
    """n rows of 784 uint8 codes, about 19% non-zero as in MNIST-layout images."""
    rng = np.random.default_rng(seed)
    codes = (rng.random((n, 784)) < 0.19) * rng.integers(1, 256, (n, 784))
    labels = rng.integers(0, 10, n)
    return LabeledDataset(codes.astype(np.uint8), labels, [str(k) for k in range(10)], 255.0)


class TestSampleForward:
    def test_zero_std_matches_fnn(self):
        for kind in (Activation.relu(), Activation.qt()):
            bmodel = bnn_init(4, 5, 3, kind, init_stream(7), std_init=0.0)
            fmodel = fnn_init(4, 5, 3, kind, init_stream(7))
            x = np.random.default_rng(0).random((6, 4))
            bp, _, sampled, _, _ = bnn_sample_forward(bmodel, x, Rng(123))
            fp, _, _, _ = fnn_forward(fmodel, x)
            assert np.array_equal(bp, fp)
            assert np.array_equal(sampled[0], fmodel.w1)

    def test_zero_everything_uniform(self):
        model = small_model(std=0.0)
        model.w1_mean[:] = 0.0
        model.w2_mean[:] = 0.0
        probs, _, _, _, _ = bnn_sample_forward(model, np.ones((2, 4)), Rng(0))
        assert np.allclose(probs, 1.0 / 3.0)

    def test_rng_state_controls_draws(self):
        model = small_model(std=0.1)
        x = np.ones((1, 4))
        p1, _, _, _, _ = bnn_sample_forward(model, x, Rng(5))
        p2, _, _, _, _ = bnn_sample_forward(model, x, Rng(5))
        assert np.array_equal(p1, p2)
        r = Rng(5)
        q1, _, _, _, _ = bnn_sample_forward(model, x, r)
        q2, _, _, _, _ = bnn_sample_forward(model, x, r)  # advanced state
        assert not np.array_equal(q1, q2)


class TestPredict:
    def test_zero_std_independent_of_sample_count(self):
        model = small_model(std=0.0)
        x = np.random.default_rng(1).random((3, 4))
        model.n_samples = 1
        one = bnn_predict(model, x, Rng(9))
        model.n_samples = 17
        many = bnn_predict(model, x, Rng(3))
        single, _, _, _, _ = bnn_sample_forward(model, x, Rng(2))
        assert np.allclose(one, single, atol=1e-15)
        assert np.allclose(many, single, atol=1e-15)

    def test_single_sample_equals_sample_forward(self):
        model = small_model(std=0.05)
        model.n_samples = 1
        x = np.ones((2, 4))
        pred = bnn_predict(model, x, Rng(31))
        direct, _, _, _, _ = bnn_sample_forward(model, x, Rng(31).spawn(0))
        assert np.array_equal(pred, direct)

    def test_input_checked_once_per_call(self, monkeypatch):
        import qtnn.bnn

        model = small_model(std=0.05)
        model.n_samples = 6
        x = np.random.default_rng(3).random((5, 4))
        calls = []
        check = qtnn.bnn._check_input
        monkeypatch.setattr(qtnn.bnn, "_check_input", lambda *a: calls.append(1) or check(*a))
        pred = bnn_predict(model, x, Rng(8))
        assert len(calls) == 1
        # the same average as six checked draws from the per-draw child streams
        draws = [bnn_sample_forward(model, x, Rng(8).spawn(i))[0] for i in range(6)]
        assert pred.tobytes() == (sum(draws, 0.0) / 6).tobytes()
        x[1, 2] = np.nan
        with pytest.raises(InputError, match="NaN"):
            bnn_predict(model, x, Rng(8))
        with pytest.raises(ShapeError):
            bnn_predict(model, np.ones((2, 3)), Rng(8))

    def test_worker_draw_error_surfaces_and_no_thread_is_left(self, monkeypatch):
        model = small_model(std=0.05)
        model.n_samples = 4
        x = np.ones((2, 4))
        threads = threading.active_count()
        bnn_predict(model, x, Rng(5))
        assert threading.active_count() == threads
        boom = RuntimeError("draw failed")
        normals, calls = Rng.normals, []

        def third_call_fails(rng, count):
            calls.append(count)
            if len(calls) == 3:  # eps_1 of draw 1, drawn ahead on the worker
                raise boom
            return normals(rng, count)

        monkeypatch.setattr(Rng, "normals", third_call_fails)
        with pytest.raises(RuntimeError) as caught:
            bnn_predict(model, x, Rng(5))
        assert caught.value is boom
        assert len(calls) == 3
        assert threading.active_count() == threads

    def test_draw_ahead_holds_one_extra_w1(self):
        model = bnn_init(784, 512, 10, Activation.qt(), init_stream(2), std_init=0.01, n_samples=4)
        x = np.random.default_rng(4).random((64, 784))

        def traced_peak(fn):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                fn()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        root = Rng(6)  # made before either window: only child streams are counted
        one_draw = traced_peak(lambda: bnn_sample_forward(model, x, root.spawn(0)))
        predict = traced_peak(lambda: bnn_predict(model, x, root))
        assert predict < one_draw + model.w1_mean.nbytes + 0.5 * 2**20

    def test_rows_sum_to_one(self):
        model = small_model(std=0.2)
        x = np.random.default_rng(2).random((8, 4))
        pred = bnn_predict(model, x, Rng(4))
        assert np.max(np.abs(pred.sum(axis=1) - 1.0)) < 1e-12

    def test_variance_zero_iff_std_zero(self):
        x = np.random.default_rng(3).random((1, 4))
        model = small_model(std=0.0)
        outs = [bnn_predict(model, x, Rng(trial)) for trial in range(10)]
        for out in outs[1:]:  # bit-identical: no randomness reaches the output
            assert np.array_equal(out, outs[0])
        model = small_model(std=0.1)
        outs = np.array([bnn_predict(model, x, Rng(trial)) for trial in range(10)])
        assert outs.std(axis=0).max() > 1e-4


class TestGradients:
    def test_frozen_eps_mean_gradients(self):
        rng = np.random.default_rng(77)
        for trial in range(8):
            kind = [Activation.relu(), Activation.qt(), Activation.tanh(), Activation.sigmoid()][trial % 4]
            model = bnn_init(3, 4, 2, kind, init_stream(trial), std_init=0.05)
            x = rng.standard_normal((2, 3))
            labels = rng.integers(0, 2, 2)
            eps1 = rng.standard_normal(model.w1_mean.shape)
            eps2 = rng.standard_normal(model.w2_mean.shape)
            w1s = model.w1_mean + model.w1_std * eps1
            w2s = model.w2_mean + model.w2_std * eps2
            if np.min(np.abs(x @ w1s + model.b1)) < 1e-4:
                continue
            _, cache, _, dlogits = _forward_with_weights(model, x, w1s, w2s, labels)
            analytic = fnn_backward(model, cache, dlogits)
            params = [w1s, model.b1, w2s, model.b2]

            def loss_fn():
                return _forward_with_weights(model, x, w1s, w2s, labels)[2]

            numeric = numeric_gradient(loss_fn, params, h=1e-5)
            for a, n in zip(analytic, numeric):
                scale = max(np.abs(a).max(), np.abs(n).max(), 1e-4)
                assert np.abs(a - n).max() / scale < 1e-5


class TestTraining:
    def test_zero_lr_means_unchanged(self):
        data = separable_toy_set()
        model = bnn_init(2, 4, 2, Activation.relu(), init_stream(0), std_init=0.1)
        before = copy.deepcopy(model)
        bnn_train(model, data, TrainConfig(lr=0.0, epochs=2, batch_size=1, seed=0))
        assert np.array_equal(model.w1_mean, before.w1_mean)
        assert np.array_equal(model.w1_std, before.w1_std)

    def test_std_never_updated(self):
        data = separable_toy_set()
        model = bnn_init(2, 4, 2, Activation.qt(), init_stream(1), std_init=0.02)
        before_w1_std = model.w1_std.copy()
        bnn_train(model, data, TrainConfig(lr=0.3, epochs=3, batch_size=1, seed=1))
        assert np.array_equal(model.w1_std, before_w1_std)

    @pytest.mark.parametrize("batch_size, clip_norm", [(1, 5.0)], ids=["fast-path"])
    def test_zero_std_trajectory_equals_fnn(self, batch_size, clip_norm):
        data = separable_toy_set()
        cfg = TrainConfig(lr=0.2, epochs=4, batch_size=batch_size, clip_norm=clip_norm, seed=13)
        bmodel = bnn_init(2, 4, 2, Activation.qt(), init_stream(cfg.seed), std_init=0.0)
        btrace = bnn_train(bmodel, data, cfg)
        fmodel = fnn_init(2, 4, 2, Activation.qt(), init_stream(cfg.seed))
        ftrace = fnn_train(fmodel, data, cfg)
        assert np.array_equal(bmodel.w1_mean, fmodel.w1)
        assert np.array_equal(bmodel.w2_mean, fmodel.w2)
        assert np.array_equal(bmodel.b1, fmodel.b1)
        assert btrace.train_loss == ftrace.train_loss

    def test_batch_size_above_one_rejected(self):
        data = separable_toy_set()
        model = bnn_init(2, 4, 2, Activation.qt(), init_stream(0), std_init=0.01)
        names = ("w1_mean", "w1_std", "b1", "w2_mean", "w2_std", "b2")
        before = [getattr(model, name).tobytes() for name in names]
        cfg = TrainConfig(lr=0.2, epochs=1, batch_size=4, clip_norm=None, seed=0)
        with pytest.raises(InputError, match="batch_size must be 1, got 4"):
            bnn_train(model, data, cfg)
        assert [getattr(model, name).tobytes() for name in names] == before

    def test_zero_std_sparse_step_equals_fnn(self):
        data = zero_rich_set()
        cfg = TrainConfig(lr=0.3, epochs=3, batch_size=1, clip_norm=None, seed=17)
        bmodel = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=0.0)
        btrace = bnn_train(bmodel, data, cfg)
        fmodel = fnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed))
        ftrace = fnn_train(fmodel, data, cfg)
        assert np.array_equal(bmodel.w1_mean, fmodel.w1)
        assert np.array_equal(bmodel.w2_mean, fmodel.w2)
        assert np.array_equal(bmodel.b1, fmodel.b1)
        assert np.array_equal(bmodel.b2, fmodel.b2)
        assert btrace.train_loss == ftrace.train_loss

    def test_fast_path_noise_distribution_matches_literal(self):
        # layer-1 noise: Var(z1_j) must equal (x^2) @ (std^2) per unit
        rng = np.random.default_rng(0)
        model = bnn_init(6, 5, 2, Activation.identity(), init_stream(3), std_init=0.0)
        model.w1_std[:] = rng.random(model.w1_std.shape) * 0.5
        x = rng.random((1, 6))
        expected_var = (x[0] ** 2) @ (model.w1_std**2)
        draws = 4000
        noise = Rng(8)
        lit = np.empty((draws, 5))
        for i in range(draws):
            eps = noise.normals(model.w1_mean.size).reshape(model.w1_mean.shape)
            lit[i] = x @ (model.w1_std * eps)
        fast = np.empty((draws, 5))
        scale = np.sqrt(expected_var)
        noise2 = Rng(9)
        for i in range(draws):
            fast[i] = scale * noise2.normals(5)
        for observed in (lit, fast):
            assert np.abs(observed.mean(axis=0)).max() < 0.05
            assert np.max(np.abs(observed.var(axis=0) - expected_var) / expected_var) < 0.15

    def test_determinism(self):
        data = separable_toy_set()
        cfg = TrainConfig(lr=0.2, epochs=2, batch_size=1, seed=21)
        models = []
        for _ in range(2):
            m = bnn_init(2, 4, 2, Activation.relu(), init_stream(cfg.seed), std_init=0.05)
            bnn_train(m, data, cfg)
            models.append(m)
        assert np.array_equal(models[0].w1_mean, models[1].w1_mean)

    def test_learns_toy_set(self):
        data = separable_toy_set()
        model = bnn_init(2, 8, 2, Activation.qt(), init_stream(5), std_init=0.01, n_samples=10)
        trace = bnn_train(model, data, TrainConfig(lr=0.3, epochs=40, batch_size=1, seed=5))
        acc, _ = bnn_evaluate(model, data, Rng(0))
        assert trace.train_loss[-1] < trace.train_loss[0]
        assert acc >= 0.9


class TestSparseStepOracle:
    @pytest.mark.parametrize("std", [0.0, 0.01])
    def test_bit_equal_to_dense_step(self, std):
        data = zero_rich_set()
        assert (data.inputs == 0.0).mean(axis=1).min() >= 0.5
        assert not data.inputs[-1].any()
        cfg = TrainConfig(lr=0.3, epochs=3, batch_size=1, clip_norm=None, seed=29)
        model = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=std)
        ref = copy.deepcopy(model)
        trace = bnn_train(model, data, cfg)
        ref_losses = dense_batch1_train(ref, data, cfg)
        for name in ("w1_mean", "b1", "w2_mean", "b2"):
            assert getattr(model, name).tobytes() == getattr(ref, name).tobytes(), name
        assert trace.train_loss == ref_losses


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = bnn_init(3, 4, 2, Activation.qt(ampl=1.5), Rng(0), std_init=0.07, n_samples=23)
        path = tmp_path / "bnn.qtnn"
        save_bnn(model, path)
        loaded = load_bnn(path)
        assert np.array_equal(loaded.w1_mean, model.w1_mean)
        assert np.array_equal(loaded.w2_std, model.w2_std)
        assert loaded.n_samples == 23
        assert loaded.hidden_act == model.hidden_act

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "bnn.qtnn"
        save_bnn(bnn_init(3, 4, 2, Activation.qt(), Rng(0), std_init=0.07), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_bnn(path)


class TestTrainingDrawAhead:
    """bnn_train draws each row's noise a chunk of rows ahead on a worker thread."""

    ROW_DOUBLES = 6 + 6 * 3  # layer-1 noise and eps_2 of one row of the 12-6-3 model

    @pytest.mark.parametrize("chunk_rows", [None, 7], ids=["1MiB-chunks", "7-row-chunks"])
    @pytest.mark.parametrize("clip_norm", [None, 0.5], ids=["unclipped", "clipped"])
    @pytest.mark.parametrize("std", [0.0, 0.05], ids=["zero-std", "std"])
    def test_equals_serial_inline_draws(self, monkeypatch, std, clip_norm, chunk_rows):
        # 7-row chunks over 2 x 30 rows: a chunk straddles the epoch boundary
        if chunk_rows:
            monkeypatch.setattr(qtnn.bnn, "_CHUNK", chunk_rows * self.ROW_DOUBLES)
        data = zero_rich_set()
        cfg = TrainConfig(lr=0.3, epochs=2, batch_size=1, clip_norm=clip_norm, seed=11)
        model = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=std)
        ref = copy.deepcopy(model)
        trace = bnn_train(model, data, cfg)
        ref_trace = serial_bnn_train(ref, data, cfg)
        assert trace.train_loss == ref_trace.train_loss
        assert trace.train_accuracy == ref_trace.train_accuracy
        for name in ("w1_mean", "b1", "w2_mean", "b2"):
            assert getattr(model, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_bit_equal_under_thread_switch_stress(self, monkeypatch):
        # four trainings at once, eight threads on fewer cores, switching every microsecond
        monkeypatch.setattr(qtnn.bnn, "_CHUNK", 7 * self.ROW_DOUBLES)
        data = zero_rich_set()
        cfg = TrainConfig(lr=0.3, epochs=2, batch_size=1, clip_norm=None, seed=23)
        ref = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=0.05)
        models = [copy.deepcopy(ref) for _ in range(4)]
        serial_bnn_train(ref, data, cfg)
        trainers = [threading.Thread(target=bnn_train, args=(m, data, cfg)) for m in models]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trainer in trainers:
                trainer.start()
            for trainer in trainers:
                trainer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(trainer.is_alive() for trainer in trainers)
        for model in models:
            for name in ("w1_mean", "b1", "w2_mean", "b2"):
                assert getattr(model, name).tobytes() == getattr(ref, name).tobytes(), name

    def test_draws_exactly_the_visited_rows_in_order(self, monkeypatch):
        monkeypatch.setattr(qtnn.bnn, "_CHUNK", 7 * self.ROW_DOUBLES)
        data = zero_rich_set()
        cfg = TrainConfig(lr=0.3, epochs=3, batch_size=1, clip_norm=None, seed=5)
        model = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=0.05)
        noise_seed, sizes, normals = noise_stream(cfg.seed).seed, [], Rng.normals

        def counting(rng, count):
            if rng.seed == noise_seed:
                sizes.append(count)
            return normals(rng, count)

        monkeypatch.setattr(Rng, "normals", counting)
        bnn_train(model, data, cfg)
        assert sizes == [6, 18] * (cfg.epochs * data.n_samples)

    def test_no_thread_left_after_return_divergence_or_draw_error(self, monkeypatch):
        monkeypatch.setattr(qtnn.bnn, "_CHUNK", 7 * self.ROW_DOUBLES)
        data = zero_rich_set()
        cfg = TrainConfig(lr=0.3, epochs=2, batch_size=1, clip_norm=None, seed=5)
        model = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=0.05)
        threads = threading.active_count()
        bnn_train(copy.deepcopy(model), data, cfg)
        assert threading.active_count() == threads

        forward, rows = qtnn.bnn._dense_forward, []

        def nan_loss_at_row_40(*args, **kwargs):
            probs, cache, loss, dlogits = forward(*args, **kwargs)
            rows.append(loss)
            return probs, cache, (np.nan if len(rows) == 41 else loss), dlogits

        with monkeypatch.context() as patch:
            patch.setattr(qtnn.bnn, "_dense_forward", nan_loss_at_row_40)
            with pytest.raises(TrainingDiverged) as diverged:
                bnn_train(copy.deepcopy(model), data, cfg)
        assert (diverged.value.epoch, diverged.value.batch) == (1, 10)
        assert threading.active_count() == threads

        boom = RuntimeError("draw failed")
        normals, calls = Rng.normals, []

        def fails_in_third_chunk(rng, count):
            calls.append(count)
            if len(calls) == 2 * 14 + 1:  # layer-1 noise of row 14, drawn on the worker
                raise boom
            return normals(rng, count)

        monkeypatch.setattr(Rng, "normals", fails_in_third_chunk)
        with pytest.raises(RuntimeError) as caught:
            bnn_train(copy.deepcopy(model), data, cfg)
        assert caught.value is boom
        assert len(calls) == 2 * 14 + 1
        assert threading.active_count() == threads

    def test_noise_in_flight_is_two_chunks_at_most(self):
        # the chunk in hand and the one drawn ahead; the serial loop holds one row
        data = fashion_width_set(70)  # chunks of 23, 23, 23 and 1 rows
        cfg = TrainConfig(lr=0.5, epochs=1, batch_size=1, clip_norm=None, seed=3)
        row_doubles = 512 + 512 * 10
        chunk_rows = qtnn.bnn._CHUNK // row_doubles
        assert chunk_rows == 23

        def traced_peak(train):
            model = bnn_init(784, 512, 10, Activation.qt(), init_stream(cfg.seed), std_init=0.01)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                train(model, data, cfg)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        serial = traced_peak(serial_bnn_train)
        ahead = traced_peak(bnn_train)
        assert ahead < serial + 2 * chunk_rows * row_doubles * 8 + 0.25 * 2**20
