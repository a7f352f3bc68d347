import numpy as np
import pytest

from conftest import numeric_gradient
from qtnn.activation import Activation, activate, softmax_crossentropy
from qtnn.bnn import (
    _backward_means,
    _forward_with_weights,
    bnn_evaluate,
    bnn_init,
    bnn_predict,
    bnn_sample_forward,
    bnn_train,
)
from qtnn.checkpoint import load_bnn, save_bnn
from qtnn.data import FormatError, LabeledDataset
from qtnn.fnn import fnn_forward, fnn_init, fnn_train
from qtnn.numerics import Rng
from qtnn.trainutil import TrainConfig, init_stream, noise_stream, shuffle_stream
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
    onehot = np.eye(n_classes)[rng.integers(0, n_classes, n)]
    return LabeledDataset(inputs, onehot, [f"c{k}" for k in range(n_classes)])


def dense_batch1_train(model, data, cfg, literal):
    """bnn_train's batch-1, unclipped loop with the dense W1 step; returns the epoch losses."""
    rng_shuffle = shuffle_stream(cfg.seed)
    rng_noise = noise_stream(cfg.seed)
    w1_var = model.w1_std**2
    losses = []
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        for i in rng_shuffle.permutation(data.n_samples):
            xb = data.inputs[[i]]
            yb = data.labels_onehot[[i]]
            if literal:
                _, cache, _, loss, dlogits = bnn_sample_forward(model, xb, rng_noise, onehot=yb)
            else:
                noise_scale = np.sqrt((xb[0] ** 2) @ w1_var)
                z1 = xb @ model.w1_mean + model.b1
                z1 += noise_scale * rng_noise.normals(z1.shape[1])
                h, dh = activate(z1, model.hidden_act)
                eps2 = rng_noise.normals(model.w2_mean.size).reshape(model.w2_mean.shape)
                w2s = model.w2_mean + model.w2_std * eps2
                _, loss, dlogits = softmax_crossentropy(h @ w2s + model.b2, yb)
                cache = {"x": xb, "h": h, "dh": dh, "w2s": w2s}
            gw1, gb1, gw2, gb2 = _backward_means(model, cache, dlogits)
            model.w1_mean -= cfg.lr * gw1
            model.b1 -= cfg.lr * gb1
            model.w2_mean -= cfg.lr * gw2
            model.b2 -= cfg.lr * gb2
            epoch_loss += loss
        losses.append(epoch_loss / data.n_samples)
    return losses


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
            onehot = np.eye(2)[rng.integers(0, 2, 2)]
            eps1 = rng.standard_normal(model.w1_mean.shape)
            eps2 = rng.standard_normal(model.w2_mean.shape)
            w1s = model.w1_mean + model.w1_std * eps1
            w2s = model.w2_mean + model.w2_std * eps2
            if np.min(np.abs(x @ w1s + model.b1)) < 1e-4:
                continue
            _, cache, _, dlogits = _forward_with_weights(model, x, w1s, w2s, onehot)
            analytic = _backward_means(model, cache, dlogits)
            params = [w1s, model.b1, w2s, model.b2]

            def loss_fn():
                return _forward_with_weights(model, x, w1s, w2s, onehot)[2]

            numeric = numeric_gradient(loss_fn, params, h=1e-5)
            for a, n in zip(analytic, numeric):
                scale = max(np.abs(a).max(), np.abs(n).max(), 1e-4)
                assert np.abs(a - n).max() / scale < 1e-5


class TestTraining:
    def test_zero_lr_means_unchanged(self):
        data = separable_toy_set()
        model = bnn_init(2, 4, 2, Activation.relu(), init_stream(0), std_init=0.1)
        before = model.copy()
        bnn_train(model, data, TrainConfig(lr=0.0, epochs=2, batch_size=1, seed=0))
        assert np.array_equal(model.w1_mean, before.w1_mean)
        assert np.array_equal(model.w1_std, before.w1_std)

    def test_std_never_updated(self):
        data = separable_toy_set()
        model = bnn_init(2, 4, 2, Activation.qt(), init_stream(1), std_init=0.02)
        before_w1_std = model.w1_std.copy()
        bnn_train(model, data, TrainConfig(lr=0.3, epochs=3, batch_size=1, seed=1))
        assert np.array_equal(model.w1_std, before_w1_std)

    @pytest.mark.parametrize(
        "literal, batch_size, clip_norm",
        [(False, 1, 5.0), (True, 1, 5.0), (False, 4, 5.0), (False, 4, None)],
        ids=["fast-path", "literal", "batch4-clipped", "batch4-unclipped"],
    )
    def test_zero_std_trajectory_equals_fnn(self, literal, batch_size, clip_norm):
        data = separable_toy_set()
        cfg = TrainConfig(lr=0.2, epochs=4, batch_size=batch_size, clip_norm=clip_norm, seed=13)
        bmodel = bnn_init(2, 4, 2, Activation.qt(), init_stream(cfg.seed), std_init=0.0)
        btrace = bnn_train(bmodel, data, cfg, literal_sampling=literal)
        fmodel = fnn_init(2, 4, 2, Activation.qt(), init_stream(cfg.seed))
        ftrace = fnn_train(fmodel, data, cfg)
        assert np.array_equal(bmodel.w1_mean, fmodel.w1)
        assert np.array_equal(bmodel.w2_mean, fmodel.w2)
        assert np.array_equal(bmodel.b1, fmodel.b1)
        assert btrace.train_loss == ftrace.train_loss

    @pytest.mark.parametrize("literal", [False, True], ids=["fast-path", "literal"])
    def test_zero_std_sparse_step_equals_fnn(self, literal):
        data = zero_rich_set()
        cfg = TrainConfig(lr=0.3, epochs=3, batch_size=1, clip_norm=None, seed=17)
        bmodel = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=0.0)
        btrace = bnn_train(bmodel, data, cfg, literal_sampling=literal)
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
    @pytest.mark.parametrize("literal", [False, True], ids=["fast-path", "literal"])
    def test_bit_equal_to_dense_step(self, literal, std):
        data = zero_rich_set()
        assert (data.inputs == 0.0).mean(axis=1).min() >= 0.5
        assert not data.inputs[-1].any()
        cfg = TrainConfig(lr=0.3, epochs=3, batch_size=1, clip_norm=None, seed=29)
        model = bnn_init(12, 6, 3, Activation.qt(), init_stream(cfg.seed), std_init=std)
        ref = model.copy()
        trace = bnn_train(model, data, cfg, literal_sampling=literal)
        ref_losses = dense_batch1_train(ref, data, cfg, literal)
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
