import copy
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import qtnn.fnn
from conftest import numeric_gradient
from qtnn.activation import Activation
from qtnn.bnn import bnn_init, bnn_train
from qtnn.checkpoint import load_fnn, save_fnn
from qtnn.data import FormatError, LabeledDataset, SentimentCorpus
from qtnn.fnn import _dense_step, fnn_backward, fnn_evaluate, fnn_forward, fnn_init, fnn_train
from qtnn.numerics import InputError, Rng, ShapeError
from qtnn.rnn import rnn_init, rnn_train
from qtnn.trainutil import TrainConfig, _ahead, clip_gradients, init_stream

ALL_KINDS = [
    Activation.qt(),
    Activation.qt(mode="absolute"),
    Activation.qt(mode="bipolar"),
    Activation.relu(),
    Activation.sigmoid(),
    Activation.tanh(),
    Activation.identity(),
]


def separable_toy_set(n=20, seed=0):
    """Two linearly separable clusters, 2 features, 2 classes."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x0 = rng.normal([-2.0, -2.0], 0.4, size=(half, 2))
    x1 = rng.normal([2.0, 2.0], 0.4, size=(half, 2))
    inputs = np.vstack([x0, x1])
    inputs = (inputs - inputs.min()) / (inputs.max() - inputs.min())
    return LabeledDataset(inputs, np.repeat([0, 1], [half, n - half]), ["neg", "pos"])


class TestForward:
    def test_zero_weights_uniform(self):
        model = fnn_init(4, 3, 10, Activation.relu(), Rng(0))
        model.w1[:] = 0.0
        model.w2[:] = 0.0
        probs, _, _, _ = fnn_forward(model, np.zeros((2, 4)))
        assert np.allclose(probs, 0.1)

    def test_hand_computed_logits(self):
        # 1 feature -> 1 hidden (identity) -> 2 classes: logits [6, 0]
        model = fnn_init(1, 1, 2, Activation.identity(), Rng(0))
        model.w1[:] = [[2.0]]
        model.w2[:] = [[1.0, 0.0]]
        model.b1[:] = 0.0
        model.b2[:] = 0.0
        probs, _, _, _ = fnn_forward(model, np.array([[3.0]]))
        e6 = np.exp(6.0)
        assert np.allclose(probs, [[e6 / (e6 + 1.0), 1.0 / (e6 + 1.0)]], rtol=1e-12)

    def test_feature_mismatch(self):
        model = fnn_init(4, 3, 2, Activation.relu(), Rng(0))
        with pytest.raises(ShapeError):
            fnn_forward(model, np.zeros((1, 5)))


class TestGradients:
    @staticmethod
    def _random_config(rng, kind):
        n_feat = int(rng.integers(2, 6))
        n_hidden = int(rng.integers(2, 5))
        n_classes = int(rng.integers(2, 4))
        batch = int(rng.integers(1, 5))
        model = fnn_init(n_feat, n_hidden, n_classes, kind, Rng(int(rng.integers(1 << 30))))
        x = rng.standard_normal((batch, n_feat))
        labels = rng.integers(0, n_classes, batch)
        onehot = np.eye(n_classes)[labels]
        return model, x, onehot

    def test_fd_agreement_50_configs_all_kinds(self):
        rng = np.random.default_rng(2024)
        checked = 0
        attempts = 0
        while checked < 50 and attempts < 500:
            attempts += 1
            kind = ALL_KINDS[checked % len(ALL_KINDS)]
            model, x, onehot = self._random_config(rng, kind)
            z1 = x @ model.w1 + model.b1
            if np.min(np.abs(z1)) < 1e-4:  # too close to a ReLU/QT kink for FD
                continue
            _, cache, _, dlogits = fnn_forward(model, x, onehot)
            analytic = fnn_backward(model, cache, dlogits)
            params = [model.w1, model.b1, model.w2, model.b2]

            def loss_fn():
                return fnn_forward(model, x, onehot)[2]

            numeric = numeric_gradient(loss_fn, params, h=1e-5)
            for a, n in zip(analytic, numeric):
                scale = max(np.abs(a).max(), np.abs(n).max(), 1e-4)
                assert np.abs(a - n).max() / scale < 1e-5
            checked += 1
        assert checked == 50


class TestTraining:
    def test_zero_lr_leaves_weights(self):
        data = separable_toy_set()
        model = fnn_init(2, 3, 2, Activation.relu(), init_stream(1))
        before = copy.deepcopy(model)
        fnn_train(model, data, TrainConfig(lr=0.0, epochs=3, batch_size=4, seed=1))
        assert np.array_equal(model.w1, before.w1)
        assert np.array_equal(model.w2, before.w2)

    def test_separable_identity_reaches_one(self):
        data = separable_toy_set()
        model = fnn_init(2, 3, 2, Activation.identity(), init_stream(2))
        trace = fnn_train(model, data, TrainConfig(lr=0.5, epochs=200, batch_size=5, seed=2))
        acc, _ = fnn_evaluate(model, data)
        assert acc == 1.0
        assert trace.epochs_run <= 200

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.label()[:24])
    def test_loss_decreases_every_kind(self, kind):
        data = separable_toy_set()
        model = fnn_init(2, 8, 2, kind, init_stream(3))
        trace = fnn_train(model, data, TrainConfig(lr=0.3, epochs=60, batch_size=5, seed=3))
        assert trace.train_loss[-1] < trace.train_loss[0]

    def test_determinism_same_seed(self):
        data = separable_toy_set()
        cfg = TrainConfig(lr=0.2, epochs=5, batch_size=4, seed=11)
        m1 = fnn_init(2, 4, 2, Activation.qt(), init_stream(cfg.seed))
        fnn_train(m1, data, cfg)
        m2 = fnn_init(2, 4, 2, Activation.qt(), init_stream(cfg.seed))
        fnn_train(m2, data, cfg)
        assert np.array_equal(m1.w1, m2.w1)
        assert np.array_equal(m1.w2, m2.w2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_with_location(self):
        from qtnn.trainutil import TrainingDiverged

        data = separable_toy_set()
        model = fnn_init(2, 4, 2, Activation.identity(), init_stream(6))
        with pytest.raises(TrainingDiverged) as err:
            fnn_train(model, data, TrainConfig(lr=1e160, epochs=5, batch_size=4,
                                               clip_norm=None, seed=6))
        assert err.value.epoch >= 0 and err.value.batch >= 0

        # an infinite w2 makes the very first loss NaN: the loss is checked
        # before the step, so every weight keeps its bytes from before training
        fnn = fnn_init(2, 4, 2, Activation.qt(), init_stream(6))
        bnn = bnn_init(2, 4, 2, Activation.qt(), init_stream(6), std_init=0.01)
        fnn.w2[:] = np.inf
        bnn.w2_mean[:] = np.inf
        bnn_names = ("w1_mean", "b1", "w2_mean", "b2")
        runs = [
            (fnn, ("w1", "b1", "w2", "b2"), fnn_train, 4, 5.0),
            (bnn, bnn_names, bnn_train, 1, None),  # the row-sparse W1 step
            (bnn, bnn_names, bnn_train, 1, 5.0),   # the dense clipped step
        ]
        for model, names, train, batch_size, clip_norm in runs:
            before = [getattr(model, name).tobytes() for name in names]
            cfg = TrainConfig(lr=0.1, epochs=2, batch_size=batch_size,
                              clip_norm=clip_norm, seed=6)
            with pytest.raises(TrainingDiverged) as err:
                train(model, data, cfg)
            assert (err.value.epoch, err.value.batch) == (0, 0)
            assert [getattr(model, name).tobytes() for name in names] == before

    def test_overflowed_weights_diverge_where_they_first_show(self):
        # a step of lr 1e308 overflows later logits, and the first non-finite value
        # is a training batch's loss: TrainingDiverged with no numpy warning.  The
        # huge pre-activations on the way take T = 1, dT/dE = 0, so they do not
        # turn the weights NaN first
        from test_bnn import fashion_width_set  # test_bnn imports this module
        from qtnn.trainutil import TrainingDiverged

        data = fashion_width_set(16)
        runs = [
            (fnn_train, fnn_init(784, 8, 10, Activation.qt(), init_stream(6)), 16, (2, 0)),
            (bnn_train, bnn_init(784, 8, 10, Activation.qt(), init_stream(6)), 1, (0, 2)),
        ]
        for train, model, batch_size, where in runs:
            cfg = TrainConfig(lr=1e308, epochs=3, batch_size=batch_size, seed=6)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(TrainingDiverged, match="^loss is NaN") as err:
                    train(model, data, cfg, eval_data=data)
            assert (err.value.epoch, err.value.batch) == where, train
            assert not caught, [str(w.message) for w in caught]

    def test_default_config_runs_in_every_trainer(self):
        # the default batch size is 1, the one that the BNN and RNN trainers accept
        data = separable_toy_set()
        corpus = SentimentCorpus([[1], [2]], [1, 0], {"up": 1, "down": 2})
        traces = [
            fnn_train(fnn_init(2, 4, 2, Activation.qt(), init_stream(0)), data, TrainConfig()),
            bnn_train(bnn_init(2, 4, 2, Activation.qt(), init_stream(0)), data, TrainConfig()),
            rnn_train(rnn_init(3, 4, 2, Activation.qt(), init_stream(0)), corpus,
                      TrainConfig(), train_frac=1.0)[0],
        ]
        assert [trace.epochs_run for trace in traces] == [TrainConfig().epochs] * 3

    def test_clip_bound(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal((4, 4)) * 100 for _ in range(3)]
        clip_gradients(grads, 5.0)
        post = np.sqrt(sum((g * g).sum() for g in grads))
        assert post <= 5.0 + 1e-12

    def test_clip_noop_below_threshold(self):
        grads = [np.full((2, 2), 0.1)]
        norm = clip_gradients(grads, 5.0)
        assert norm < 5.0
        assert np.all(grads[0] == 0.1)


def unscreened_clip(grads, clip_norm):
    """Oracle: the clip without its vdot screen (exact ordered fold, then the scale)."""
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > clip_norm:
        scale = clip_norm / norm
        for g in grads:
            g *= scale
    return norm


# the FNN's (w1, b1, w2, b2) at MNIST widths
FNN_SHAPES = ((784, 512), (1, 512), (512, 10), (1, 10))


def fnn_shaped(seed, norm=None):
    """Standard-normal arrays of FNN_SHAPES, scaled to the exact global ``norm``."""
    rng = np.random.default_rng(seed)
    arrays = [rng.standard_normal(shape) for shape in FNN_SHAPES]
    if norm is not None:
        scale = norm / np.sqrt(sum(float((a * a).sum()) for a in arrays))
        for a in arrays:
            a *= scale
    return arrays


class TestScreenedClip:
    CLIP = 5.0

    def check_against_oracle(self, grads):
        expected = [g.copy() for g in grads]
        ref = unscreened_clip(expected, self.CLIP)
        norm = clip_gradients(grads, self.CLIP)
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in expected]
        assert (norm > self.CLIP) == (ref > self.CLIP)
        if np.isfinite(ref):
            assert abs(norm - ref) <= 1e-12 * ref
        else:
            assert np.array_equal(norm, ref, equal_nan=True)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("ratio", [0.5, 1 - 1e-3, 1 - 2e-6, 1 - 1e-9, 1.0,
                                       1 + 1e-9, 1 + 1e-3, 2.0])
    def test_matches_unscreened_clip(self, seed, ratio):
        self.check_against_oracle(fnn_shaped(seed, ratio * self.CLIP))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("where", [0, 2])
    def test_non_finite_grads_take_the_exact_path(self, bad, where):
        grads = fnn_shaped(2, 0.5 * self.CLIP)
        grads[where][0, 3] = bad
        self.check_against_oracle(grads)


class TestDenseStep:
    def test_unclipped_step_makes_no_w1_sized_temporary(self):
        params, grads = fnn_shaped(3), fnn_shaped(4, 0.5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _dense_step(params, grads, TrainConfig(lr=0.01, clip_norm=5.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.5 * 2**20  # one 784x512 float64 temporary is 3.2 MB

    @pytest.mark.parametrize("lr", [0.01, 0.0])
    @pytest.mark.parametrize("norm", [0.5, 50.0], ids=["unclipped", "clipped"])
    def test_bit_equal_to_out_of_place_step(self, lr, norm):
        params, grads = fnn_shaped(5), fnn_shaped(6, norm)
        expected, ref_grads = [p.copy() for p in params], [g.copy() for g in grads]
        unscreened_clip(ref_grads, 5.0)
        for p, g in zip(expected, ref_grads):
            p -= lr * g
        _dense_step(params, grads, TrainConfig(lr=lr, clip_norm=5.0))
        assert [p.tobytes() for p in params] == [p.tobytes() for p in expected]


class TestEvaluate:
    def test_perfect_probs(self):
        data = separable_toy_set()
        model = fnn_init(2, 16, 2, Activation.tanh(), init_stream(4))
        fnn_train(model, data, TrainConfig(lr=0.5, epochs=300, batch_size=5, seed=4))
        acc, loss = fnn_evaluate(model, data)
        assert acc == 1.0
        assert loss < 0.1

    def test_uniform_probs_loss(self):
        model = fnn_init(3, 2, 4, Activation.relu(), Rng(0))
        model.w1[:] = 0.0
        model.w2[:] = 0.0
        data = LabeledDataset(np.random.default_rng(0).random((4, 3)), np.arange(4), list("abcd"))
        acc, loss = fnn_evaluate(model, data)
        assert loss == pytest.approx(np.log(4.0), rel=1e-12)

    def test_chance_level_random_model(self):
        rng = np.random.default_rng(8)
        inputs = rng.random((500, 10))
        labels = rng.integers(0, 10, 500)
        data = LabeledDataset(inputs, labels, [str(i) for i in range(10)])
        accs = []
        for seed in range(5):
            model = fnn_init(10, 8, 10, Activation.qt(), init_stream(seed))
            acc, _ = fnn_evaluate(model, data)
            accs.append(acc)
        assert abs(np.mean(accs) - 0.1) < 0.05


    def test_matches_forward_loop_bitwise(self):
        # fnn_evaluate skips dT/dE; its accuracy and loss must still equal a
        # loop over fnn_forward bit for bit
        rng = np.random.default_rng(12)
        n = 2500
        data = LabeledDataset(rng.random((n, 20)), rng.integers(0, 10, n),
                              [str(i) for i in range(10)])
        for act in ALL_KINDS:
            model = fnn_init(20, 48, 10, act, init_stream(6))
            correct, total = 0, 0.0
            for start in range(0, n, 1024):
                xb, yb = data.inputs[start:start + 1024], data.onehot(slice(start, start + 1024))
                probs, _, loss, _ = fnn_forward(model, xb, yb)
                correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
                total += loss * xb.shape[0]
            acc, loss = fnn_evaluate(model, data)
            assert acc.hex() == (correct / n).hex()
            assert loss.hex() == (total / n).hex()


def image_like_set(n, seed=0, features=20, classes=10):
    """uint8 codes scaled by 255, as IDX images are: ``rows`` divides on read."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, (n, features), dtype=np.uint8)
    return LabeledDataset(codes, rng.integers(0, classes, n),
                          [str(i) for i in range(classes)], scale=255.0)


def serial_evaluate(model, data, batch):
    """(accuracy, mean loss) from fnn_forward on each batch, folded in order."""
    n, correct, total = data.n_samples, 0, 0.0
    for start in range(0, n, batch):
        yb = data.onehot(slice(start, start + batch))
        probs, _, loss, _ = fnn_forward(model, data.rows(slice(start, start + batch)), yb)
        correct += int((probs.argmax(axis=1) == yb.argmax(axis=1)).sum())
        total += loss * yb.shape[0]
    return correct / n, total / n


class TestPipelinedEvaluate:
    """fnn_evaluate forms the next batch's z1 on a worker while the caller scores this one."""

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 35])
    @pytest.mark.parametrize("act", [Activation.qt(), Activation.relu()], ids=["qt", "relu"])
    def test_bit_equal_to_serial_batches(self, monkeypatch, n, act):
        monkeypatch.setattr(qtnn.fnn, "EVAL_BATCH", 16)
        data = image_like_set(n, seed=n)
        model = fnn_init(20, 24, 10, act, init_stream(n))
        assert fnn_evaluate(model, data) == serial_evaluate(model, data, 16)

    def test_bit_equal_at_the_default_batch(self):
        assert qtnn.fnn.EVAL_BATCH == 1024
        data = image_like_set(2 * 1024 + 3, seed=3)
        model = fnn_init(20, 32, 10, Activation.qt(), init_stream(3))
        assert fnn_evaluate(model, data) == serial_evaluate(model, data, 1024)

    def test_bit_equal_under_thread_switch_stress(self, monkeypatch):
        # four evaluations at once, eight threads on fewer cores, switching every microsecond
        monkeypatch.setattr(qtnn.fnn, "EVAL_BATCH", 16)
        data = image_like_set(35, seed=9)
        model = fnn_init(20, 24, 10, Activation.qt(), init_stream(9))
        expected = serial_evaluate(model, data, 16)
        results = []

        def evaluate():
            for _ in range(5):
                results.append(fnn_evaluate(model, data))

        evaluators = [threading.Thread(target=evaluate) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for evaluator in evaluators:
                evaluator.start()
            for evaluator in evaluators:
                evaluator.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(evaluator.is_alive() for evaluator in evaluators)
        assert results == [expected] * 20

    def test_only_the_first_layer_leaves_the_caller(self, monkeypatch):
        # perfbench traces activate and softmax_crossentropy: their spans stay on one thread
        monkeypatch.setattr(qtnn.fnn, "EVAL_BATCH", 16)
        calls = {"activate": [], "softmax_crossentropy": [], "first_layer": []}

        def on_thread(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

        for name in ("activate", "softmax_crossentropy"):
            monkeypatch.setattr(qtnn.fnn, name, on_thread(name, getattr(qtnn.fnn, name)))
        monkeypatch.setattr(qtnn.fnn, "_ahead",
                            lambda fn, jobs: _ahead(on_thread("first_layer", fn), jobs))
        calls["rows"] = []  # the batches are scaled on the caller
        monkeypatch.setattr(LabeledDataset, "rows", on_thread("rows", LabeledDataset.rows))
        model = fnn_init(20, 24, 10, Activation.qt(), init_stream(1))
        fnn_evaluate(model, image_like_set(35))
        caller = threading.current_thread()
        assert calls["activate"] == calls["softmax_crossentropy"] == calls["rows"] == [caller] * 3
        assert len(calls["first_layer"]) == 3 and caller not in calls["first_layer"]

    def test_nan_weight_raises_and_stops_the_worker(self, monkeypatch):
        # batch 1's z1 is in flight when batch 0's activation raises
        monkeypatch.setattr(qtnn.fnn, "EVAL_BATCH", 16)
        model = fnn_init(20, 24, 10, Activation.qt(), init_stream(2))
        model.w1[:, 5] = np.nan
        threads = threading.active_count()
        with pytest.raises(InputError, match="NaN"):
            fnn_evaluate(model, image_like_set(35))
        assert threading.active_count() == threads


class TestAhead:
    """trainutil._ahead: fn(job) in job order, one job ahead on one worker thread."""

    def test_results_in_order_with_one_job_ahead(self):
        pulled = []

        def jobs():
            for job in range(6):
                pulled.append(job)
                yield job

        for i, result in enumerate(_ahead(lambda job: job * job, jobs())):
            assert result == i * i
            assert len(pulled) <= i + 2
        assert list(_ahead(abs, iter(()))) == []

    def test_jobs_run_under_the_callers_errstate(self):
        # sgd_epochs silences overflow warnings for a scoring whose first layer runs here
        with np.errstate(over="ignore"):
            assert list(_ahead(lambda job: np.geterr()["over"], range(2))) == ["ignore"] * 2
        assert list(_ahead(lambda job: np.geterr()["over"], range(1))) == [np.geterr()["over"]]

    def test_job_error_is_raised_on_the_caller(self):
        boom = RuntimeError("job failed")

        def fail_at_two(job):
            if job == 2:
                raise boom
            return job

        threads, seen = threading.active_count(), []
        with pytest.raises(RuntimeError) as caught:
            for result in _ahead(fail_at_two, range(5)):
                seen.append(result)
        assert caught.value is boom and seen == [0, 1]
        assert threading.active_count() == threads

    def test_no_result_is_kept_past_its_yield(self):
        # fnn_evaluate allocates each batch as its job is made: by the time job
        # k + 2 is made, result k (which the consumer dropped) must be freed
        class Result:
            pass

        refs = []

        def make(job):
            result = Result()
            refs.append(weakref.ref(result))
            return result

        def jobs():
            for job in range(5):
                assert all(ref() is None for ref in refs[: max(0, job - 1)]), job
                yield job

        assert len(list(map(id, _ahead(make, jobs())))) == 5

    def test_close_stops_the_worker_and_the_jobs(self):
        pulled = []

        def jobs():
            for job in range(100):
                pulled.append(job)
                yield job

        threads = threading.active_count()
        results = _ahead(lambda job: job, jobs())
        assert next(results) == 0
        results.close()
        assert threading.active_count() == threads
        assert pulled == [0, 1]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = fnn_init(5, 4, 3, Activation.qt(ampl=2.5, mode="bipolar"), Rng(7))
        path = tmp_path / "model.qtnn"
        save_fnn(model, path)
        loaded = load_fnn(path)
        assert np.array_equal(loaded.w1, model.w1)
        assert np.array_equal(loaded.b2, model.b2)
        assert loaded.hidden_act == model.hidden_act

    def test_wrong_arch_rejected(self, tmp_path):
        from qtnn.data import FormatError

        model = fnn_init(2, 2, 2, Activation.relu(), Rng(0))
        path = tmp_path / "model.qtnn"
        save_fnn(model, path)
        from qtnn.checkpoint import load_rnn

        with pytest.raises(FormatError, match="fnn"):
            load_rnn(path)

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "model.qtnn"
        save_fnn(fnn_init(3, 2, 2, Activation.qt(), Rng(1)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_fnn(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "model.qtnn"
        save_fnn(fnn_init(3, 2, 2, Activation.relu(), Rng(1)), path)
        blob = bytearray(path.read_bytes())
        blob[9] = 0xFF  # first byte of the architecture tag, after magic, version, length
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="byte 9 is not UTF-8"):
            load_fnn(path)
