import numpy as np
import pytest

import qtnn.rnn
from conftest import numeric_gradient
from qtnn.activation import Activation, activate, softmax, softmax_crossentropy
from qtnn.checkpoint import load_rnn, save_rnn
from qtnn.data import FormatError, SentimentCorpus, bundled_sentiment_path, load_sentiment
from qtnn.numerics import InputError, Rng
from qtnn.rnn import _backward, _unroll, rnn_evaluate, rnn_forward, rnn_init, rnn_train
from qtnn.trainutil import TrainConfig, init_stream


def two_phrase_corpus():
    return SentimentCorpus([[1], [2]], [1, 0], {"up": 1, "down": 2})


class TestForward:
    def test_zero_weights_uniform(self):
        for kind in (Activation.tanh(), Activation.qt()):
            model = rnn_init(5, 4, 2, kind, Rng(0))
            model.embed[:] = 0.0
            model.wx[:] = 0.0
            model.wh[:] = 0.0
            model.wy[:] = 0.0
            probs, states = rnn_forward(model, [1, 2, 3])
            assert np.allclose(probs, 0.5)
            assert np.all(states == 0.0)

    def test_single_token_reduces_to_feedforward(self):
        model = rnn_init(6, 4, 3, Activation.tanh(), Rng(1))
        token = 2
        probs, states = rnn_forward(model, [token])
        z = model.embed[token] @ model.wx + model.bh[0]  # h0 = 0 kills wh
        h, _ = activate(z, model.hidden_act)
        expected = softmax(h @ model.wy + model.by[0])
        assert np.allclose(probs, expected)
        assert np.allclose(states[-1], h)

    def test_empty_sequence_rejected(self):
        model = rnn_init(4, 3, 2, Activation.tanh(), Rng(0))
        with pytest.raises(InputError):
            rnn_forward(model, [])

    def test_out_of_vocab_rejected(self):
        model = rnn_init(4, 3, 2, Activation.tanh(), Rng(0))
        with pytest.raises(InputError):
            rnn_forward(model, [4])


class TestBpttGradients:
    @pytest.mark.parametrize("kind", [Activation.tanh(), Activation.qt(), Activation.qt(mode="bipolar")],
                             ids=["tanh", "qt", "qt-bipolar"])
    def test_fd_agreement(self, kind):
        rng = np.random.default_rng(5)
        checked = 0
        attempts = 0
        while checked < 6 and attempts < 60:
            attempts += 1
            seq = rng.integers(0, 6, int(rng.integers(1, 6))).tolist()
            label = int(rng.integers(0, 2))
            model = rnn_init(6, int(rng.integers(2, 5)), 2, kind, Rng(int(rng.integers(1 << 30))), n_embed=3)
            states, dacts, logits = _unroll(model, np.asarray(seq)[None])
            # keep FD clear of activation kinks
            pre_ok = True
            h = np.zeros(model.n_hidden)
            for t, tok in enumerate(seq):
                z = model.embed[tok] @ model.wx + h @ model.wh + model.bh[0]
                if np.min(np.abs(z)) < 1e-3:
                    pre_ok = False
                    break
                h = activate(z, kind)[0]
            if not pre_ok:
                continue
            onehot = np.zeros((1, 2))
            onehot[0, label] = 1.0
            _, _, dlogits = softmax_crossentropy(logits, onehot)
            analytic = _backward(model, np.asarray(seq), states[:, 0], dacts[:, 0], dlogits[0])
            params = [model.wx, model.wh, model.bh, model.wy, model.by, model.embed]

            def loss_fn():
                _, _, lg = _unroll(model, np.asarray(seq)[None])
                return softmax_crossentropy(lg, onehot)[1]

            numeric = numeric_gradient(loss_fn, params, h=1e-5)
            names = ["wx", "wh", "bh", "wy", "by", "embed"]
            analytic = [analytic[0], analytic[1], analytic[2][None, :] * 0 + analytic[2],
                        analytic[3], analytic[4][None, :] * 0 + analytic[4], analytic[5]]
            for name, a, n in zip(names, analytic, numeric):
                a = np.asarray(a).reshape(np.asarray(n).shape)
                scale = max(np.abs(a).max(), np.abs(n).max(), 1e-4)
                assert np.abs(a - n).max() / scale < 1e-5, name
            checked += 1
        assert checked == 6


class TestTraining:
    def test_zero_lr_unchanged(self):
        model = rnn_init(3, 4, 2, Activation.tanh(), init_stream(0))
        before = model.copy()
        rnn_train(model, two_phrase_corpus(), TrainConfig(lr=0.0, epochs=3, batch_size=1, seed=0),
                  train_frac=1.0)
        assert np.array_equal(model.wx, before.wx)
        assert np.array_equal(model.embed, before.embed)

    def test_two_phrase_corpus_separates(self):
        model = rnn_init(3, 2, 2, Activation.tanh(), init_stream(1), n_embed=1)
        cfg = TrainConfig(lr=0.1, epochs=500, batch_size=1, clip_norm=5.0, seed=1)
        trace, train_set, _ = rnn_train(model, two_phrase_corpus(), cfg, train_frac=1.0,
                                        stop_train_loss=1e-3)
        acc, _ = rnn_evaluate(model, train_set)
        assert acc == 1.0
        assert trace.epochs_run <= 500

    def test_bundled_corpus_full_train_reaches_corpus_accuracy(self):
        corpus = load_sentiment(bundled_sentiment_path())
        cfg = TrainConfig(lr=0.05, epochs=200, batch_size=1, clip_norm=5.0, seed=42)
        model = rnn_init(corpus.vocab_size, 32, 2, Activation.qt(ampl=5.0),
                         init_stream(cfg.seed), n_embed=16)
        rnn_train(model, corpus, cfg, train_frac=1.0, stop_train_loss=0.01)
        acc, loss = rnn_evaluate(model, corpus)
        assert acc == 1.0
        assert loss < 0.01

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts(self):
        from qtnn.trainutil import TrainingDiverged

        model = rnn_init(3, 4, 2, Activation.identity(), init_stream(2))
        cfg = TrainConfig(lr=1e160, epochs=5, batch_size=1, clip_norm=None, seed=2)
        with pytest.raises(TrainingDiverged):
            rnn_train(model, two_phrase_corpus(), cfg, train_frac=1.0)

        # an infinite wy makes the very first loss NaN: the loss is checked
        # before the step, so every array keeps its bytes from before training
        names = ("embed", "wx", "wh", "bh", "wy", "by")
        for clip_norm in (5.0, None):
            model = rnn_init(3, 4, 2, Activation.qt(), init_stream(2))
            model.wy[:] = np.inf
            before = [getattr(model, name).tobytes() for name in names]
            cfg = TrainConfig(lr=0.1, epochs=2, batch_size=1, clip_norm=clip_norm, seed=2)
            with pytest.raises(TrainingDiverged) as err:
                rnn_train(model, two_phrase_corpus(), cfg, train_frac=1.0)
            assert (err.value.epoch, err.value.batch) == (0, 0)
            assert [getattr(model, name).tobytes() for name in names] == before

    def test_determinism(self):
        corpus = load_sentiment(bundled_sentiment_path())
        cfg = TrainConfig(lr=0.05, epochs=2, batch_size=1, clip_norm=5.0, seed=9)
        m1 = rnn_init(corpus.vocab_size, 8, 2, Activation.qt(), init_stream(cfg.seed))
        rnn_train(m1, corpus, cfg)
        m2 = rnn_init(corpus.vocab_size, 8, 2, Activation.qt(), init_stream(cfg.seed))
        rnn_train(m2, corpus, cfg)
        assert np.array_equal(m1.wh, m2.wh)
        assert np.array_equal(m1.embed, m2.embed)

    def test_state_bounds(self):
        corpus = load_sentiment(bundled_sentiment_path())
        for kind, lo, hi in [(Activation.tanh(), -1.0, 1.0), (Activation.qt(), 0.0, 1.0)]:
            model = rnn_init(corpus.vocab_size, 16, 2, kind, init_stream(3))
            for seq in corpus.phrases[:10]:
                _, states = rnn_forward(model, seq)
                assert states.min() >= lo and states.max() <= hi

    def test_untrained_chance_level(self):
        corpus = load_sentiment(bundled_sentiment_path())
        accs = []
        for seed in range(20):
            model = rnn_init(corpus.vocab_size, 8, 2, Activation.qt(), init_stream(seed))
            acc, _ = rnn_evaluate(model, corpus)
            accs.append(acc)
        assert abs(np.mean(accs) - 0.5) <= 0.15

    def test_uniform_model_loss_ln2(self):
        model = rnn_init(4, 3, 2, Activation.tanh(), Rng(0))
        model.embed[:] = 0.0
        model.wx[:] = 0.0
        model.wh[:] = 0.0
        model.wy[:] = 0.0
        corpus = two_phrase_corpus()
        _, loss = rnn_evaluate(model, corpus)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def per_sequence_scores(model, corpus):
    """(accuracy, mean loss) one phrase and one token at a time with 1-D matmuls."""
    correct, total_loss = 0, 0.0
    for seq, label in zip(corpus.phrases, corpus.labels):
        h = np.zeros(model.n_hidden)
        for token in seq:
            z = model.embed[token] @ model.wx + h @ model.wh + model.bh[0]
            h = activate(z, model.hidden_act, grad=False)[0]
        onehot = np.zeros((1, model.wy.shape[1]))
        onehot[0, label] = 1.0
        probs, loss, _ = softmax_crossentropy((h @ model.wy + model.by[0])[None, :], onehot)
        total_loss += loss
        correct += int(probs[0].argmax() == label)
    return correct / len(corpus.phrases), total_loss / len(corpus.phrases)


class TestLockStepEvaluation:
    KINDS = [Activation.qt(ampl=5.0), Activation.qt(mode="absolute"),
             Activation.qt(mode="bipolar"), Activation.tanh()]

    @staticmethod
    def mixed_length_corpus(vocab_size=9):
        rng = np.random.default_rng(11)
        lengths = rng.permutation(np.repeat(np.arange(1, 8), 3))
        phrases = [rng.integers(0, vocab_size, n).tolist() for n in lengths]
        return SentimentCorpus(phrases, rng.integers(0, 2, len(phrases)).tolist(),
                               {f"w{i}": i for i in range(1, vocab_size)})

    @pytest.mark.parametrize("kind", KINDS, ids=["qt", "qt-absolute", "qt-bipolar", "tanh"])
    def test_bit_equal_to_per_sequence_loop(self, kind):
        corpus = self.mixed_length_corpus()
        for seed in range(4):
            model = rnn_init(corpus.vocab_size, 6, 2, kind, Rng(seed), n_embed=4)
            model.bh[:] = Rng(seed + 100).normal_matrix(1, 6)
            for w in (model.wx, model.wh, model.wy):
                w *= 3.0
            assert repr(rnn_evaluate(model, corpus)) == repr(per_sequence_scores(model, corpus))

    @pytest.mark.parametrize("bad, message", [
        ([], "sequence must be non-empty"),
        ([3, 9, 1], "token indices must lie in [0, 9), got range [1, 9]"),
        ([-1, 2], "token indices must lie in [0, 9), got range [-1, 2]"),
    ], ids=["empty", "out-of-vocab", "negative"])
    def test_first_bad_sequence_named(self, bad, message):
        corpus = self.mixed_length_corpus()
        corpus.phrases[4] = bad
        corpus.phrases[9] = [] if bad else [9]  # a later bad phrase must not be the one named
        model = rnn_init(corpus.vocab_size, 3, 2, Activation.tanh(), Rng(0))
        with pytest.raises(InputError) as err:
            rnn_evaluate(model, corpus)
        assert str(err.value) == message

    def test_one_activation_call_per_step(self, monkeypatch):
        corpus = load_sentiment(bundled_sentiment_path())
        model = rnn_init(corpus.vocab_size, 8, 2, Activation.qt(), Rng(0))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return activate(*args, **kwargs)

        monkeypatch.setattr(qtnn.rnn, "activate", counting)
        rnn_evaluate(model, corpus)
        assert len(calls) == max(len(p) for p in corpus.phrases)
        assert calls[0] == (len(corpus.phrases), 8)

    def test_batch_size_above_one_rejected(self):
        corpus = load_sentiment(bundled_sentiment_path())
        model = rnn_init(corpus.vocab_size, 8, 2, Activation.qt(), init_stream(0))
        names = ("embed", "wx", "wh", "bh", "wy", "by")
        before = [getattr(model, name).tobytes() for name in names]
        cfg = TrainConfig(lr=0.05, epochs=2, batch_size=4, clip_norm=5.0, seed=0)
        with pytest.raises(InputError, match="batch_size must be 1, got 4"):
            rnn_train(model, corpus, cfg)
        assert [getattr(model, name).tobytes() for name in names] == before

    def test_bad_phrase_leaves_model_untouched(self):
        corpus = load_sentiment(bundled_sentiment_path())
        corpus.phrases[-1] = corpus.phrases[-1] + [corpus.vocab_size]
        model = rnn_init(corpus.vocab_size, 8, 2, Activation.qt(), init_stream(0))
        before = model.copy()
        cfg = TrainConfig(lr=0.05, epochs=2, batch_size=1, clip_norm=5.0, seed=0)
        with pytest.raises(InputError, match="token indices"):
            rnn_train(model, corpus, cfg)
        for name in ("embed", "wx", "wh", "bh", "wy", "by"):
            assert np.array_equal(getattr(model, name), getattr(before, name)), name


class TestCheckpoint:
    def test_round_trip_with_embedding(self, tmp_path):
        model = rnn_init(7, 5, 2, Activation.qt(ampl=5.0), Rng(3))
        path = tmp_path / "rnn.qtnn"
        save_rnn(model, path)
        loaded = load_rnn(path)
        assert np.array_equal(loaded.embed, model.embed)
        assert np.array_equal(loaded.wh, model.wh)
        assert loaded.hidden_act == model.hidden_act

    def test_trailing_byte_rejected(self, tmp_path):
        path = tmp_path / "rnn.qtnn"
        save_rnn(rnn_init(7, 5, 2, Activation.qt(ampl=5.0), Rng(3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="1 trailing bytes"):
            load_rnn(path)
