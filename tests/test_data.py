import gzip
import struct

import numpy as np
import pytest

import qtnn.bnn
import qtnn.fnn
from conftest import write_idx_pair
from qtnn.activation import Activation
from qtnn.bnn import bnn_evaluate, bnn_init, bnn_train
from qtnn.cli import EXIT_INPUT, EXIT_OK, main
from qtnn.data import (
    FormatError,
    LabeledDataset,
    MgConfig,
    bundled_sentiment_path,
    data_dir,
    load_idx,
    load_mnist,
    load_sentiment,
    mackey_glass,
    split_corpus,
)
from qtnn.fnn import fnn_evaluate, fnn_init, fnn_train
from qtnn.numerics import InputError, Rng
from qtnn.trainutil import TrainConfig, init_stream


class TestIdxLoader:
    def test_round_trip_synthetic_pair(self, tmp_path):
        images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28) % 251
        labels = np.array([3, 7], dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_pair(images, labels, ip, lp)
        ds = load_idx(ip, lp)
        assert ds.n_samples == 2 and ds.n_features == 784 and ds.n_classes == 10
        assert np.array_equal(ds.labels, [3, 7])
        assert np.allclose(ds.inputs, images.reshape(2, 784) / 255.0)
        # bit-exact re-serialization from the loaded arrays
        recon = np.round(ds.inputs * 255.0).astype(np.uint8).reshape(2, 28, 28)
        ip2, lp2 = tmp_path / "img2", tmp_path / "lab2"
        write_idx_pair(recon, ds.labels, ip2, lp2)
        assert ip2.read_bytes() == ip.read_bytes()
        assert lp2.read_bytes() == lp.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        ip.write_bytes(struct.pack(">IIII", 0, 1, 2, 2) + b"\x00" * 4)
        lp.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(FormatError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = tmp_path / "img", tmp_path / "lab"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + b"\x00" * 100)
        lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x01")
        with pytest.raises(FormatError, match="truncated"):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        labels = np.zeros(3, dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        with open(ip, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x803, 2, 4, 4))
            fh.write(images.tobytes())
        with open(lp, "wb") as fh:
            fh.write(struct.pack(">II", 0x801, 3))
            fh.write(labels.tobytes())
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(ip, lp)

    def test_data_dir_env_override(self, tmp_path, monkeypatch, synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        assert data_dir() == synthetic_image_data
        ds = load_mnist("train")
        assert ds.n_samples == 150 and ds.n_features == 784

    def test_gzip_transparent(self, tmp_path):
        import gzip

        images = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
        labels = np.array([1, 2], dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_pair(images, labels, ip, lp)
        ipz, lpz = tmp_path / "img.gz", tmp_path / "lab.gz"
        ipz.write_bytes(gzip.compress(ip.read_bytes()))
        lpz.write_bytes(gzip.compress(lp.read_bytes()))
        plain = load_idx(ip, lp)
        zipped = load_idx(ipz, lpz)
        assert np.array_equal(plain.inputs, zipped.inputs)
        assert np.array_equal(plain.labels, zipped.labels)

    def test_gz_fallback_in_conventional_layout(self, tmp_path, monkeypatch):
        import gzip

        root = tmp_path / "mnist"
        root.mkdir()
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        labels = np.array([0, 1, 2], dtype=np.uint8)
        ip, lp = tmp_path / "i", tmp_path / "l"
        write_idx_pair(images, labels, ip, lp)
        (root / "train-images-idx3-ubyte.gz").write_bytes(gzip.compress(ip.read_bytes()))
        (root / "train-labels-idx1-ubyte.gz").write_bytes(gzip.compress(lp.read_bytes()))
        monkeypatch.setenv("QTNN_DATA_DIR", str(tmp_path))
        ds = load_mnist("train")
        assert ds.n_samples == 3

    def test_invariants_checked_on_load(self, tmp_path):
        images = np.zeros((1, 4, 4), dtype=np.uint8)
        labels = np.array([12], dtype=np.uint8)  # out of the 10-class range
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_pair(images, labels, ip, lp)
        with pytest.raises(FormatError, match="exceeds"):
            load_idx(ip, lp)


class TestSentiment:
    def test_first_appearance_order(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("text,label\ngood movie,1\nbad movie,0\n")
        corpus = load_sentiment(path)
        assert corpus.vocab == {"good": 1, "movie": 2, "bad": 3}
        assert corpus.phrases == [[1, 2], [3, 2]]
        assert corpus.labels == [1, 0]

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("text,label\n,1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_sentiment(path)

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("text,label\nfine film,2\n")
        with pytest.raises(FormatError, match="label"):
            load_sentiment(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("phrase,sentiment\nok,1\n")
        with pytest.raises(FormatError, match="header"):
            load_sentiment(path)

    def test_bundled_corpus_shape_and_vocab(self):
        corpus = load_sentiment(bundled_sentiment_path())
        assert len(corpus.phrases) == 48
        assert sum(corpus.labels) == 24
        # independent token count: distinct whitespace tokens of lowercased text
        lines = bundled_sentiment_path().read_text(encoding="utf-8").splitlines()[1:]
        tokens = set()
        for line in lines:
            text = line.rsplit(",", 1)[0]
            tokens.update(text.lower().split())
        assert len(corpus.vocab) == len(tokens)
        assert corpus.vocab_size == len(tokens) + 1  # padding slot 0

    def test_encoding_stable_across_loads(self):
        a = load_sentiment(bundled_sentiment_path())
        b = load_sentiment(bundled_sentiment_path())
        assert a.vocab == b.vocab and a.phrases == b.phrases

    def test_stratified_split(self):
        corpus = load_sentiment(bundled_sentiment_path())
        train, test = split_corpus(corpus, 0.75, seed=5)
        assert len(train.phrases) == 36 and len(test.phrases) == 12
        assert sum(train.labels) == 18 and sum(test.labels) == 6
        train2, _ = split_corpus(corpus, 0.75, seed=5)
        assert train2.phrases == train.phrases


class TestMackeyGlass:
    def test_equilibrium_constant_history(self):
        cfg = MgConfig(x0=1.0, transient=10)
        series = mackey_glass(cfg, 100, normalize=False)
        assert np.all(series == 1.0)

    def test_default_range_pre_normalization(self):
        series = mackey_glass(MgConfig(), 4000, normalize=False)
        assert series.min() > 0.2 and series.max() < 1.5

    def test_normalized_to_unit_interval(self):
        series = mackey_glass(MgConfig(), 1000)
        assert series.min() == 0.0 and series.max() == 1.0

    def test_step_halving_convergence(self):
        # integrator convergence is measured from t=0; through the default
        # chaotic transient the two discretizations visibly diverge
        base = MgConfig(transient=0)
        fine = MgConfig(dt_internal=0.05, sample_every=20, transient=0)
        a = mackey_glass(base, 500, normalize=False)
        b = mackey_glass(fine, 500, normalize=False)
        assert np.max(np.abs(a - b)) < 1e-3

    def test_deterministic(self):
        a = mackey_glass(MgConfig(), 300)
        b = mackey_glass(MgConfig(), 300)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("cfg", [
        MgConfig(),
        MgConfig(q=7.5),
        MgConfig(q=10),
        MgConfig(tau_mg=30.0),
        MgConfig(tau_mg=0.1, transient=50),  # lag == 1
        MgConfig(tau_mg=3.0, dt_internal=1.0, sample_every=1, transient=0, x0=0.5),
    ], ids=["default", "q7.5", "q-int", "tau30", "lag1", "coarse"])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_ndarray_ring_reference(self, cfg, normalize):
        got = mackey_glass(cfg, 400, normalize)
        assert got.dtype == np.float64
        assert got.tobytes() == _mackey_glass_ndarray_ring(cfg, 400, normalize).tobytes()

    def test_integer_x0_same_as_float(self):
        # an integer-typed history buffer would truncate every stored value
        a = mackey_glass(MgConfig(x0=2), 200, normalize=False)
        assert a.tobytes() == mackey_glass(MgConfig(x0=2.0), 200, normalize=False).tobytes()

    def test_bad_config_rejected(self):
        with pytest.raises(InputError):
            MgConfig(tau_mg=17.0, dt_internal=0.3)  # non-integral delay
        with pytest.raises(InputError):
            MgConfig(beta_mg=0.0)
        with pytest.raises(InputError):
            mackey_glass(MgConfig(), 0)


def _mackey_glass_ndarray_ring(cfg, n_samples, normalize=True):
    """Reference: the integrator on an ndarray ring buffer with a right-hand
    side function called four times per step, as first written."""
    beta, gamma, q = cfg.beta_mg, cfg.gamma_mg, cfg.q
    dt = cfg.dt_internal
    lag = int(round(cfg.tau_mg / dt))
    ring = np.full(lag + 1, cfg.x0)
    head = 0

    def rhs(x, x_delayed):
        return beta * x_delayed / (1.0 + x_delayed**q) - gamma * x

    total = (n_samples + cfg.transient) * cfg.sample_every
    out = np.empty(n_samples + cfg.transient)
    emitted = 0
    x = cfg.x0
    for step in range(total):
        oldest = ring[(head + 1) % (lag + 1)]
        if lag == 1:
            nxt = ring[head]
        else:
            nxt = ring[(head + 2) % (lag + 1)]
        half = 0.5 * (oldest + nxt)
        k1 = rhs(x, oldest)
        k2 = rhs(x + 0.5 * dt * k1, half)
        k3 = rhs(x + 0.5 * dt * k2, half)
        k4 = rhs(x + dt * k3, nxt)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        head = (head + 1) % (lag + 1)
        ring[head] = x
        if (step + 1) % cfg.sample_every == 0:
            out[emitted] = x
            emitted += 1
    series = out[cfg.transient :]
    if normalize:
        lo, hi = series.min(), series.max()
        span = hi - lo
        if span == 0.0:
            return np.zeros_like(series)
        return (series - lo) / span
    return series.copy()


class TestLabeledDataset:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1, 1.5])
    def test_out_of_range_or_nan_inputs_rejected(self, bad):
        with pytest.raises(FormatError, match=r"inputs must lie in \[0, 1\]"):
            LabeledDataset(np.array([[0.5, bad], [0.1, 0.2]]), np.arange(2), ["a", "b"])

    def test_codes_checked_against_scale(self):
        codes = np.array([[0, 200], [17, 100]], dtype=np.uint8)
        assert LabeledDataset(codes, np.arange(2), ["a", "b"], 255.0).n_features == 2
        with pytest.raises(FormatError, match=r"\[0, 100\]"):
            LabeledDataset(codes, np.arange(2), ["a", "b"], 100.0)
        for scale in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(FormatError, match="scale"):
                LabeledDataset(codes, np.arange(2), ["a", "b"], scale)

    @pytest.mark.parametrize("labels, match", [
        (np.array([[0], [1]]), "labels 1-D"),
        (np.array([0.0, 1.0]), "labels 1-D integers"),
        (np.array([0, 1, 1]), "2 inputs vs 3 labels"),
        (np.array([0], dtype=np.uint8), "2 inputs vs 1 labels"),
        (np.array([0, -1]), r"labels must lie in \[0, 2\)"),
        (np.array([2, 0], dtype=np.uint8), r"labels must lie in \[0, 2\)"),
    ])
    def test_bad_labels_rejected(self, labels, match):
        with pytest.raises(FormatError, match=match):
            LabeledDataset(np.zeros((2, 3)), labels, ["a", "b"])

    def test_rows_divide_every_code_exactly(self):
        codes = np.arange(256, dtype=np.uint8).reshape(16, 16)
        data = LabeledDataset(codes, np.arange(16)[::-1], list("abcdefghijklmnop"), 255.0)
        want = codes.astype(np.float64) / 255.0
        assert data.rows(slice(None)).tobytes() == want.tobytes()
        assert data.rows([3, 0, 3]).tobytes() == want[[3, 0, 3]].tobytes()
        assert data.inputs.tobytes() == want.tobytes()
        # the reciprocal product is not the same number for every code
        assert (codes * (1.0 / 255.0)).tobytes() != want.tobytes()
        # the label counterpart: one-hot float64 rows of the labels asked for
        for idx in ([3, 0, 3], slice(2, 5), np.array([15])):
            assert data.onehot(idx).tobytes() == np.eye(16)[data.labels[idx]].tobytes()
        assert data.onehot([3, 0]).tolist() == [[0.0] * 12 + [1.0] + [0.0] * 3,
                                                [0.0] * 15 + [1.0]]

    def test_subset_keeps_codes_and_scale(self):
        codes = np.arange(12, dtype=np.uint8).reshape(4, 3)
        data = LabeledDataset(codes, np.arange(4), list("abcd"), 255.0).subset([2, 0])
        assert data.codes.dtype == np.uint8 and data.scale == 255.0
        assert data.codes.tolist() == [[6, 7, 8], [0, 1, 2]]
        assert data.labels.tolist() == [2, 0] and data.n_classes == 4

    def test_load_idx_holds_uint8_codes(self, tmp_path):
        images = np.arange(5 * 28 * 28, dtype=np.uint8).reshape(5, 28, 28)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_pair(images, np.arange(5, dtype=np.uint8), ip, lp)
        ds = load_idx(ip, lp)
        assert ds.codes.dtype == np.uint8 and ds.codes.nbytes == 5 * 784
        assert ds.scale == 255.0
        assert ds.inputs.tobytes() == (images.reshape(5, 784) / 255.0).tobytes()
        # the labels are the file's bytes, and no field holds a float array
        assert ds.labels.dtype == np.uint8 and ds.labels.tobytes() == lp.read_bytes()[8:]
        assert not ds.labels.flags.writeable
        assert [name for name, value in vars(ds).items()
                if isinstance(value, np.ndarray) and value.dtype.kind == "f"] == []


def _pixel_set(n=40, n_features=30, seed=3):
    """uint8 codes (most of them zero) with labels over 4 classes."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, (n, n_features)).astype(np.uint8)
    codes[rng.random(codes.shape) < 0.6] = 0
    return codes, rng.integers(0, 4, n)


def _train_and_score(data, test, kind):
    """Train on ``data`` and score ``test``: the byte strings of the weights
    and the (accuracy, loss) pairs, for ``kind`` fnn, bnn (batch 1, no clip)
    or bnn-clipped (batch 1, clipped)."""
    act = Activation.qt()
    if kind == "fnn":
        model = fnn_init(data.n_features, 8, 4, act, init_stream(5))
        trace = fnn_train(model, data, TrainConfig(lr=0.1, epochs=2, batch_size=8, seed=5),
                          eval_data=test)
        weights = (model.w1, model.b1, model.w2, model.b2)
        score = fnn_evaluate(model, test)
    else:
        tc = TrainConfig(lr=0.1, epochs=2, batch_size=1,
                         clip_norm=None if kind == "bnn" else 5.0, seed=5)
        model = bnn_init(data.n_features, 8, 4, act, init_stream(5), std_init=0.05,
                         n_samples=3)
        trace = bnn_train(model, data, tc, eval_data=test)
        weights = (model.w1_mean, model.b1, model.w2_mean, model.b2)
        score = bnn_evaluate(model, test, Rng(9))
    return [w.tobytes() for w in weights], trace.to_json(), score


class TestUint8Storage:
    """The trainers read uint8 datasets batch by batch, with the same bytes
    as on float64 inputs, and never convert a whole set."""

    @pytest.fixture(autouse=True)
    def _several_eval_batches(self, monkeypatch):
        # the 20-row test splits are scored in two batches
        monkeypatch.setattr(qtnn.fnn, "EVAL_BATCH", 16)
        monkeypatch.setattr(qtnn.bnn, "EVAL_BATCH", 16)

    @pytest.mark.parametrize("kind", ["fnn", "bnn", "bnn-clipped"])
    def test_uint8_codes_train_like_float64_inputs(self, kind):
        codes, labels = _pixel_set()
        names = list("abcd")
        as_codes = LabeledDataset(codes, labels, names, 255.0)
        as_float = LabeledDataset(codes / 255.0, labels, names)
        assert as_float.codes.dtype == np.float64 and as_float.scale == 1.0
        test = (as_codes.subset(np.arange(20, 40)), as_float.subset(np.arange(20, 40)))
        got = _train_and_score(as_codes.subset(np.arange(20)), test[0], kind)
        want = _train_and_score(as_float.subset(np.arange(20)), test[1], kind)
        assert got == want

    def test_no_call_converts_the_whole_set(self, tmp_path, monkeypatch,
                                            synthetic_image_data):
        def whole_set(self):
            raise RuntimeError("a hot path converted every row")

        monkeypatch.setattr(LabeledDataset, "inputs", property(whole_set))
        codes, labels = _pixel_set()
        data = LabeledDataset(codes, labels, list("abcd"), 255.0)
        for kind in ("fnn", "bnn", "bnn-clipped"):
            _train_and_score(data.subset(np.arange(20)), data.subset(np.arange(20, 40)), kind)
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        assert main(["train", "fnn", "--hidden", "8", "--epochs", "1", "--batch", "16",
                     "--out", str(tmp_path / "fnn.json")]) == EXIT_OK


def _idx_pair_bytes(n=6, side=4, seed=11):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n, side, side)).astype(np.uint8)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    return (struct.pack(">IIII", 0x803, n, side, side) + images.tobytes(),
            struct.pack(">II", 0x801, n) + labels.tobytes())


def _damaged_blobs(blob, header, rng, labels):
    """Seeded damage to one IDX file: cuts, header byte flips, flipped labels
    (to values above 9) and trailing bytes; each as written and gzipped."""
    cuts = set(range(header + 1)) | {len(blob) - 1}
    cuts |= {int(c) for c in rng.integers(header + 1, len(blob), 3)}
    damaged = [(f"cut{c}", blob[:c]) for c in sorted(cuts)]
    for pos in range(header):
        flipped = bytearray(blob)
        flipped[pos] ^= int(rng.integers(1, 256))
        damaged.append((f"flip{pos}", bytes(flipped)))
    if labels:
        for pos in rng.choice(np.arange(header, len(blob)), 3, replace=False):
            flipped = bytearray(blob)
            flipped[pos] ^= 0xF0 | int(rng.integers(0, 16))
            damaged.append((f"label{pos}", bytes(flipped)))
    for extra in (1, 3):
        tail = rng.integers(0, 256, extra).astype(np.uint8).tobytes()
        damaged.append((f"tail{extra}", blob + tail))
    damaged += [(f"{name}.gz", gzip.compress(b, mtime=0)) for name, b in damaged]
    # damage to the gzip stream of the intact file; bytes 4-9 (mtime, extra
    # flags, OS) carry no data, and byte 3 (flags) has bits a reader ignores
    packed = gzip.compress(blob, mtime=0)
    for cut in sorted({2, 10, len(packed) - 4, len(packed) - 1}
                      | {int(c) for c in rng.integers(2, len(packed), 3)}):
        damaged.append((f"gz-cut{cut}", packed[:cut]))
    for pos in sorted({2, len(packed) - 8, len(packed) - 1}
                      | {int(p) for p in rng.integers(10, len(packed) - 1, 4)}):
        flipped = bytearray(packed)
        flipped[pos] ^= int(rng.integers(1, 256))
        damaged.append((f"gz-flip{pos}", bytes(flipped)))
    return damaged


def _damaged_pairs():
    img, lab = _idx_pair_bytes()
    rng = np.random.default_rng(2024)
    pairs = [(f"images-{name}", bad, lab)
             for name, bad in _damaged_blobs(img, 16, rng, labels=False)]
    pairs += [(f"labels-{name}", img, bad)
              for name, bad in _damaged_blobs(lab, 8, rng, labels=True)]
    return pairs


class TestIdxCorruption:
    """A seeded grid of damaged IDX pairs, plain and gzip: every one is a
    FormatError from the loader and a one-line exit 1 from the CLI."""

    def test_intact_pair_loads(self, tmp_path):
        img, lab = _idx_pair_bytes()
        (tmp_path / "i").write_bytes(img)
        (tmp_path / "l").write_bytes(gzip.compress(lab))
        assert load_idx(tmp_path / "i", tmp_path / "l").n_samples == 6

    def test_every_damaged_pair_is_a_format_error(self, tmp_path):
        pairs = _damaged_pairs()
        assert len(pairs) > 100
        for name, img, lab in pairs:
            (tmp_path / "i").write_bytes(img)
            (tmp_path / "l").write_bytes(lab)
            with pytest.raises(FormatError):
                load_idx(tmp_path / "i", tmp_path / "l")
                pytest.fail(f"{name} loaded")

    def test_cli_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "mnist"
        root.mkdir()
        img, lab = _idx_pair_bytes()
        (root / "t10k-images-idx3-ubyte").write_bytes(img)
        (root / "t10k-labels-idx1-ubyte").write_bytes(lab)
        monkeypatch.setenv("QTNN_DATA_DIR", str(tmp_path))
        for name, bad_img, bad_lab in _damaged_pairs():
            (root / "train-images-idx3-ubyte").write_bytes(bad_img)
            (root / "train-labels-idx1-ubyte").write_bytes(bad_lab)
            code = main(["train", "fnn", "--hidden", "4", "--epochs", "1",
                         "--out", str(tmp_path / "r.json")])
            err = capsys.readouterr().err
            assert code == EXIT_INPUT, name
            assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
