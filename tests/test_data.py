import struct

import numpy as np
import pytest

from conftest import write_idx_pair
from qtnn.data import (
    FormatError,
    MgConfig,
    bundled_sentiment_path,
    data_dir,
    load_idx,
    load_mnist,
    load_sentiment,
    mackey_glass,
    split_corpus,
)
from qtnn.numerics import InputError


class TestIdxLoader:
    def test_round_trip_synthetic_pair(self, tmp_path):
        images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28) % 251
        labels = np.array([3, 7], dtype=np.uint8)
        ip, lp = tmp_path / "img", tmp_path / "lab"
        write_idx_pair(images, labels, ip, lp)
        ds = load_idx(ip, lp)
        assert ds.n_samples == 2 and ds.n_features == 784 and ds.n_classes == 10
        assert np.array_equal(ds.labels(), [3, 7])
        assert np.allclose(ds.inputs, images.reshape(2, 784) / 255.0)
        # bit-exact re-serialization from the loaded arrays
        recon = np.round(ds.inputs * 255.0).astype(np.uint8).reshape(2, 28, 28)
        ip2, lp2 = tmp_path / "img2", tmp_path / "lab2"
        write_idx_pair(recon, ds.labels().astype(np.uint8), ip2, lp2)
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
        assert np.array_equal(plain.labels(), zipped.labels())

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

    def test_bad_config_rejected(self):
        with pytest.raises(InputError):
            MgConfig(tau_mg=17.0, dt_internal=0.3)  # non-integral delay
        with pytest.raises(InputError):
            MgConfig(beta_mg=0.0)
        with pytest.raises(InputError):
            mackey_glass(MgConfig(), 0)
