"""Dataset ingestion and generation.

Three data sources feed the benchmarks: IDX-format image/label pairs
(MNIST and Fashion-MNIST layout), a small bundled sentiment corpus in
two-column CSV form, and a Mackey-Glass delay-differential time series
integrated on the fly.  The dataset root directory is ``./data`` unless
the ``QTNN_DATA_DIR`` environment variable points elsewhere.

Images and labels stay in memory as the uint8 codes read from the file; a
``LabeledDataset`` divides a batch's rows by 255 (``rows``) and makes its
one-hot label rows (``onehot``) when the batch is read, so no float64 copy
of a whole split is ever made.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .numerics import InputError, Rng

__all__ = [
    "FormatError",
    "LabeledDataset",
    "SentimentCorpus",
    "MgConfig",
    "data_dir",
    "load_idx",
    "load_mnist",
    "load_fashion_mnist",
    "load_sentiment",
    "bundled_sentiment_path",
    "split_corpus",
    "mackey_glass",
    "MNIST_CLASS_NAMES",
    "FASHION_CLASS_NAMES",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

MNIST_CLASS_NAMES = [str(d) for d in range(10)]
FASHION_CLASS_NAMES = [
    "t-shirt/top", "trouser", "pullover", "dress", "coat",
    "sandal", "shirt", "sneaker", "bag", "ankle boot",
]


class FormatError(ValueError):
    """Malformed input file; message carries the byte offset or line number."""


def data_dir():
    """Dataset root: $QTNN_DATA_DIR or ./data."""
    return Path(os.environ.get("QTNN_DATA_DIR", "data"))


@dataclass
class LabeledDataset:
    """Flattened inputs ``codes / scale`` in [0, 1] with integer class labels.

    The inputs are kept as the stored ``codes`` (uint8 pixel values for IDX
    images, at 1/8 the memory of float64) and turned into float64 only for
    the rows a caller asks for, through :meth:`rows`.  Float inputs go in
    as ``codes`` with the default ``scale`` of 1.  The labels are kept as
    class indices in [0, len(class_names)) and :meth:`onehot` makes the
    one-hot rows of the ones a caller asks for.
    """

    codes: np.ndarray   # samples x features, values in [0, scale]
    labels: np.ndarray  # samples, class indices in [0, n_classes)
    class_names: list
    scale: float = 1.0

    def __post_init__(self):
        if self.codes.ndim != 2 or self.labels.ndim != 1 or self.labels.dtype.kind not in "iu":
            raise FormatError("inputs must be 2-D and labels 1-D integers")
        if self.codes.shape[0] != self.labels.shape[0]:
            raise FormatError(f"{self.codes.shape[0]} inputs vs {self.labels.shape[0]} labels")
        if not 0.0 < self.scale < np.inf:
            raise FormatError(f"scale must be positive and finite, got {self.scale}")
        # written so that NaN fails it too
        if self.codes.size and not (self.codes.min() >= 0 and self.codes.max() <= self.scale):
            raise FormatError(f"inputs must lie in [0, {self.scale:g}]")
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() < self.n_classes:
            raise FormatError(f"labels must lie in [0, {self.n_classes})")

    def rows(self, index):
        """Float64 inputs of the rows ``codes[index]``, each code divided by scale."""
        return np.divide(self.codes[index], self.scale, dtype=np.float64)

    def onehot(self, index):
        """Float64 one-hot rows of the labels ``labels[index]``."""
        return np.eye(self.n_classes)[self.labels[index]]

    @property
    def inputs(self):
        """Every row as float64.  Hot paths read batches through :meth:`rows`."""
        return self.rows(slice(None))

    @property
    def n_samples(self):
        return self.codes.shape[0]

    @property
    def n_features(self):
        return self.codes.shape[1]

    @property
    def n_classes(self):
        return len(self.class_names)

    def subset(self, indices):
        return replace(self, codes=self.codes[indices], labels=self.labels[indices])


def _read_maybe_gzip(path):
    """Read a file, transparently inflating gzip (mirrors ship .gz IDX files)."""
    blob = Path(path).read_bytes()
    if blob[:2] == b"\x1f\x8b":
        import gzip
        import zlib

        try:
            blob = gzip.decompress(blob)
        except (gzip.BadGzipFile, EOFError, zlib.error) as err:
            raise FormatError(f"{path}: corrupt gzip stream: {err}") from None
    return blob


def _check_length(blob, need, path):
    if len(blob) != need:
        what = "truncated payload" if len(blob) < need else "trailing bytes"
        raise FormatError(f"{path}: {what}, have {len(blob)} bytes, need {need}")


def _read_be32(blob, offset, path):
    if offset + 4 > len(blob):
        raise FormatError(f"{path}: truncated header at byte {offset}")
    return struct.unpack_from(">I", blob, offset)[0]


def _header(blob, magic, path, what, count):
    """The ``count`` header words that follow a file's checked magic word."""
    found = _read_be32(blob, 0, path)
    if found != magic:
        raise FormatError(
            f"{path}: bad {what} magic 0x{found:08x} at byte 0, expected 0x{magic:08x}")
    return [_read_be32(blob, 4 * k, path) for k in range(1, count + 1)]


def load_idx(images_path, labels_path, class_names=None):
    """Load an IDX image/label file pair into a LabeledDataset.

    Big-endian headers, image magic 2051 and label magic 2049; each file
    must be exactly as long as its header says.  The pixels stay the uint8
    codes of the file, flattened row-major, with scale 255, and the labels
    the file's uint8 class indices (each a read-only view of the file's
    bytes); ``class_names`` defaults to the ten MNIST digits.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    img_blob = _read_maybe_gzip(images_path)
    lab_blob = _read_maybe_gzip(labels_path)

    n_images, rows, cols = _header(img_blob, IMAGE_MAGIC, images_path, "image", 3)
    _check_length(img_blob, 16 + n_images * rows * cols, images_path)
    (n_labels,) = _header(lab_blob, LABEL_MAGIC, labels_path, "label", 1)
    if n_labels != n_images:
        raise FormatError(f"count mismatch: {n_images} images vs {n_labels} labels")
    _check_length(lab_blob, 8 + n_labels, labels_path)

    pixels = np.frombuffer(img_blob, dtype=np.uint8, count=n_images * rows * cols, offset=16)
    labels = np.frombuffer(lab_blob, dtype=np.uint8, count=n_labels, offset=8)
    names = class_names if class_names is not None else list(MNIST_CLASS_NAMES)
    if labels.size and labels.max() >= len(names):
        bad = int(np.argmax(labels >= len(names)))
        raise FormatError(
            f"{labels_path}: label {labels[bad]} at item {bad} exceeds {len(names) - 1}")
    return LabeledDataset(pixels.reshape(n_images, rows * cols), labels, names, 255.0)


def _idx_pair(root, split):
    prefix = "train" if split == "train" else "t10k"
    pair = []
    for kind in (f"{prefix}-images-idx3-ubyte", f"{prefix}-labels-idx1-ubyte"):
        plain = root / kind
        pair.append(plain if plain.exists() else root / f"{kind}.gz")
    return tuple(pair)


def load_mnist(split="train", root=None):
    """MNIST from <data_dir>/mnist using the conventional file names."""
    root = Path(root) if root is not None else data_dir() / "mnist"
    images, labels = _idx_pair(root, split)
    return load_idx(images, labels, MNIST_CLASS_NAMES)


def load_fashion_mnist(split="train", root=None):
    """Fashion-MNIST from <data_dir>/fashion-mnist (same IDX layout)."""
    root = Path(root) if root is not None else data_dir() / "fashion-mnist"
    images, labels = _idx_pair(root, split)
    return load_idx(images, labels, FASHION_CLASS_NAMES)


@dataclass
class SentimentCorpus:
    """Token-index phrase sequences with binary labels."""

    phrases: list      # list of lists of int token indices (>= 1)
    labels: list       # 0 or 1 per phrase
    vocab: dict        # token -> index, 0 reserved for padding

    @property
    def vocab_size(self):
        # including the reserved padding slot 0
        return len(self.vocab) + 1

    def subset(self, indices):
        return SentimentCorpus(
            [self.phrases[i] for i in indices],
            [self.labels[i] for i in indices],
            self.vocab,
        )


def load_sentiment(path):
    """Read a `text,label` CSV into a SentimentCorpus.

    Text is lowercased and split on whitespace; the vocabulary is assigned
    in first-appearance order starting at index 1 so the encoding is a pure
    function of the file contents.
    """
    path = Path(path)
    phrases, labels = [], []
    vocab = {}
    try:
        reader = csv.reader(io.StringIO(path.read_bytes().decode("utf-8"), newline=""))
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: byte {err.start}: not UTF-8 text") from None
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{path}: empty file, expected header line 'text,label'")
    if [h.strip().lower() for h in header] != ["text", "label"]:
        raise FormatError(f"{path}: line 1: header must be 'text,label'")
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise FormatError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
        text, label = row[0].strip(), row[1].strip()
        if label not in ("0", "1"):
            raise FormatError(f"{path}: line {lineno}: label must be 0 or 1, got {label!r}")
        tokens = text.lower().split()
        if not tokens:
            raise FormatError(f"{path}: line {lineno}: empty text")
        ids = []
        for tok in tokens:
            if tok not in vocab:
                vocab[tok] = len(vocab) + 1
            ids.append(vocab[tok])
        phrases.append(ids)
        labels.append(int(label))
    return SentimentCorpus(phrases, labels, vocab)


def bundled_sentiment_path():
    """Path of the 48-phrase corpus that ships with the package."""
    return resources.files("qtnn").joinpath("assets/sentiment48.csv")


def split_corpus(corpus, train_frac=0.75, seed=0):
    """Deterministic stratified split into (train, test) corpora; 0 < train_frac <= 1."""
    if not 0.0 < train_frac <= 1.0:
        raise InputError(f"train_frac must lie in (0, 1], got {train_frac}")
    rng = Rng(seed)
    labels = np.asarray(corpus.labels)
    train_idx, test_idx = [], []
    for cls in sorted(set(corpus.labels)):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        cut = int(round(train_frac * len(members)))
        train_idx.extend(members[:cut])
        test_idx.extend(members[cut:])
    train_idx.sort()
    test_idx.sort()
    return corpus.subset(train_idx), corpus.subset(test_idx)


@dataclass
class MgConfig:
    """Mackey-Glass generator settings.

    The delay tau must be an integer multiple of the internal step so the
    delayed value falls on stored grid points; the half-step value needed by
    the integrator is linearly interpolated.
    """

    beta_mg: float = 0.2
    gamma_mg: float = 0.1
    tau_mg: float = 17.0
    q: float = 10.0
    dt_internal: float = 0.1
    sample_every: int = 10
    transient: int = 1000
    x0: float = 1.2

    def __post_init__(self):
        for name in ("beta_mg", "gamma_mg", "tau_mg", "q", "dt_internal", "x0"):
            if not getattr(self, name) > 0:
                raise InputError(f"MgConfig.{name} must be positive")
        if self.sample_every < 1 or self.transient < 0:
            raise InputError("sample_every must be >= 1 and transient >= 0")
        lag = self.tau_mg / self.dt_internal
        if abs(lag - round(lag)) > 1e-9 or round(lag) < 1:
            raise InputError("tau_mg/dt_internal must be a positive integer")


def mackey_glass(cfg, n_samples, normalize=True):
    """Integrate the Mackey-Glass delay equation and emit a sampled series.

    Classic fourth-order Runge-Kutta over the internal step; the delayed
    term is read from a ring buffer of past values, linearly interpolated
    at the half step.  Every ``sample_every``-th internal point is emitted,
    the first ``transient`` emitted samples are discarded, and the result
    is min-max rescaled to [0, 1] unless ``normalize`` is off.
    """
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    beta, gamma, q = cfg.beta_mg, cfg.gamma_mg, cfg.q
    dt = cfg.dt_internal
    lag = int(round(cfg.tau_mg / dt))

    # ring buffer holds x at the last lag+1 grid points; before t=0 the
    # history is the constant x0.  Lists and Python floats throughout: the
    # loop is scalar, and numpy scalar arithmetic would take several times as long
    slots = lag + 1
    ring = [float(cfg.x0)] * slots
    head = 0  # position of x(t) within the ring

    def delayed(x_delayed):
        # the delay term of the right-hand side beta x_d / (1 + x_d^q) - gamma x
        return beta * x_delayed / (1.0 + x_delayed**q)

    x = ring[head]
    d_oldest = delayed(ring[1 % slots])
    # an ndarray: after a list of the 5000 emitted floats is freed, the
    # interpreter's allocator keeps about 60 KiB of it resident
    out = np.empty(n_samples + cfg.transient)
    for i in range(out.size):
        for _ in range(cfg.sample_every):
            # delayed values: x(t - tau) is the oldest ring slot, x(t + dt - tau)
            # the next one (x(t) itself when lag == 1); the half step is their
            # midpoint (linear interpolation)
            oldest = ring[(head + 1) % slots]
            nxt = ring[(head + 2) % slots]
            half = 0.5 * (oldest + nxt)
            d_half = delayed(half)
            d_next = delayed(nxt)
            k1 = d_oldest - gamma * x
            k2 = d_half - gamma * (x + 0.5 * dt * k1)
            k3 = d_half - gamma * (x + 0.5 * dt * k2)
            k4 = d_next - gamma * (x + dt * k3)
            x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            head = (head + 1) % slots
            ring[head] = x
            d_oldest = d_next  # the next step's oldest slot is this step's nxt
        out[i] = x
    series = out[cfg.transient :]
    if normalize:
        lo, hi = series.min(), series.max()
        span = hi - lo
        if span == 0.0:
            return np.zeros_like(series)
        return (series - lo) / span
    return series.copy()
