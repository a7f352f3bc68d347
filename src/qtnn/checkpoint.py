"""Flat binary model checkpoints shared by the three trained architectures.

Layout (little-endian): magic ``QTNN``, format version, an architecture
tag, the activation description (kind plus barrier parameters for 'qt'),
a scalar metadata table and finally named float64 arrays in row-major
order.  Loading rebuilds the exact model, bit for bit; a file whose
metadata keys or array names differ from its architecture's is rejected.
"""

from __future__ import annotations

import struct

import numpy as np

from .activation import Activation, BarrierParams
from .bnn import BnnModel
from .data import FormatError
from .fnn import FnnModel
from .rnn import RnnModel

__all__ = ["save_fnn", "load_fnn", "save_rnn", "load_rnn", "save_bnn", "load_bnn"]

_MAGIC = b"QTNN"
_VERSION = 1
# array names in file order; each is also the model attribute it holds
_FNN = ("w1", "b1", "w2", "b2")
_RNN = ("wx", "wh", "bh", "wy", "by", "embed")
_BNN = ("w1_mean", "w1_std", "w2_mean", "w2_std", "b1", "b2")


def _pack_str(s):
    raw = s.encode("utf-8")
    if len(raw) > 255:
        raise ValueError("string field too long")
    return struct.pack("<B", len(raw)) + raw


def _write(path, arch, model, names, meta=None):
    meta = meta or {}
    act = model.hidden_act
    chunks = [_MAGIC, struct.pack("<I", _VERSION), _pack_str(arch), _pack_str(act.kind)]
    if act.kind == "qt":
        b = act.barrier
        chunks.append(struct.pack("<5d", b.v0, b.a, b.m, b.hbar, b.ampl))
        chunks.append(_pack_str(b.mode))
    chunks.append(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        chunks.append(_pack_str(key))
        chunks.append(struct.pack("<d", float(meta[key])))
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        arr = np.ascontiguousarray(getattr(model, name), dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"array {name} must be 2-D")
        chunks.append(_pack_str(name))
        chunks.append(struct.pack("<II", arr.shape[0], arr.shape[1]))
        chunks.append(arr.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, path):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.pos = 0
        self.path = path

    def take(self, count):
        if self.pos + count > len(self.blob):
            raise FormatError(f"{self.path}: truncated at byte {self.pos}")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def string(self):
        n = self.take(1)[0]
        start = self.pos
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: string at byte {start} is not UTF-8") from None

    def name(self, expected, seen, what):
        """A string that must be one of ``expected`` and not yet in ``seen``."""
        start = self.pos
        name = self.string()
        if name not in expected or name in seen:
            raise FormatError(f"{self.path}: unexpected {what} {name!r} at byte {start}")
        return name


def _read(path, expect_arch, names, meta_keys=()):
    """(activation, arrays by name, metadata) of a checkpoint holding exactly these names."""
    r = _Reader(path)
    if r.take(4) != _MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic at byte 0")
    version = r.u32()
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    arch = r.string()
    if arch != expect_arch:
        raise FormatError(f"{path}: checkpoint holds a {arch} model, expected {expect_arch}")
    kind = r.string()
    if kind == "qt":
        v0, a, m, hbar, ampl = struct.unpack("<5d", r.take(40))
        mode = r.string()
        act = Activation.qt(BarrierParams(v0, a, m, hbar, ampl, mode))
    else:
        act = Activation(kind)
    meta = {}
    for _ in range(r.u32()):
        key = r.name(meta_keys, meta, "metadata key")
        meta[key] = r.f64()
    arrays = {}
    for _ in range(r.u32()):
        name = r.name(names, arrays, "array")
        rows, cols = struct.unpack("<II", r.take(8))
        data = np.frombuffer(r.take(rows * cols * 8), dtype="<f8")
        arrays[name] = data.reshape(rows, cols).copy()
    if r.pos != len(r.blob):
        raise FormatError(f"{path}: {len(r.blob) - r.pos} trailing bytes at byte {r.pos}")
    for what, expected, seen in (("metadata key", meta_keys, meta), ("array", names, arrays)):
        missing = [name for name in expected if name not in seen]
        if missing:
            raise FormatError(f"{path}: missing {what} {missing[0]!r}")
    return act, arrays, meta


def save_fnn(model, path):
    _write(path, "fnn", model, _FNN)


def load_fnn(path):
    act, arrays, _ = _read(path, "fnn", _FNN)
    return FnnModel(**arrays, hidden_act=act).check()


def save_rnn(model, path):
    _write(path, "rnn", model, _RNN)


def load_rnn(path):
    act, arrays, _ = _read(path, "rnn", _RNN)
    return RnnModel(**arrays, hidden_act=act).check()


def save_bnn(model, path):
    _write(path, "bnn", model, _BNN, meta={"n_samples": model.n_samples})


def load_bnn(path):
    act, arrays, meta = _read(path, "bnn", _BNN, ("n_samples",))
    n_samples = meta["n_samples"]
    if not n_samples.is_integer():
        raise FormatError(f"{path}: n_samples {n_samples!r} is not an integer")
    return BnnModel(**arrays, hidden_act=act, n_samples=int(n_samples)).check()
