"""Flat binary model checkpoints shared by the three trained architectures.

Layout (little-endian): magic ``QTNN``, format version, an architecture
tag, the activation description (kind plus barrier parameters for 'qt'),
a scalar metadata table and finally named float64 arrays in row-major
order.  Loading rebuilds the exact model, bit for bit.
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


def _pack_str(s):
    raw = s.encode("utf-8")
    if len(raw) > 255:
        raise ValueError("string field too long")
    return struct.pack("<B", len(raw)) + raw


def _write(path, arch, act, arrays, meta=None):
    meta = meta or {}
    chunks = [_MAGIC, struct.pack("<I", _VERSION), _pack_str(arch), _pack_str(act.kind)]
    if act.kind == "qt":
        b = act.barrier
        chunks.append(struct.pack("<5d", b.v0, b.a, b.m, b.hbar, b.ampl))
        chunks.append(_pack_str(b.mode))
    chunks.append(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        chunks.append(_pack_str(key))
        chunks.append(struct.pack("<d", float(meta[key])))
    chunks.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=np.float64)
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


def _read(path, expect_arch):
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
        key = r.string()
        meta[key] = r.f64()
    arrays = {}
    for _ in range(r.u32()):
        name = r.string()
        rows, cols = struct.unpack("<II", r.take(8))
        data = np.frombuffer(r.take(rows * cols * 8), dtype="<f8")
        arrays[name] = data.reshape(rows, cols).copy()
    if r.pos != len(r.blob):
        raise FormatError(f"{path}: {len(r.blob) - r.pos} trailing bytes at byte {r.pos}")
    return act, arrays, meta


def save_fnn(model, path):
    _write(path, "fnn", model.hidden_act,
           [("w1", model.w1), ("b1", model.b1), ("w2", model.w2), ("b2", model.b2)])


def load_fnn(path):
    act, arrays, _ = _read(path, "fnn")
    return FnnModel(arrays["w1"], arrays["b1"], arrays["w2"], arrays["b2"], act).check()


def save_rnn(model, path):
    arrays = [("wx", model.wx), ("wh", model.wh), ("bh", model.bh),
              ("wy", model.wy), ("by", model.by)]
    if model.embed is not None:
        arrays.append(("embed", model.embed))
    _write(path, "rnn", model.hidden_act, arrays)


def load_rnn(path):
    act, arrays, _ = _read(path, "rnn")
    return RnnModel(arrays.get("embed"), arrays["wx"], arrays["wh"], arrays["bh"],
                    arrays["wy"], arrays["by"], act)


def save_bnn(model, path):
    _write(path, "bnn", model.hidden_act,
           [("w1_mean", model.w1_mean), ("w1_std", model.w1_std),
            ("w2_mean", model.w2_mean), ("w2_std", model.w2_std),
            ("b1", model.b1), ("b2", model.b2)],
           meta={"n_samples": model.n_samples})


def load_bnn(path):
    act, arrays, meta = _read(path, "bnn")
    return BnnModel(arrays["w1_mean"], arrays["w1_std"], arrays["w2_mean"],
                    arrays["w2_std"], arrays["b1"], arrays["b2"], act,
                    int(meta.get("n_samples", 50))).check()
