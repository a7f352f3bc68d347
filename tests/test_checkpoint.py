import numpy as np
import pytest

from qtnn import checkpoint
from qtnn.activation import Activation
from qtnn.bnn import bnn_init
from qtnn.checkpoint import load_bnn, load_rnn, save_bnn, save_rnn
from qtnn.data import FormatError
from qtnn.fnn import fnn_init
from qtnn.numerics import Rng, ShapeError
from qtnn.rnn import rnn_init

ARCHS = {
    "fnn": (lambda: fnn_init(5, 4, 3, Activation.qt(), Rng(1)),
            checkpoint.save_fnn, checkpoint.load_fnn, checkpoint._FNN),
    "rnn": (lambda: rnn_init(7, 5, 2, Activation.qt(), Rng(2), n_embed=3),
            save_rnn, load_rnn, checkpoint._RNN),
    "bnn": (lambda: bnn_init(5, 4, 3, Activation.qt(), Rng(3), std_init=0.05),
            save_bnn, load_bnn, checkpoint._BNN),
}


def name_offsets(blob, model, names):
    """Byte offset of each array name's first character, walking the file's array records."""
    offsets, pos = {}, 0
    for name in names:
        pos = blob.index(bytes([len(name)]) + name.encode(), pos) + 1
        offsets[name] = pos
        pos += len(name) + 8 + getattr(model, name).size * 8
    return offsets


@pytest.mark.parametrize("arch", ARCHS)
def test_flipped_name_byte_rejected(tmp_path, arch):
    build, save, load, names = ARCHS[arch]
    model = build()
    path = tmp_path / f"{arch}.qtnn"
    save(model, path)
    blob = path.read_bytes()
    rng = np.random.default_rng(5)
    for name, start in name_offsets(blob, model, names).items():
        for pos in range(start, start + len(name)):
            for mask in rng.integers(1, 256, 3).tolist():
                bad = bytearray(blob)
                bad[pos] ^= mask
                path.write_bytes(bytes(bad))
                with pytest.raises(FormatError) as err:
                    load(path)
                try:
                    flipped = bad[start:start + len(name)].decode("utf-8")
                except UnicodeDecodeError:
                    assert "is not UTF-8" in str(err.value)
                else:
                    assert f"unexpected array {flipped!r} at byte {start - 1}" in str(err.value)


def test_missing_embed_rejected(tmp_path):
    # the layout of an RNN without an embedding
    path = tmp_path / "rnn.qtnn"
    checkpoint._write(path, "rnn", ARCHS["rnn"][0](), ("wx", "wh", "bh", "wy", "by"))
    with pytest.raises(FormatError, match="missing array 'embed'"):
        load_rnn(path)


def test_duplicate_array_rejected(tmp_path):
    path = tmp_path / "fnn.qtnn"
    checkpoint._write(path, "fnn", ARCHS["fnn"][0](), ("w1", "b1", "w2", "b2", "b2"))
    with pytest.raises(FormatError, match="unexpected array 'b2'"):
        checkpoint.load_fnn(path)


def test_rnn_shapes_checked(tmp_path):
    model = rnn_init(7, 5, 2, Activation.tanh(), Rng(2), n_embed=4)
    model.wx = np.zeros((4, 3))
    path = tmp_path / "rnn.qtnn"
    save_rnn(model, path)
    with pytest.raises(ShapeError, match=r"wh is \(5, 5\), expected \(3, 3\)"):
        load_rnn(path)


@pytest.mark.parametrize("meta, message", [
    ({}, "missing metadata key 'n_samples'"),
    ({"n_samples": 3.0, "n_sample": 3.0}, "unexpected metadata key 'n_sample'"),
    ({"n_samples": 2.5}, "n_samples 2.5 is not an integer"),
    ({"n_samples": float("nan")}, "n_samples nan is not an integer"),
])
def test_bnn_metadata_checked(tmp_path, meta, message):
    path = tmp_path / "bnn.qtnn"
    checkpoint._write(path, "bnn", ARCHS["bnn"][0](), checkpoint._BNN, meta=meta)
    with pytest.raises(FormatError, match=message):
        load_bnn(path)


def test_bnn_layer_shapes_checked(tmp_path):
    model = ARCHS["bnn"][0]()
    model.b1 = np.zeros((1, 3))
    path = tmp_path / "bnn.qtnn"
    save_bnn(model, path)
    with pytest.raises(ShapeError, match="bias shapes"):
        load_bnn(path)
