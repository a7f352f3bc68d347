"""Seeded synthetic inputs for the benchmark workloads.

Everything here draws from ``numpy.random.default_rng`` and never from
``qtnn.numerics.Rng``, so a change to the program's own generator cannot
change what the benchmark feeds it.

The image sets are synthetic stand-ins with MNIST geometry (28x28 uint8
pixels, 10 classes, IDX files): each class has its own set of "stroke"
pixels that light up often, the rest light up rarely, which gives about 19%
non-zero pixels (as in real MNIST) and a class structure a classifier can
learn.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

SIDE = 28
CLASSES = 10
STROKE_FRACTION = 0.20   # share of pixels that belong to a class's strokes
P_STROKE = 0.55          # chance a stroke pixel is lit
P_BACKGROUND = 0.10      # chance any other pixel is lit
_CHUNK_ROWS = 4096


def synthetic_images(rng, n_rows):
    """(images uint8 [n, 28, 28], labels uint8 [n]) with learnable classes."""
    n_pixels = SIDE * SIDE
    n_stroke = int(round(STROKE_FRACTION * n_pixels))
    p_on = np.full((CLASSES, n_pixels), P_BACKGROUND, dtype=np.float32)
    for cls in range(CLASSES):
        p_on[cls, rng.choice(n_pixels, n_stroke, replace=False)] = P_STROKE
    labels = rng.integers(0, CLASSES, size=n_rows).astype(np.uint8)
    images = np.zeros((n_rows, n_pixels), dtype=np.uint8)
    for start in range(0, n_rows, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n_rows)
        lit = rng.random((stop - start, n_pixels), dtype=np.float32) < p_on[labels[start:stop]]
        ink = rng.integers(1, 256, size=lit.shape, dtype=np.uint8)
        images[start:stop] = np.where(lit, ink, 0)
    return images.reshape(n_rows, SIDE, SIDE), labels


def write_idx_pair(images, labels, images_path, labels_path):
    """Serialize images (n, rows, cols) and labels (n,) as big-endian IDX files."""
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_image_set(seed, n_train, n_test, root):
    """Write train and t10k IDX pairs under ``root``; returns paths and density.

    Train and test share one set of class prototypes, drawn first from the
    seed, so the test rows are scoreable by a model fitted on the train rows.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    images, labels = synthetic_images(np.random.default_rng(seed), n_train + n_test)
    paths = {}
    for split, lo, hi in (("train", 0, n_train), ("t10k", n_train, n_train + n_test)):
        img = root / f"{split}-images-idx3-ubyte"
        lab = root / f"{split}-labels-idx1-ubyte"
        write_idx_pair(images[lo:hi], labels[lo:hi], img, lab)
        paths[split] = (img, lab)
    return paths, float(np.count_nonzero(images)) / images.size


def write_shuffled_corpus(seed, source, dest):
    """Copy a ``text,label`` CSV with its data rows in a seed-determined order."""
    with open(source, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], [r for r in rows[1:] if r]
    order = np.random.default_rng(seed).permutation(len(body))
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body[i] for i in order)
    return Path(dest)
