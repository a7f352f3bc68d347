"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they check: IDX files
are serialized with raw struct packing, linear systems are solved by
Gaussian elimination with partial pivoting, gradients are estimated
with central finite differences, and the transmission of the wavepacket
solver's lattice comes from 2x2 transfer matrices.

The two long 400x400 wavepacket trajectories are stepped once per session
and shared by the tests that read states along them.

Every test runs under a thread-leak guard: it fails if it returns with a
live thread that it started, such as a Bayesian draw worker left running.
"""

import struct
import threading

import numpy as np
import pytest

from qtnn.wavepacket import Scenario, wp_init, wp_step


def write_idx_pair(images, labels, images_path, labels_path):
    """Serialize uint8 images (n, rows, cols) and labels (n,) as IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.tobytes())


def gaussian_elimination_solve(a, b):
    """Solve a x = b by row reduction with partial pivoting."""
    a = np.asarray(a, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64).copy()
    if b.ndim == 1:
        b = b[:, None]
    n = a.shape[0]
    for col in range(n):
        pivot = col + np.argmax(np.abs(a[col:, col]))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def numeric_gradient(loss_fn, params, h=1e-5):
    """Central-difference gradient of loss_fn over a list of arrays."""
    grads = []
    for arr in params:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            gflat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def lattice_transmission(energy, v0, a, dx):
    """Exact transmission T(E) of the tight-binding chain the wavepacket solver steps.

    The chain is -(psi[j+1] - 2 psi[j] + psi[j-1]) / (2 dx^2) + V[j] psi[j] =
    E psi[j] (hbar = m = 1, hopping 1/(2 dx^2)), with V = v0 on the floor(a/dx)
    sites j = 1..N and 0 elsewhere.  Off the barrier the solutions are plane
    waves exp(+-i k j dx) with E = (1 - cos(k dx)) / dx^2.  The barrier's
    transfer matrix M maps (psi[1], psi[0]) to (psi[N+1], psi[N]); in the
    plane-wave basis B it is K = B^-1 M B, and an incoming wave with no wave
    coming back from the right transmits amplitude det(K) / K[1, 1], where
    det(K) = det(M) = 1.
    """
    hop = 1.0 / (2.0 * dx * dx)
    phase = np.exp(1j * np.arccos(1.0 - energy / (2.0 * hop)))  # exp(i k dx)
    site = np.array([[(2.0 * hop + v0 - energy) / hop, -1.0], [1.0, 0.0]])
    transfer = np.linalg.matrix_power(site, int(np.floor(a / dx)))
    basis = np.array([[phase, 1.0 / phase], [1.0, 1.0]])
    k = np.linalg.solve(basis, transfer @ basis)
    return 1.0 / abs(k[1, 1]) ** 2


def relative_error(a, b, floor=1e-12):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail a test that returns with more live threads than it started with."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"test left {len(left)} thread(s) running: {left}")


@pytest.fixture
def synthetic_image_data(tmp_path):
    """A small synthetic MNIST-layout dataset written as IDX files.

    Images carry a class-dependent block pattern plus noise so a classifier
    can actually learn them; returns the dataset root directory.
    """
    rng = np.random.default_rng(1234)
    n_per_class, classes, side = 30, 10, 28
    n = n_per_class * classes
    labels = np.repeat(np.arange(classes), n_per_class).astype(np.uint8)
    images = rng.integers(0, 40, size=(n, side, side), dtype=np.uint8).astype(np.uint8)
    for i, lab in enumerate(labels):
        r, c = divmod(int(lab), 5)
        images[i, r * 14 : r * 14 + 14, c * 5 : c * 5 + 5] = 220
    order = rng.permutation(n)
    images, labels = images[order], labels[order]
    for sub in ("mnist", "fashion-mnist"):
        root = tmp_path / sub
        root.mkdir()
        write_idx_pair(images[: n // 2], labels[: n // 2],
                       root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte")
        write_idx_pair(images[n // 2 :], labels[n // 2 :],
                       root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")
    return tmp_path


class Trajectory:
    """States of one wavepacket run, stepped once with wp_step as wp_run does.

    ``psi[k]`` is a copy of the field after k steps, for k = 0 and each k in
    ``keep``; ``grid(k)`` is a fresh grid holding that state, which a test
    may keep stepping without touching the shared copy.
    """

    def __init__(self, scenario, keep, **grid_kw):
        self.scenario, self.grid_kw = scenario, grid_kw
        grid = wp_init(scenario, **grid_kw)
        self.psi = {0: grid.psi.copy()}
        for step in range(1, max(keep) + 1):
            wp_step(grid)
            if step in keep:
                self.psi[step] = grid.psi.copy()

    def grid(self, step):
        grid = wp_init(self.scenario, **self.grid_kw)
        grid.psi[...] = self.psi[step]
        grid.steps_taken = step
        return grid


@pytest.fixture(scope="session")
def barrier_run():
    """Scenario() on the default grid, to 800 steps (c10, the four phases, the lattice oracle)."""
    return Trajectory(Scenario(), {100, 150, 300, 450, 500, 600, 800})


@pytest.fixture(scope="session")
def double_slit_run():
    """The default double slit, to 700 steps (c10 and the fringes)."""
    return Trajectory(Scenario(kind="double_slit", slit_width=1.0, slit_sep=3.0), {300, 700})
