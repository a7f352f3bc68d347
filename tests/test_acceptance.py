"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria needing the real MNIST / Fashion-MNIST IDX files skip with an
explanation when the files are not under $QTNN_DATA_DIR (default ./data);
everything else runs self-contained.  Run with ``pytest -v -s`` to see the
per-criterion lines.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import numeric_gradient
from qtnn.activation import Activation, BarrierParams, harmonic_spectrum, qt_transmission
from qtnn.bnn import bnn_init, bnn_predict, bnn_sample_forward, bnn_train
from qtnn.cli import canonical_json, main
from qtnn.data import MgConfig, bundled_sentiment_path, data_dir, load_sentiment, mackey_glass
from qtnn.esn import esn_build, esn_fit, esn_free_run, mse_metric, ridge_readout
from qtnn.fnn import fnn_backward, fnn_evaluate, fnn_forward, fnn_init, fnn_train
from qtnn.numerics import Rng, spectral_radius
from qtnn.rnn import rnn_init, rnn_train
from qtnn.trainutil import TrainConfig, init_stream
from qtnn.wavepacket import Scenario, probability_partition, wp_init, wp_step

EV = 1.602176634e-19
ELECTRON_MASS = 9.1093837015e-31
HBAR = 1.054571817e-34

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _announce(criterion, text):
    print(f"[acceptance] {criterion}: {text}: PASS")


def _mnist_present():
    root = data_dir() / "mnist"
    return (root / "train-images-idx3-ubyte").exists()


def _fashion_present():
    root = data_dir() / "fashion-mnist"
    return (root / "train-images-idx3-ubyte").exists()


def test_c01_tunnelling_worked_example():
    p = BarrierParams(v0=10 * EV, a=1e-9, m=ELECTRON_MASS, hbar=HBAR)
    t = qt_transmission(5 * EV, p)
    assert 1e-10 <= t <= 1e-9
    _announce("C1", f"5 eV electron vs 10 eV / 1 nm barrier, T={t:.3e}")


def test_c02_transmission_property_suite():
    # continuity at the barrier top across parameter combinations
    for v0 in (0.7, 2.0, 5.0):
        for a in (0.5, 1.0, 2.0):
            p = BarrierParams(v0=v0, a=a, m=1.0, hbar=1.0)
            center = qt_transmission(v0, p)
            for side in (v0 * (1 - 1e-9), v0 * (1 + 1e-9)):
                assert abs(qt_transmission(side, p) - center) < 1e-6
    # bounds on dense grids
    for v0, a in [(2.0, 1.0), (0.5, 2.5), (5.0, 0.3)]:
        p = BarrierParams(v0=v0, a=a, m=1.0, hbar=1.0)
        t = qt_transmission(np.linspace(0.0, 10.0 * v0, 10_000), p)
        assert t.min() >= 0.0 and t.max() <= 1.0
    # resonance kappa*a = pi gives T = 1 exactly
    p = BarrierParams(v0=2.0, a=1.0, m=1.0, hbar=1.0)
    assert qt_transmission(2.0 + np.pi**2 / 2.0, p) == 1.0
    # derivative against central differences, relative 1e-5; points where the
    # derivative itself vanishes (resonances) are compared absolutely
    from qtnn.activation import qt_transmission_derivative

    h = 1e-6
    grid = np.concatenate([np.linspace(0.03, 1.97, 120), np.linspace(2.03, 25.0, 200)])
    for e in grid:
        fd = (qt_transmission(e + h, p) - qt_transmission(e - h, p)) / (2 * h)
        an = qt_transmission_derivative(e, p)
        if abs(fd) < 1e-8:
            assert abs(an - fd) < 1e-8
        else:
            assert abs(an - fd) / abs(fd) < 1e-5
    _announce("C2", "continuity, bounds, resonance and derivative checks")


def test_c03_harmonic_reproduction():
    def detected(act):
        return harmonic_spectrum(act).detected_frequencies()

    iden = detected(Activation.identity())
    relu = detected(Activation.relu())
    sigm = detected(Activation.sigmoid())
    qt = detected(Activation.qt())
    assert iden == {16.0}
    assert {32.0, 64.0, 96.0} <= relu
    assert {48.0, 80.0} <= sigm and 32.0 not in sigm
    assert {32.0, 48.0} <= qt
    assert len(qt) >= len(relu) >= len(iden)
    _announce("C3", f"16 Hz protocol (qt {len(qt)} >= relu {len(relu)} >= identity {len(iden)} harmonics)")


@pytest.mark.skipif(not _mnist_present(), reason=(
    "MNIST IDX files not found under $QTNN_DATA_DIR/mnist; place "
    "train/t10k images+labels there to run this gate"))
def test_c04_fnn_mnist_scaled():
    from qtnn.data import load_mnist

    cfg = json.loads((CONFIG_DIR / "mnist-fnn-qt.json").read_text())
    act = Activation.qt(BarrierParams(cfg["v0"], cfg["a"], cfg["m"], cfg["hbar"],
                                      cfg["ampl"], cfg["mode"]))
    train = load_mnist("train")
    test = load_mnist("test")
    tc = TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch"],
                     clip_norm=cfg["clip"], seed=cfg["seed"])
    model = fnn_init(train.n_features, cfg["hidden"], train.n_classes, act,
                     init_stream(tc.seed))
    fnn_train(model, train, tc)
    acc, _ = fnn_evaluate(model, test)
    assert acc >= 0.96
    _announce("C4", f"QT-FNN full MNIST 10 epochs, test accuracy {acc:.4f}")


def test_c05_fnn_gradient_oracle():
    kinds = [Activation.qt(), Activation.qt(mode="absolute"), Activation.qt(mode="bipolar"),
             Activation.relu(), Activation.sigmoid(), Activation.tanh(), Activation.identity()]
    rng = np.random.default_rng(7)
    checked = 0
    attempts = 0
    while checked < 50 and attempts < 500:
        attempts += 1
        kind = kinds[checked % len(kinds)]
        n_feat, n_hidden, n_classes = (int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                                       int(rng.integers(2, 4)))
        batch = int(rng.integers(1, 5))
        model = fnn_init(n_feat, n_hidden, n_classes, kind, Rng(int(rng.integers(1 << 30))))
        x = rng.standard_normal((batch, n_feat))
        onehot = np.eye(n_classes)[rng.integers(0, n_classes, batch)]
        if np.min(np.abs(x @ model.w1 + model.b1)) < 1e-4:
            continue  # kink-adjacent point, excluded by the gate's protocol
        _, cache, _, dlogits = fnn_forward(model, x, onehot)
        analytic = fnn_backward(model, cache, dlogits)

        def loss_fn():
            return fnn_forward(model, x, onehot)[2]

        numeric = numeric_gradient(loss_fn, [model.w1, model.b1, model.w2, model.b2], h=1e-5)
        for a, n in zip(analytic, numeric):
            scale = max(np.abs(a).max(), np.abs(n).max(), 1e-4)
            assert np.abs(a - n).max() / scale < 1e-5
        checked += 1
    assert checked == 50
    _announce("C5", "50 random configurations x 7 activation kinds vs finite differences")


def test_c06_rnn_sentiment():
    corpus = load_sentiment(bundled_sentiment_path())

    def convergence(act, seed):
        """(first epoch at 100% train accuracy, first epoch also under loss 0.01)."""
        cfg = TrainConfig(lr=0.05, epochs=1000, batch_size=1, clip_norm=5.0, seed=seed)
        model = rnn_init(corpus.vocab_size, 32, 2, act, init_stream(seed), n_embed=16)
        trace, _, _ = rnn_train(model, corpus, cfg, train_frac=0.75, stop_train_loss=0.01)
        first_100 = next((i + 1 for i, a in enumerate(trace.train_accuracy) if a == 1.0), None)
        perfect = next(
            (i + 1 for i, (a, l) in enumerate(zip(trace.train_accuracy, trace.train_loss))
             if a == 1.0 and l < 0.01),
            None,
        )
        return first_100, perfect

    seeds = (42, 1, 7)
    qt_runs = [convergence(Activation.qt(ampl=5.0), s) for s in seeds]
    tanh_runs = [convergence(Activation.tanh(), s) for s in seeds]
    print(f"[acceptance] C6 (epochs to 100%, epochs to 100%+loss<0.01) per seed {seeds}: "
          f"qt={qt_runs} tanh={tanh_runs}")
    # QT must reach 100% train accuracy with loss below 0.01 inside the budget
    assert all(perfect is not None for _, perfect in qt_runs)
    # the logged comparison: tanh converges no faster in epochs-to-100%
    med_qt = sorted(first for first, _ in qt_runs)[1]
    med_tanh = sorted((first if first is not None else 1001) for first, _ in tanh_runs)[1]
    assert med_qt <= med_tanh, "tanh converged faster than QT"
    _announce("C6", f"QT-RNN median {med_qt} epochs to 100% <= tanh median {med_tanh}")


def test_c07_bnn_properties():
    from qtnn.data import LabeledDataset

    # exact std=0 equivalence: forward, prediction, training trajectory
    rng = np.random.default_rng(0)
    inputs = rng.random((24, 6))
    labels = rng.integers(0, 3, 24)
    data = LabeledDataset(inputs, labels, list("abc"))
    cfg = TrainConfig(lr=0.2, epochs=3, batch_size=1, clip_norm=5.0, seed=5)
    bmodel = bnn_init(6, 5, 3, Activation.qt(), init_stream(cfg.seed), std_init=0.0)
    fmodel = fnn_init(6, 5, 3, Activation.qt(), init_stream(cfg.seed))
    bp, _, _, _, _ = bnn_sample_forward(bmodel, inputs, Rng(1))
    fp, _, _, _ = fnn_forward(fmodel, inputs)
    assert np.array_equal(bp, fp)
    # the posterior average of identical draws differs from one draw only by
    # the accumulation rounding of the mean
    assert np.allclose(bnn_predict(bmodel, inputs, Rng(2)), fp, atol=1e-15, rtol=0)
    bnn_train(bmodel, data, cfg)
    fnn_train(fmodel, data, cfg)
    assert np.array_equal(bmodel.w1_mean, fmodel.w1)
    assert np.array_equal(bmodel.w2_mean, fmodel.w2)
    # averaged prediction rows are distributions
    noisy = bnn_init(6, 5, 3, Activation.qt(), init_stream(1), std_init=0.1)
    pred = bnn_predict(noisy, inputs, Rng(3))
    assert np.max(np.abs(pred.sum(axis=1) - 1.0)) < 1e-12
    # zero prediction variance iff std = 0
    outs0 = [bnn_predict(bmodel, inputs[:1], Rng(t)) for t in range(10)]
    assert all(np.array_equal(o, outs0[0]) for o in outs0)
    outs1 = np.array([bnn_predict(noisy, inputs[:1], Rng(t)) for t in range(10)])
    assert outs1.std(axis=0).max() > 1e-4
    _announce("C7", "std=0 equivalence, probability rows, prediction variance")


@pytest.mark.skipif(not _fashion_present(), reason=(
    "Fashion-MNIST IDX files not found under $QTNN_DATA_DIR/fashion-mnist; "
    "place train/t10k images+labels there to run this gate"))
def test_c07b_bnn_fashion_scaled():
    from qtnn.data import load_fashion_mnist

    cfg = json.loads((CONFIG_DIR / "fashion-bnn-qt.json").read_text())
    act = Activation.qt(BarrierParams(cfg["v0"], cfg["a"], cfg["m"], cfg["hbar"],
                                      cfg["ampl"], cfg["mode"]))
    train = load_fashion_mnist("train").subset(np.arange(cfg["train_limit"]))
    test = load_fashion_mnist("test").subset(np.arange(cfg["test_limit"]))
    tc = TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], batch_size=1,
                     clip_norm=None, seed=cfg["seed"])
    model = bnn_init(train.n_features, cfg["hidden"], train.n_classes, act,
                     init_stream(tc.seed), std_init=cfg["std"], n_samples=cfg["samples"])
    trace = bnn_train(model, train, tc, eval_data=test)
    acc = trace.eval_accuracy[-1]
    assert acc >= 0.75
    _announce("C7", f"QT-BNN Fashion-MNIST 10k/2k, 30 epochs, test accuracy {acc:.4f}")


def _esn_gate_mse(config_name, n_seeds=5):
    cfg = json.loads((CONFIG_DIR / config_name).read_text())
    if cfg["act"] == "qt":
        act = Activation.qt(BarrierParams(cfg["v0"], cfg["a"], cfg["m"], cfg["hbar"],
                                          cfg["ampl"], cfg["mode"]))
    else:
        act = Activation.tanh()
    series = mackey_glass(MgConfig(), cfg["train"] + cfg["horizon"])
    train, target = series[: cfg["train"]], series[cfg["train"] :]
    results = []
    for seed in range(n_seeds):
        model = esn_build(n_reservoir=cfg["n"], rho_target=cfg["rho"],
                          density=cfg["density"], seed=seed, act=act,
                          allow_rho_ge_1=cfg["allow_rho_ge_1"],
                          washout=cfg["washout"], ridge_lambda=cfg["ridge"])
        esn_fit(model, train)
        # the first 500 autonomous steps are what the gate scores
        forecast = esn_free_run(model, train, 500)
        if np.isfinite(forecast).all():
            results.append(mse_metric(forecast, target[:500]))
        else:
            results.append(float("inf"))
    return sorted(results)[n_seeds // 2], results


def test_c08_esn_mackey_glass():
    med_tanh, all_tanh = _esn_gate_mse("mgts-esn-tanh.json")
    print(f"[acceptance] C8 tanh mse500 per seed: {['%.2e' % v for v in all_tanh]}")
    med_qt, all_qt = _esn_gate_mse("mgts-esn-qt.json")
    print(f"[acceptance] C8 qt-bipolar mse500 per seed: {['%.2e' % v for v in all_qt]}")
    best = min(med_tanh, med_qt)
    assert best <= 1e-3, f"neither activation met the gate (tanh {med_tanh:.2e}, qt {med_qt:.2e})"
    _announce("C8", f"median free-run MSE(500): tanh {med_tanh:.2e}, qt-bipolar {med_qt:.2e}")


def test_c09_esn_structure():
    model = esn_build(n_reservoir=300, rho_target=0.95, density=0.1, seed=2)
    assert abs(spectral_radius(model.w_res) - 0.95) < 1e-4
    # ridge readout against an elimination oracle on a small instance
    from conftest import gaussian_elimination_solve

    rng = np.random.default_rng(1)
    states = rng.standard_normal((12, 60))
    targets = rng.standard_normal((1, 60))
    w = ridge_readout(states, targets, 1e-6)
    oracle = gaussian_elimination_solve(states @ states.T + 1e-6 * np.eye(12),
                                        states @ targets.T).T
    assert np.max(np.abs(w - oracle)) < 1e-8
    # fading memory at rho = 0.95
    from qtnn.esn import _drive

    mem = esn_build(n_reservoir=200, rho_target=0.95, density=0.1, seed=3)
    h1 = np.zeros(200)
    h2 = np.random.default_rng(0).standard_normal(200)
    d0 = np.linalg.norm(h1 - h2)
    for u in np.random.default_rng(1).random(200):
        h1 = _drive(mem, h1, u)
        h2 = _drive(mem, h2, u)
    assert np.linalg.norm(h1 - h2) < 1e-6 * d0
    _announce("C9", "radius scaling, ridge oracle, fading memory")


def test_c10_wavepacket(barrier_run, double_slit_run):
    # norm drift and probability partition, default barrier scenario, 400x400
    grid = barrier_run.grid(500)  # Scenario() after 500 wp_step calls
    drift = abs(1.0 - grid.norm())
    assert drift < 1e-6
    part = probability_partition(grid)
    total = part["reflected"] + part["residual"] + part["transmitted"]
    assert abs(total - 1.0) < 1e-4
    assert 0.0 < part["transmitted"] < 0.5
    # time reversal
    grid2 = barrier_run.grid(100)
    psi0 = barrier_run.psi[0]
    grid2.dt = -grid2.dt
    for _ in range(100):
        wp_step(grid2)
    assert np.abs(grid2.psi - psi0).max() < 1e-6
    # double-slit mirror symmetry after 300 steps
    final = double_slit_run.grid(300).density()
    assert np.abs(final - final[:, ::-1]).max() < 1e-6
    # free-packet group velocity within 1% (lattice dispersion controlled)
    free = Scenario(v0=0.0, k0x=1.0, x0=10.0)
    gv = wp_init(free)
    x = np.arange(gv.nx) * gv.dx
    p = gv.density()
    c0 = (p.sum(axis=1) * x).sum() / p.sum()
    for _ in range(400):
        wp_step(gv)
    p = gv.density()
    c1 = (p.sum(axis=1) * x).sum() / p.sum()
    velocity = (c1 - c0) / (400 * gv.dt)
    assert abs(velocity - 1.0) / 1.0 < 0.01
    _announce("C10", f"norm drift {drift:.1e}, reversal, partition, symmetry, v_g={velocity:.4f}")


def test_c11_cli_determinism(tmp_path, monkeypatch, synthetic_image_data):
    monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
    monkeypatch.chdir(tmp_path)
    rep = tmp_path / "report.json"
    commands = {
        "activation": ["activation", "--out", str(tmp_path / "c.csv"),
                       "--report", str(rep)],
        "spectrum": ["spectrum", "--fn", "qt", "--out", str(rep)],
        "train fnn": ["train", "fnn", "--hidden", "8", "--epochs", "2",
                      "--batch", "16", "--seed", "3", "--out", str(rep)],
        "train rnn": ["train", "rnn", "--hidden", "8", "--epochs", "2",
                      "--seed", "3", "--out", str(rep)],
        "train bnn": ["train", "bnn", "--hidden", "8", "--epochs", "1",
                      "--samples", "4", "--train-limit", "50", "--test-limit", "20",
                      "--seed", "3", "--out", str(rep)],
        "esn": ["esn", "--n", "80", "--rho", "0.9", "--train", "400",
                "--horizon", "50", "--washout", "40", "--seed", "4",
                "--out", str(rep)],
        "wavepacket": ["wavepacket", "--nx", "96", "--ny", "96", "--steps", "20",
                       "--snapshot-every", "0", "--x0", "3.2", "--sigma", "0.6",
                       "--barrier-x", "6.4", "--outdir", str(tmp_path / "frames"),
                       "--out", str(rep)],
    }
    for name, cmd in commands.items():
        outputs = []
        for _ in range(2):
            assert main(cmd) == 0, f"{name} failed"
            doc = json.loads(rep.read_text())
            doc.pop("wall_clock_sec")
            outputs.append(canonical_json(doc))
        assert outputs[0] == outputs[1], f"{name} report not reproducible"
    _announce("C11", f"{len(commands)} subcommands byte-identical on rerun")
