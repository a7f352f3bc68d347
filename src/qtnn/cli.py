"""Command-line benchmark harness.

Subcommands map one-to-one onto the package's experiment surface::

    qtnn activation   transmission curve T(E), dT/dE as CSV
    qtnn spectrum     harmonic analysis of an activated sinusoid
    qtnn train fnn    feedforward classifier on MNIST-layout data
    qtnn train rnn    recurrent classifier on a sentiment corpus
    qtnn train bnn    Bayesian classifier on Fashion-MNIST-layout data
    qtnn esn          echo-state forecast of a Mackey-Glass series
    qtnn wavepacket   2-D wavepacket scenario with density frames

Every subcommand accepts ``--config FILE`` with a JSON object of the same
keys as its flags; explicit flags override the file.  Reports are written
as canonical JSON (sorted keys, floats at 17 significant digits) so two
runs with one seed differ at most in the wall-clock field.  Exit codes:
0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import checkpoint
from .activation import (
    Activation,
    BarrierParams,
    harmonic_spectrum,
    qt_transmission,
    qt_transmission_derivative,
    spectrum_to_csv,
)
from .bnn import bnn_init, bnn_train
from .data import (
    FormatError,
    bundled_sentiment_path,
    load_fashion_mnist,
    load_mnist,
    load_sentiment,
    MgConfig,
    mackey_glass,
)
from .esn import esn_build, esn_fit, esn_free_run, mse_metric, nmse_metric
from .fnn import fnn_evaluate, fnn_init, fnn_train
from .numerics import InputError, ShapeError, SingularMatrixError
from .rnn import rnn_init, rnn_train
from .trainutil import TrainConfig, TrainingDiverged, init_stream
from .wavepacket import (
    NumericalFailure,
    Scenario,
    frame_to_pgm16,
    frame_to_text,
    wp_run,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (1 on bad input)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_INPUT)


# ---------------------------------------------------------------------------
# canonical report serialization
# ---------------------------------------------------------------------------

def _canonical(value):
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_canonical(v)}" for k, v in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            return json.dumps(value)  # Infinity / NaN tokens, json.loads-readable
        return f"{value:.17g}"
    if isinstance(value, (str, Path)):
        return json.dumps(str(value))
    raise TypeError(f"cannot serialize {type(value)} in a report")


def canonical_json(report):
    return _canonical(report) + "\n"


def write_report(report, path):
    """Write canonical JSON; IO problems are numerical-failure exits (2)."""
    try:
        Path(path).write_text(canonical_json(report), encoding="utf-8")
    except OSError as err:
        raise ReportIOError(f"cannot write report to {path}: {err}") from err


class ReportIOError(OSError):
    pass


# ---------------------------------------------------------------------------
# config-file / flag merging
# ---------------------------------------------------------------------------

def _merge_config(defaults, args, keys):
    """defaults <- config file <- explicitly passed flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise InputError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as err:
            raise InputError(f"config file {path} is not valid JSON: {err}")
        unknown = set(loaded) - set(keys)
        if unknown:
            raise InputError(f"config file {path} has unknown keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _activation_from(cfg):
    kind = cfg["activation"]
    if kind != "qt":
        return Activation(kind)
    return Activation.qt(
        BarrierParams(
            v0=cfg["v0"], a=cfg["a"], m=cfg["m"], hbar=cfg["hbar"],
            ampl=cfg["ampl"], mode=cfg["mode"],
        )
    )


_BARRIER_DEFAULTS = {
    "v0": 2.0, "a": 1.0, "m": 1.0, "hbar": 1.0, "ampl": 1.0, "mode": "rectified",
}


def _add_barrier_flags(p):
    p.add_argument("--v0", type=float, help="barrier height (default 2)")
    p.add_argument("--a", type=float, help="barrier width (default 1)")
    p.add_argument("--m", type=float, help="particle mass (default 1)")
    p.add_argument("--hbar", type=float, help="reduced Planck constant (default 1)")
    p.add_argument("--ampl", type=float, help="input-to-energy scale (default 1)")
    p.add_argument("--mode", choices=["rectified", "absolute", "bipolar"],
                   help="input mapping for qt (default rectified)")


def _add_common(p):
    p.add_argument("--config", help="JSON file with the same keys as the flags")
    p.add_argument("--out", help="report/output path")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (report, default_out_name)
# ---------------------------------------------------------------------------

def _cmd_activation(args, argv):
    """--out is the transmission-curve CSV; --report optionally adds JSON."""
    keys = ["emax", "points", "seed", *(_BARRIER_DEFAULTS)]
    cfg = _merge_config({"emax": 10.0, "points": 1000, "seed": 0, **_BARRIER_DEFAULTS},
                        args, keys)
    params = BarrierParams(v0=cfg["v0"], a=cfg["a"], m=cfg["m"], hbar=cfg["hbar"],
                           ampl=cfg["ampl"], mode=cfg["mode"])
    energies = np.linspace(0.0, cfg["emax"], int(cfg["points"]))
    t = qt_transmission(energies, params)
    dt = qt_transmission_derivative(energies, params)
    out = args.out or "activation_curve.csv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("energy,transmission,derivative\n")
        for e, tv, dv in zip(energies, t, dt):
            fh.write(f"{e:.17g},{tv:.17g},{dv:.17g}\n")
    report = {
        "command": argv,
        "config": cfg,
        "seed": cfg["seed"],
        "metrics": {"t_min": float(t.min()), "t_max": float(t.max())},
        "artifacts": [out],
    }
    return report, getattr(args, "report", None)


def _cmd_spectrum(args, argv):
    keys = ["fn", "f0", "fs", "n", "threshold_db", "csv", "seed", *_BARRIER_DEFAULTS]
    cfg = _merge_config(
        {"fn": "qt", "f0": 16.0, "fs": 1024.0, "n": 1024, "threshold_db": -70.0,
         "csv": None, "seed": 0, **_BARRIER_DEFAULTS},
        args, keys)
    act = _activation_from({**cfg, "activation": cfg["fn"]})
    report_obj = harmonic_spectrum(act, f0=cfg["f0"], fs=cfg["fs"], n=int(cfg["n"]),
                                   threshold_db=cfg["threshold_db"])
    artifacts = []
    if cfg["csv"]:
        spectrum_to_csv(report_obj, cfg["csv"])
        artifacts.append(cfg["csv"])
    report = {
        "command": argv,
        "config": cfg,
        "seed": cfg["seed"],
        "metrics": {
            "detected": [
                {"k": k, "freq_hz": f, "rel_db": db} for k, f, db in report_obj.detected
            ],
            "n_detected": len(report_obj.detected),
        },
        "artifacts": artifacts,
    }
    return report, (args.out or "spectrum_report.json")


def _load_image_data(cfg):
    name = cfg["dataset"]
    if name == "mnist":
        return load_mnist("train"), load_mnist("test")
    if name == "fashion":
        return load_fashion_mnist("train"), load_fashion_mnist("test")
    raise InputError(f"unknown dataset {name!r} (expected mnist or fashion)")


def _cmd_train_fnn(args, argv):
    keys = ["activation", "dataset", "hidden", "lr", "batch", "clip", "epochs",
            "seed", "checkpoint", "train_limit", "test_limit", *_BARRIER_DEFAULTS]
    cfg = _merge_config(
        {"activation": "qt", "dataset": "mnist", "hidden": 512, "lr": 0.01,
         "batch": 64, "clip": 5.0, "epochs": 10, "seed": 42, "checkpoint": None,
         "train_limit": None, "test_limit": None, **_BARRIER_DEFAULTS},
        args, keys)
    act = _activation_from(cfg)
    train, test = _load_image_data(cfg)
    if cfg["train_limit"]:
        train = train.subset(np.arange(int(cfg["train_limit"])))
    if cfg["test_limit"]:
        test = test.subset(np.arange(int(cfg["test_limit"])))
    tc = TrainConfig(lr=cfg["lr"], epochs=int(cfg["epochs"]),
                     batch_size=int(cfg["batch"]), clip_norm=cfg["clip"],
                     seed=int(cfg["seed"]))
    model = fnn_init(train.n_features, int(cfg["hidden"]), train.n_classes, act,
                     init_stream(tc.seed))
    trace = fnn_train(model, train, tc, eval_data=test)
    test_acc, test_loss = fnn_evaluate(model, test)
    artifacts = []
    if cfg["checkpoint"]:
        checkpoint.save_fnn(model, cfg["checkpoint"])
        artifacts.append(cfg["checkpoint"])
    report = {
        "command": argv,
        "config": cfg,
        "seed": tc.seed,
        "per_epoch": json.loads(trace.to_json()),
        "metrics": {
            "final_train_accuracy": trace.train_accuracy[-1],
            "final_train_loss": trace.train_loss[-1],
            "test_accuracy": test_acc,
            "test_loss": test_loss,
        },
        "artifacts": artifacts,
    }
    return report, (args.out or "fnn_report.json")


def _cmd_train_rnn(args, argv):
    keys = ["activation", "corpus", "hidden", "embed", "lr", "clip", "epochs",
            "seed", "stop_loss", "train_frac", "checkpoint", *_BARRIER_DEFAULTS]
    cfg = _merge_config(
        {"activation": "qt", "corpus": None, "hidden": 32, "embed": 16,
         "lr": 0.05, "clip": 5.0, "epochs": 1000, "seed": 42, "stop_loss": None,
         "train_frac": 0.75, "checkpoint": None, **_BARRIER_DEFAULTS},
        args, keys)
    act = _activation_from(cfg)
    corpus_path = cfg["corpus"] or str(bundled_sentiment_path())
    corpus = load_sentiment(corpus_path)
    tc = TrainConfig(lr=cfg["lr"], epochs=int(cfg["epochs"]), batch_size=1,
                     clip_norm=cfg["clip"], seed=int(cfg["seed"]))
    model = rnn_init(corpus.vocab_size, int(cfg["hidden"]), 2, act,
                     init_stream(tc.seed), n_embed=int(cfg["embed"]))
    trace, train_set, test_set = rnn_train(
        model, corpus, tc, train_frac=cfg["train_frac"], stop_train_loss=cfg["stop_loss"]
    )
    artifacts = []
    if cfg["checkpoint"]:
        checkpoint.save_rnn(model, cfg["checkpoint"])
        artifacts.append(cfg["checkpoint"])
    epochs_to_perfect = None
    for i, (acc_v, loss_v) in enumerate(zip(trace.train_accuracy, trace.train_loss)):
        if acc_v == 1.0 and loss_v < 0.01:
            epochs_to_perfect = i + 1
            break
    report = {
        "command": argv,
        "config": {**cfg, "corpus": corpus_path},
        "seed": tc.seed,
        "per_epoch": json.loads(trace.to_json()),
        "metrics": {
            "epochs_run": trace.epochs_run,
            "epochs_to_perfect": epochs_to_perfect,
            "final_train_accuracy": trace.train_accuracy[-1],
            "final_train_loss": trace.train_loss[-1],
            "final_test_accuracy": trace.eval_accuracy[-1] if trace.eval_accuracy else None,
            "final_test_loss": trace.eval_loss[-1] if trace.eval_loss else None,
            "n_train": len(train_set.phrases),
            "n_test": len(test_set.phrases),
        },
        "artifacts": artifacts,
    }
    return report, (args.out or "rnn_report.json")


def _cmd_train_bnn(args, argv):
    keys = ["activation", "dataset", "hidden", "lr", "epochs", "seed", "samples",
            "std", "train_limit", "test_limit", "checkpoint", *_BARRIER_DEFAULTS]
    cfg = _merge_config(
        {"activation": "qt", "dataset": "fashion", "hidden": 512, "lr": 0.5,
         "epochs": 30, "seed": 42, "samples": 50, "std": 0.01,
         "train_limit": 10000, "test_limit": 2000, "checkpoint": None,
         **_BARRIER_DEFAULTS},
        args, keys)
    act = _activation_from(cfg)
    train, test = _load_image_data(cfg)
    if cfg["train_limit"]:
        train = train.subset(np.arange(int(cfg["train_limit"])))
    if cfg["test_limit"]:
        test = test.subset(np.arange(int(cfg["test_limit"])))
    tc = TrainConfig(lr=cfg["lr"], epochs=int(cfg["epochs"]), batch_size=1,
                     clip_norm=None, seed=int(cfg["seed"]))
    model = bnn_init(train.n_features, int(cfg["hidden"]), train.n_classes, act,
                     init_stream(tc.seed), std_init=cfg["std"],
                     n_samples=int(cfg["samples"]))
    trace = bnn_train(model, train, tc, eval_data=test)
    artifacts = []
    if cfg["checkpoint"]:
        checkpoint.save_bnn(model, cfg["checkpoint"])
        artifacts.append(cfg["checkpoint"])
    report = {
        "command": argv,
        "config": cfg,
        "seed": tc.seed,
        "per_epoch": json.loads(trace.to_json()),
        "metrics": {
            "final_train_accuracy": trace.train_accuracy[-1],
            "final_train_loss": trace.train_loss[-1],
            "test_accuracy": trace.eval_accuracy[-1] if trace.eval_accuracy else None,
            "test_loss": trace.eval_loss[-1] if trace.eval_loss else None,
        },
        "artifacts": artifacts,
    }
    return report, (args.out or "bnn_report.json")


def _cmd_esn(args, argv):
    keys = ["act", "n", "rho", "density", "ridge", "washout", "train", "horizon",
            "seed", "forecast_csv", "allow_rho_ge_1", *_BARRIER_DEFAULTS]
    cfg = _merge_config(
        {"act": "tanh", "n": 1000, "rho": 0.95, "density": 0.1, "ridge": 1e-8,
         "washout": 100, "train": 2000, "horizon": 2000, "seed": 0,
         "forecast_csv": None, "allow_rho_ge_1": False,
         **{**_BARRIER_DEFAULTS, "ampl": 2.0, "mode": "bipolar"}},
        args, keys)
    act = _activation_from({**cfg, "activation": cfg["act"]})
    n_train, horizon = int(cfg["train"]), int(cfg["horizon"])
    series = mackey_glass(MgConfig(), n_train + horizon)
    train, target = series[:n_train], series[n_train:]
    model = esn_build(
        n_reservoir=int(cfg["n"]), rho_target=cfg["rho"], density=cfg["density"],
        seed=int(cfg["seed"]), act=act, allow_rho_ge_1=bool(cfg["allow_rho_ge_1"]),
        washout=int(cfg["washout"]), ridge_lambda=cfg["ridge"],
    )
    esn_fit(model, train)
    forecast = esn_free_run(model, train, horizon)
    finite = np.isfinite(forecast).all()
    mse_full = mse_metric(forecast, target) if finite else float("inf")
    nmse_full = nmse_metric(forecast, target) if finite else float("inf")
    artifacts = []
    if cfg["forecast_csv"]:
        with open(cfg["forecast_csv"], "w", encoding="utf-8") as fh:
            fh.write("t,target,prediction\n")
            for t in range(horizon):
                fh.write(f"{t},{target[t]:.17g},{forecast[t]:.17g}\n")
        artifacts.append(cfg["forecast_csv"])
    metrics = {"act": act.label(), "rho": cfg["rho"], "lambda": cfg["ridge"]}
    if horizon >= 500:  # a shorter forecast has no 500-step window to score
        metrics["mse_500"] = (
            mse_metric(forecast[:500], target[:500]) if finite else float("inf"))
    metrics[f"mse_{horizon}"] = mse_full
    metrics[f"nmse_{horizon}"] = nmse_full
    report = {
        "command": argv,
        "config": cfg,
        "seed": int(cfg["seed"]),
        "metrics": metrics,
        "artifacts": artifacts,
    }
    return report, (args.out or "esn_report.json")


def _cmd_wavepacket(args, argv):
    keys = ["scenario", "nx", "ny", "dx", "dt", "steps", "snapshot_every",
            "format", "outdir", "v0", "barrier_x", "thickness", "slit_width",
            "slit_sep", "x0", "y0", "sigma", "k0x", "seed"]
    cfg = _merge_config(
        {"scenario": "barrier", "nx": 400, "ny": 400, "dx": 0.1, "dt": 0.005,
         "steps": 500, "snapshot_every": 100, "format": "text", "outdir": "frames",
         "v0": None, "barrier_x": 20.0, "thickness": 0.5, "slit_width": 1.0,
         "slit_sep": 3.0, "x0": 10.0, "y0": None, "sigma": 2.0, "k0x": 5.0,
         "seed": 0},
        args, keys)
    if cfg["format"] not in ("text", "pgm"):
        raise InputError("format must be text or pgm")
    v0 = cfg["v0"] if cfg["v0"] is not None else 1.25 * 0.5 * cfg["k0x"] ** 2
    scenario = Scenario(
        kind=cfg["scenario"], barrier_x=cfg["barrier_x"], thickness=cfg["thickness"],
        v0=v0, slit_width=cfg["slit_width"], slit_sep=cfg["slit_sep"],
        x0=cfg["x0"], y0=cfg["y0"], sigma=cfg["sigma"], k0x=cfg["k0x"],
    )
    frames, summary = wp_run(
        scenario, int(cfg["steps"]), snapshot_every=int(cfg["snapshot_every"]),
        nx=int(cfg["nx"]), ny=int(cfg["ny"]), dx=cfg["dx"], dt=cfg["dt"],
    )
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    frame_files = []
    for step, frame in frames:
        if cfg["format"] == "pgm":
            path = outdir / f"frame_{step:06d}.pgm"
            frame_to_pgm16(frame, path)
        else:
            path = outdir / f"frame_{step:06d}.txt"
            frame_to_text(frame, path)
        frame_files.append(str(path))
    manifest = {
        "scenario": cfg["scenario"], "dt": cfg["dt"], "dx": cfg["dx"],
        "steps": int(cfg["steps"]), "frames": frame_files,
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(canonical_json(manifest), encoding="utf-8")
    report = {
        "command": argv,
        "config": {**cfg, "v0": v0},
        "seed": int(cfg["seed"]),
        "metrics": summary,
        "artifacts": frame_files + [str(manifest_path)],
    }
    return report, (args.out or "wavepacket_report.json")


# ---------------------------------------------------------------------------

def _build_parser():
    parser = _Parser(prog="qtnn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("activation", help="export a T(E) curve as CSV")
    _add_common(p)
    _add_barrier_flags(p)
    p.add_argument("--emax", type=float, help="upper energy bound (default 10)")
    p.add_argument("--points", type=int, help="number of samples (default 1000)")
    p.add_argument("--report", help="also write a JSON report here")
    p.set_defaults(func=_cmd_activation)

    p = sub.add_parser("spectrum", help="harmonic spectrum of an activated sinusoid")
    _add_common(p)
    _add_barrier_flags(p)
    p.add_argument("--fn", choices=["qt", "relu", "sigmoid", "tanh", "identity"],
                   help="activation to analyze (default qt)")
    p.add_argument("--f0", type=float, help="drive frequency Hz (default 16)")
    p.add_argument("--fs", type=float, help="sample rate Hz (default 1024)")
    p.add_argument("--n", type=int, help="sample count, power of two (default 1024)")
    p.add_argument("--threshold-db", dest="threshold_db", type=float,
                   help="detection threshold dB relative to the main peak (default -70)")
    p.add_argument("--csv", help="also export the full spectrum as CSV")
    p.set_defaults(func=_cmd_spectrum)

    train = sub.add_parser("train", help="train a network")
    train_sub = train.add_subparsers(dest="arch", parser_class=_Parser)

    p = train_sub.add_parser("fnn", help="feedforward classifier")
    _add_common(p)
    _add_barrier_flags(p)
    p.add_argument("--activation", choices=["qt", "relu", "sigmoid", "tanh", "identity"])
    p.add_argument("--dataset", choices=["mnist", "fashion"])
    p.add_argument("--hidden", type=int, help="hidden width (default 512)")
    p.add_argument("--lr", type=float, help="learning rate (default 0.01)")
    p.add_argument("--batch", type=int, help="batch size (default 64)")
    p.add_argument("--clip", type=float, help="gradient clip norm (default 5)")
    p.add_argument("--epochs", type=int, help="epochs (default 10)")
    p.add_argument("--train-limit", dest="train_limit", type=int)
    p.add_argument("--test-limit", dest="test_limit", type=int)
    p.add_argument("--checkpoint", help="save the trained model here")
    p.set_defaults(func=_cmd_train_fnn)

    p = train_sub.add_parser("rnn", help="recurrent sentiment classifier")
    _add_common(p)
    _add_barrier_flags(p)
    p.add_argument("--activation", choices=["qt", "relu", "sigmoid", "tanh", "identity"])
    p.add_argument("--corpus", help="CSV corpus path (default: bundled 48 phrases)")
    p.add_argument("--hidden", type=int, help="hidden width (default 32)")
    p.add_argument("--embed", type=int, help="embedding width (default 16)")
    p.add_argument("--lr", type=float, help="learning rate (default 0.05)")
    p.add_argument("--clip", type=float, help="gradient clip norm (default 5)")
    p.add_argument("--epochs", type=int, help="epoch budget (default 1000)")
    p.add_argument("--stop-loss", dest="stop_loss", type=float,
                   help="stop once train accuracy is 1.0 and loss below this")
    p.add_argument("--train-frac", dest="train_frac", type=float)
    p.add_argument("--checkpoint", help="save the trained model here")
    p.set_defaults(func=_cmd_train_rnn)

    p = train_sub.add_parser("bnn", help="Bayesian classifier")
    _add_common(p)
    _add_barrier_flags(p)
    p.add_argument("--activation", choices=["qt", "relu", "sigmoid", "tanh", "identity"])
    p.add_argument("--dataset", choices=["mnist", "fashion"])
    p.add_argument("--hidden", type=int, help="hidden width (default 512)")
    p.add_argument("--lr", type=float, help="learning rate (default 0.5)")
    p.add_argument("--epochs", type=int, help="epochs (default 30)")
    p.add_argument("--samples", type=int, help="posterior samples (default 50)")
    p.add_argument("--std", type=float, help="fixed weight std (default 0.01)")
    p.add_argument("--train-limit", dest="train_limit", type=int)
    p.add_argument("--test-limit", dest="test_limit", type=int)
    p.add_argument("--checkpoint", help="save the trained model here")
    p.set_defaults(func=_cmd_train_bnn)

    p = sub.add_parser("esn", help="echo-state Mackey-Glass forecast")
    _add_common(p)
    _add_barrier_flags(p)
    p.add_argument("--act", choices=["tanh", "qt"], help="reservoir activation")
    p.add_argument("--n", type=int, help="reservoir size (default 1000)")
    p.add_argument("--rho", type=float, help="spectral radius target (default 0.95)")
    p.add_argument("--density", type=float, help="reservoir density (default 0.1)")
    p.add_argument("--ridge", type=float, help="ridge lambda (default 1e-8)")
    p.add_argument("--washout", type=int, help="washout steps (default 100)")
    p.add_argument("--train", type=int, help="training samples (default 2000)")
    p.add_argument("--horizon", type=int, help="forecast steps (default 2000)")
    p.add_argument("--allow-rho-ge-1", dest="allow_rho_ge_1", action="store_const",
                   const=True, help="permit spectral radius targets >= 1")
    p.add_argument("--forecast-csv", dest="forecast_csv",
                   help="write t,target,prediction rows here")
    p.set_defaults(func=_cmd_esn)

    p = sub.add_parser("wavepacket", help="2-D wavepacket scenario")
    _add_common(p)
    p.add_argument("--scenario", choices=["barrier", "single_slit", "double_slit"])
    p.add_argument("--nx", type=int)
    p.add_argument("--ny", type=int)
    p.add_argument("--dx", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int, help="time steps (default 500)")
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                   help="frame cadence, 0 = final only (default 100)")
    p.add_argument("--format", choices=["text", "pgm"], help="frame format")
    p.add_argument("--outdir", help="frame output directory (default frames)")
    p.add_argument("--barrier-x", dest="barrier_x", type=float)
    p.add_argument("--thickness", type=float)
    p.add_argument("--v0", type=float, help="barrier height (default 1.25 * k0x^2/2)")
    p.add_argument("--slit-width", dest="slit_width", type=float)
    p.add_argument("--slit-sep", dest="slit_sep", type=float)
    p.add_argument("--x0", type=float)
    p.add_argument("--y0", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--k0x", type=float)
    p.set_defaults(func=_cmd_wavepacket)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INPUT
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_INPUT
    started = time.perf_counter()
    try:
        report, report_path = args.func(args, ["qtnn", *argv])
    except (InputError, FormatError, ShapeError, FileNotFoundError, NotADirectoryError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT
    except (TrainingDiverged, NumericalFailure, SingularMatrixError, ReportIOError) as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERIC
    report["wall_clock_sec"] = time.perf_counter() - started
    out_path = report_path
    if out_path:
        try:
            write_report(report, out_path)
        except ReportIOError as err:
            sys.stderr.write(f"numerical failure: {err}\n")
            return EXIT_NUMERIC
        print(f"report written to {out_path}")
    summary = {k: v for k, v in report["metrics"].items() if not isinstance(v, (list, dict))}
    print(json.dumps(summary, sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
