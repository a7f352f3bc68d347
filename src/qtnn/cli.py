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
keys as its flags; explicit flags override the file.  The merged values are
checked against the subcommand's option table, and every output file for being
writable and unshared, before anything runs.  Reports are canonical JSON
(sorted keys, floats at 17 significant digits) so two runs of one command line
differ at most in the wall-clock field.  Exit codes: 0 success, 1 input error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import checkpoint
from .activation import (
    MODES,
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
from .fnn import fnn_init, fnn_train
from .numerics import InputError, NumericalFailure, ShapeError, SingularMatrixError
from .rnn import rnn_init, rnn_train
from .trainutil import TrainConfig, TrainingDiverged, init_stream
from .wavepacket import SCENARIO_KINDS, Scenario, frame_to_pgm16, frame_to_text, wp_init, wp_run

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


# ---------------------------------------------------------------------------
# option tables: one (key, kind, default, help) row per option gives the
# --flag (key with _ -> -), the config key, the default and the value check.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """What a value must be; a row's kind is a _Kind or a tuple of choices."""

    parse: type            # flag type; bool makes a store_const=True flag
    noun: str              # the expectation, as printed in the error line
    lo: float | None = None  # inclusive lower bound
    null: bool = False     # null accepted even though the default is not null


INT = _Kind(int, "an integer")
COUNT = _Kind(int, "an integer >= 1", lo=1)
NONNEG = _Kind(int, "an integer >= 0", lo=0)
LIMIT = _Kind(int, "an integer >= 0 (0 or null: no limit)", lo=0, null=True)
FLOAT = _Kind(float, "a finite number")
CLIP = _Kind(float, "a finite number (null: no clipping)", null=True)
RIDGE = _Kind(float, "a finite number >= 0", lo=0)
STR = _Kind(str, "a string")
PATH = _Kind(str, "a file path")  # an output file, checked by main() before the run
BOOL = _Kind(bool, "true or false")

_ACTIVATIONS = ("qt", "relu", "sigmoid", "tanh", "identity")
_BARRIER = (  # the qt barrier's physical constants
    ("v0", FLOAT, 2.0, "barrier height"),
    ("a", FLOAT, 1.0, "barrier width"),
    ("m", FLOAT, 1.0, "particle mass"),
    ("hbar", FLOAT, 1.0, "reduced Planck constant"),
)


def _barrier(ampl=1.0, mode="rectified"):
    """The barrier rows plus the input-to-energy map of every command that runs activate."""
    return (*_BARRIER, ("ampl", FLOAT, ampl, "input-to-energy scale"),
            ("mode", MODES, mode, "input mapping for qt"))


def _check(key, kind, default, value):
    """Raise InputError naming ``key`` unless ``value`` fits its row."""
    if value is None:
        ok = default is None or getattr(kind, "null", False)
    elif isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    else:
        ok = (isinstance(value, bool) == (kind.parse is bool)
              and isinstance(value, (int, float) if kind.parse is float else kind.parse)
              and (not isinstance(value, float) or math.isfinite(value))
              and (kind.lo is None or value >= kind.lo))
    if not ok:
        expected = "one of " + ", ".join(kind) if isinstance(kind, tuple) else kind.noun
        null = " or null" if default is None else ""
        raise InputError(f"{key} must be {expected}{null}, got {json.dumps(value)}")


def _add_option(parser, key, kind, default, text):
    flag = "--" + key.replace("_", "-")
    if default is not None and kind is not BOOL:
        text = f"{text} (default {default})"
    if isinstance(kind, tuple):
        parser.add_argument(flag, dest=key, choices=kind, help=text)
    elif kind is BOOL:
        parser.add_argument(flag, dest=key, action="store_const", const=True, help=text)
    else:
        parser.add_argument(flag, dest=key, type=kind.parse, help=text)


def _merge_config(rows, args):
    """defaults <- config file <- explicitly passed flags, then every row checked."""
    merged = {key: default for key, _, default, _ in rows}
    if args.config:
        path = Path(args.config)
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except OSError as err:
            raise InputError(f"cannot read config file {path}: {err.strerror or err}")
        except ValueError as err:
            raise InputError(f"config file {path} is not valid JSON: {err}")
        if not isinstance(loaded, dict):
            raise InputError(f"config file {path} must hold a JSON object")
        unknown = set(loaded) - set(merged)
        if unknown:
            raise InputError(f"config file {path} has unknown keys: {sorted(unknown)}")
        merged.update(loaded)
    for key, kind, default, _ in rows:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
        _check(key, kind, default, merged[key])
    return merged


def _activation_from(cfg, kind):
    if kind != "qt":
        return Activation(kind)
    return Activation.qt(BarrierParams(**{key: cfg[key] for key, *_ in _barrier()}))


def _last(values):
    return values[-1] if values else None


def _check_outputs(outputs, compared_only=()):
    """Reject an output {flag: path or None} that cannot be written or repeats a file."""
    seen = {Path(path).resolve(): label for label, path in compared_only}
    for flag, path in outputs.items():
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():  # '' names the working directory
            raise InputError(f"cannot write {flag} {path!r}: it is a directory")
        if not (target.parent.is_dir() and os.access(target.parent, os.W_OK)):
            raise InputError(f"cannot write {flag} {path!r}: "
                             f"{str(target.parent)!r} is not a writable directory")
        first = seen.setdefault(target.resolve(), flag)
        if first != flag:
            raise InputError(f"{first} and {flag} name one file, {path!r}")


def _trained(trace, save, model, path, **metrics):
    """A trainer's report body; the model is checkpointed when ``path`` is set."""
    if path:
        save(model, path)
    return {
        "per_epoch": asdict(trace),
        "metrics": {"final_train_accuracy": trace.train_accuracy[-1],
                    "final_train_loss": trace.train_loss[-1], **metrics},
        "artifacts": [path] if path else [],
    }


# ---------------------------------------------------------------------------
# subcommands: each maps (checked config, flags) to the report body {"metrics",
# "artifacts"[, "per_epoch"]}; main() adds the command, the config and any seed,
# and writes it to the report path.  A null default the command resolves (rnn
# corpus, wavepacket v0) is written back into cfg so the report records the
# value used.
# ---------------------------------------------------------------------------

def _cmd_activation(cfg, args):
    """--out is the T(E), dT/dE curve as CSV; --report optionally adds JSON."""
    params = BarrierParams(**{key: cfg[key] for key, *_ in _BARRIER})
    with np.errstate(over="ignore"):  # the last step may overflow before emax replaces it
        energies = np.linspace(0.0, cfg["emax"], cfg["points"]) + 0.0  # no -0.0 at emax=-0.0
    t = qt_transmission(energies, params)
    dt = qt_transmission_derivative(energies, params)
    np.savetxt(args.out, np.column_stack((energies, t, dt)), fmt="%.17g", delimiter=",",
               header="energy,transmission,derivative", comments="")
    metrics = {"t_min": float(t.min()), "t_max": float(t.max())}
    return {"metrics": metrics, "artifacts": [args.out]}


def _cmd_spectrum(cfg, args):
    act = _activation_from(cfg, cfg["fn"])
    spectrum = harmonic_spectrum(act, f0=cfg["f0"], fs=cfg["fs"], n=cfg["n"],
                                 threshold_db=cfg["threshold_db"])
    artifacts = []
    if cfg["csv"]:
        spectrum_to_csv(spectrum, cfg["csv"])
        artifacts.append(cfg["csv"])
    detected = [{"k": k, "freq_hz": f, "rel_db": db} for k, f, db in spectrum.detected]
    metrics = {"detected": detected, "n_detected": len(detected)}
    return {"metrics": metrics, "artifacts": artifacts}


def _load_image_data(cfg):
    """Train and test splits of the dataset, cut to train_limit/test_limit rows."""
    load = load_mnist if cfg["dataset"] == "mnist" else load_fashion_mnist
    splits = []
    for split in ("train", "test"):
        data, limit = load(split), cfg[f"{split}_limit"]
        if limit:
            if limit > data.n_samples:
                raise InputError(f"{split}_limit {limit} exceeds {data.n_samples} rows")
            data = data.subset(np.arange(limit))
        splits.append(data)
    return splits


def _cmd_train_fnn(cfg, args):
    act = _activation_from(cfg, cfg["activation"])
    train, test = _load_image_data(cfg)
    tc = TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], batch_size=cfg["batch"],
                     clip_norm=cfg["clip"], seed=cfg["seed"])
    model = fnn_init(train.n_features, cfg["hidden"], train.n_classes, act, init_stream(tc.seed))
    trace = fnn_train(model, train, tc, eval_data=test)
    return _trained(
        trace, checkpoint.save_fnn, model, cfg["checkpoint"],
        test_accuracy=_last(trace.eval_accuracy), test_loss=_last(trace.eval_loss))


def _cmd_train_rnn(cfg, args):
    act = _activation_from(cfg, cfg["activation"])
    cfg["corpus"] = cfg["corpus"] or str(bundled_sentiment_path())
    corpus = load_sentiment(cfg["corpus"])
    tc = TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], batch_size=1,
                     clip_norm=cfg["clip"], seed=cfg["seed"])
    model = rnn_init(corpus.vocab_size, cfg["hidden"], 2, act,
                     init_stream(tc.seed), n_embed=cfg["embed"])
    trace, train_set, test_set = rnn_train(model, corpus, tc, train_frac=cfg["train_frac"],
                                           stop_train_loss=cfg["stop_loss"])
    epochs_to_perfect = next((i + 1 for i, (acc, loss) in enumerate(
        zip(trace.train_accuracy, trace.train_loss)) if acc == 1.0 and loss < 0.01), None)
    return _trained(
        trace, checkpoint.save_rnn, model, cfg["checkpoint"],
        epochs_run=trace.epochs_run, epochs_to_perfect=epochs_to_perfect,
        final_test_accuracy=_last(trace.eval_accuracy),
        final_test_loss=_last(trace.eval_loss),
        n_train=len(train_set.phrases), n_test=len(test_set.phrases))


def _cmd_train_bnn(cfg, args):
    act = _activation_from(cfg, cfg["activation"])
    train, test = _load_image_data(cfg)
    tc = TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"], batch_size=1,
                     clip_norm=None, seed=cfg["seed"])
    model = bnn_init(train.n_features, cfg["hidden"], train.n_classes, act,
                     init_stream(tc.seed), std_init=cfg["std"], n_samples=cfg["samples"])
    trace = bnn_train(model, train, tc, eval_data=test)
    return _trained(
        trace, checkpoint.save_bnn, model, cfg["checkpoint"],
        test_accuracy=_last(trace.eval_accuracy), test_loss=_last(trace.eval_loss))


def _cmd_esn(cfg, args):
    act = _activation_from(cfg, cfg["act"])
    if cfg["rho"] <= 0.0:
        raise InputError(f"rho must be > 0, got {cfg['rho']}")
    if cfg["rho"] >= 1.0 and not cfg["allow_rho_ge_1"]:
        raise InputError(f"rho {cfg['rho']} >= 1 abandons the echo-state guarantee; "
                         "pass --allow-rho-ge-1 to override")
    n_train, horizon = cfg["train"], cfg["horizon"]
    series = mackey_glass(MgConfig(), n_train + horizon)
    train, target = series[:n_train], series[n_train:]
    model = esn_build(
        n_reservoir=cfg["n"], rho_target=cfg["rho"], density=cfg["density"],
        seed=cfg["seed"], act=act, allow_rho_ge_1=cfg["allow_rho_ge_1"],
        washout=cfg["washout"], ridge_lambda=cfg["ridge"],
    )
    try:
        esn_fit(model, train)
    except SingularMatrixError as err:  # name the flag, not esn_build's ridge_lambda
        raise SingularMatrixError(str(err).replace("ridge_lambda", "--ridge")) from None
    forecast = esn_free_run(model, train, horizon)
    artifacts = []
    if cfg["forecast_csv"]:
        np.savetxt(cfg["forecast_csv"], np.column_stack((np.arange(horizon), target, forecast)),
                   fmt=("%d", "%.17g", "%.17g"), delimiter=",",
                   header="t,target,prediction", comments="")
        artifacts.append(cfg["forecast_csv"])
    metrics = {"act": act.label(), "rho": cfg["rho"], "lambda": cfg["ridge"]}
    if horizon >= 500:  # a shorter forecast has no 500-step window to score
        metrics["mse_500"] = mse_metric(forecast[:500], target[:500])
    metrics[f"mse_{horizon}"] = mse_metric(forecast, target)
    metrics[f"nmse_{horizon}"] = nmse_metric(forecast, target)
    return {"metrics": metrics, "artifacts": artifacts}


def _cmd_wavepacket(cfg, args):
    if cfg["v0"] is None:
        try:
            cfg["v0"] = 1.25 * 0.5 * cfg["k0x"] ** 2
        except OverflowError:
            raise InputError(f"k0x={cfg['k0x']:g} overflows the default barrier height") from None
    scenario = Scenario(kind=cfg["scenario"], **{
        f.name: cfg[f.name] for f in fields(Scenario) if f.name != "kind"})
    # the grid is checked before --outdir is made, and --outdir before any step
    grid = wp_init(scenario, nx=cfg["nx"], ny=cfg["ny"], dx=cfg["dx"], dt=cfg["dt"])
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    pgm = cfg["format"] == "pgm"
    frame_files = []

    def write_frame(step, frame):  # each frame goes to disk as it is taken
        frame_files.append(str(outdir / f"frame_{step:06d}.{'pgm' if pgm else 'txt'}"))
        (frame_to_pgm16 if pgm else frame_to_text)(frame, frame_files[-1])

    summary = wp_run(grid, cfg["steps"], write_frame, snapshot_every=cfg["snapshot_every"])
    manifest = {"scenario": cfg["scenario"], "dt": cfg["dt"], "dx": cfg["dx"],
                "steps": cfg["steps"], "frames": frame_files}
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(canonical_json(manifest), encoding="utf-8")
    return {"metrics": summary, "artifacts": frame_files + [str(manifest_path)]}


# name -> (implementation, help, option rows).  The paths that are not config
# keys (--config, --out, activation's --report) are added by _build_parser.

_COMMANDS = {
    "activation": (_cmd_activation, "export a T(E) curve as CSV", (
        ("emax", FLOAT, 10.0, "upper energy bound"),
        ("points", COUNT, 1000, "number of samples"),
        *_BARRIER,
    )),
    "spectrum": (_cmd_spectrum, "harmonic spectrum of an activated sinusoid", (
        ("fn", _ACTIVATIONS, "qt", "activation to analyze"),
        ("f0", FLOAT, 16.0, "drive frequency Hz"),
        ("fs", FLOAT, 1024.0, "sample rate Hz"),
        ("n", COUNT, 1024, "sample count, power of two"),
        ("threshold_db", FLOAT, -70.0, "detection threshold dB relative to the main peak"),
        ("csv", PATH, None, "also export the full spectrum as CSV"),
        *_barrier(),
    )),
    "train fnn": (_cmd_train_fnn, "feedforward classifier", (
        ("activation", _ACTIVATIONS, "qt", "hidden activation"),
        ("dataset", ("mnist", "fashion"), "mnist", "image dataset"),
        ("hidden", COUNT, 512, "hidden width"),
        ("lr", FLOAT, 0.01, "learning rate"),
        ("batch", COUNT, 64, "batch size"),
        ("clip", CLIP, 5.0, "gradient clip norm"),
        ("epochs", COUNT, 10, "epochs"),
        ("seed", INT, 42, "generator seed"),
        ("checkpoint", PATH, None, "save the trained model here"),
        ("train_limit", LIMIT, None, "train on the first N images"),
        ("test_limit", LIMIT, None, "test on the first N images"),
        *_barrier(),
    )),
    "train rnn": (_cmd_train_rnn, "recurrent sentiment classifier", (
        ("activation", _ACTIVATIONS, "qt", "hidden activation"),
        ("corpus", STR, None, "CSV corpus path (null: bundled 48 phrases)"),
        ("hidden", COUNT, 32, "hidden width"),
        ("embed", COUNT, 16, "embedding width"),
        ("lr", FLOAT, 0.05, "learning rate"),
        ("clip", CLIP, 5.0, "gradient clip norm"),
        ("epochs", COUNT, 1000, "epoch budget"),
        ("seed", INT, 42, "generator seed"),
        ("stop_loss", FLOAT, None, "stop once train accuracy is 1.0 and loss below this"),
        ("train_frac", FLOAT, 0.75, "fraction of the corpus used for training"),
        ("checkpoint", PATH, None, "save the trained model here"),
        *_barrier(),
    )),
    "train bnn": (_cmd_train_bnn, "Bayesian classifier", (
        ("activation", _ACTIVATIONS, "qt", "hidden activation"),
        ("dataset", ("mnist", "fashion"), "fashion", "image dataset"),
        ("hidden", COUNT, 512, "hidden width"),
        ("lr", FLOAT, 0.5, "learning rate"),
        ("epochs", COUNT, 30, "epochs"),
        ("seed", INT, 42, "generator seed"),
        ("samples", COUNT, 50, "posterior samples"),
        ("std", FLOAT, 0.01, "fixed weight std"),
        ("train_limit", LIMIT, 10000, "train on the first N images"),
        ("test_limit", LIMIT, 2000, "test on the first N images"),
        ("checkpoint", PATH, None, "save the trained model here"),
        *_barrier(),
    )),
    "esn": (_cmd_esn, "echo-state Mackey-Glass forecast", (
        ("act", ("tanh", "qt"), "tanh", "reservoir activation"),
        ("n", COUNT, 1000, "reservoir size"),
        ("rho", FLOAT, 0.95, "spectral radius target"),
        ("density", FLOAT, 0.1, "reservoir density"),
        ("ridge", RIDGE, 1e-8, "ridge lambda"),
        ("washout", NONNEG, 100, "washout steps"),
        ("train", COUNT, 2000, "training samples"),
        ("horizon", COUNT, 2000, "forecast steps"),
        ("seed", INT, 0, "generator seed"),
        ("forecast_csv", PATH, None, "write t,target,prediction rows here"),
        ("allow_rho_ge_1", BOOL, False, "permit spectral radius targets >= 1"),
        *_barrier(ampl=2.0, mode="bipolar"),
    )),
    "wavepacket": (_cmd_wavepacket, "2-D wavepacket scenario", (
        ("scenario", SCENARIO_KINDS, "barrier", "geometry"),
        ("nx", COUNT, 400, "grid points along x"),
        ("ny", COUNT, 400, "grid points along y"),
        ("dx", FLOAT, 0.1, "grid spacing"),
        ("dt", FLOAT, 0.005, "time step"),
        ("steps", COUNT, 500, "time steps"),
        ("snapshot_every", NONNEG, 100, "frame cadence, 0 = final only"),
        ("format", ("text", "pgm"), "text", "frame format"),
        ("outdir", STR, "frames", "frame output directory"),
        ("v0", FLOAT, None, "barrier height (null: 1.25 * k0x^2/2)"),
        ("barrier_x", FLOAT, 20.0, "barrier position"),
        ("thickness", FLOAT, 0.5, "barrier thickness"),
        ("slit_width", FLOAT, 1.0, "slit width"),
        ("slit_sep", FLOAT, 3.0, "slit separation"),
        ("x0", FLOAT, 10.0, "packet centre x"),
        ("y0", FLOAT, None, "packet centre y (null: domain centreline)"),
        ("sigma", FLOAT, 2.0, "packet width"),
        ("k0x", FLOAT, 5.0, "packet wavenumber"),
    )),
}


def _build_parser():
    parser = _Parser(prog="qtnn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    groups = {"": parser.add_subparsers(dest="command", parser_class=_Parser)}
    for name, (func, text, rows) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            train = groups[""].add_parser(group, help="train a network")
            groups[group] = train.add_subparsers(dest="arch", parser_class=_Parser)
        p = groups[group].add_parser(leaf, help=text)
        p.add_argument("--config", help="JSON file with the same keys as the flags")
        what, out = (("T(E) curve CSV", "activation_curve.csv") if name == "activation"
                     else ("JSON report", f"{leaf}_report.json"))
        p.add_argument("--out", default=out, help=f"{what} path (default {out})")
        if name == "activation":
            p.add_argument("--report", help="also write a JSON report here")
        for row in rows:
            _add_option(p, *row)
        p.set_defaults(func=func, rows=rows)
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
        cfg = _merge_config(args.rows, args)
        report_path = vars(args).get("report", args.out)  # activation's --out is its curve
        _check_outputs({"--out": args.out, "--report": vars(args).get("report"), **{
            "--" + key.replace("_", "-"): cfg[key] for key, kind, *_ in args.rows if kind is PATH}},
            [("the --outdir manifest", Path(cfg["outdir"], "manifest.json"))]
            if "outdir" in cfg else ())
        body = args.func(cfg, args)
        report = {"command": ["qtnn", *argv], "config": cfg, **body,
                  "wall_clock_sec": time.perf_counter() - started}
        if "seed" in cfg:  # only the commands that draw random numbers have one
            report["seed"] = cfg["seed"]
        if report_path:
            Path(report_path).write_text(canonical_json(report), encoding="utf-8")
    except (TrainingDiverged, NumericalFailure, SingularMatrixError) as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERIC
    except (InputError, FormatError, ShapeError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT
    if report_path:
        print(f"report written to {report_path}")
    summary = {k: v for k, v in report["metrics"].items() if not isinstance(v, (list, dict))}
    print(json.dumps(summary, sort_keys=True, default=str))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
