import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import write_idx_pair
from qtnn import cli, fnn
from qtnn.activation import Activation, activate, qt_transmission
from qtnn.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, canonical_json, main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def read_report(path):
    return json.loads(path.read_text())


def report_bytes_without_wallclock(path):
    doc = read_report(path)
    doc.pop("wall_clock_sec")
    return canonical_json(doc)


class TestActivationCommand:
    def test_writes_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["activation", "--v0", "2", "--a", "1", "--emax", "10",
                     "--points", "50", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "energy,transmission,derivative"
        assert len(lines) == 51
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 10.0 and 0.0 <= last[1] <= 1.0

    def test_negative_zero_emax_writes_positive_zeros(self, tmp_path):
        minus, plus = tmp_path / "minus.csv", tmp_path / "plus.csv"
        for emax, out in (("-0.0", minus), ("0.0", plus)):
            code = main(["activation", f"--emax={emax}", "--points", "2", "--out", str(out)])
            assert code == EXIT_OK
        assert minus.read_bytes() == plus.read_bytes()
        assert minus.read_text().splitlines()[1:] == ["0,0,0.15204365967614222"] * 2

    def test_optional_report(self, tmp_path):
        out = tmp_path / "curve.csv"
        rep = tmp_path / "report.json"
        code = main(["activation", "--out", str(out), "--report", str(rep)])
        assert code == EXIT_OK
        doc = read_report(rep)
        assert doc["config"]["v0"] == 2.0
        assert doc["metrics"]["t_max"] <= 1.0


class TestActivationEdgeGrid:
    """``qtnn activation`` over a seeded grid of edge inputs.

    The command evaluates T(E) and dT/dE on linspace(0, emax, points), so a
    negative emax is a negative energy once points > 1: an input error
    (exit 1) with a one-line message.  Every other input exits 0 with finite
    values and T in [0, 1].  The command takes no input mapping, so each
    mode's output range is checked on ``activate`` with the same inputs.
    """

    V0, AMPL = 3.0, 1.5
    # V0 / AMPL = 2.0 exactly; the last two overflow the closed forms' intermediates
    EDGES = (0.0, 5e-324, 1e-310, 1e300, V0 / AMPL, V0, 1e308, 1.7976931348623157e308)

    def grid(self):
        rng = np.random.default_rng(16)
        values = [sign * edge for edge in self.EDGES for sign in (1.0, -1.0)]
        return [values[i] for i in rng.permutation(len(values))]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points", [1, 2, 7])
    def test_cli_exit_code_and_range(self, tmp_path, capsys, points):
        out = tmp_path / "curve.csv"
        for value in self.grid():
            code = main(["activation", f"--emax={value!r}", "--points", str(points),
                         "--v0", str(self.V0), "--out", str(out)])
            err = capsys.readouterr().err
            if value < 0.0 and points > 1:  # one point is E = 0 alone
                assert code == EXIT_INPUT, value
                assert err == "error: energy must be non-negative\n"
                continue
            assert code == EXIT_OK, (value, err)
            energy, t, dt = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2).T
            assert np.isfinite(t).all() and np.isfinite(dt).all(), value
            assert ((t >= 0.0) & (t <= 1.0)).all(), (value, t)

    @pytest.mark.parametrize("mode, low", [("rectified", 0.0), ("absolute", 0.0),
                                           ("bipolar", -1.0)])
    def test_activate_range_on_the_same_grid(self, mode, low):
        act = Activation.qt(v0=self.V0, ampl=self.AMPL, mode=mode)
        x = np.array(self.grid())
        y, dy = activate(x, act)
        assert np.isfinite(y).all() and np.isfinite(dy).all()
        assert ((y >= low) & (y <= 1.0)).all(), y
        t_top = qt_transmission(self.V0, act.barrier)  # ampl * (v0 / ampl) is v0 exactly
        top = y[x == self.V0 / self.AMPL]
        assert top.size == 1 and top[0] == (2.0 * t_top - 1.0 if mode == "bipolar" else t_top)


class TestSpectrumCommand:
    def test_qt_detects_even_and_odd(self, tmp_path):
        rep = tmp_path / "spectrum.json"
        code = main(["spectrum", "--fn", "qt", "--f0", "16", "--fs", "1024",
                     "--n", "1024", "--out", str(rep)])
        assert code == EXIT_OK
        doc = read_report(rep)
        freqs = {d["freq_hz"] for d in doc["metrics"]["detected"]}
        assert {32.0, 48.0} <= freqs

    def test_csv_export(self, tmp_path):
        rep = tmp_path / "spectrum.json"
        csv_out = tmp_path / "spectrum.csv"
        code = main(["spectrum", "--fn", "relu", "--csv", str(csv_out),
                     "--out", str(rep)])
        assert code == EXIT_OK
        assert csv_out.read_text().startswith("freq_hz,magnitude")

    def test_bad_period_count_exit_1(self, tmp_path):
        code = main(["spectrum", "--fn", "relu", "--f0", "16.3",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code = main(["spectrum", "--no-such-flag", "5"])
        assert code == EXIT_INPUT
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == EXIT_INPUT

    def test_no_command(self):
        assert main([]) == EXIT_INPUT

    def test_bad_barrier_value(self, tmp_path):
        code = main(["activation", "--v0", "-3", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_INPUT

    def test_missing_dataset_exit_1(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTNN_DATA_DIR", str(tmp_path / "nowhere"))
        code = main(["train", "fnn", "--epochs", "1", "--hidden", "4",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT

    def test_unwritable_report_exit_2(self, tmp_path):
        code = main(["activation", "--out", str(tmp_path / "c.csv"),
                     "--report", str(tmp_path / "missing_dir" / "r.json")])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("case", ["corpus-not-utf8", "corpus-dir", "checkpoint-dir",
                                      "activation-out-dir", "spectrum-csv-dir",
                                      "wavepacket-outdir-file"])
    def test_unusable_path_exit_1_one_line(self, tmp_path, capsys, case):
        a_dir, a_file = tmp_path / "dir", tmp_path / "file.csv"
        a_dir.mkdir()
        a_file.write_bytes(b"text,label\ngood,1\nbad \xff,0\n")
        out = str(tmp_path / "r.json")
        rnn = ["train", "rnn", "--hidden", "4", "--epochs", "1", "--out", out]
        cmd = {
            "corpus-not-utf8": [*rnn, "--corpus", str(a_file)],
            "corpus-dir": [*rnn, "--corpus", str(a_dir)],
            "checkpoint-dir": [*rnn, "--checkpoint", str(a_dir)],
            "activation-out-dir": ["activation", "--out", str(a_dir)],
            "spectrum-csv-dir": ["spectrum", "--csv", str(a_dir), "--out", out],
            "wavepacket-outdir-file": ["wavepacket", "--scenario", "barrier", "--nx", "64",
                                       "--ny", "64", "--steps", "2", "--x0", "3.2",
                                       "--sigma", "0.6", "--barrier-x", "6.4",
                                       "--outdir", str(a_file), "--out", out],
        }[case]
        assert main(cmd) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if case == "corpus-not-utf8":
            assert err == f"error: {a_file}: byte 22: not UTF-8 text\n"

    def test_help_lists_flags(self, capsys):
        assert main(["esn", "--help"]) == EXIT_OK
        text = capsys.readouterr().out
        for flag in ("--rho", "--density", "--washout", "--ridge", "--seed"):
            assert flag in text

    def test_every_subcommand_has_help(self, capsys):
        # only the commands that draw random numbers take a seed
        for cmd, seeded in ((["activation"], False), (["spectrum"], False),
                            (["train", "fnn"], True), (["train", "rnn"], True),
                            (["train", "bnn"], True), (["esn"], True), (["wavepacket"], False)):
            assert main([*cmd, "--help"]) == EXIT_OK
            out = capsys.readouterr().out
            assert "--config" in out and ("--seed" in out) == seeded, cmd

    def test_malformed_input_per_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QTNN_DATA_DIR", str(tmp_path / "void"))
        out = str(tmp_path / "r.json")
        bad = [
            ["activation", "--v0", "-1", "--out", out],
            ["spectrum", "--n", "1000", "--out", out],      # not a power of two
            ["train", "fnn", "--epochs", "1", "--out", out],  # dataset missing
            ["train", "rnn", "--corpus", str(tmp_path / "no.csv"), "--out", out],
            ["train", "bnn", "--epochs", "1", "--out", out],  # dataset missing
            ["esn", "--density", "0", "--out", out],
            ["wavepacket", "--x0", "1.0", "--out", out],      # packet at the wall
        ]
        for cmd in bad:
            assert main(cmd) == EXIT_INPUT, cmd


class TestTrainCommands:
    def test_fnn_on_synthetic_data(self, tmp_path, monkeypatch, synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        rep = tmp_path / "fnn.json"
        code = main(["train", "fnn", "--dataset", "mnist", "--hidden", "16",
                     "--epochs", "3", "--batch", "16", "--lr", "0.1",
                     "--seed", "7", "--out", str(rep)])
        assert code == EXIT_OK
        doc = read_report(rep)
        assert doc["metrics"]["test_accuracy"] > 0.5  # block patterns are easy
        assert len(doc["per_epoch"]["train_loss"]) == 3

    def test_fnn_rerun_byte_identical(self, tmp_path, monkeypatch, synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        rep = tmp_path / "report.json"
        cmd = ["train", "fnn", "--hidden", "8", "--epochs", "2",
               "--batch", "16", "--seed", "3", "--out", str(rep)]
        reps = []
        for _ in range(2):
            assert main(cmd) == EXIT_OK
            reps.append(report_bytes_without_wallclock(rep))
        assert reps[0] == reps[1]

    def test_fnn_scores_test_split_once_per_epoch(self, tmp_path, monkeypatch,
                                                  synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        calls = []
        evaluate = fnn.fnn_evaluate

        def counting(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(fnn, "fnn_evaluate", counting)
        monkeypatch.setattr(cli, "fnn_evaluate", counting, raising=False)  # a direct call too
        assert main(["train", "fnn", "--hidden", "8", "--epochs", "3", "--batch", "16",
                     "--seed", "3", "--out", str(tmp_path / "r.json")]) == EXIT_OK
        assert len(calls) == 3

    def test_rnn_bundled_corpus(self, tmp_path):
        rep = tmp_path / "rnn.json"
        code = main(["train", "rnn", "--activation", "tanh", "--hidden", "8",
                     "--epochs", "2", "--seed", "1", "--out", str(rep)])
        assert code == EXIT_OK
        doc = read_report(rep)
        assert doc["metrics"]["n_train"] == 36 and doc["metrics"]["n_test"] == 12

    def test_bnn_on_synthetic_data(self, tmp_path, monkeypatch, synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        rep = tmp_path / "bnn.json"
        code = main(["train", "bnn", "--dataset", "fashion", "--hidden", "8",
                     "--epochs", "1", "--samples", "5", "--lr", "0.1",
                     "--train-limit", "60", "--test-limit", "30",
                     "--seed", "2", "--out", str(rep)])
        assert code == EXIT_OK
        doc = read_report(rep)
        assert doc["metrics"]["test_accuracy"] is not None

    def test_checkpoint_artifact(self, tmp_path, monkeypatch, synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        ckpt = tmp_path / "model.qtnn"
        rep = tmp_path / "r.json"
        code = main(["train", "fnn", "--hidden", "8", "--epochs", "1",
                     "--checkpoint", str(ckpt), "--out", str(rep)])
        assert code == EXIT_OK
        assert ckpt.exists()
        assert str(ckpt) in read_report(rep)["artifacts"]


class TestEsnCommand:
    def test_small_forecast(self, tmp_path):
        rep = tmp_path / "esn.json"
        csv_out = tmp_path / "forecast.csv"
        code = main(["esn", "--act", "tanh", "--n", "120", "--rho", "0.9",
                     "--train", "500", "--horizon", "100", "--washout", "50",
                     "--seed", "4", "--forecast-csv", str(csv_out),
                     "--out", str(rep)])
        assert code == EXIT_OK
        doc = read_report(rep)
        assert "mse_100" in doc["metrics"] and "nmse_100" in doc["metrics"]
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "t,target,prediction"
        assert len(lines) == 101

    def test_mse_500_only_with_500_step_horizon(self, tmp_path):
        rep = tmp_path / "esn.json"
        base = ["esn", "--n", "80", "--rho", "0.9", "--train", "400", "--washout", "40",
                "--seed", "4", "--out", str(rep)]
        assert main(base + ["--horizon", "50"]) == EXIT_OK
        metrics = read_report(rep)["metrics"]
        assert "mse_500" not in metrics
        assert "mse_50" in metrics and "nmse_50" in metrics
        assert main(base + ["--horizon", "600"]) == EXIT_OK
        metrics = read_report(rep)["metrics"]
        assert "mse_500" in metrics and "mse_600" in metrics
        assert metrics["mse_500"] != metrics["mse_600"]

    def test_rho_override_required(self, tmp_path):
        code = main(["esn", "--rho", "1.25", "--n", "60", "--train", "300",
                     "--horizon", "20", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT
        code = main(["esn", "--rho", "1.25", "--allow-rho-ge-1", "--n", "60",
                     "--train", "300", "--horizon", "20", "--washout", "40",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_OK


class TestWavepacketCommand:
    def test_run_writes_frames_and_manifest(self, tmp_path):
        outdir = tmp_path / "frames"
        rep = tmp_path / "wp.json"
        code = main(["wavepacket", "--scenario", "barrier", "--nx", "128",
                     "--ny", "128", "--steps", "40", "--snapshot-every", "20",
                     "--x0", "3.2", "--sigma", "0.6", "--barrier-x", "6.4",
                     "--outdir", str(outdir), "--out", str(rep)])
        assert code == EXIT_OK
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["steps"] == 40
        assert len(manifest["frames"]) == 3  # steps 0, 20, 40
        doc = read_report(rep)
        assert abs(doc["metrics"]["norm"] - 1.0) < 1e-4

    def test_pgm_format(self, tmp_path):
        outdir = tmp_path / "frames"
        code = main(["wavepacket", "--nx", "64", "--ny", "64", "--dx", "0.2",
                     "--steps", "5", "--snapshot-every", "0", "--format", "pgm",
                     "--x0", "6.0", "--sigma", "0.8", "--barrier-x", "11.0",
                     "--k0x", "2.0", "--outdir", str(outdir),
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_OK
        pgm = list(outdir.glob("*.pgm"))
        assert len(pgm) == 1
        assert pgm[0].read_bytes().startswith(b"P5\n64 64\n65535\n")


class TestConfigFiles:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"v0": 4.0, "emax": 8.0}))
        out = tmp_path / "curve.csv"
        rep = tmp_path / "rep.json"
        code = main(["activation", "--config", str(cfg), "--v0", "5.0",
                     "--out", str(out), "--report", str(rep)])
        assert code == EXIT_OK
        doc = read_report(rep)
        assert doc["config"]["v0"] == 5.0   # flag wins
        assert doc["config"]["emax"] == 8.0  # file wins over default

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"summon": True}))
        code = main(["activation", "--config", str(cfg),
                     "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("cmd, key, value", [
        ("activation", "mode", "bipolar"), ("activation", "ampl", 7.0),
        ("activation", "seed", 9), ("spectrum", "seed", 9), ("wavepacket", "seed", 9),
    ])
    def test_key_that_reaches_no_output_rejected(self, tmp_path, capsys, cmd, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([cmd, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert one_error_line(capsys) == f"error: config file {cfg} has unknown keys: ['{key}']"

    def test_missing_config_rejected(self, tmp_path):
        code = main(["activation", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_INPUT


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return lines[0]


class TestConfigChecks:
    @pytest.mark.parametrize("cmd, doc, key", [
        (["train", "rnn"], {"hidden": "abc"}, "hidden"),
        (["train", "rnn"], {"lr": "x"}, "lr"),
        (["train", "rnn"], {"epochs": 1.5}, "epochs"),
        (["train", "rnn"], {"hidden": True}, "hidden"),
        (["train", "rnn"], {"hidden": None}, "hidden"),
        (["train", "rnn"], {"activation": "softplus"}, "activation"),
        (["train", "rnn"], {"corpus": 5}, "corpus"),
        (["train", "rnn"], {"lr": float("nan")}, "lr"),
        (["esn"], {"allow_rho_ge_1": "no"}, "allow_rho_ge_1"),
        (["esn"], {"allow_rho_ge_1": 1}, "allow_rho_ge_1"),
        (["train", "bnn"], {"train_limit": -1}, "train_limit"),
    ])
    def test_bad_config_value_names_key(self, tmp_path, capsys, cmd, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code = main([*cmd, "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT
        assert one_error_line(capsys).startswith(f"error: {key} must be ")

    @pytest.mark.parametrize("cmd, flag, value", [
        (["activation"], "--points", "0"),
        (["spectrum"], "--n", "0"),
        (["train", "fnn"], "--hidden", "0"),
        (["train", "fnn"], "--batch", "0"),
        (["train", "fnn"], "--epochs", "0"),
        (["train", "rnn"], "--embed", "0"),
        (["train", "rnn"], "--hidden", "-3"),
        (["train", "bnn"], "--samples", "0"),
        (["esn"], "--n", "0"),
        (["esn"], "--train", "0"),
        (["esn"], "--horizon", "0"),
        (["esn"], "--washout", "-1"),
        (["wavepacket"], "--nx", "0"),
        (["wavepacket"], "--ny", "0"),
        (["wavepacket"], "--steps", "0"),
        (["wavepacket"], "--snapshot-every", "-1"),
    ])
    def test_out_of_range_count_flag(self, tmp_path, capsys, cmd, flag, value):
        code = main([*cmd, flag, value, "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT
        key = flag[2:].replace("-", "_")
        assert one_error_line(capsys) == (
            f"error: {key} must be an integer >= {0 if value == '-1' else 1}, got {value}")

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["activation", "--config", str(cfg)]) == EXIT_INPUT
        assert one_error_line(capsys).endswith("must hold a JSON object")

    def test_unreadable_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["activation", "--config", str(cfg)]) == EXIT_INPUT
        one_error_line(capsys)
        assert main(["activation", "--config", str(tmp_path)]) == EXIT_INPUT
        one_error_line(capsys)

    def test_null_where_handled(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clip": None, "stop_loss": None, "corpus": None}))
        rep = tmp_path / "r.json"
        code = main(["train", "rnn", "--config", str(cfg), "--hidden", "4",
                     "--epochs", "1", "--out", str(rep)])
        assert code == EXIT_OK
        assert read_report(rep)["config"]["clip"] is None

    def test_null_limits_use_every_row(self, tmp_path, monkeypatch, synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_limit": None, "test_limit": 0}))
        rep = tmp_path / "r.json"
        code = main(["train", "bnn", "--config", str(cfg), "--hidden", "4",
                     "--epochs", "1", "--samples", "2", "--out", str(rep)])
        assert code == EXIT_OK
        assert len(read_report(rep)["per_epoch"]["train_loss"]) == 1

    def test_limit_beyond_dataset(self, tmp_path, capsys, monkeypatch,
                                  synthetic_image_data):
        monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
        # the bnn default train_limit (10000) exceeds the 150 synthetic rows
        code = main(["train", "bnn", "--hidden", "4", "--epochs", "1",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT
        assert one_error_line(capsys) == "error: train_limit 10000 exceeds 150 rows"

    def test_int_for_float_not_coerced(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"emax": 8}))
        rep = tmp_path / "r.json"
        assert main(["activation", "--config", str(cfg), "--out", str(tmp_path / "c.csv"),
                     "--report", str(rep)]) == EXIT_OK
        assert '"emax":8,' in rep.read_text()

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_bundled_configs_pass(self, path):
        arch = path.stem.split("-")[1]
        cmd = ["esn"] if arch == "esn" else ["train", arch]
        args = cli._build_parser().parse_args([*cmd, "--config", str(path)])
        cfg = cli._merge_config(args.rows, args)
        doc = json.loads(path.read_text())
        assert {key: cfg[key] for key in doc} == doc


class TestEsnDivergence:
    def test_diverging_forecast_exit_2(self, tmp_path, capsys, monkeypatch):
        def fit_then_blow_up(model, series):
            cli_fit(model, series)
            model.w_out = np.zeros_like(model.w_out)
            model.w_out[0, 1] = 1e200

        cli_fit = cli.esn_fit
        monkeypatch.setattr(cli, "esn_fit", fit_then_blow_up)
        code = main(["esn", "--n", "40", "--train", "300", "--horizon", "20",
                     "--washout", "20", "--out", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERIC
        assert one_error_line(capsys) == (
            "numerical failure: free-run forecast is not finite from step 1")
        assert not (tmp_path / "r.json").exists()


class TestTrainingDivergence:
    def test_overflowed_weights_exit_2_with_one_line(self, tmp_path, capsys):
        # lr 1e300 overflows the pre-activation after a few steps on the bundled
        # corpus; pytest records warnings instead of printing them, so count them too
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "rnn", "--lr", "1e300", "--hidden", "4", "--epochs", "3",
                         "--out", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERIC
        assert one_error_line(capsys) == (
            "numerical failure: activation input is not finite at epoch 0, batch 3")
        assert not caught, [str(w.message) for w in caught]
        assert not (tmp_path / "r.json").exists()


class TestCanonicalJson:
    def test_sorted_and_17_digits(self):
        doc = canonical_json({"b": 1 / 3, "a": 2})
        assert doc == '{"a":2,"b":0.33333333333333331}\n'

    def test_round_trip(self):
        report = {"x": [1.5, 2, "s"], "y": {"k": None, "t": True}}
        assert json.loads(canonical_json(report)) == report


class TestUncomputableValues:
    """Well-typed values the library cannot compute with exit 1, not a traceback."""

    @pytest.mark.parametrize("cmd, message", [
        (["activation", "--v0", "1e300"], "gives a non-finite constant"),
        (["activation", "--hbar", "1e300"], "gives a non-finite constant"),
        (["activation", "--hbar", "1e-300"], "gives a non-finite constant"),
        (["train", "rnn", "--hbar", "1e300"], "gives a non-finite constant"),
        (["train", "rnn", "--train-frac", "-0.5"], "train_frac must lie in (0, 1], got -0.5"),
        (["train", "rnn", "--train-frac", "1.5"], "train_frac must lie in (0, 1], got 1.5"),
        (["esn", "--act", "qt", "--v0", "1e300"], "gives a non-finite constant"),
        (["esn", "--n", "50", "--train", "300", "--horizon", "10", "--ridge=-1e-12"],
         "ridge_lambda must be non-negative, got -1e-12"),
        (["esn", "--n", "50", "--train", "300", "--horizon", "10", "--ridge", "-1"],
         "ridge_lambda must be non-negative, got -1.0"),
        (["spectrum", "--fs", "0"], "fs must be positive and finite"),
        (["spectrum", "--fs", "-1024"], "fs must be positive and finite"),
        (["spectrum", "--fs", "1e-300"], "must lie below the Nyquist frequency"),
        (["spectrum", "--f0", "512"], "must lie below the Nyquist frequency"),
        (["wavepacket", "--k0x", "1e300"], "k0x=1e+300 overflows the default barrier height"),
        (["wavepacket", "--dx", "0"], "dx must be positive, got 0.0"),
        (["wavepacket", "--dx", "-0.1"], "dx must be positive, got -0.1"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_exit_1_with_one_line(self, tmp_path, capsys, cmd, message):
        code = main([*cmd, "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        line = one_error_line(capsys)
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("model", ["fnn", "bnn"])
    @pytest.mark.parametrize("empty, message", [
        ("train", "training set is empty"),
        ("t10k", "dataset is empty"),
    ])
    def test_zero_image_split(self, tmp_path, monkeypatch, capsys, model, empty, message):
        # a well-formed IDX pair whose image count is 0
        root = tmp_path / "mnist"
        root.mkdir()
        rng = np.random.default_rng(0)
        for split in ("train", "t10k"):
            n = 0 if split == empty else 12
            write_idx_pair(rng.integers(0, 256, (n, 28, 28)), rng.integers(0, 10, n),
                           root / f"{split}-images-idx3-ubyte",
                           root / f"{split}-labels-idx1-ubyte")
        monkeypatch.setenv("QTNN_DATA_DIR", str(tmp_path))
        code = main(["train", model, "--dataset", "mnist", "--hidden", "4", "--epochs", "1",
                     "--train-limit", "0", "--test-limit", "0",
                     "--out", str(tmp_path / "r.json")])
        assert code == EXIT_INPUT
        line = one_error_line(capsys)
        assert line.startswith("error: ") and message in line


class TestWavepacketNaN:
    def test_nan_state_exit_2(self, tmp_path, capsys):
        # a packet far narrower than the grid normalises to NaN; the norm
        # check must not let it through as a converged run
        # pytest records warnings instead of printing them, so count them too
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["wavepacket", "--sigma", "1e-300", "--nx", "32", "--ny", "32",
                         "--dx", "0.4", "--steps", "3", "--x0", "3", "--barrier-x", "8",
                         "--outdir", str(tmp_path / "frames"),
                         "--out", str(tmp_path / "r.json")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            "numerical failure: norm nan diverged at step 1")
        assert not (tmp_path / "r.json").exists()
        assert len(err.splitlines()) == 1 and not caught, (err, [str(w.message) for w in caught])
