"""Golden hashes of CLI reports, artifacts and ``--help`` flag sets.

Every run happens in a fresh working directory with relative paths only, so
no machine path reaches a report's command, config or artifact fields: the
configs and the bundled corpus are copied in first.  A run's digest is the
sha256 of its canonical report without ``wall_clock_sec``, followed by the
bytes of every artifact the report lists, in listed order.  The values were
recorded before the CLI was rebuilt on per-command option tables; any change
to them means a report or artifact changed for a valid input.
"""

import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from qtnn.cli import EXIT_OK, canonical_json, main
from qtnn.data import bundled_sentiment_path

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
OUT = ["--out", "report.json"]

RUNS = {
    "activation": ["activation", "--out", "curve.csv", "--report", "report.json",
                   "--seed", "1"],
    "spectrum": ["spectrum", "--fn", "qt", "--csv", "spectrum.csv", "--seed", "1", *OUT],
    "train-fnn": ["train", "fnn", "--hidden", "8", "--epochs", "2", "--batch", "16",
                  "--seed", "3", "--checkpoint", "fnn.qtnn", *OUT],
    "train-rnn": ["train", "rnn", "--corpus", "corpus.csv", "--hidden", "8",
                  "--epochs", "2", "--seed", "3", "--checkpoint", "rnn.qtnn", *OUT],
    "train-bnn": ["train", "bnn", "--hidden", "8", "--epochs", "1", "--samples", "4",
                  "--train-limit", "50", "--test-limit", "20", "--seed", "3",
                  "--checkpoint", "bnn.qtnn", *OUT],
    "esn": ["esn", "--n", "80", "--rho", "0.9", "--train", "400", "--horizon", "50",
            "--washout", "40", "--seed", "4", "--forecast-csv", "forecast.csv", *OUT],
    "wavepacket": ["wavepacket", "--nx", "96", "--ny", "96", "--steps", "20",
                   "--snapshot-every", "0", "--x0", "3.2", "--sigma", "0.6",
                   "--barrier-x", "6.4", "--outdir", "frames", *OUT],
    "wavepacket-pgm-double-slit": [
        "wavepacket", "--scenario", "double_slit", "--nx", "64", "--ny", "64",
        "--dx", "0.2", "--steps", "10", "--snapshot-every", "5", "--format", "pgm",
        "--x0", "6.0", "--sigma", "0.8", "--barrier-x", "11.0", "--k0x", "2.0",
        "--outdir", "frames", *OUT],
    "config-fnn": ["train", "fnn", "--config", "configs/mnist-fnn-qt.json",
                   "--hidden", "8", "--epochs", "1", "--batch", "32", *OUT],
    "config-rnn": ["train", "rnn", "--config", "configs/sentiment-rnn-qt.json",
                   "--corpus", "corpus.csv", "--hidden", "8", "--epochs", "3", *OUT],
    "config-bnn": ["train", "bnn", "--config", "configs/fashion-bnn-qt.json",
                   "--hidden", "8", "--epochs", "1", "--samples", "4",
                   "--train-limit", "40", "--test-limit", "20", *OUT],
    "config-esn": ["esn", "--config", "configs/mgts-esn-qt.json", "--n", "80",
                   "--train", "400", "--horizon", "50", "--washout", "40", *OUT],
}

GOLDEN = {
    "activation":
        "6df86e78238c6bc6f6431cc2516472105503a133ff6d6fdc1b006dff2e9a702e",
    "config-bnn":
        "736641c79fd33ee24575b73ee742cf825bd583299061a63c9fd9191f6685464c",
    "config-esn":
        "eaf58736ce7479471cafbcf1d3f67d9ccbbba685a0d22476252dea7793638553",
    "config-fnn":
        "b3013cc4e10cba70b36b9b1ae33957615bccf021c85ad4074e2287158ef01710",
    "config-rnn":
        "2cd57bef1baa043ad1fd31fc11b316e96e998b78e589f1a67681ef4dff262437",
    "esn":
        "e2854f1971f31b499246ce19583d5ed2f2d7add20cf244270e1b37c894ac263b",
    "spectrum":
        "aad7b1bf55d6b1220e41387e07004fdb972ea6648f152e311a8381a74ffdf2d1",
    "train-bnn":
        "11bb3933266748e6aeb9438a33792f69dab8f27fc5d05090d9e8a267a80d7831",
    "train-fnn":
        "5992b84e5423ad5ac3a72c5b6a899fbd4a96f7890814830891cba686826cf4fe",
    "train-rnn":
        "ea46190ae01e416d7cd8d17d8af20cd9307587e7f5af319a2b3dd565cb4879d9",
    "wavepacket":
        "01b4d330e3bd81f28dcfe0f45321308459a111ef88db9e5c3e76b9c8d222cb07",
    "wavepacket-pgm-double-slit":
        "b96afa696d350d4b7be1e3a7403bb6f966769b1f09cf82466b7ea4fc42a3c4a1",
}

HELP = {
    "activation": [
        "--a", "--ampl", "--config", "--emax", "--hbar", "--help", "--m", "--mode",
        "--out", "--points", "--report", "--seed", "--v0",
        "{rectified,absolute,bipolar}",
    ],
    "spectrum": [
        "--a", "--ampl", "--config", "--csv", "--f0", "--fn", "--fs", "--hbar",
        "--help", "--m", "--mode", "--n", "--out", "--seed", "--threshold-db", "--v0",
        "{qt,relu,sigmoid,tanh,identity}", "{rectified,absolute,bipolar}",
    ],
    "train fnn": [
        "--a", "--activation", "--ampl", "--batch", "--checkpoint", "--clip",
        "--config", "--dataset", "--epochs", "--hbar", "--help", "--hidden", "--lr",
        "--m", "--mode", "--out", "--seed", "--test-limit", "--train-limit", "--v0",
        "{mnist,fashion}", "{qt,relu,sigmoid,tanh,identity}",
        "{rectified,absolute,bipolar}",
    ],
    "train rnn": [
        "--a", "--activation", "--ampl", "--checkpoint", "--clip", "--config",
        "--corpus", "--embed", "--epochs", "--hbar", "--help", "--hidden", "--lr",
        "--m", "--mode", "--out", "--seed", "--stop-loss", "--train-frac", "--v0",
        "{qt,relu,sigmoid,tanh,identity}", "{rectified,absolute,bipolar}",
    ],
    "train bnn": [
        "--a", "--activation", "--ampl", "--checkpoint", "--config", "--dataset",
        "--epochs", "--hbar", "--help", "--hidden", "--lr", "--m", "--mode", "--out",
        "--samples", "--seed", "--std", "--test-limit", "--train-limit", "--v0",
        "{mnist,fashion}", "{qt,relu,sigmoid,tanh,identity}",
        "{rectified,absolute,bipolar}",
    ],
    "esn": [
        "--a", "--act", "--allow-rho-ge-1", "--ampl", "--config", "--density",
        "--forecast-csv", "--hbar", "--help", "--horizon", "--m", "--mode", "--n",
        "--out", "--rho", "--ridge", "--seed", "--train", "--v0", "--washout",
        "{rectified,absolute,bipolar}", "{tanh,qt}",
    ],
    "wavepacket": [
        "--barrier-x", "--config", "--dt", "--dx", "--format", "--help", "--k0x",
        "--nx", "--ny", "--out", "--outdir", "--scenario", "--seed", "--sigma",
        "--slit-sep", "--slit-width", "--snapshot-every", "--steps", "--thickness",
        "--v0", "--x0", "--y0", "{barrier,single_slit,double_slit}", "{text,pgm}",
    ],
}


@pytest.fixture
def workdir(tmp_path, monkeypatch, synthetic_image_data):
    monkeypatch.setenv("QTNN_DATA_DIR", str(synthetic_image_data))
    work = tmp_path / "work"
    work.mkdir()
    shutil.copytree(CONFIGS, work / "configs")
    shutil.copyfile(bundled_sentiment_path(), work / "corpus.csv")
    monkeypatch.chdir(work)
    return work


def run_digest(cmd):
    assert main(cmd) == EXIT_OK, cmd
    doc = json.loads(Path("report.json").read_text())
    doc.pop("wall_clock_sec")
    h = hashlib.sha256(canonical_json(doc).encode("utf-8"))
    for artifact in doc["artifacts"]:
        h.update(Path(artifact).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_and_artifacts_unchanged(name, workdir):
    assert run_digest(RUNS[name]) == GOLDEN[name]


def help_tokens(cmd, capsys):
    assert main([*cmd, "--help"]) == EXIT_OK
    text = capsys.readouterr().out
    return sorted(set(re.findall(r"--[a-z0-9][a-z0-9-]*|\{[^}]*\}", text)))


@pytest.mark.parametrize("cmd", sorted(HELP))
def test_help_flags_unchanged(cmd, capsys):
    assert help_tokens(cmd.split(), capsys) == HELP[cmd]
