"""Golden hashes of CLI reports, artifacts and ``--help`` flag sets.

Every run happens in a fresh working directory with relative paths only, so
no machine path reaches a report's command, config or artifact fields: the
configs and the bundled corpus are copied in first.  A run's digest is the
sha256 of its canonical report without ``wall_clock_sec``, followed by the
bytes of every artifact the report lists, in listed order.  The values were
recorded before the CLI was rebuilt on per-command option tables; any change
to them means a report or artifact changed for a valid input.  The activation,
spectrum and wavepacket values were recorded again when the options that reach
no output left those commands (activation's mode, ampl and seed; the seed of
spectrum and wavepacket): the reports lost only those keys, and every
artifact kept its bytes.  The seven runs whose outputs pass through the qt
kernel (activation, spectrum, train-fnn/rnn/bnn, config-rnn, config-esn) were
recorded again when T(E) and dT/dE took the sinc form, which moves values by
a few ulps: the curve and spectrum CSVs, the checkpoints' weights, the RNN's
losses and the ESN's forecast errors in their last digits.  The two ESN runs
(esn, config-esn) were recorded again when the readout's triangular solves
became blocked and the power iteration moved to W^4: the readout weights
and so the forecast CSV and errors moved at the rounding level of the
ill-conditioned ridge solve.
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
    "activation": ["activation", "--out", "curve.csv", "--report", "report.json"],
    "spectrum": ["spectrum", "--fn", "qt", "--csv", "spectrum.csv", *OUT],
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
        "2769b801208926f21b471a87a21593f079390da30a6974f412cb45a90f03393f",
    "config-bnn":
        "736641c79fd33ee24575b73ee742cf825bd583299061a63c9fd9191f6685464c",
    "config-esn":
        "c97d76bc62089ad935a16272420777d76afed6fd1ab551e57431f0df45841799",
    "config-fnn":
        "b3013cc4e10cba70b36b9b1ae33957615bccf021c85ad4074e2287158ef01710",
    "config-rnn":
        "8d4430ef724bfa70cfa3cdaafba31be88ffeb910de6f193da4480deaee0ef803",
    "esn":
        "817381a74f20c8339fcacb10e621460e23328459183cee0d985325fbbba11e9b",
    "spectrum":
        "6916a681fb42a5ddfd6436a0271908b92096f5ff8665243da08aef18c471ab28",
    "train-bnn":
        "67b51bdda918fbce775165d81f28824288edb500893ace1404d116c7dfe79297",
    "train-fnn":
        "b79c53e80c56f141a96e52e15c3b65a604cc18240404ba8043363f3bc171b1dd",
    "train-rnn":
        "df297c671ad0640a4705bd750155f4dd029fafc6df5759f5e5c2c315af702e8b",
    "wavepacket":
        "a705961d34ab51d2e6382cb08cd8325a0c5ff064e84d0636e987623e6c20cc0d",
    "wavepacket-pgm-double-slit":
        "1ce7adcaa37b7b0c0177ece1e93b1ce2ee88bfa3a8fc4dc3bca1cd36cd86907c",
}

HELP = {
    "activation": [
        "--a", "--config", "--emax", "--hbar", "--help", "--m", "--out", "--points",
        "--report", "--v0",
    ],
    "spectrum": [
        "--a", "--ampl", "--config", "--csv", "--f0", "--fn", "--fs", "--hbar",
        "--help", "--m", "--mode", "--n", "--out", "--threshold-db", "--v0",
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
        "--nx", "--ny", "--out", "--outdir", "--scenario", "--sigma",
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
