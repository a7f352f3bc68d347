import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def collected(checks, readout):
    """A hand-written collected file: one workload, one metric, a (digest, failed) per seed."""
    runs = {"trace0": {seed: {"digest": digest, "failed": failed, "attempted": 5,
                              "machine": {"nproc": 2}}
                       for seed, (digest, failed) in checks.items()}}
    metric = {"unit": "1/s", "median": readout[1], "q1": readout[0], "q3": readout[2],
              "values": list(readout)}
    return {"seeds": [int(s) for s in checks], "seconds": 24.0, "traces": [0],
            "workloads": {"fnn-mnist": {"metrics": {"readout_units_per_s": metric},
                                        "runs": runs}}}


def test_compare_reports_ratio_overlap_and_a_changed_digest(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(collected({"1": ("aa" * 32, 0), "2": ("bb" * 32, 0)},
                                      (30.0, 40.0, 50.0))))
    b.write_text(json.dumps(collected({"1": ("aa" * 32, 2), "2": ("cc" * 32, 0)},
                                      (55.0, 60.0, 65.0))))
    done = subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "fnn-mnist readout_units_per_s: 40 -> 60 x1.500, quartiles apart",
        "fnn-mnist trace0 seed 1: failed changed 0 -> 2",
        f"fnn-mnist trace0 seed 2: digest changed {'bb' * 8} -> {'cc' * 8}",
    ]
