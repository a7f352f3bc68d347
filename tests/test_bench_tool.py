import json
import statistics
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def collected(checks, metrics):
    """A hand-written collected file: one workload, a (digest, failed, host speed or None)
    per seed, and per metric its (unit, per-seed values) with their median and inclusive
    quartiles."""
    runs = {"trace0": {seed: {"digest": digest, "failed": failed, "attempted": 5,
                              "machine": {"nproc": 2},
                              **({} if speed is None else {"host_speed": speed})}
                       for seed, (digest, failed, speed) in checks.items()}}
    return {"seeds": [int(s) for s in checks], "seconds": 24.0, "traces": [0],
            "workloads": {"fnn-mnist": {"runs": runs, "metrics": {
                name: dict(zip(("q1", "median", "q3"),
                               statistics.quantiles(values, n=4, method="inclusive")),
                           unit=unit, values=list(values))
                for name, (unit, values) in metrics.items()}}}}


def test_compare_reports_ratio_overlap_and_a_changed_digest(tmp_path):
    # seed 4 is in the second file only and counts for nothing; seed 2 ties on
    # the readout; the third metric has no direction in BENCHMARK.json; the host
    # speed line is the ratio of the median speeds, and goes once one file lacks them
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    metrics_a = {"readout_units_per_s": ("1/s", (30.0, 40.0, 50.0)),
                 "peak_rss_mb": ("MiB", (100.0, 100.0, 100.0)),
                 "unlisted": ("s", (1.0, 2.0, 3.0))}
    checks_a = {"1": ("aa" * 32, 0, 1.0), "2": ("bb" * 32, 0, 1.25), "3": ("dd" * 32, 0, 0.5)}
    a.write_text(json.dumps(collected(checks_a, metrics_a)))
    b.write_text(json.dumps(collected(
        {"1": ("aa" * 32, 2, 0.8), "2": ("cc" * 32, 0, 0.9), "3": ("dd" * 32, 0, 0.9),
         "4": ("ee" * 32, 0, 0.7)},
        {"readout_units_per_s": ("1/s", (55.0, 40.0, 65.0, 70.0)),
         "peak_rss_mb": ("MiB", (90.0, 110.0, 95.0, 50.0)),
         "unlisted": ("s", (1.0, 2.0, 3.0, 4.0))})))

    def compared():
        done = subprocess.run([sys.executable, str(TOOL), "--compare", str(a), str(b)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()

    lines = compared()
    assert lines == [
        "fnn-mnist host speed: 1 -> 0.85 x0.850",
        "fnn-mnist readout_units_per_s: 40 -> 60 x1.500, quartiles apart, better at 2/3 seeds",
        "fnn-mnist peak_rss_mb: 100 -> 92.5 x0.925, quartiles apart, better at 2/3 seeds",
        "fnn-mnist unlisted: 2 -> 2.5 x1.250, quartiles overlap",
        "fnn-mnist trace0 seed 1: failed changed 0 -> 2",
        f"fnn-mnist trace0 seed 2: digest changed {'bb' * 8} -> {'cc' * 8}",
    ]
    checks_a["2"] = ("bb" * 32, 0, None)  # a file collected before runs kept the speed
    a.write_text(json.dumps(collected(checks_a, metrics_a)))
    assert compared() == lines[1:]
