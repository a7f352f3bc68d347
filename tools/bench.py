"""Collect the perfbench benchmark into one JSON file, or compare two such files.

    python3 tools/bench.py --seeds 5 --seconds 24 --trace 0 1 --out BENCH_17.json
    python3 tools/bench.py --compare BENCH_17.json BENCH_18.json

The first form runs ``perfbench/run.py`` unchanged, in a subprocess, once per
workload (as listed in ``BENCHMARK.json``), trace mode and seed (1 to K), from
the root of the checkout that holds this script or from ``--root``.  It
writes, per workload, the median and quartiles of every metric over the
seeds (end-to-end metrics from ``--trace 0``, per-layer ones from
``--trace 1``), and per trace mode and seed the output digest, the
failed-check count and the machine block.

The second form prints, per workload and metric, the ratio of the medians
(second file over first), whether the two quartile ranges overlap and at
how many of the seeds both files ran the second file is better (the
direction is the metric's ``better`` in ``BENCHMARK.json``; a tie counts for
neither), and flags every digest and every failed-check count that differs
between the files for one workload, trace mode and seed.
Nothing here gates: the exit code does not depend on the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_perfbench(root, workload, seed, seconds, trace):
    """(detail, result): the last two lines that ``perfbench/run.py`` prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    detail, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def summary(values):
    """Median and quartiles (inclusive method) of one metric over the seeds."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def collect(root, seeds, seconds, traces):
    """Every workload at every seed, in each trace mode (the modes share no metric name).

    The workloads take turns within each seed, so a spell in which the host
    runs the machine slower spreads over all of them instead of one.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    runs, values, units = ({w: {} for w in workloads} for _ in range(3))
    for trace in traces:
        for seed in seeds:
            for workload in workloads:
                print(f"{workload} trace {trace} seed {seed}", file=sys.stderr, flush=True)
                detail, result = run_perfbench(root, workload, seed, seconds, trace)
                runs[workload].setdefault(f"trace{trace}", {})[str(seed)] = {
                    "digest": detail["digest"], "failed": result["failed"],
                    "attempted": result["attempted"], "machine": detail["machine"]}
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                    units[workload][name] = metric["unit"]
    return {"seeds": seeds, "seconds": seconds, "traces": traces, "workloads": {
        w: {"metrics": {name: {"unit": units[w][name], **summary(v)}
                        for name, v in values[w].items()}, "runs": runs[w]}
        for w in workloads}}


def seed_wins(a, b, ma, mb, higher):
    """(wins, common): at how many common seeds metric ``mb`` of b beats ``ma`` of a."""
    va, vb = dict(zip(a["seeds"], ma["values"])), dict(zip(b["seeds"], mb["values"]))
    common = [s for s in va if s in vb]
    return sum((vb[s] > va[s]) if higher else (vb[s] < va[s]) for s in common), len(common)


def compare(a, b, better):
    """Report lines for two collected files: ratios, overlaps, wins per seed, changed
    digests and failures; ``better`` maps a metric name to "higher" or "lower"."""
    lines = []
    for workload in [w for w in a["workloads"] if w in b["workloads"]]:
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name in [m for m in wa["metrics"] if m in wb["metrics"]]:
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            ratio = f"x{mb['median'] / ma['median']:.3f}" if ma["median"] else "x n/a"
            apart = mb["q1"] > ma["q3"] or ma["q1"] > mb["q3"]
            line = (f"{workload} {name}: {ma['median']:.6g} -> {mb['median']:.6g} {ratio}, "
                    f"quartiles {'apart' if apart else 'overlap'}")
            if name in better:
                wins, common = seed_wins(a, b, ma, mb, better[name] == "higher")
                line += f", better at {wins}/{common} seeds"
            lines.append(line)
        for mode in [t for t in wa["runs"] if t in wb["runs"]]:
            ra, rb = wa["runs"][mode], wb["runs"][mode]
            for seed in [s for s in ra if s in rb]:
                for key in ("digest", "failed"):
                    va, vb = ra[seed][key], rb[seed][key]
                    if va != vb:
                        lines.append(f"{workload} {mode} seed {seed}: {key} changed "
                                     f"{str(va)[:16]} -> {str(vb)[:16]}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two collected files")
    p.add_argument("--seeds", type=int, default=5, help="run seeds 1..K (default 5)")
    p.add_argument("--seconds", type=float, default=24.0, help="perfbench --seconds (default 24)")
    p.add_argument("--trace", type=int, choices=(0, 1), nargs="+", default=[0],
                   help="perfbench --trace mode(s) to run (default 0)")
    p.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    p.add_argument("--out", type=Path, help="write the collected file here")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        print("\n".join(compare(a, b, better)))
        return 0
    if args.out is None or args.seeds < 1:
        p.error("collecting needs --out and --seeds >= 1")
    result = collect(args.root.resolve(), list(range(1, args.seeds + 1)), args.seconds,
                     sorted(set(args.trace)))
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
