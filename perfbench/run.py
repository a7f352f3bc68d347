"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One workload runs per process,
with BLAS pinned to one thread before NumPy loads.  Inputs are generated
from ``--seed`` into a scratch directory inside the checkout before any
timing starts, then the workload repeats set-up plus measured body until
``--seconds`` is spent; every repetition restarts from the same inputs, so
all of them must produce the same output digest.  Reference loops of the
benchmark's own (``bench_reference.py``) run between repetitions, and each
repetition's seconds are scaled by how fast they ran around it, so that
the machine's own drift in speed cancels.

With ``--trace 0`` the last line of output carries the end-to-end metrics
(medians over repetitions, in reference seconds).  With ``--trace 1`` the
run first repeats the body untraced for half the budget, then with timing
wrappers installed around the program's functions, and the last line
carries the per-layer metrics of the traced repetitions plus the tracing
overhead.  The line before it is a JSON detail block: machine, inputs,
digest, checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from bench_spans import Tracer, totals_by_name

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec():
    """Workload names and {metric: unit} for each trace mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    return [w["name"] for w in spec["workloads"]], units


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def machine_block(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy older than 1.26 has no dict mode
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_pinned": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_reps(workload, seconds, tracer=None):
    """Repeat set-up + body until the next repetition would overrun ``seconds``.

    The workload's reference loops run before the first repetition and
    after each one.  A repetition's ``scale`` (for its body) and
    ``setup_scale`` (for its set-up) are a loop's reference time over the
    mean of that loop's two runs around it: they turn its seconds into
    reference seconds.
    """
    import bench_reference

    names = {workload.reference, workload.setup_reference}
    reps = []
    start = perf_counter()
    cal = {name: bench_reference.seconds(name) for name in names}
    while True:
        if tracer is not None:
            tracer.run_id = len(reps)
        t0 = perf_counter()
        state = workload.setup()
        t1 = perf_counter()
        rep = workload.body(state)
        del state
        next_cal = {name: bench_reference.seconds(name) for name in names}
        rep.setup_s = t1 - t0
        rep.scale = bench_reference.scale(workload.reference, cal, next_cal)
        rep.setup_scale = bench_reference.scale(workload.setup_reference, cal, next_cal)
        cal = next_cal
        reps.append(rep)
        now = perf_counter()
        if now - start + (now - t0) > seconds:
            return reps


def tally(reps, reference_digest):
    """(attempted, failed names) over every check of every repetition."""
    attempted, failed = 0, []
    for i, rep in enumerate(reps):
        checks = {**rep.checks, "digest_repeats": rep.digest == reference_digest}
        for name, ok in checks.items():
            attempted += 1
            if not ok:
                failed.append(f"rep{i}.{name}")
    return attempted, failed


def rate(phase):
    units, seconds = phase
    return units / seconds


def measure(workload, seconds):
    """End-to-end metrics in reference seconds, medians over the repetitions."""
    import bench_reference

    start = perf_counter()
    name = workload.setup_reference
    before = {name: bench_reference.seconds(name)}
    extra = []
    for _ in range(workload.extra_setups):
        t0 = perf_counter()
        state = workload.setup()
        extra.append(perf_counter() - t0)
        del state
    scale = bench_reference.scale(name, before, {name: bench_reference.seconds(name)})
    reps = run_reps(workload, seconds - (perf_counter() - start))
    setup_times = [t * scale for t in extra] + [r.setup_s * r.setup_scale for r in reps]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(r.run_s * r.scale for r in reps),
        "main_units_per_s": statistics.median(rate(r.main) / r.scale for r in reps),
        "readout_units_per_s": statistics.median(rate(r.readout) / r.scale for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_samples": len(setup_times),
        "reps": len(reps),
        "scale_per_rep": [r.scale for r in reps],
        "wall": {
            "setup_s": statistics.median(extra + [r.setup_s for r in reps]),
            "run_s_per_rep": [r.run_s for r in reps],
            "main_units_per_s": statistics.median(rate(r.main) for r in reps),
            "readout_units_per_s": statistics.median(rate(r.readout) for r in reps),
        },
        workload.main_metric: metrics["main_units_per_s"],
        workload.readout_metric: metrics["readout_units_per_s"],
    }
    return reps, metrics, detail


def measure_traced(workload, seconds, spans_path, names):
    from bench_workloads import layer_metrics, trace_targets

    start = perf_counter()
    untraced = run_reps(workload, seconds / 2)
    # a target the program no longer has raises here: a vanished layer must
    # not read as a layer that takes no time
    targets = trace_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = Tracer()
    try:
        for owner, attr, name, count in targets:
            tracer.install(owner, attr, name, count)
        traced = run_reps(workload, seconds - (perf_counter() - start), tracer)
    finally:
        tracer.remove()
    restored = all(vars(owner)[attr] is original
                   for (owner, attr, _, _), original in zip(targets, originals))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    metrics = layer_metrics(names, totals_by_name(tracer.spans), tracer.counts, len(traced))
    # in reference seconds, as run_s is, so drift between the halves cancels
    untraced_run_s = statistics.median(r.run_s * r.scale for r in untraced)
    metrics["trace.overhead_s"] = (
        statistics.median(r.run_s * r.scale for r in traced) - untraced_run_s)
    detail = {
        "untraced_reps": len(untraced),
        "traced_reps": len(traced),
        "untraced_run_s": untraced_run_s,
        "wrappers_removed": restored,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return untraced, traced, metrics, detail


def main(argv=None):
    workload_names, units_by_trace = load_spec()
    args = parse_args(argv, workload_names)
    src = ROOT / "src"
    if not (src / "qtnn" / "__init__.py").is_file():
        print(f"error: no qtnn sources under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    import numpy as np
    import qtnn

    if Path(qtnn.__file__).resolve().parent != src / "qtnn":
        print(f"error: imported qtnn from {qtnn.__file__}, not {src}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    units = units_by_trace[args.trace]
    workload = WORKLOADS[args.workload]()
    scratch = ROOT / ".perfbench_tmp"
    tmp = scratch / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.prepare(args.seed, tmp)
        if args.trace:
            spans_path = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.jsonl"
            untraced, traced, values, detail = measure_traced(
                workload, args.seconds, spans_path, units)
            # traced repetitions must reproduce the untraced digest
            attempted, failed = tally(untraced + traced, untraced[0].digest)
            attempted += 1
            if not detail["wrappers_removed"]:
                failed.append("wrappers_removed")
            reps = traced
        else:
            reps, values, detail = measure(workload, args.seconds)
            attempted, failed = tally(reps, reps[0].digest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still has its directory there
            pass

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": inputs,
        "machine": machine_block(np),
        "digest": reps[0].digest,
        "facts": reps[0].facts,
        "failed_checks": failed,
        **detail,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
