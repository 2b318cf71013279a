"""Closed-loop benchmark of policyshift: one client, one process, workers=1.

    python3 perfbench/run.py --workload replication_table --seed 1 --seconds 35 --trace 0

Runs ops of the chosen workload back to back for ``--seconds``, checks every
op's outputs against ``reference.json`` and prints the metrics, one per line
with its unit, then a final JSON line ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced ops and reports per-layer metrics from the
traced ones plus the tracing overhead. The package is imported from the
checkout's ``src/``; without it the runner exits with status 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("replication_table", "estimator_mc", "csv_policy")
SETUP_REPEATS = 10
READY = b"ready\n"  # what a --setup-only child prints once its inputs are built
TAIL_BEYOND = 10  # op_tail_s is the highest order statistic with this many samples beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_fraction", "ratio"),
)
TRACE_EXTRAS = (
    ("data.write_csv.self_s", "s"),
    ("op.traced_s", "s/op"),
    ("trace.overhead_ops_per_s", "1/s"),
    ("trace.overhead_fraction", "ratio"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="picks the op inputs; equal seeds, equal inputs")
    parser.add_argument("--seconds", type=float, default=35.0, help="measure ops for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    parser.add_argument("--setup-only", action="store_true", help="build the inputs and exit (times set-up)")
    return parser.parse_args(argv)


def locate_package() -> str | None:
    """Put the checkout's sources first on the path; an error message if absent."""
    if not (SRC / "policyshift" / "__init__.py").is_file():
        return f"no policyshift sources at {SRC}; run from the root of a repository checkout"
    sys.path.insert(0, str(SRC))
    import policyshift

    if not Path(policyshift.__file__).resolve().is_relative_to(SRC.resolve()):
        return f"imported policyshift from {policyshift.__file__}, not from {SRC}"
    return None


def git_commit() -> str:
    """HEAD of the checkout's own repository; the ceiling keeps git from finding an enclosing one."""
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    with contextlib.suppress(OSError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "policyshift").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_setup(args: argparse.Namespace) -> float:
    """Wall time from starting a fresh interpreter until it is ready for its first op.

    The child imports the package, loads the reference and builds the inputs,
    then says so on stdout; its teardown after that is not timed.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
        ready = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or ready != READY:
        raise RuntimeError(f"set-up child exited with {child.returncode} before it was ready")
    return elapsed


def measure(workload, inputs, reference: dict, seconds: float, tracer=None) -> dict:
    """Run ops back to back; with a tracer, every second op is traced."""
    from workloads import mismatches

    durations, traced, failed = [], [], 0
    start = time.perf_counter()
    i = 0
    while i < (2 if tracer else 1) or time.perf_counter() - start < seconds:
        key = inputs.keys[i % len(inputs.keys)]
        trace_this = tracer is not None and i % 2 == 1
        t0 = time.perf_counter()
        elapsed = None
        try:
            with tracer.op(i) if trace_this else contextlib.nullcontext():
                output = workload.op(inputs, key)
            elapsed = time.perf_counter() - t0
            expected = dict(zip(reference["fields"], reference["outputs"][key]))
            bad = mismatches(workload.observe(inputs, key, output), expected)
        except Exception:
            bad = [traceback.format_exc()]
        durations.append(elapsed if elapsed is not None else time.perf_counter() - t0)
        traced.append(trace_this)
        if bad:
            failed += 1
            print(f"op {i} (input {key}) failed the output check:\n  " + "\n  ".join(bad[:5]), file=sys.stderr)
        i += 1
    return {"wall": time.perf_counter() - start, "durations": durations, "traced": traced, "failed": failed}


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples beyond it, and its percentile.

    With fewer than 2 * TAIL_BEYOND + 1 ops that statistic lies below the
    median, so the median (p50) is reported instead.
    """
    ordered = sorted(durations)
    k = len(ordered) - TAIL_BEYOND - 1
    if 2 * k < len(ordered) - 1:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * k / (len(ordered) - 1)


def end_to_end_metrics(loop: dict, setup_s: float) -> dict:
    durations = loop["durations"]
    n = len(durations)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / loop["wall"],
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail(durations)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_fraction": (n - loop["failed"]) / n,
    }


def layer_metrics(loop: dict, tracer) -> dict:
    from tracer import LAYER_METRICS, layer_totals

    per_op = layer_totals([s for s in tracer.spans if s.op >= 0])
    setup = layer_totals([s for s in tracer.spans if s.op < 0])
    pairs = list(zip(loop["durations"], loop["traced"]))
    traced = [d for d, t in pairs if t]
    untraced = [d for d, t in pairs if not t]
    traced_rate, untraced_rate = len(traced) / sum(traced), len(untraced) / sum(untraced)
    metrics = {name: fn(per_op, len(traced)) for name, _, fn in LAYER_METRICS}
    metrics["data.write_csv.self_s"] = setup["data.write_csv"].self_s if "data.write_csv" in setup else 0.0
    metrics["op.traced_s"] = statistics.fmean(traced)
    metrics["trace.overhead_ops_per_s"] = untraced_rate - traced_rate
    metrics["trace.overhead_fraction"] = 1.0 - traced_rate / untraced_rate
    return metrics


def metric_units(trace: bool) -> dict[str, str]:
    if not trace:
        return dict(END_TO_END)
    from tracer import LAYER_METRICS

    return {name: unit for name, unit, _ in LAYER_METRICS} | dict(TRACE_EXTRAS)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    problem = locate_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    import numpy as np

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    rundir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
        if args.setup_only:
            workload.setup(np.random.default_rng(args.seed), rundir)
            sys.stdout.buffer.write(READY)
            sys.stdout.flush()
            return 0
        tracer = Tracer() if args.trace else None
        # half the set-ups before the loop and half after, so their median
        # spans the run rather than one moment of a machine whose speed drifts
        setups = 0 if tracer else SETUP_REPEATS
        setup_times = [time_setup(args) for _ in range(setups // 2)]
        with tracer.op(-1) if tracer else contextlib.nullcontext():
            inputs = workload.setup(np.random.default_rng(args.seed), rundir)
        loop = measure(workload, inputs, reference, args.seconds, tracer)
        setup_times += [time_setup(args) for _ in range(setups - setups // 2)]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    info = provenance(args)
    print("provenance " + json.dumps(info, sort_keys=True))
    if tracer:
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, header=info)
        metrics = layer_metrics(loop, tracer)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(loop, statistics.median(setup_times))
    units = metric_units(bool(args.trace))
    n, failed = len(loop["durations"]), loop["failed"]
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:>14.6g} {unit}")
    _, pct = tail(loop["durations"])
    print(f"op_tail_s is the p{pct:.0f} op time of {n} ops; failed_fraction {failed}/{n} = {failed / n:.4g}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
