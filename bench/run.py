#!/usr/bin/env python3
"""Run one smoothrank benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``. With
``--trace 0`` the workload's job runs untraced and the end-to-end metrics of
``BENCHMARK.json`` are reported, scaled to the calibrator's reference speed;
``setup_s`` is the median over several fresh processes. With ``--trace 1``
the tracer wraps each module's entry points and the per-layer metrics are
reported; after a warm-up round, untraced and traced rounds alternate, so the
run also states the tracing overhead and checks that tracing changed no
output bit. Inputs, CLI outputs and spans go under ``.bench_scratch/`` in the
checkout. The last line of standard output is the JSON result.
"""

import os

# one BLAS thread: a second OpenBLAS thread on this 2-core class of machine
# doubled CPU time for no wall-time gain and made timings wander
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_scratch"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="internal: set the workload up from DIR, print 'ready' and exit")
    return parser.parse_args(argv)


def time_setup(args, workdir: Path) -> float:
    """Seconds from process start until the workload could take its first step."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(workdir)]
    tic = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - tic
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return seconds


def run(args, spec, job_cls) -> dict:
    import numpy

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=SCRATCH))
    os.environ["SMOOTHRANK_OUT"] = str(workdir)
    job = job_cls(args.seed, workdir)
    try:
        job.prepare()
        if args.trace:
            metrics, errors = traced_rounds(args, job)
        else:
            setups = []
            for _ in range(job.setup_probes):
                job.calibrate()
                setups.append(time_setup(args, workdir))
            deadline = time.perf_counter() + args.seconds
            rounds = 0
            while rounds < job.min_rounds or time.perf_counter() < deadline:
                job.round()
                rounds += 1
            errors = checked(job)
            metrics = dict(job.end_to_end())
            metrics["setup_s"] = statistics.median(setups) * job.calibrator.scale()
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            errors += [f"no samples of {name}" for name, value in metrics.items() if value is None]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {name: (value, units[name]) for name, value in metrics.items()}
    finally:
        job.calibrator.close()
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
            "numpy": numpy.__version__, "python": sys.version.split()[0],
            "calibration_scale": job.calibrator.scale(),
            "errors": (job.errors + errors)[:10]}
    print("# " + json.dumps(info, sort_keys=True))
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ expected)} do not match BENCHMARK.json")
    return {
        "correct": not errors,
        "attempted": job.attempted,
        "failed": job.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }


def checked(job) -> list[str]:
    """The job's output checks; a check that raises is a failed check."""
    try:
        return job.check()
    except Exception as exc:  # reported as correct: false, the result is still printed
        return [f"check raised {exc!r}"]


def traced_rounds(args, job):
    """A warm-up round, then untraced and traced rounds in turn; the per-layer
    metrics come from the traced ones."""
    from tracer import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    job.round()
    traced = False
    while not walls[True] or not walls[False] or time.perf_counter() < deadline:
        if traced:
            tracer.install()
        tic = time.perf_counter()
        try:
            job.round()
        finally:
            walls[traced].append(time.perf_counter() - tic)
            tracer.uninstall()
        traced = not traced
    errors = checked(job)
    if len(set(job.fingerprints)) != 1:
        errors.append("traced and untraced rounds gave different outputs")
    traces = SCRATCH / "traces"
    traces.mkdir(exist_ok=True)
    tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
    metrics = tracer.layer_metrics(len(walls[True]))
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    metrics["bench.trace_overhead_pct"] = (100.0 * overhead, "%")
    return metrics, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "smoothrank" / "__init__.py").is_file():
        print(f"error: no smoothrank package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    job_cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        job_cls(args.seed, Path(args.setup_probe)).setup()
        print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps(run(args, spec, job_cls)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
