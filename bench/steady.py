#!/usr/bin/env python3
"""Steadiness of the benchmark: run every workload repeatedly and summarise.

    python3 bench/steady.py [--workloads a,b] [--seeds 1,2,...] [--seconds S]
                            [--save FILE] [--against FILE]

Each (workload, seed) is one ``bench/run.py`` process, run one after the
other. For each (workload, end-to-end metric) pair it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (q3 - q1) /
median against the metric's bound from BENCHMARK.json, and the failed share
of operations. ``--save`` keeps the raw results; ``--against`` compares the
medians with a saved set, as a second set of runs of the same code would be
compared with the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2][2:])
    return result


def summarise(results: dict, spec: dict, against: dict | None) -> None:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':14s} {'metric':20s} {'n':>3s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} {'/bound':>6s}" + ("  shift" if against else ""))
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}")
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"{workload:14s} {name:20s} {len(values):3d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                    f"{spread:7.3f} {meta['bound']:6.2f} {spread / meta['bound']:6.2f}")
            if against and workload in against:
                old = statistics.median(r["metrics"][name]["value"] for r in against[workload])
                worse = (med - old) / old if meta["better"] == "lower" else (old - med) / old
                line += f"  {worse:+.3f}{'  WORSE THAN BOUND' if worse > meta['bound'] else ''}"
            print(line)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    results: dict[str, list] = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in (int(s) for s in args.seeds.split(",")):
            results[workload].append(run_once(workload, seed, args.seconds))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        args.save.write_text(json.dumps(results))
    against = json.loads(args.against.read_text()) if args.against else None
    summarise(results, spec, against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
