#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fields --seeds 1-10 --label base

Each run is untraced and as long as ``run_seconds`` in BENCHMARK.json.
For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartiles as a share of that
median, the figure the benchmark's bounds are judged against, and the
share of failed operations.  The samples go to
``perfbench/out/BENCH_<label>.json``.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    root = HERE.parent
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0", "--label", f"{args.label}-{args.workload}-{seed}"]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              check=False, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            + f", failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"unit": runs[0]["metrics"][name]["unit"], "samples": values,
                         "median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med if med else None}
        share = summary[name]["iqr_share"]
        print(f"{name:32s} median {med:12.6g}  iqr/median "
              + (f"{share:.4f}" if share is not None else "n/a"))
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed shares: {shares}; all correct: {all(r['correct'] for r in runs)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"BENCH_{args.label}-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"label": args.label, "workload": args.workload,
                   "seconds": seconds, "runs": runs, "metrics": summary,
                   "failed_shares": shares}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
