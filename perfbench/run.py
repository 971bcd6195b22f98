#!/usr/bin/env python3
"""End-to-end benchmark of the ``fnls`` command line.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 30 --trace 0

Runs one workload (``fields``, ``spectra`` or ``evolve``, see README.md)
as whole rounds of ``fnls`` subcommands called in-process through
``fnls.cli.main``.  The number of rounds follows from ``--seconds`` and
the workload alone, so it does not depend on the speed of the machine.
Every call's output is checked.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
Each run also writes ``perfbench/out/BENCH_<label>.json`` with every
sample, and a traced run writes its spans next to it.

Run it from the root of a source checkout; it imports ``fnls`` from
``src/`` there and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / "work"
SETUP_REPEATS = 7
# Wall time of one round on the reference machine (README.md).  A run
# makes seconds / ROUND_S rounds, however fast it goes, so that every run
# of a workload at one length attempts the same operations.
ROUND_S = {"fields": 5.0, "spectra": 7.5, "evolve": 6.5}
# Start no round after this many seconds of the run, so that a machine
# several times slower than usual still ends the run within its time
# limit; the rounds left out are reported on standard error.
LATEST_ROUND_S = 120.0

# One BLAS thread.  With the default of one per core, OpenBLAS threads
# spin against any other load on the machine: ``fnls scatter`` took 1.5x
# as long beside one busy process, and up to 35x beside a second
# benchmark (README.md).  Set before numpy is first imported; the set-up
# processes inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "jobs_s": "s",
                    "points_per_s": "points/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("fields", "spectra", "evolve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--label", default=None,
                   help="name of the BENCH_<label>.json written to perfbench/out")
    p.add_argument("--setup-only", action="store_true",
                   help="import fnls, build the inputs and exit (used to "
                        "time set-up in fresh processes)")
    return p.parse_args(argv)


def import_fnls():
    """Import ``fnls.cli`` from this checkout's ``src`` only."""
    if not (SRC / "fnls" / "cli.py").is_file():
        raise SystemExit(f"error: no fnls sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import fnls.cli
    elapsed = time.perf_counter() - start
    if Path(fnls.cli.__file__).resolve().parent != (SRC / "fnls").resolve():
        raise SystemExit("error: fnls was imported from outside this checkout")
    return fnls.cli, elapsed


def round_count(workload, seconds):
    """Rounds in a run: at least two, so a traced run has one of each kind."""
    return max(2, round(seconds / ROUND_S[workload]))


class Setup:
    """Fresh set-up processes, spread over the run so that they meet the
    machine in the same states as the rounds do."""

    def __init__(self, args, rounds):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                    args.workload, "--seed", str(args.seed), "--setup-only"]
        # processes to start before each round, SETUP_REPEATS in all
        self.schedule = [SETUP_REPEATS * (i + 1) // rounds - SETUP_REPEATS * i // rounds
                         for i in range(rounds)]
        self.walls, self.imports, self.round_of = [], [], []

    def before_round(self, index):
        for _ in range(self.schedule[index]):
            start = time.perf_counter()
            done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=120, check=False)
            self.walls.append(time.perf_counter() - start)
            self.round_of.append(index)
            if done.returncode != 0:
                raise SystemExit(f"error: set-up process failed:\n{done.stderr}")
            self.imports.append(
                json.loads(done.stdout.strip().splitlines()[-1])["import_s"])


def run_op(cli, op):
    """One timed ``fnls`` call and its untimed check:
    (seconds, passed, exit code, report)."""
    if op.prepare is not None:
        op.prepare()
    op.out_dir.mkdir(parents=True, exist_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # an escaped error fails the op, not the run
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if rc != 0:
        return elapsed, False, rc, f"exit {rc}: {sink.getvalue().strip()[-200:]}"
    try:
        ok, detail = op.check(op.out_dir)
    except Exception as exc:  # malformed output fails the op, not the run
        ok, detail = False, f"unreadable output: {exc!r}"
    return elapsed, ok, rc, detail


def run_round(cli, ops, failures, probe):
    """Run every op once, with an untimed ``probe`` of the machine's speed
    before each op and after the last; returns ({op name: seconds},
    {op name: passed}, [probe seconds]).

    A failure counts as its op's known fault only if it shows the way
    that fault does; otherwise it is recorded as unexpected."""
    seconds, passed, probes = {}, {}, []
    for op in ops:
        probes.append(probe())
        seconds[op.name], passed[op.name], rc, detail = run_op(cli, op)
        if not passed[op.name]:
            known = op.fault is not None and op.fault.explains(rc, detail)
            key = op.name if known else f"{op.name} (unexpected)"
            entry = failures.setdefault(key, {"count": 0, "detail": detail,
                                              "fault": op.fault.name if known else None})
            entry["count"] += 1
    probes.append(probe())
    return seconds, passed, probes


def end_to_end(ops, op_seconds, op_passes, rounds):
    """Job time and throughput from per-op medians over the untraced rounds.

    Medians per op, not per round, so that one stall of the machine in one
    op does not move the figure.  Throughput counts the points of ops that
    passed, over the time of every op that produces points."""
    median = {op.name: statistics.median(op_seconds[op.name]) for op in ops}
    point_ops = [op for op in ops if op.points]
    points = sum(op.points * op_passes[op.name] / rounds for op in point_ops)
    return (sum(median.values()),
            points / sum(median[op.name] for op in point_ops))


def machine():
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "fft": "numpy.fft (pocketfft, one thread)",
    }


def summarize(samples):
    """Samples with their median and quartiles."""
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"samples": samples, "median": med, "q1": q1, "q3": q3}


class Rounds:
    """What the rounds of one run measured.

    Times are in reference seconds: each round's times are multiplied by
    its ``scale``, ``reference_s`` over the median of the reference kernel
    times taken between its ops, so that a drift of the machine's speed
    between or within runs cancels (reference.py)."""

    def __init__(self, ops, reference_s):
        self.ops = ops
        self.reference_s = reference_s
        self.failures = {}
        self.op_seconds = {op.name: [] for op in ops}
        self.op_passes = {op.name: 0 for op in ops}
        self.plain_jobs, self.traced_jobs, self.walls = [], [], []
        self.kernel, self.scales = [], []   # per round

    @property
    def count(self):
        return len(self.plain_jobs) + len(self.traced_jobs)

    def record(self, seconds, passed, traced, wall, kernel):
        self.walls.append(wall)
        self.kernel.append(kernel)
        scale = self.reference_s / statistics.median(kernel)
        self.scales.append(scale)
        scaled = {name: value * scale for name, value in seconds.items()}
        if traced:
            self.traced_jobs.append(sum(scaled.values()))
            return
        self.plain_jobs.append(sum(scaled.values()))
        for name, value in scaled.items():
            self.op_seconds[name].append(value)
            self.op_passes[name] += passed[name]


def measure(cli, ops, count, setup, tracer, reference):
    """Run ``count`` rounds, each after its set-up processes; a traced run
    alternates plain and traced rounds."""
    rounds = Rounds(ops, reference.REFERENCE_S)
    start = time.perf_counter()
    with warnings.catch_warnings():
        # the program reports ill-conditioning and edge mass as
        # RuntimeWarnings; the checks judge the outputs instead
        warnings.simplefilter("ignore")
        for index in range(count):
            if index >= 2 and time.perf_counter() - start > LATEST_ROUND_S:
                print(f"warning: stopped after {index} of {count} rounds: "
                      f"the machine is far slower than usual", file=sys.stderr)
                break
            setup.before_round(index)
            round_start = time.perf_counter()
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
            try:
                op_seconds, passed, kernel = run_round(cli, ops, rounds.failures,
                                                       reference.time_kernel)
            finally:
                if traced:
                    tracer.uninstall()
            rounds.record(op_seconds, passed, traced,
                          time.perf_counter() - round_start, kernel)
    return rounds


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(HERE))
    cli, import_s = import_fnls()
    import reference
    import workloads

    label = args.label or f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    work = WORK / label
    if args.setup_only:
        workloads.build(args.workload, args.seed, work)
        print(json.dumps({"import_s": import_s}))
        return 0

    shutil.rmtree(work, ignore_errors=True)
    ops = workloads.build(args.workload, args.seed, work)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    count = round_count(args.workload, args.seconds)
    setup = Setup(args, count)
    try:
        rounds = measure(cli, ops, count, setup, tracer, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = rounds.count * len(ops)
    failed = sum(f["count"] for f in rounds.failures.values())
    correct = all(f["fault"] is not None for f in rounds.failures.values())
    for name, f in sorted(rounds.failures.items()):
        tag = f"known fault: {f['fault']}" if f["fault"] else "UNEXPECTED"
        print(f"failed {name} x{f['count']} ({tag}): {f['detail']}", file=sys.stderr)

    # each set-up process is scaled like the round it ran before
    setup_walls = [w * rounds.scales[i] for w, i in zip(setup.walls, setup.round_of)]
    if tracer is None:
        jobs_s, points_per_s = end_to_end(ops, rounds.op_seconds, rounds.op_passes,
                                          len(rounds.plain_jobs))
        reported = {"setup_s": statistics.median(setup_walls),
                    "peak_rss_mb": peak_rss_mb, "jobs_s": jobs_s,
                    "points_per_s": points_per_s}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in reported.items()}
        detail = {**metrics, "setup_s": {**metrics["setup_s"], "samples": setup_walls,
                                         "wall_samples": setup.walls}}
    else:
        layer = tracer.layer_metrics(len(rounds.traced_jobs))
        layer["cli.import_s"] = ("s", statistics.median(setup.imports))
        layer["trace.overhead_s"] = ("s", statistics.median(rounds.traced_jobs)
                                     - statistics.median(rounds.plain_jobs))
        metrics = {k: {"value": v, "unit": u} for k, (u, v) in sorted(layer.items())}
        detail = {**metrics, "traced_round_jobs_s": summarize(rounds.traced_jobs)}
    detail["round_jobs_s"] = summarize(rounds.plain_jobs)
    detail["round_wall_s"] = summarize(rounds.walls)
    detail["round_kernel_s"] = rounds.kernel
    detail["round_scale"] = rounds.scales

    OUT.mkdir(parents=True, exist_ok=True)
    report = {
        "label": label, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": rounds.count,
        "op_seconds": {name: summarize(v) for name, v in rounds.op_seconds.items()},
        "attempted": attempted, "failed": failed, "failures": rounds.failures,
        "correct": correct, "metrics": detail, "machine": machine(),
    }
    with open(OUT / f"BENCH_{label}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        with open(OUT / f"spans_{label}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "amount"],
                       "spans": tracer.spans}, fh)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
