#!/usr/bin/env python3
"""prunekit benchmark: one workload, from one seed, in fresh worker processes.

    python3 perfbench/run.py --workload pipeline-kl --seed 1 --seconds 45 --trace 0

Workloads: pipeline-kl, infer-pruned, vocab-corpus (see perfbench/README.md).
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. The lines above it
are a readable report and the environment record.

    python3 perfbench/run.py --sweep-threads --seed 1 --seconds 45

runs pipeline-kl and infer-pruned with OPENBLAS_NUM_THREADS=1 and =nproc
in the worker's environment and prints a report-only table.

The benchmark writes only under .perfbench_work/ in the checkout and removes
what it wrote before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("pipeline-kl", "infer-pruned", "vocab-corpus")
SWEEP_WORKLOADS = ("pipeline-kl", "infer-pruned")
DEADLINE_S = 170.0   # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0,
                   help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny shapes, for the smoke tests")
    p.add_argument("--trace-out", help="with --trace 1, also write every span to this JSON file")
    p.add_argument("--sweep-threads", action="store_true",
                   help="report-only BLAS thread sweep over pipeline-kl and infer-pruned")
    args = p.parse_args(argv)
    if not args.sweep_threads and args.workload is None:
        p.error("--workload is required")
    return args


def run_worker(argv: list[str], deadline: float, env: dict | None = None) -> None:
    """Run one worker process to completion; it is killed and reaped on timeout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for worker {argv[0]}")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], env=env,
                              timeout=timeout, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {argv[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool,
                 trace_out: str | None = None, env: dict | None = None) -> dict:
    """Generate inputs in one process, measure in a fresh one; returns its record."""
    if not (ROOT / "src" / "prunekit" / "__init__.py").is_file():
        raise BenchError(f"no prunekit sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".perfbench_work"
    work = base / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run_worker(["generate", "--workload", workload, "--seed", str(seed),
                    "--work", str(work)] + (["--tiny"] if tiny else []), deadline)
        result_path = work / "result.json"
        measure = ["measure", "--workload", workload, "--seconds", str(seconds),
                   "--trace", str(trace), "--work", str(work), "--result", str(result_path)]
        if trace_out:
            measure += ["--trace-out", str(Path(trace_out).resolve())]
        run_worker(measure, deadline, env)
        return json.loads(result_path.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass


def report(record: dict) -> None:
    """Readable lines: every end-to-end quantity with its unit, checks, env."""
    d = record["details"]
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"cycles {d.get('cycles')}  op samples {d.get('op_samples')}")
    rows = [("setup_s", d.get("setup_s"), "s", "median set-up (load_model + from_file + load_dataset)"),
            ("op_s_p50", d.get("op_s_p50"), "s", "median operation"),
            ("op_s_p90", d.get("op_s_p90"), "s", f"90th percentile of {d.get('op_samples')} ops"),
            ("infer_tokens_per_s", d.get("infer_tokens_per_s"), "tokens/s", "real tokens per forward second"),
            ("peak_rss_mb", d.get("peak_rss_mb"), "MiB", "ru_maxrss of the measuring process"),
            ("pruned_mb", d.get("pruned_mb"), "MiB", "pruned checkpoint directory"),
            ("error_rate", d.get("error_rate"), "ratio",
             f"{record['failed']} failed of {record['attempted']} attempted")]
    for name, value, unit, note in rows:
        if value is not None:
            print(f"  {name:<20} {value:>14.6g} {unit:<9} {note}")
    for c in record["checks"]:
        print(f"  check {'PASS' if c['ok'] else 'FAIL'}  {c['name']}  {c['detail']}")
    if record["trace"]:
        print(f"  {'span':<34} {'calls':>8} {'total_s':>10} {'self_s':>10}")
        for name, row in sorted(record["span_summary"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<34} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    print("# env " + json.dumps(record["env"], sort_keys=True))


def result_line(record: dict) -> str:
    return json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")})


def sweep(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    rows = []
    for workload in SWEEP_WORKLOADS:
        for threads in sorted({1, nproc}):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            rec = run_workload(workload, args.seed, args.seconds, 0, args.tiny, env=env)
            d = rec["details"]
            rows.append({"workload": workload, "openblas_threads": threads,
                         "op_s_p50": d.get("op_s_p50"), "setup_s": d.get("setup_s"),
                         "correct": rec["correct"]})
            print(f"{workload:<14} OPENBLAS_NUM_THREADS={threads:<3} "
                  f"op_s_p50 {d.get('op_s_p50', float('nan')):.4f} s  "
                  f"setup_s {d.get('setup_s', float('nan')):.4f} s  correct {rec['correct']}")
    print(json.dumps({"sweep": rows, "nproc": nproc, "seed": args.seed}))
    return 0 if all(r["correct"] for r in rows) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.sweep_threads:
            return sweep(args)
        record = run_workload(args.workload, args.seed, args.seconds, args.trace,
                              args.tiny, args.trace_out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if not record["metrics"]:
        print("perfbench: no metrics; see the errors above", file=sys.stderr)
        return 1
    report(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
