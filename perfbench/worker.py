"""One workload in one fresh process: `generate` writes the seeded inputs,
`measure` runs the timed loop and the checks and writes a result JSON.

run.py starts both as separate processes, so `peak_rss_mb` (the `measure`
process's ru_maxrss) covers set-up and the operations only.

    python3 perfbench/worker.py generate --workload W --seed N --work DIR [--tiny]
    python3 perfbench/worker.py measure --workload W --seconds S --trace 0|1 --work DIR
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import prunekit  # noqa: E402
from tracer import MIB, PER_LAYER, Tracer, peak_rss_bytes  # noqa: E402
from workloads import WORKLOADS, Checks, spec_for  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_EXTRA_SETUPS, MAX_EXTRA_SETUPS, SETUP_SHARE = 3, 10, 0.15
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB", "pruned_mb": "MiB"}


def environment(seed: int) -> dict:
    """Versions, BLAS build and threads, CPU and commit that go with a result."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit or "unknown (not a git checkout)",
    }


def generate(args) -> int:
    cls = WORKLOADS[args.workload]
    work = Path(args.work)
    meta = cls.generate(spec_for(args.workload, args.tiny), args.seed, work)
    meta.update(workload=args.workload, seed=args.seed, tiny=args.tiny)
    (work / "meta.json").write_text(json.dumps(meta) + "\n")
    return 0


def measure(args) -> int:
    work = Path(args.work)
    meta = json.loads((work / "meta.json").read_text())
    wl = WORKLOADS[args.workload](work, meta)
    tracer = Tracer(corpus_words=meta.get("corpus_words", 0)) if args.trace else None
    min_cycles = 2 if args.trace else 1

    setups, op_times, walls = [], [], {True: [], False: []}
    attempted = failed = 0
    errors: list[str] = []
    state = None
    start = time.perf_counter()
    if not args.trace:
        # extra set-ups for a steadier setup_s; a traced run skips them so that
        # its first cycle holds the process's first load
        while len(setups) < MAX_EXTRA_SETUPS and (
                len(setups) < MIN_EXTRA_SETUPS
                or time.perf_counter() - start < SETUP_SHARE * args.seconds):
            gc.collect()
            t0 = time.perf_counter()
            try:
                wl.setup()
            except Exception:   # the cycles below count and report the failure
                break
            setups.append(time.perf_counter() - t0)
    cycle = 0
    while True:
        if state is not None:   # only the last cycle's outputs are kept for the checks
            wl.release(state)
            state = None
        gc.collect()
        traced = bool(args.trace) and cycle % 2 == 0
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed(), tracer.span("cycle"):
                    with tracer.span("setup"):
                        state = wl.setup()
                    t1 = time.perf_counter()
                    with tracer.span("op"):
                        times = wl.operate(state)
            else:
                state = wl.setup()
                t1 = time.perf_counter()
                times = wl.operate(state)
            t2 = time.perf_counter()
        except Exception:  # a failed cycle is counted, reported and skipped
            attempted += 1
            failed += 1
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            if state is not None:
                wl.release(state)
                state = None
        else:
            attempted += len(times)
            setups.append(t1 - t0)
            op_times.extend(times)
            walls[traced].append(t2 - t0)
        cycle += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls[False] + walls[True] or [elapsed / cycle])
        if cycle >= min_cycles and elapsed + typical > args.seconds:
            break

    peak_mb = peak_rss_bytes() / MIB
    checks = Checks()
    if state is not None:
        try:
            wl.check(state, checks)
        except Exception:
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
            checks.add("checks ran", False, errors[-1].strip().splitlines()[-1])
    else:
        checks.add("last cycle succeeded", False)
    attempted += len(checks.results)
    failed += sum(not c["ok"] for c in checks.results)

    result = {
        "workload": args.workload,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "checks": checks.results,
        "errors": errors,
        "env": environment(meta["seed"]),
        "details": {},
        "metrics": {},
    }
    if state is not None:
        output_mb = wl.output_bytes(state) / MIB
        details = {
            "cycles": len(walls[True]) + len(walls[False]),
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(op_times),
            "op_s_p90": float(np.quantile(op_times, 0.9)),
            "op_samples": len(op_times),
            "peak_rss_mb": peak_mb,
            "pruned_mb": output_mb,
            "error_rate": failed / attempted,
        }
        if "tokens" in state:   # real tokens forwarded per round (infer-pruned)
            details["infer_tokens_per_s"] = state["tokens"] * details["cycles"] / sum(op_times)
        result["details"] = details
        if args.trace:
            values = tracer.layer_metrics(len(walls[True]), walls[True], walls[False])
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
            result["span_summary"] = tracer.summary()
            if args.trace_out:
                tracer.dump(Path(args.trace_out))
        else:
            values = {"setup_s": details["setup_s"], "op_s": details["op_s_p50"],
                      "peak_rss_mb": peak_mb, "pruned_mb": output_mb}
            units = END_TO_END_UNITS
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    g = sub.add_parser("generate")
    g.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--work", required=True)
    g.add_argument("--tiny", action="store_true")
    m = sub.add_parser("measure")
    m.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    m.add_argument("--seconds", type=float, required=True)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--work", required=True)
    m.add_argument("--result", required=True)
    m.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if not Path(prunekit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"prunekit imported from {prunekit.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    return generate(args) if args.cmd == "generate" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
