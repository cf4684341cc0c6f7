"""Benchmark entry point for fdalg; see README.md in this directory.

    python3 perfbench/run.py --workload morita_fp --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload morita_fp --seed 1 --repeat 10

The first form prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
second runs seeds seed..seed+N-1, prints each metric's median and quartiles,
and keeps every run's result in perfbench/results/.  Each run starts its
measuring process from a fixed environment (hash seed, one BLAS thread,
``src`` on the path) and, for ``setup_s``, starts SETUPS processes in all and
reports the median of their set-up times.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOADS = ("morita_fp", "report_q", "fuzz_quiver", "report_bigp")
SETUPS = 3
WORKER_TIMEOUT_S = 150
ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPATH": str(ROOT / "src"),
}


class BenchError(Exception):
    pass


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker(args, extra, timeout) -> dict:
    env = dict(os.environ, **ENV)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    try:
        out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout} s") from None
    if out.returncode != 0 or not out.stdout.strip():
        raise BenchError(f"worker exited with status {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_once(args) -> dict:
    """One run: SETUPS - 1 set-up-only processes (none when tracing, which
    reports no set-up time), then the measuring one."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups = []
    for _ in range(0 if args.trace else SETUPS - 1):
        setups.append(_worker(args, ["--setup-only"], deadline - time.monotonic())["setup_s"])
    result = _worker(args, [], deadline - time.monotonic())
    setups.append(result.pop("setup_s"))
    env = result.pop("env")
    env.update({"hash_seed": ENV["PYTHONHASHSEED"], "blas_threads": 1,
                "nproc": os.cpu_count(), "git_sha": _git_sha(), "setups_s": setups})
    print("env " + json.dumps(env), flush=True)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def summarize(results) -> dict:
    """Median, quartiles and quartile spread (IQR / median) of each metric."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)
                     if statistics.median(values) else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run seeds seed..seed+N-1 and summarize (N >= 2)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "fdalg" / "__init__.py").is_file():
        print(f"no fdalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.repeat < 2:
            result = run_once(args)
            print(json.dumps(result), flush=True)
            return 0
        base = args.seed
        results = []
        for i in range(args.repeat):
            args.seed = base + i
            results.append(run_once(args))
            print(json.dumps(results[-1]), flush=True)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = {"workload": args.workload, "seeds": [base, base + args.repeat - 1],
               "trace": args.trace, "summary": summarize(results)}
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-trace{args.trace}-seeds{base}-{args.seed}.json"
    path.write_text(json.dumps(dict(summary, runs=results), indent=1) + "\n")
    print(f"results in {path}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
