"""One benchmark process: build a workload's inputs from its seed, run one
untimed warm-up operation, time the operation list in whole rounds, then
check every output.  ``run.py`` starts it with a fixed environment and reads
the JSON object it prints last.

A closed loop from a single process: one operation at a time, no threads.
"""
from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import resource
import statistics
import sys
import time
import traceback

MIN_ROUNDS = 4
# Operations and set-up are timed in CPU time of this process and scaled to a
# reference speed: the time calibrate() takes on a machine where it takes
# CAL_REF_S.  README.md ("How a run measures") says why.
clock = time.process_time
CAL_REF_S = 250e-6
CAL_TRIES = 3
SETUP_CALS = 10
CAL_P = 10007
CAL_N = 20


def calibrate() -> float:
    """CPU time of a fixed pure-Python computation, the kind of loop fdalg's
    pure backend runs, at its fastest of CAL_TRIES tries with the garbage
    collector off, so that what ran before it does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(CAL_TRIES):
            t = clock()
            _row_reduce()
            best = min(best, clock() - t)
    finally:
        if enabled:
            gc.enable()
    return best


def _row_reduce() -> int:
    """Rank of a fixed 20 x 20 matrix mod a prime, by row reduction."""
    m = [[(i * 31 + j * 17 + i * j) % CAL_P for j in range(CAL_N)] for i in range(CAL_N)]
    rank = 0
    for c in range(CAL_N):
        piv = next((r for r in range(rank, CAL_N) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], CAL_P - 2, CAL_P)
        m[rank] = [x * inv % CAL_P for x in m[rank]]
        for r in range(CAL_N):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % CAL_P for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    probes = []  # calibrate() times taken at points through set-up
    probing_s = 0.0  # the CPU time they took, which set-up does not count

    def probe():
        nonlocal probing_s
        t = clock()
        probes.extend(calibrate() for _ in range(SETUP_CALS))
        probing_s += clock() - t

    probe()
    import numpy

    import fdalg
    import checks
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    check = checks.CHECKS[wl.name]
    probe()
    rng = random.Random(args.seed)
    items = wl.items(rng)
    probe()
    wl.op(items[len(items) // 2])  # the same list position for every seed
    rng.shuffle(items)
    setup_cpu_s = clock() - probing_s  # CPU time since this process started
    probe()
    setup_s = setup_cpu_s / (statistics.fmean(probes) / CAL_REF_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failed = 0
    wrong = []  # outputs that are incorrect, or differ between rounds
    first = [None] * len(items)

    def run_round(times, keep, cal=None):
        """Run every item once; return the summed operation time.  With ``cal``,
        time one calibrate() after each operation, outside its timer."""
        nonlocal failed
        total = 0.0
        for idx, item in enumerate(items):
            gc.collect()  # each operation starts from the same collector state
            t = clock()
            try:
                obj, out = wl.op(item)
            except Exception:  # a failed operation is counted, not fatal
                dt = clock() - t
                failed += 1
                print(f"{item.name}: {traceback.format_exc(limit=2)}", file=sys.stderr)
                times[idx].append(dt)
                total += dt
                if cal is not None:
                    cal.append(calibrate())
                continue
            dt = clock() - t
            times[idx].append(dt)
            total += dt
            rec = wl.capture(item, obj, out)
            del obj, out
            if cal is not None:
                cal.append(calibrate())
            if keep:
                first[idx] = rec
            elif first[idx] is not None and rec != first[idx]:
                wrong.append(f"{item.name}: output differs between rounds")
        return total

    times = [[] for _ in items]
    rounds = 0
    wall_s = cpu_run_s = slowness = None
    if args.trace:
        import layers

        untraced = run_round(times, keep=True)
        traced = layers.traced_round(lambda: run_round([[] for _ in items], keep=False))
        rounds = 2
        traced["trace.overhead_s"] = traced["trace.run_s"] - untraced
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in traced.items()}
    else:
        cal = []
        start = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            run_round(times, keep=rounds == 0, cal=cal)
            rounds += 1
        wall_s = (time.perf_counter() - start) / rounds
        slowness = statistics.fmean(cal) / CAL_REF_S
        cpu_s = [statistics.fmean(t) for t in times]
        cpu_run_s = sum(cpu_s)
        per_op = [t / slowness for t in cpu_s]
        deciles = statistics.quantiles(per_op, n=10)
        metrics = {
            "run_s": {"value": sum(per_op), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    for item, rec in zip(items, first):
        if rec is not None:
            wrong.extend(check(item, rec))
    for line in wrong[:10]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": rounds * len(items),
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "env": {"backend": fdalg.BACKEND, "python": platform.python_version(),
                "numpy": numpy.__version__, "operations": len(items), "rounds": rounds,
                "slowness": slowness, "cpu_run_s": cpu_run_s,
                "wall_round_s": wall_s},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


if __name__ == "__main__":
    sys.exit(main())
