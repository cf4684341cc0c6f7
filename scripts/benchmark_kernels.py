#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Covers the two hot primitives (incremental RREF and characteristic
polynomials over F_p) plus one end-to-end workload (commutator-subspace
codimension of an inflated triangular algebra).  The end-to-end row is not
dominated by these kernels: it takes about the same time on either backend
(410 ms pure, 400 ms compiled on a 2-core machine), so a kernel speed-up
here says nothing about whole analyses.  For end-to-end numbers use
``perfbench/run.py``.

Usage: python scripts/benchmark_kernels.py
"""
import random
import time

from fdalg._kernels import HAVE_COMPILED, pure

if HAVE_COMPILED:
    from fdalg._kernels import _fast
else:
    _fast = None


def bench(label, fn, repeats=3):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def echelon_workload(mod, rows, p, width):
    def run():
        acc = mod.FpEchelon(width, p)
        for row in rows:
            acc.insert(list(row))
    return run


def charpoly_workload(mod, mats, p):
    def run():
        for m in mats:
            mod.fp_charpoly(m, p)
    return run


def series_workload():
    from fdalg.corpus import lower_triangular
    from fdalg.invariants import codim_series
    from fdalg.morita import inflate

    def run():
        t3 = lower_triangular(__import__("fdalg.fields", fromlist=["GF"]).GF(5), 3)
        infl = inflate(t3, [3, 3, 3])
        codim_series(infl)
    return run


def main():
    print(f"compiled kernels available: {HAVE_COMPILED}")
    rng = random.Random(0)
    rows_header = f"{'workload':<42}{'pure':>10}{'compiled':>10}{'speedup':>9}"
    print(rows_header)
    print("-" * len(rows_header))

    for p, width, count in ((5, 60, 400), (2, 120, 300), (65521, 80, 200)):
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(count)]
        tp = bench("", echelon_workload(pure, rows, p, width))
        label = f"rref insert {count}x{width} mod {p}"
        if _fast is not None:
            tc = bench("", echelon_workload(_fast, rows, p, width))
            print(f"{label:<42}{tp * 1e3:>8.1f}ms{tc * 1e3:>8.1f}ms{tp / tc:>8.1f}x")
        else:
            print(f"{label:<42}{tp * 1e3:>8.1f}ms{'-':>10}{'-':>9}")

    for p, n, count in ((5, 40, 60), (2, 64, 40)):
        mats = [[[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                for _ in range(count)]
        tp = bench("", charpoly_workload(pure, mats, p))
        label = f"charpoly {count}x ({n}x{n}) mod {p}"
        if _fast is not None:
            tc = bench("", charpoly_workload(_fast, mats, p))
            print(f"{label:<42}{tp * 1e3:>8.1f}ms{tc * 1e3:>8.1f}ms{tp / tc:>8.1f}x")
        else:
            print(f"{label:<42}{tp * 1e3:>8.1f}ms{'-':>10}{'-':>9}")

    # end-to-end: run under whichever backend is active
    t = bench("", series_workload(), repeats=1)
    print(f"{'codim series, dim-54 inflation (active)':<42}{t * 1e3:>8.1f}ms")
    print()
    print("note: FDALG_PURE=1 forces the pure backend for the end-to-end row")


if __name__ == "__main__":
    main()
