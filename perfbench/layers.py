"""Per-layer metrics of one traced round, measured from outside the program.

A layer is a module of ``src/fdalg`` (``_kernels`` counts as ``kernels``),
plus ``qarith`` for the standard library's ``fractions`` and ``numpy`` for
numpy itself together with ``fdalg._numutil``, its helpers.  The benchmark's
own loop and wrappers form a layer of their own that is not reported.  Self
times come from ``cProfile``: each function's own time is charged to its
module's layer.  Time in a function outside every layer (a builtin such as
``list.append``, or other standard-library code) is charged to the layer
that called it.  Array operators such as ``@`` and ``%`` run inside the
calling function, so their time counts where they are written, not as numpy.

Counts are exact: ``cProfile`` call counts of named entry points, and a
counting wrapper around the row-echelon accumulators that fdalg's
``_kernels`` hands out, which sees whether each insert raised the rank.
"""
from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Callable, Dict, Optional

import fdalg
import fdalg._kernels as kernels
from fdalg import polyfactor, structure
from fdalg.algebras import Algebra
from fdalg.fields import Field
from fractions import Fraction

FDALG_DIR = Path(fdalg.__file__).resolve().parent
BENCH_DIR = Path(__file__).resolve().parent
LAYERS = ("fields", "qarith", "algebras", "kernels", "linalg", "polyfactor",
          "structure", "invariants", "classify", "morita", "quiver", "formats",
          "numpy")


def _key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


COUNTED = {
    "fields.coerce_calls": [Field.coerce],
    "qarith.fraction_calls": [Fraction.__new__],
    "algebras.init_calls": [Algebra.__init__],
    "algebras.multiply_calls": [Algebra.multiply_coords],
    "kernels.charpoly_calls": [kernels.fp_charpoly],
    "polyfactor.factor_calls": [polyfactor.factor_fp, polyfactor.rational_linear_factors],
    "structure.radical_calls": [structure._radical_charp, structure._radical_char0],
    "structure.minpoly_calls": [structure.minimal_polynomial],
}


class _CountingEchelon:
    """Delegates to a kernel accumulator and counts inserts and reduces."""

    __slots__ = ("_acc", "_counts")

    def __init__(self, acc, counts: Dict[str, int]):
        self._acc = acc
        self._counts = counts

    @property
    def rank(self):
        return self._acc.rank

    def pivots(self):
        return self._acc.pivots()

    def rows(self):
        return self._acc.rows()

    def reduce(self, row):
        self._counts["reduce"] += 1
        return self._acc.reduce(row)

    def insert(self, row):
        grew = self._acc.insert(row)
        self._counts["insert"] += 1
        self._counts["useful"] += bool(grew)
        return grew


def _layer_of(key: tuple) -> Optional[str]:
    filename, _, name = key
    if filename == "~":
        if "numpy" in name:
            return "numpy"
        return "kernels" if "fdalg._kernels" in name else None
    path = Path(filename)
    if BENCH_DIR in path.parents:
        return "bench"
    if FDALG_DIR in path.parents:
        rel = path.relative_to(FDALG_DIR)
        if rel.parts[0] == "_kernels":
            return "kernels"
        return "numpy" if rel.stem == "_numutil" else rel.stem
    if "numpy" in path.parts:
        return "numpy"
    if path.name == "fractions.py":
        return "qarith"
    return None


def _self_times(stats: dict) -> Dict[str, float]:
    """Own time per layer; unlayered functions are charged to their callers."""
    shares: Dict[tuple, Dict[str, float]] = {}

    def share(key, seen=()) -> Dict[str, float]:
        if key in shares:
            return shares[key]
        layer = _layer_of(key)
        if layer is not None:
            out = {layer: 1.0}
        elif key not in stats or key in seen or not stats[key][4]:
            out = {"other": 1.0}
        else:
            callers = stats[key][4]
            weights = {c: (v[2] or 0.0) for c, v in callers.items()}
            total = sum(weights.values())
            if total == 0:
                weights = {c: float(v[1]) for c, v in callers.items()}
                total = sum(weights.values()) or 1.0
            out = {}
            for caller, w in weights.items():
                for layer2, s in share(caller, seen + (key,)).items():
                    out[layer2] = out.get(layer2, 0.0) + s * w / total
        shares[key] = out
        return out

    times: Dict[str, float] = {}
    for key, (_, _, tt, _, _) in stats.items():
        for layer, s in share(key).items():
            times[layer] = times.get(layer, 0.0) + tt * s
    return times


def traced_round(run_round: Callable[[], float]) -> Dict[str, float]:
    """Run one round under the profiler; return the per-layer metrics and the
    round's summed operation time (CPU seconds) as ``trace.run_s``."""
    counts = {"insert": 0, "useful": 0, "reduce": 0}
    orig_fp, orig_q = kernels.fp_echelon, kernels.q_echelon
    kernels.fp_echelon = lambda width, p: _CountingEchelon(orig_fp(width, p), counts)
    kernels.q_echelon = lambda width: _CountingEchelon(orig_q(width), counts)
    prof = cProfile.Profile()
    try:
        prof.enable()
        run_s = run_round()
        prof.disable()
    finally:
        kernels.fp_echelon, kernels.q_echelon = orig_fp, orig_q
    stats = pstats.Stats(prof).stats
    times = _self_times(stats)
    out: Dict[str, float] = {}
    for name, fns in COUNTED.items():
        out[name] = sum(stats.get(_key(fn), (0, 0))[1] for fn in fns)
    out["kernels.insert_calls"] = counts["insert"]
    out["kernels.insert_useful_ratio"] = (counts["useful"] / counts["insert"]
                                          if counts["insert"] else 0.0)
    out["kernels.reduce_calls"] = counts["reduce"]
    charpoly = stats.get(_key(kernels.fp_charpoly))
    out["kernels.charpoly_s"] = charpoly[3] if charpoly else 0.0
    out["kernels.echelon_s"] = times.get("kernels", 0.0) - out["kernels.charpoly_s"]
    for layer in LAYERS:
        if layer != "kernels":  # split above into echelon_s and charpoly_s
            out[f"{layer}.self_s"] = times.get(layer, 0.0)
    out["trace.run_s"] = run_s
    return out
