"""Kernel backend selection: compiled extension if available, else pure Python.

Only the F_p row echelon is compiled: ``_fast.c`` is a hand-written CPython
extension defining ``FpEchelon``, built in place by
``python3 setup.py build_ext --inplace``.  Everything else, and every prime
at or above its limit, runs the pure kernels.  Set FDALG_PURE=1 in the
environment to force the pure backend.
"""
from __future__ import annotations

import os

from . import pure

_FORCED_PURE = os.environ.get("FDALG_PURE", "") not in ("", "0")

if not _FORCED_PURE:
    try:
        from . import _fast  # type: ignore[attr-defined]
    except ImportError:
        _fast = None
else:
    _fast = None

HAVE_COMPILED = _fast is not None
BACKEND = "compiled" if HAVE_COMPILED else "pure"

# The compiled kernel uses int64 arithmetic; products must not overflow,
# so primes at or above 2**31 fall back to the pure implementation.
_FAST_P_LIMIT = 2 ** 31


def fp_echelon(width: int, p: int):
    if HAVE_COMPILED and p < _FAST_P_LIMIT:
        return _fast.FpEchelon(width, p)
    return pure.FpEchelon(width, p)


def q_echelon(width: int):
    return pure.QEchelon(width)


fp_charpoly = pure.fp_charpoly
