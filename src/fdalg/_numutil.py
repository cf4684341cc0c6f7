"""numpy helpers for mod-p arithmetic on small primes.

The float64 matmul trick is exact as long as every intermediate integer is
below 2**53: entries are < p, products < p**2, and row sums add a factor of
the inner dimension.  ``usable(p, dim)`` checks that bound for the one user,
the lifted power-trace stages of ``structure._radical_charp``.
"""
from __future__ import annotations

import numpy as np

_EXACT_LIMIT = 2 ** 53


def usable(p: int, dim: int) -> bool:
    return dim * (p - 1) * (p - 1) < _EXACT_LIMIT


def mat_mul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p via exact float64 matmul (BLAS) for small p."""
    c = np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    return c % p


def tensor_from_mul(mul, p: int) -> np.ndarray:
    """Structure constants as an int64 array c[i, j, k]."""
    return np.array(mul, dtype=np.int64) % p
