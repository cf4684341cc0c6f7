"""Brute-force oracles, used only by the test suite on tiny instances.

Both oracles carry their own Gaussian elimination and their own product
loops on the raw structure tensor; nothing is shared with the main kernels,
so agreement is meaningful evidence.

The radical oracle enumerates the whole algebra: over a finite ring,
x lies in the radical iff 1 - a·x is invertible for every a, equivalently
iff every element of A·x is nilpotent.  Nilpotency of all p^d elements is
decided in one vectorized sweep and the candidate set is shrunk to its
largest left-stable subset, which is then certified to be a subspace
(hence a nil left ideal, hence exactly the radical).
"""
from __future__ import annotations

from fractions import Fraction
from typing import List

import numpy as np

from .algebras import Algebra
from .errors import TooLarge
from .linalg import Matrix, Subspace

RADICAL_ORACLE_CAP = 2 ** 15
K_ORACLE_DIM_CAP = 24


def _own_rref_fp(rows: List[List[int]], p: int) -> List[List[int]]:
    """Self-contained RREF over F_p (deliberately separate from the kernels)."""
    mat = [[x % p for x in row] for row in rows]
    pivots: List[int] = []
    out: List[List[int]] = []
    for row in mat:
        # eliminate with existing pivot rows
        for pr, pc in zip(out, pivots):
            f = row[pc]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, pr)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = pow(row[lead], p - 2, p)
        row = [x * inv % p for x in row]
        for pr in out:
            f = pr[lead]
            if f:
                for i in range(len(row)):
                    pr[i] = (pr[i] - f * row[i]) % p
        pos = 0
        while pos < len(pivots) and pivots[pos] < lead:
            pos += 1
        pivots.insert(pos, lead)
        out.insert(pos, list(row))
    return out


def _own_rref_exact(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    out: List[List[Fraction]] = []
    for row in mat:
        for pr, pc in zip(out, pivots):
            f = row[pc]
            if f:
                row = [a - f * b for a, b in zip(row, pr)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [x / inv for x in row]
        for pr in out:
            f = pr[lead]
            if f:
                for i in range(len(row)):
                    pr[i] = pr[i] - f * row[i]
        pos = 0
        while pos < len(pivots) and pivots[pos] < lead:
            pos += 1
        pivots.insert(pos, lead)
        out.insert(pos, list(row))
    return out


def radical_oracle(a: Algebra) -> Subspace:
    """Exhaustive Jacobson radical for F_p algebras with p^dim <= 2^15."""
    F = a.field
    if not F.is_prime_field:
        raise TooLarge("radical oracle requires a finite prime field")
    p, d = F.p, a.dim
    if p ** d > RADICAL_ORACLE_CAP:
        raise TooLarge(f"p^dim = {p ** d} exceeds {RADICAL_ORACLE_CAP}")
    size = p ** d
    tensor = np.array([[[int(c) for c in row] for row in plane] for plane in a.mul],
                      dtype=np.int64) % p
    # all coordinate vectors, little-endian digits of the index
    idx = np.arange(size, dtype=np.int64)
    coords = np.empty((size, d), dtype=np.int64)
    rest = idx.copy()
    for i in range(d):
        coords[:, i] = rest % p
        rest //= p
    weights = p ** np.arange(d, dtype=np.int64)

    def batch_multiply(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # (x·y)_k = sum_ij x_i y_j c[i,j,k], batched over rows of xs/ys
        t = np.tensordot(xs, tensor, axes=([1], [0])) % p   # (m, d(j), d(k))
        return np.einsum("bj,bjk->bk", ys, t) % p

    # nilpotency by repeated squaring past the dimension
    nil = np.zeros(size, dtype=bool)
    cur = coords.copy()
    steps = max(1, (d - 1).bit_length() + 1)
    zero_mask = ~cur.any(axis=1)
    nil |= zero_mask
    for _ in range(steps):
        cur = batch_multiply(cur, cur)
        nil |= ~cur.any(axis=1)

    # left-multiplication index maps for each basis element
    left_tables = []
    for i in range(d):
        li = tensor[i]  # (j, k): b_i · b_j
        images = coords @ li % p
        left_tables.append(images @ weights)

    stable = nil.copy()
    changed = True
    while changed:
        nxt = stable.copy()
        for tbl in left_tables:
            nxt &= stable[tbl]
        changed = bool((nxt != stable).any())
        stable = nxt

    members = np.nonzero(stable)[0]
    rows = [list(map(int, coords[m])) for m in members if m]
    basis = _own_rref_fp(rows, p) if rows else []
    rank = len(basis)
    # certify the stable set is exactly the span of its members
    if p ** rank != len(members):
        # fall back: per-element span test (not expected to trigger)
        basis = _slow_radical(a, coords, nil, weights, p, d)
        rank = len(basis)
    else:
        span_idx = _enumerate_span(basis, weights, p, d)
        if not np.all(stable[span_idx]):
            basis = _slow_radical(a, coords, nil, weights, p, d)
            rank = len(basis)
    entries = tuple(tuple(int(x) for x in row) for row in basis)
    return Subspace(F, d, Matrix(F, rank, d, entries))


def _enumerate_span(basis: List[List[int]], weights, p: int, d: int) -> np.ndarray:
    m = len(basis)
    if m == 0:
        return np.zeros(1, dtype=np.int64)
    combos = np.empty((p ** m, m), dtype=np.int64)
    rest = np.arange(p ** m, dtype=np.int64)
    for i in range(m):
        combos[:, i] = rest % p
        rest //= p
    vecs = combos @ np.array(basis, dtype=np.int64) % p
    return vecs @ weights


def _slow_radical(a: Algebra, coords, nil, weights, p: int, d: int) -> List[List[int]]:
    """Per-element check that the whole left ideal A·x is nilpotent."""
    tensor = np.array([[[int(c) for c in row] for row in plane] for plane in a.mul],
                      dtype=np.int64) % p
    members = []
    size = coords.shape[0]
    all_coords = coords
    for m in range(size):
        x = coords[m]
        t = np.tensordot(all_coords, tensor, axes=([1], [0])) % p
        ax = np.einsum("j,bjk->bk", x, t.transpose(0, 1, 2)) % p  # b ranges over A
        idxs = ax @ weights
        if np.all(nil[idxs]):
            members.append(list(map(int, x)))
    return _own_rref_fp(members, p)


def k_oracle(a: Algebra) -> int:
    """codim of the commutator span, recomputed with this module's elimination."""
    if a.dim > K_ORACLE_DIM_CAP:
        raise TooLarge(f"dim {a.dim} exceeds the k-oracle cap {K_ORACLE_DIM_CAP}")
    d = a.dim
    F = a.field
    rows = []
    for i in range(d):
        for j in range(d):
            row = [F.sub(a.mul[i][j][k], a.mul[j][i][k]) for k in range(d)]
            if any(row):
                rows.append(row)
    if not rows:
        return d
    if F.is_prime_field:
        basis = _own_rref_fp([[int(x) for x in r] for r in rows], F.p)
    else:
        basis = _own_rref_exact(rows)
    return d - len(basis)
