"""Pure-Python row-reduction and charpoly kernels.

Reference implementations of the hot kernels, for any prime p, at
Python-loop speed.  The compiled ``_fast`` module mirrors ``FpEchelon``
alone, for p < 2**31 (the test suite cross-checks the two); ``QEchelon``
and ``fp_charpoly`` exist only here.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from ..fields import rational


class FpEchelon:
    """Incremental reduced row echelon accumulator over F_p.

    Rows are kept fully reduced (RREF) and sorted by pivot column, so
    ``rows()`` is the canonical basis of the span of everything inserted.
    """

    __slots__ = ("p", "width", "_rows", "_pivots")

    def __init__(self, width: int, p: int):
        self.p = p
        self.width = width
        self._rows = []
        self._pivots = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self):
        return list(self._pivots)

    def rows(self):
        return [row[:] for row in self._rows]

    def reduce(self, row):
        """Fully reduce ``row`` against the stored basis; returns a new list.
        A row whose length is not the width raises ValueError."""
        if len(row) != self.width:
            raise ValueError("row length mismatch")
        p = self.p
        r = [x % p for x in row]
        for piv, base in zip(self._pivots, self._rows):
            c = r[piv]
            if c:
                for k in range(piv, self.width):
                    b = base[k]
                    if b:
                        r[k] = (r[k] - c * b) % p
        return r

    def insert(self, row) -> bool:
        """Insert a vector; returns True iff the rank grew.  A row whose
        length is not the width raises ValueError, as in ``reduce``."""
        p = self.p
        r = self.reduce(row)
        piv = -1
        for i, x in enumerate(r):
            if x:
                piv = i
                break
        if piv < 0:
            return False
        c = r[piv]
        if c != 1:
            inv = pow(c, p - 2, p)
            r = [x * inv % p for x in r]
        for base in self._rows:
            c = base[piv]
            if c:
                for k in range(piv, self.width):
                    x = r[k]
                    if x:
                        base[k] = (base[k] - c * x) % p
        pos = bisect_left(self._pivots, piv)
        self._pivots.insert(pos, piv)
        self._rows.insert(pos, r)
        return True


class QEchelon:
    """Incremental RREF accumulator over Q.

    Takes canonical rationals (an int when integral, else a Fraction) and
    keeps every entry it computes canonical, so integral entries stay ints.
    """

    __slots__ = ("width", "_rows", "_pivots")

    def __init__(self, width: int):
        self.width = width
        self._rows = []
        self._pivots = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self):
        return list(self._pivots)

    def rows(self):
        return [row[:] for row in self._rows]

    def reduce(self, row):
        if len(row) != self.width:
            raise ValueError("row length mismatch")
        r = list(row)
        for piv, base in zip(self._pivots, self._rows):
            c = r[piv]
            if c:
                for k in range(piv, self.width):
                    b = base[k]
                    if b:
                        r[k] = rational(r[k] - c * b)
        return r

    def insert(self, row) -> bool:
        r = self.reduce(row)
        piv = -1
        for i, x in enumerate(r):
            if x:
                piv = i
                break
        if piv < 0:
            return False
        c = r[piv]
        if c != 1:
            inv = rational(Fraction(1, c))
            r = [rational(x * inv) for x in r]
        for base in self._rows:
            c = base[piv]
            if c:
                for k in range(piv, self.width):
                    x = r[k]
                    if x:
                        base[k] = rational(base[k] - c * x)
        pos = bisect_left(self._pivots, piv)
        self._pivots.insert(pos, piv)
        self._rows.insert(pos, r)
        return True


def fp_charpoly(mat, p):
    """Characteristic polynomial of a square matrix over F_p.

    Returns coefficients c[0..n] of det(tI - M), ascending, with c[n] = 1.
    Hessenberg reduction by similarity, then the leading-minor recurrence.
    """
    n = len(mat)
    h = [[x % p for x in row] for row in mat]
    for j in range(n - 2):
        piv = -1
        for i in range(j + 1, n):
            if h[i][j]:
                piv = i
                break
        if piv < 0:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            f = h[i][j] * inv % p
            if f:
                hi, hj = h[i], h[j + 1]
                for k in range(j, n):
                    if hj[k]:
                        hi[k] = (hi[k] - f * hj[k]) % p
                for row in h:
                    if row[i]:
                        row[j + 1] = (row[j + 1] + f * row[i]) % p
    # p_k = (t - h[k-1][k-1]) p_{k-1} - sum_i h[k-1-i][k-1] (prod subdiag) p_{k-1-i}
    polys = [[1]]
    for k in range(1, n + 1):
        a = h[k - 1][k - 1]
        prev = polys[k - 1]
        cur = [0] * (k + 1)
        for i, c in enumerate(prev):
            cur[i + 1] = (cur[i + 1] + c) % p
            cur[i] = (cur[i] - a * c) % p
        beta = 1
        for m in range(k - 2, -1, -1):
            beta = beta * h[m + 1][m] % p
            if beta == 0:
                break
            coeff = h[m][k - 1] * beta % p
            if coeff:
                pm = polys[m]
                for i, c in enumerate(pm):
                    cur[i] = (cur[i] - coeff * c) % p
        polys.append(cur)
    return polys[n]
