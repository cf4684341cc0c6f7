"""Univariate polynomial arithmetic and factorization over F_p, plus rational
root extraction over Q.

Polynomials are lists of field scalars in ascending degree order.  Over F_p the
factorization is Berlekamp's: kernel of the Frobenius matrix on F_p[x]/(w),
then gcd splitting (a full residue scan for small p, seeded probing above).
Over Q only linear factors are extracted; callers treat a nonlinear leftover
as an undecided split.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .errors import InternalInconsistency
from .fields import MR_PROVEN_BOUND, Field, is_prime, rational
from .linalg import Matrix, kernel

SCAN_LIMIT = 4096  # full s-scan in gcd splitting for p up to this
_TRIAL_BOUND = 1_000_000


def trim(f: List) -> List:
    while f and not f[-1]:
        f.pop()
    return f


def degree(f: List) -> int:
    return len(f) - 1


def poly_add(field: Field, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero()
        b = g[i] if i < len(g) else field.zero()
        out.append(field.add(a, b))
    return trim(out)


def poly_sub(field: Field, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else field.zero()
        b = g[i] if i < len(g) else field.zero()
        out.append(field.sub(a, b))
    return trim(out)


def poly_mul(field: Field, f, g):
    if not f or not g:
        return []
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = field.add(out[i + j], field.mul(a, b))
    return trim(out)


def poly_divmod(field: Field, f, g):
    f = list(f)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [field.zero()] * max(len(f) - len(g) + 1, 0)
    inv_lead = field.inv(g[-1])
    while len(f) >= len(g) and any(f):
        trim(f)
        if len(f) < len(g):
            break
        c = field.mul(f[-1], inv_lead)
        shift = len(f) - len(g)
        q[shift] = c
        for i, b in enumerate(g):
            if b:
                f[shift + i] = field.sub(f[shift + i], field.mul(c, b))
        f.pop()
    return trim(q), trim(f)


def poly_mod(field: Field, f, g):
    return poly_divmod(field, f, g)[1]


def poly_gcd(field: Field, f, g):
    f, g = trim(list(f)), trim(list(g))
    while g:
        f, g = g, poly_mod(field, f, g)
    return monic(field, f)


def monic(field: Field, f):
    f = trim(list(f))
    if not f:
        return f
    inv = field.inv(f[-1])
    if inv == field.one():
        return f
    return [field.mul(inv, c) for c in f]


def poly_powmod(field: Field, f, e: int, m):
    result = [field.one()]
    base = poly_mod(field, f, m)
    while e:
        if e & 1:
            result = poly_mod(field, poly_mul(field, result, base), m)
        base = poly_mod(field, poly_mul(field, base, base), m)
        e >>= 1
    return result


def derivative(field: Field, f):
    return trim([field.mul(field.coerce(i), c) for i, c in enumerate(f)][1:])


def poly_eval_element(algebra, f, z):
    """Evaluate a polynomial at an algebra element (constant term times unit)."""
    acc = algebra.zero_element()
    for c in reversed(f):
        acc = acc * z
        if c:
            acc = acc + algebra.unit_element().scale(c)
    return acc


# -- factorization over F_p ----------------------------------------------


def _berlekamp_kernel(field: Field, w):
    """Basis of {v : v^p = v mod w} as coefficient vectors."""
    p = field.p
    n = degree(w)
    rows = []
    xp = poly_powmod(field, [field.zero(), field.one()], p, w)
    cur = [field.one()]
    cols = []
    for _ in range(n):
        col = list(cur) + [field.zero()] * (n - len(cur))
        cols.append(col)
        cur = poly_mod(field, poly_mul(field, cur, xp), w)
    one = field.one()
    for i in range(n):
        row = [field.sub(cols[j][i], one if i == j else field.zero()) for j in range(n)]
        rows.append(tuple(row))
    return kernel(Matrix(field, n, n, tuple(rows))).basis_vectors()


def _split_with(field: Field, f, v, rng: random.Random):
    """Split squarefree f using a Berlekamp subalgebra element v (non-constant)."""
    p = field.p
    if p <= SCAN_LIMIT:
        pieces = []
        for s in range(p):
            g = poly_gcd(field, f, poly_sub(field, v, [field.coerce(s)]))
            if degree(g) >= 1:
                pieces.append(g)
        return pieces if len(pieces) > 1 else [f]
    for _ in range(200):
        a = field.coerce(rng.randrange(p))
        shifted = poly_add(field, v, [a])
        if p == 2:
            probe = shifted
        else:
            probe = poly_sub(field, poly_powmod(field, shifted, (p - 1) // 2, f), [field.one()])
        g = poly_gcd(field, f, probe)
        if 1 <= degree(g) < degree(f):
            q, r = poly_divmod(field, f, g)
            if r:
                raise InternalInconsistency("gcd factor does not divide the polynomial")
            return [g, monic(field, q)]
    return [f]


def factor_squarefree_fp(field: Field, w, rng: Optional[random.Random] = None) -> List[List]:
    """Irreducible factors of a monic squarefree polynomial over F_p."""
    rng = rng or random.Random(0)
    w = monic(field, w)
    if degree(w) <= 1:
        return [w]
    kervecs = _berlekamp_kernel(field, w)
    r = len(kervecs)
    if r == 1:
        return [w]
    factors = [w]
    for vec in kervecs:
        v = trim([field.coerce(c) for c in vec])
        if degree(v) < 1:
            continue
        if len(factors) >= r:
            break
        new = []
        for f in factors:
            if degree(f) == 1:
                new.append(f)
                continue
            new.extend(_split_with(field, f, poly_mod(field, v, f), rng))
        factors = new
    # pieces of a squarefree polynomial may still be composite if kernel vectors
    # failed to separate them; recurse defensively
    out = []
    for f in factors:
        if degree(f) > 1 and len(factors) < r:
            out.extend(factor_squarefree_fp(field, f, rng))
        else:
            out.append(f)
    return out


def factor_fp(field: Field, f, rng: Optional[random.Random] = None) -> Dict[Tuple, int]:
    """Complete factorization over F_p: {irreducible (as tuple): multiplicity}."""
    rng = rng or random.Random(0)
    result: Dict[Tuple, int] = {}
    _factor_into(field, monic(field, list(f)), 1, result, rng)
    return result


def _factor_into(field: Field, f, mult: int, result, rng):
    p = field.p
    if degree(f) < 1:
        return
    df = derivative(field, f)
    if not df:
        g = [f[i] for i in range(0, len(f), p)]
        _factor_into(field, monic(field, g), mult * p, result, rng)
        return
    c = poly_gcd(field, f, df)
    w, r = poly_divmod(field, f, c)
    if r:
        raise InternalInconsistency("gcd(f, f') does not divide f")
    for g in factor_squarefree_fp(field, monic(field, w), rng):
        e = 0
        while True:
            q, rem = poly_divmod(field, f, g)
            if rem:
                break
            f = q
            e += 1
        if e:
            result[tuple(g)] = result.get(tuple(g), 0) + mult * e
    if degree(f) >= 1:
        _factor_into(field, f, mult, result, rng)


# -- rational linear factors over Q ----------------------------------------


def _bounded_divisors(n: int) -> Optional[List[int]]:
    """All positive divisors of |n|, or None if factorization exceeds the bound."""
    n = abs(n)
    if n == 0:
        return None
    factors = {}
    m = n
    d = 2
    while d * d <= m and d <= _TRIAL_BOUND:
        while m % d == 0:
            factors[d] = factors.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        if m <= _TRIAL_BOUND * _TRIAL_BOUND or (m < MR_PROVEN_BOUND and is_prime(m)):
            factors[m] = factors.get(m, 0) + 1
        else:
            return None
    divs = [1]
    for q, e in factors.items():
        divs = [x * q ** i for x in divs for i in range(e + 1)]
    return sorted(divs)


def rational_linear_factors(f: List) -> Tuple[Dict, List, bool]:
    """Extract rational roots with multiplicity.

    Returns (roots, cofactor, decided): cofactor is the monic leftover with no
    rational roots; decided is False when divisor enumeration was not
    exhaustive, in which case missing roots are possible.  Roots and
    coefficients are canonical rationals: an int when integral.
    """
    field = Field.rationals()
    f = monic(field, [field.coerce(c) for c in f])
    roots: Dict = {}
    decided = True
    # strip powers of x
    while f and f[0] == 0:
        roots[0] = roots.get(0, 0) + 1
        f = f[1:]
    if degree(f) < 1:
        return roots, f, decided
    from math import lcm

    den = lcm(*[c.denominator for c in f]) if len(f) > 1 else f[0].denominator
    intpoly = [int(c * den) for c in f]
    a0, an = intpoly[0], intpoly[-1]
    d0 = _bounded_divisors(a0)
    dn = _bounded_divisors(an)
    if d0 is None or dn is None:
        return roots, f, False
    candidates = set()
    for pnum in d0:
        for qden in dn:
            candidates.add(rational(Fraction(pnum, qden)))
            candidates.add(rational(Fraction(-pnum, qden)))
    for r in sorted(candidates):
        while degree(f) >= 1:
            val = 0
            for c in reversed(f):
                val = val * r + c
            if val != 0:
                break
            f, rem = poly_divmod(field, f, [-r, 1])
            if rem:
                raise InternalInconsistency("rational root does not divide the polynomial")
            roots[r] = roots.get(r, 0) + 1
    return roots, f, decided
