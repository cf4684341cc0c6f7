"""Commutator-subspace invariants: k, the K_n filtration, the p-power space,
diagonal Peirce bounds, and the symmetrizing-form search.

K(A) is spanned by the commutators of basis pairs (bilinearity makes those
sufficient), and K_n(A) = K(A) + J^n interpolates between the simple-module
count (n = 1, split case) and k(A) (n at the Loewy length).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .algebras import Algebra
from .errors import BadParameter, CharZero, NotBasic, SplitUndecided
from .linalg import Matrix, Subspace, _subspace_from_acc, echelon_for, kernel, span, subspace_sum
from .structure import (
    IdempotentSet,
    loewy_length,
    primitive_idempotents,
    radical,
    radical_power,
    semisimple_decomposition,
)

SYMMETRIC_BUDGET = 2 ** 16
SYMMETRIC_RANDOM_TRIALS = 64


def commutator_subspace(a: Algebra) -> Subspace:
    """K(A) = span{xy - yx}, from the d(d-1)/2 basis-pair commutators."""
    cached = a._cache.get("commutator")
    if cached is not None:
        return cached
    F = a.field
    d = a.dim
    acc = echelon_for(F, d)
    for i in range(d):
        for j in range(i + 1, d):
            row = [F.sub(x, y) for x, y in zip(a.mul[i][j], a.mul[j][i])]
            if any(row):
                acc.insert(row)
    result = _subspace_from_acc(F, d, acc)
    a._cache["commutator"] = result
    return result


def k_of(a: Algebra) -> int:
    return commutator_subspace(a).codim()


def k_n_space(a: Algebra, n: int) -> Subspace:
    """K_n(A) = K(A) + J^n, memoized per n."""
    key = ("k_n", n)
    cached = a._cache.get(key)
    if cached is None:
        cached = subspace_sum(commutator_subspace(a), radical_power(a, n))
        a._cache[key] = cached
    return cached


def codim_k_n(a: Algebra, n: int) -> int:
    return k_n_space(a, n).codim()


@dataclass
class CodimSeries:
    """codim K_n(A) for n = 1..Loewy length; stabilizes at k(A)."""

    values: List[int]
    k: int
    ell_if_split: Optional[int]

    def value_at(self, n: int) -> int:
        if n < 1:
            raise BadParameter("n must be >= 1")
        return self.values[min(n, len(self.values)) - 1]


def codim_series(a: Algebra, seed: int = 0) -> CodimSeries:
    """The series, memoized per seed; each call returns a fresh ``CodimSeries``."""
    key = ("codim_series", seed)
    cached = a._cache.get(key)
    if cached is None:
        ll = loewy_length(a)
        values = tuple(codim_k_n(a, n) for n in range(1, ll + 1))
        ell_if_split: Optional[int] = None
        try:
            dec = semisimple_decomposition(a, seed)
            if dec.split:
                ell_if_split = len(dec.components)
        except SplitUndecided:
            ell_if_split = None
        cached = (values, k_of(a), ell_if_split)
        a._cache[key] = cached
    values, k, ell_if_split = cached
    return CodimSeries(list(values), k, ell_if_split)


# -- the p-power subspace ------------------------------------------------------


def p_power_space(a: Algebra) -> Subspace:
    """{x : x^(p^n) lies in K(A) for some n}, in characteristic p.

    The p-th power map descends to a linear endomorphism of A/K(A) over a
    prime field (Jacobson's formula puts the cross terms into K, and the
    coefficient Frobenius is trivial), so this is the preimage of the
    stable kernel of that matrix.
    """
    F = a.field
    if F.characteristic == 0:
        raise CharZero("the p-power space needs positive characteristic")
    cached = a._cache.get("p_power_space")
    if cached is not None:
        return cached
    p = F.p
    kspace = commutator_subspace(a)
    positions = kspace.complement_positions()
    q = len(positions)
    cols = []
    for pos in positions:
        b = a._unit_vec(pos)
        bp = _element_power(a, b, p)
        red = kspace.reduce(bp)
        cols.append([red[i] for i in positions])
    phi = Matrix(F, q, q, tuple(tuple(cols[j][i] for j in range(q)) for i in range(q)))
    # stable kernel: ker(phi^m) grows until it stops
    power = phi
    prev_dim = -1
    ker = kernel(power)
    steps = 1
    while ker.dim != prev_dim and steps <= q:
        prev_dim = ker.dim
        power = power.matmul(phi)
        ker = kernel(power)
        steps += 1
    lifts = []
    for row in ker.basis_vectors():
        vec = [F.zero()] * a.dim
        for pos, c in zip(positions, row):
            vec[pos] = c
        lifts.append(vec)
    result = subspace_sum(kspace, span(F, a.dim, lifts))
    a._cache["p_power_space"] = result
    return result


def _element_power(a: Algebra, coords, e: int):
    acc = tuple(a.unit)
    base = tuple(coords)
    while e:
        if e & 1:
            acc = a.multiply_coords(acc, base)
        base = a.multiply_coords(base, base)
        e >>= 1
    return acc


# -- Peirce-diagonal spaces and the codimension bound ---------------------------


def acyc_cyc_space(a: Algebra, idems: IdempotentSet, n: int) -> Subspace:
    """Off-diagonal Peirce span plus the level-n diagonal radical span.

    Requires a basic algebra (every primitive idempotent its own iso class).
    """
    if len(idems.iso_classes) != len(idems.idempotents):
        raise NotBasic("requires one primitive idempotent per iso class")
    F = a.field
    es = idems.idempotents
    vecs: List[Sequence] = []
    for i, ei in enumerate(es):
        for j, ej in enumerate(es):
            if i == j:
                continue
            for b in range(a.dim):
                v = a.multiply_coords(
                    a.multiply_coords(ei.coords, a._unit_vec(b)), ej.coords)
                if any(v):
                    vecs.append(v)
    jn = radical_power(a, n)
    for ei in es:
        for w in jn.basis_vectors():
            v = a.multiply_coords(a.multiply_coords(ei.coords, w), ei.coords)
            if any(v):
                vecs.append(v)
    return span(F, a.dim, vecs)


def peirce_codim_bound(a: Algebra, n: int, seed: int = 0) -> int:
    """Sum over basic representatives of dim e_i A e_i - dim e_i J^n e_i.

    Upper bound for codim K_n(A); tight for n = 1, 2.  Memoized per (n, seed).
    """
    from .structure import peirce_component, _peirce_section

    key = ("peirce_bound", n, seed)
    cached = a._cache.get(key)
    if cached is not None:
        return cached
    idems = primitive_idempotents(a, seed)
    reps = [idems.idempotents[r] for r in idems.basic_representatives]
    jn = radical_power(a, n)
    total = 0
    for e in reps:
        total += peirce_component(a, e, e).dim - _peirce_section(a, e, jn)
    a._cache[key] = total
    return total


def rad_in_commutators(a: Algebra) -> bool:
    k = commutator_subspace(a)
    return all(k.contains(v) for v in radical(a).basis_vectors())


def is_commutative(a: Algebra) -> bool:
    return a.is_commutative()


def is_local(a: Algebra, seed: int = 0) -> Optional[bool]:
    """One primitive idempotent in A/J; None when splitting is undecided over Q."""
    from .errors import SplitUndecided

    try:
        dec = semisimple_decomposition(a, seed)
    except SplitUndecided:
        return None
    return len(dec.primitives) == 1


# -- symmetrizing form search ---------------------------------------------------


@dataclass
class SymmetricVerdict:
    kind: str  # "yes" | "no" | "unknown"
    functional: Optional[Tuple] = None  # values on the basis, when kind == "yes"

    def __bool__(self):
        return self.kind == "yes"


def _gram_stack(a: Algebra):
    """Gram matrices of the dual basis of A/K(A): G_r[i][j] = lambda_r(b_i b_j)."""
    kspace = commutator_subspace(a)
    positions = kspace.complement_positions()
    d = a.dim
    grams = []
    for ridx in range(len(positions)):
        grams.append([[None] * d for _ in range(d)])
    for i in range(d):
        for j in range(d):
            red = kspace.reduce(a.mul[i][j])
            for ridx, pos in enumerate(positions):
                grams[ridx][i][j] = red[pos]
    return grams, positions


def _gram_rank(a: Algebra, grams, coeffs) -> int:
    F = a.field
    d = a.dim
    acc = echelon_for(F, d)
    for i in range(d):
        row = []
        for j in range(d):
            val = F.zero()
            for c, g in zip(coeffs, grams):
                if c and g[i][j]:
                    val = F.add(val, F.mul(c, g[i][j]))
            row.append(val)
        acc.insert(row)
    return acc.rank


def _functional_from(a: Algebra, positions, coeffs) -> Tuple:
    """Values lambda(b_i): reduce b_i mod K and pair with the chosen coefficients."""
    kspace = commutator_subspace(a)
    F = a.field
    out = []
    for i in range(a.dim):
        red = kspace.reduce(a._unit_vec(i))
        val = F.zero()
        for c, pos in zip(coeffs, positions):
            if c and red[pos]:
                val = F.add(val, F.mul(c, red[pos]))
        out.append(val)
    return tuple(out)


def symmetrizing_form_search(a: Algebra, seed: int = 0,
                             budget: int = SYMMETRIC_BUDGET) -> SymmetricVerdict:
    """Search for a linear form vanishing on K(A) with nondegenerate Gram matrix.

    Such a form is symmetric by construction; "no" is only returned after an
    exhaustive scan (possible over F_p when p^k fits in the budget).  Memoized
    per (seed, budget); each call returns a fresh ``SymmetricVerdict``.
    """
    key = ("symmetric", seed, budget)
    cached = a._cache.get(key)
    if cached is None:
        verdict = _symmetrizing_form_search(a, seed, budget)
        cached = (verdict.kind, verdict.functional)
        a._cache[key] = cached
    return SymmetricVerdict(*cached)


def _symmetrizing_form_search(a: Algebra, seed: int, budget: int) -> SymmetricVerdict:
    F = a.field
    grams, positions = _gram_stack(a)
    m = len(positions)
    if m == 0:
        return SymmetricVerdict("no")
    if F.is_prime_field and F.p ** m <= budget:
        import itertools

        for coeffs in itertools.product(range(F.p), repeat=m):
            if not any(coeffs):
                continue
            if _gram_rank(a, grams, coeffs) == a.dim:
                return SymmetricVerdict("yes", _functional_from(a, positions, coeffs))
        return SymmetricVerdict("no")
    rng = random.Random(seed)
    for _ in range(SYMMETRIC_RANDOM_TRIALS):
        if F.is_prime_field:
            coeffs = [F.coerce(rng.randrange(F.p)) for _ in range(m)]
        else:
            coeffs = [F.coerce(rng.randint(-9, 9)) for _ in range(m)]
        if not any(coeffs):
            continue
        if _gram_rank(a, grams, coeffs) == a.dim:
            return SymmetricVerdict("yes", _functional_from(a, positions, coeffs))
    return SymmetricVerdict("unknown")


def verify_symmetrizing_form(a: Algebra, functional: Sequence) -> bool:
    """Certificate check: lambda kills K(A) and its Gram form has full rank."""
    F = a.field
    lam = [F.coerce(x) for x in functional]
    for v in commutator_subspace(a).basis_vectors():
        val = F.zero()
        for c, x in zip(lam, v):
            if c and x:
                val = F.add(val, F.mul(c, x))
        if val:
            return False
    d = a.dim
    acc = echelon_for(F, d)
    for i in range(d):
        row = []
        for j in range(d):
            val = F.zero()
            for c, x in zip(lam, a.mul[i][j]):
                if c and x:
                    val = F.add(val, F.mul(c, x))
            row.append(val)
        acc.insert(row)
    return acc.rank == d
