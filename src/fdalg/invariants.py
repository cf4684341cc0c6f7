"""Commutator-subspace invariants: k, the K_n filtration, the p-power space,
diagonal Peirce bounds, and the symmetrizing-form search.

K(A) is spanned by the commutators of basis pairs (bilinearity makes those
sufficient), and K_n(A) = K(A) + J^n interpolates between the simple-module
count (n = 1, split case) and k(A) (n at the Loewy length).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .algebras import Algebra
from .errors import CharZero, NotBasic, SplitUndecided
from .linalg import (Matrix, Subspace, _accumulate, _subspace_from_acc, echelon_for, null_vectors,
                     span, subspace_sum)
from .structure import (
    IdempotentSet,
    loewy_length,
    peirce_grid,
    peirce_radical_diagonal,
    radical,
    radical_power,
    semisimple_decomposition,
)

SYMMETRIC_BUDGET = 2 ** 16
SYMMETRIC_RANDOM_TRIALS = 64


def commutator_subspace(a: Algebra) -> Subspace:
    """K(A) = span{xy - yx}, from the basis-pair commutators b_i b_j - b_j b_i,
    i < j, in order; only the nonzero ones are built, from the pairs whose
    rows differ in the index ``Algebra._nz``."""
    cached = a._cache.get("commutator")
    if cached is not None:
        return cached
    F = a.field
    d = a.dim
    mul, nz = a.mul, a._nz
    acc = echelon_for(F, d)
    for i in range(d):
        for j in range(i + 1, d):
            if nz[i][j] != nz[j][i]:
                row = [F.zero()] * d
                for k, _ in nz[i][j] + nz[j][i]:
                    row[k] = F.sub(mul[i][j][k], mul[j][i][k])
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
    cols = tuple(kspace.coset_coords(a.power_coords(a._unit_vec(pos), p)) for pos in positions)
    phi = Matrix(F, q, q, cols).transpose()
    # stable kernel: ker(phi^m) grows until it stops, which each next power
    # shows by its rank; a full-rank phi has the zero stable kernel
    power, acc = phi, _accumulate(F, q, phi.entries)
    while acc.rank < q:
        power = power.matmul(phi)
        nxt = _accumulate(F, q, power.entries)
        if nxt.rank == acc.rank:
            break
        acc = nxt
    lifts = []
    for row in null_vectors(F, q, acc):
        vec = [F.zero()] * a.dim
        for pos, c in zip(positions, row):
            vec[pos] = c
        lifts.append(vec)
    result = span(F, a.dim, [*kspace.basis.entries, *lifts]) if lifts else kspace
    a._cache["p_power_space"] = result
    return result


# -- Peirce-diagonal spaces and the codimension bound ---------------------------


def acyc_cyc_space(a: Algebra, idems: IdempotentSet, n: int) -> Subspace:
    """The sum of the off-diagonal Peirce blocks e_i·A·e_j (i != j) and the
    level-n diagonal spaces e_i·J^n·e_i, as one ``subspace_sum``: on a
    record read off the basis of a graded algebra every summand is a
    coordinate subspace, and so is the sum.

    Reads the memoized ``peirce_grid`` and ``peirce_radical_diagonal`` of
    ``idems.seed``.  Requires a basic algebra (every primitive idempotent its
    own iso class).
    """
    if len(idems.iso_classes) != len(idems.idempotents):
        raise NotBasic("requires one primitive idempotent per iso class")
    grid = peirce_grid(a, idems.seed)
    return subspace_sum(*(sub for i, row in enumerate(grid) for j, sub in enumerate(row) if i != j),
                        *peirce_radical_diagonal(a, n, idems.seed))


def peirce_codim_bound(a: Algebra, n: int, seed: int = 0) -> int:
    """Sum over basic representatives of dim e_i A e_i - dim e_i J^n e_i.

    Upper bound for codim K_n(A); tight for n = 1, 2.  Read from the memoized
    ``peirce_grid`` and ``peirce_radical_diagonal``.
    """
    grid = peirce_grid(a, seed)
    return sum(grid[i][i].dim - sub.dim
               for i, sub in enumerate(peirce_radical_diagonal(a, n, seed)))


def rad_in_commutators(a: Algebra) -> bool:
    k = commutator_subspace(a)
    return all(k.contains(v) for v in radical(a).basis_vectors())


def is_local(a: Algebra, seed: int = 0) -> Optional[bool]:
    """One primitive idempotent in A/J; None when splitting is undecided over Q."""
    try:
        dec = semisimple_decomposition(a, seed)
    except SplitUndecided:
        return None
    return len(dec.corner_dims) == 1


# -- symmetrizing form search ---------------------------------------------------


@dataclass
class SymmetricVerdict:
    kind: str  # "yes" | "no" | "unknown"
    functional: Optional[Tuple] = None  # values on the basis, when kind == "yes"
    reason: str = ""  # the certificate, scan or search behind the verdict

    def __bool__(self):
        return self.kind == "yes"


def _dual_basis(a: Algebra) -> List[Tuple]:
    """Row k holds lambda_r(b_k) for the dual basis lambda_r of A/K(A).

    lambda_r reads coordinate positions[r] of a vector reduced mod K(A), so d
    reductions give every form that vanishes on K(A).
    """
    kspace = commutator_subspace(a)
    return [kspace.coset_coords(a._unit_vec(k)) for k in range(a.dim)]


def _nondegenerate(a: Algebra, lam: Sequence) -> bool:
    """Whether G[i][j] = lambda(b_i b_j) = sum_k c_ijk lambda(b_k) has full rank.

    Reads only the structure constants c_ijk with lambda(b_k) != 0 and stops
    at the first row that does not raise the rank.
    """
    F = a.field
    support = [(k, c) for k, c in enumerate(lam) if c]
    acc = echelon_for(F, a.dim)
    for plane in a.mul:
        row = []
        for prod in plane:
            val = F.zero()
            for k, c in support:
                x = prod[k]
                if x:
                    val = F.add(val, F.mul(c, x))
            row.append(val)
        if not acc.insert(row):
            return False
    return True


def _trial(a: Algebra, dual: List[Tuple], coeffs: Sequence) -> Optional[Tuple]:
    """lambda = sum_r coeffs[r] lambda_r on the basis, if its Gram form is nondegenerate."""
    F = a.field
    lam = []
    for row in dual:
        val = F.zero()
        for c, x in zip(coeffs, row):
            if c and x:
                val = F.add(val, F.mul(c, x))
        lam.append(val)
    return tuple(lam) if _nondegenerate(a, lam) else None


def symmetrizing_form_search(a: Algebra, seed: int = 0) -> SymmetricVerdict:
    """Search for a linear form vanishing on K(A) with nondegenerate Gram matrix.

    Such a form lambda is a symmetrizing form: lambda(xy - yx) = 0 makes
    lambda(xy) = lambda(yx).  "no" has two exact sources.

    * The centre.  If lambda is a symmetrizing form, then for z in A,
      lambda(z(xy - yx)) = lambda(zxy) - lambda(xzy) = lambda((zx - xz)y),
      so z is orthogonal to K(A) under (x, y) -> lambda(xy) iff zx = xz for
      every x, by nondegeneracy: K(A)^perp = Z(A), and dim Z(A) = codim K(A)
      = k(A).  So dim Z(A) != k(A) proves A is not symmetric; this is checked
      first, from the cached centre and commutator space.
    * An exhaustive scan of every nonzero form on A/K(A), over F_p when p^k
      fits in ``SYMMETRIC_BUDGET``.

    Otherwise 64 seeded random forms are tried, and "unknown" means none of
    them was nondegenerate.  ``reason`` names the certificate, scan or search.
    Memoized per seed; each call returns a fresh ``SymmetricVerdict``.
    """
    key = ("symmetric", seed)
    cached = a._cache.get(key)
    if cached is None:
        verdict = _symmetrizing_form_search(a, seed)
        cached = (verdict.kind, verdict.functional, verdict.reason)
        a._cache[key] = cached
    return SymmetricVerdict(*cached)


def _symmetrizing_form_search(a: Algebra, seed: int) -> SymmetricVerdict:
    F = a.field
    m = k_of(a)
    z = a.center().dim
    if z != m:
        return SymmetricVerdict(
            "no", reason=f"centre: dim Z(A) = {z} != k(A) = {m}, and a symmetrizing "
                         "form would make K(A)^perp = Z(A)")
    dual = _dual_basis(a)
    found = "functional found: it vanishes on K(A) and lambda(xy) is nondegenerate"
    if F.is_prime_field and F.p ** m <= SYMMETRIC_BUDGET:
        # nonzero multiples of a form share its Gram rank, so the lexicographically
        # first nondegenerate vector has leading coefficient 1: scan only those,
        # in lexicographic order (a later leading position comes first)
        for lead in reversed(range(m)):
            for tail in itertools.product(range(F.p), repeat=m - 1 - lead):
                lam = _trial(a, dual, (0,) * lead + (1,) + tail)
                if lam is not None:
                    return SymmetricVerdict("yes", lam, found)
        return SymmetricVerdict(
            "no", reason=f"exhaustive scan: none of the {F.p ** m - 1} nonzero "
                         "forms on A/K(A) is nondegenerate")
    rng = random.Random(seed)
    for _ in range(SYMMETRIC_RANDOM_TRIALS):
        if F.is_prime_field:
            coeffs = [F.coerce(rng.randrange(F.p)) for _ in range(m)]
        else:
            coeffs = [F.coerce(rng.randint(-9, 9)) for _ in range(m)]
        if not any(coeffs):
            continue
        lam = _trial(a, dual, coeffs)
        if lam is not None:
            return SymmetricVerdict("yes", lam, found)
    return SymmetricVerdict(
        "unknown", reason=f"random trials exhausted: no nondegenerate form among "
                          f"{SYMMETRIC_RANDOM_TRIALS} on A/K(A), with dim Z(A) = k(A) = {m}")


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
    return _nondegenerate(a, lam)
