"""Radical, semisimple quotient, primitive idempotents, Cartan data.

An algebra hands over nothing but its tensor, its unit and its kind: every
result here is found from the structure constants and certified before it is
cached.  The Jacobson radical comes from one of three routes:

- a grading guessed from the structure constants (``_guessed_grading``).
  Once the grading, its degree 0 and the generation of each degree by
  degree 1 are certified, Rad A = A_{>=1} and J^n = A_{>=n} (Assem, Simson
  and Skowroński, *Elements of the Representation Theory of Associative
  Algebras* I, §II.1-2), with no product of subspaces.  On a quiver build
  the guess is the path-length grading.  Degree 0 is a set of orthogonal
  idempotents, or it holds matrix units, as on an inflation or a copy of
  M_n(F) (Năstăsescu and Van Oystaeyen, *Methods of Graded Rings*, LNM
  1836); then A_{>=1} is proved complete by the basis guess of idempotents
  passing ``_certify_candidate`` against it, which gives
  dim A - dim A_{>=1} = sum n_i^2.  A guess that is dropped or fails raises
  nothing, caches nothing and leaves A to the routes below;
- the kernel of the regular trace form, in characteristic zero;
- in characteristic p, the chain of lifted power-trace conditions
  g_i(xy) = 0, with g_i(z) = (tr(L̃_z^{p^i}) mod p^{i+1}) / p^i for an integer
  lift L̃_z of L_z (Rónyai, J. Symbolic Comput. 9 (1990); Cohen, Ivanyos and
  Wales, J. Pure Appl. Algebra 117/118 (1997)); over a prime field each stage
  is an honest linear system.

Every route returns the chain J ⊃ J^2 ⊃ ... ⊃ 0 it certified: the graded
route reads it off the grading, which its own certificate checks; the others
check a two-sided ideal and multiply its powers down to zero.  ``radical``
caches J and the chain once every check has passed, and ``radical_power``
and ``loewy_length`` read the chain.

A complete set of primitive idempotents is one ``_Record``: the
idempotents, their classes, each one's corner dim, the representatives'
Peirce table and the matrix units.  It has two sources:

- a guess from the basis: ``radical`` tries the unit's terms u_i·b_i, each
  a nonzero multiple of a basis vector, grouped by the Peirce blocks of the
  basis (``_basis_candidate``), which give its table with no product.  These
  are a quiver build's vertex idempotents, and an inflation's diagonal
  matrix units when its source's idempotents are multiples of Peirce basis
  vectors.  A guess that fails its certificate is dropped;
- the search, otherwise, the one step that builds A/J
  (``semisimple_quotient``): A/J is split by minimal polynomials and the
  pieces are lifted to A, grouped on one spanned Peirce table
  (``_peirce_table``) and given matrix units (``_searched_idempotents``);
  over F_p a commutative piece is first tested by Frobenius
  (``_is_field_fp``), and a field F_{p^f} is one primitive of corner dim f.
  A searched set that fails its certificate raises InternalInconsistency.

``_certify_candidate`` checks every split record against the radical, over
the table its source built, which also proves the radical complete
(dim A - dim J = sum n_i^2 over the classes), and returns the certified
record.  A guessed record is memoized as ``"certified_candidate"``, a
searched one per seed; ``semisimple_decomposition``,
``primitive_idempotents`` and ``peirce_grid`` read only that record
(``_idempotent_record``), which also keeps the certified matrix units
(``morita.fullness_witness``).  A set with a corner dim above 1, over a
field where A is not split, is grouped the same way, has no table and is
not certified.  ``wedderburn_split`` maps each class sum into A/J.

``peirce_grid`` is that table over the basic representatives of
``primitive_idempotents``, and ``peirce_radical_diagonal`` reads each
e_i·J^n·e_i = J^n ∩ e_i·A·e_i off it, once per (algebra, n, seed): with no
product, and on a record read off the basis of a graded algebra, where both
are coordinate subspaces, as their shared positions.  The Cartan matrix, the
Ext^1 diagonal, the diagonal codimension bound, the basic-algebra span
``acyc_cyc_space`` and progenerator inflation all read those two.
"""
from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import _numutil
from .algebras import Algebra, Element, corner_data, peirce_rows
from .errors import BadParameter, InternalInconsistency, NotSplit, SplitUndecided, TooLarge
from .fields import Field
from .linalg import (
    Matrix,
    Subspace,
    _subspace_from_acc,
    combine,
    coordinate_subspace,
    echelon_for,
    kernel,
    solve_in_span,
    span,
    subspace_intersect,
)
from .polyfactor import (
    degree,
    factor_fp,
    monic,
    poly_divmod,
    poly_eval_element,
    poly_mod,
    poly_mul,
    rational_linear_factors,
    trim,
)

RANDOM_SPLIT_TRIES_FP = 256
RANDOM_SPLIT_TRIES_Q = 64


class _Record(NamedTuple):
    """A complete set of primitive orthogonal idempotents of A, in
    coordinates, grouped into classes (representative first, classes ordered
    by first member), with each one's corner dim dim ē·(A/J)·ē, the
    representatives' Peirce table (None until ``_certify_candidate`` passes,
    and when A is not split) and the matrix units: ``matrix_units[k] = (u, v)``
    for every other member k of a class with representative r, u in
    e_r·A·e_k and v in e_k·A·e_r with u·v = e_r and v·u = e_k."""

    idempotents: Tuple[Tuple, ...]
    classes: Tuple[Tuple[int, ...], ...]
    corner_dims: Tuple[int, ...]
    grid: Optional[Tuple[Tuple[Subspace, ...], ...]]
    matrix_units: Dict[int, Tuple[Tuple, Tuple]]


# -- minimal polynomials ----------------------------------------------------


def minimal_polynomial(b: Algebra, z: Sequence) -> List:
    """Monic minimal polynomial of an element, ascending coefficients."""
    F = b.field
    d = b.dim
    width = d + d + 2
    acc = echelon_for(F, width)
    zero = F.zero()
    cur = tuple(b.unit)
    zc = tuple(F.coerce(c) for c in z)
    for k in range(d + 1):
        aug = list(cur) + [zero] * (d + 2)
        aug[d + k] = F.one()
        red = acc.reduce(aug)
        if not any(red[:d]):
            # the probe carries indicator e_k, so z^k + sum red[d+i]·z^i = 0
            return red[d:d + k] + [F.one()]
        acc.insert(red)
        cur = b.multiply_coords(cur, zc)
    raise InternalInconsistency("minimal polynomial search exceeded the dimension")


# -- quotient algebras -------------------------------------------------------


@dataclass
class QuotientData:
    """A/I with the section given by the non-pivot coordinate positions."""

    algebra: Algebra
    ideal: Subspace
    positions: Tuple[int, ...]
    _parent: Algebra

    def lift(self, vec: Sequence) -> Tuple:
        F = self._parent.field
        out = [F.zero()] * self._parent.dim
        for pos, c in zip(self.positions, vec):
            out[pos] = F.coerce(c)
        return tuple(out)

    def image(self, vec: Sequence) -> Tuple:
        """The coordinates in A/I of a vector of the parent."""
        return self.ideal.coset_coords(vec)


def quotient_algebra(a: Algebra, ideal: Subspace) -> QuotientData:
    positions = ideal.complement_positions()
    if not positions:
        raise BadParameter("quotient by the whole algebra")
    mul = [[ideal.coset_coords(a.mul[r][s]) for s in positions] for r in positions]
    unit = ideal.coset_coords(a.unit)
    return QuotientData(Algebra(a.field, mul, unit, _canonical=True), ideal, positions, a)


# -- radical -----------------------------------------------------------------


def _trace_gram(a: Algebra) -> Tuple[Tuple, ...]:
    """G[i][j] = tr(L_{b_i} · L_{b_j}) over the basis.

    By associativity L_x·L_y = L_{xy}, so G[i][j] = tr(L_{b_i b_j}) =
    sum_k c_ijk τ_k with τ_k = tr(L_{b_k}) = sum_j c_kjj: each structure
    constant is read once.  On a tensor that is not associative this is not
    the trace form, but every route's radical is certified before use.
    """
    F = a.field
    p = F.p
    traces = [sum(plane[j][j] for j in range(a.dim)) for plane in a.mul]
    tau = [(k, t % p if p else t) for k, t in enumerate(traces)]
    tau = [(k, t) for k, t in tau if t]
    zero = F.zero()
    gram = [[sum((row[k] * t for k, t in tau if row[k]), zero) for row in plane] for plane in a.mul]
    return tuple(tuple(x % p if p else x for x in row) for row in gram)


def _kernel_combos(field: Field, gram: List[List], vecs: List[Tuple]) -> List[Tuple]:
    """Restrict to the null space of the given pairing matrix."""
    m = len(vecs)
    null = kernel(Matrix(field, m, m, tuple(map(tuple, gram))))
    return combine(field, null.basis_vectors(), vecs)


def _radical_char0(a: Algebra) -> List[Tuple]:
    """Rad(A) in characteristic 0: the kernel of the trace form."""
    d = a.dim
    return kernel(Matrix(a.field, d, d, _trace_gram(a))).basis_vectors()


def _lifted_power_traces(a: Algebra, w, power: int, modulus: int):
    """tr(L̃_w^power) mod modulus for each row w of an (m, d) int64 array.

    L̃_w is the lift of L_w with entries in [0, p).  Contracting w with the
    tensor gives its transpose, Σ_i w_i c[i, j, k] = L̃_w[k, j], and
    tr((L̃ᵀ)^k) = tr(L̃^k).  The m matrices are raised by square-and-multiply
    as one (m, d, d) batch, reduced mod the modulus after every product.
    """
    import numpy as np

    base = np.tensordot(w, a._np_tensor, axes=([1], [0])) % a.field.p
    result = None
    e = power
    while True:
        if e & 1:
            result = base if result is None else _numutil.mat_mul_mod(result, base, modulus)
        e >>= 1
        if not e:
            break
        base = _numutil.mat_mul_mod(base, base, modulus)
    return np.trace(result, axis1=1, axis2=2) % modulus


def _power_trace_gram(a: Algebra, sub: Subspace, power: int) -> List[List]:
    """G[y][x] = g(w_x w_y) over the RREF basis w of a stage space J.

    g(z) = (tr(L̃_z^power) mod p·power) / power with power = p^i.  The
    caller has checked that J is a two-sided ideal, so every product w_x w_y
    lies in J, and g is linear on J.  With ψ[pivot_k] = g(w_k) and zero
    elsewhere, an RREF basis gives g(u) = ψ·u for every u in J, so
    G = W·Mᵀ·Wᵀ with M[i][j] = Σ_k c_ijk ψ_k: m power traces per stage.
    """
    import numpy as np

    p, d = a.field.p, a.dim
    modulus = p * power
    # products of entries below the modulus, summed over d, stay exact in float64
    if not _numutil.usable(modulus, d):
        raise TooLarge(f"power traces mod {modulus} in dimension {d} exceed float64")
    w = np.array(sub.basis_vectors(), dtype=np.int64)
    traces = _lifted_power_traces(a, w, power, modulus)
    if (traces % power).any():
        raise InternalInconsistency(f"a power trace on the stage space is not divisible by {power}")
    psi = np.zeros(d, dtype=np.int64)
    psi[list(sub.pivots)] = traces // power
    m_form = np.tensordot(a._np_tensor, psi, axes=([2], [0])) % p
    g = _numutil.mat_mul_mod(_numutil.mat_mul_mod(w, m_form.T, p), w.T, p)
    return g.tolist()


def _radical_charp(a: Algebra) -> List[Subspace]:
    """Chain of power-trace stages; each stage is linear on the last.

    Stage 0 is the kernel of the trace form tr(L_x L_y).  Stage i, for
    p^i <= d, keeps the x in the current stage space J with g_i(xy) = 0 for
    every y in J, where g_i(z) = (tr(L̃_z^{p^i}) mod p^{i+1}) / p^i and L̃_z
    is an integer lift of L_z (``_power_trace_gram``).  Why this is valid:

    - any lift works: A ≡ B (mod p) implies tr A^{p^i} ≡ tr B^{p^i}
      (mod p^{i+1});
    - a nilpotent L_z gives g_i(z) = 0, so every stage contains Rad(A);
    - g_i is linear on the stage space, which is a two-sided ideal, so its
      values on a basis determine it on every product v_x v_y.

    Each stage space must be a two-sided ideal and every trace on it must be
    divisible by p^i; either failure raises InternalInconsistency.  Since the
    radical lies inside every stage's space, as soon as the current candidate
    is nilpotent it equals the radical and the remaining stages are skipped.
    Returns the chain of powers of the first nilpotent stage space, or of the
    last one, which ``_check_radical`` certifies.
    """
    F = a.field
    p, d = F.p, a.dim
    vecs = kernel(Matrix(F, d, d, _trace_gram(a))).basis_vectors()
    power = p
    while power <= d and vecs:
        sub = span(F, d, vecs)
        if not _ideal_contains_products(a, sub):
            raise InternalInconsistency("a power-trace stage space is not a two-sided ideal")
        # all of A holds 1, so it is never nilpotent
        chain = _nilpotency_chain(a, sub) if sub.dim < d else None
        if chain is not None:
            return chain
        vecs = _kernel_combos(F, _power_trace_gram(a, sub, power), sub.basis_vectors())
        power *= p
    return _check_radical(a, span(F, d, vecs))


def _ideal_contains_products(a: Algebra, sub: Subspace) -> bool:
    """Whether b_i·r and r·b_i lie in the subspace for every basis b_i and row r.

    b_i·r = sum_j r_j (b_i b_j) and r·b_i = sum_j r_j (b_j b_i) are read off
    the index ``Algebra._nz``, accumulated unreduced (the echelon kernels
    reduce mod p), and each nonzero one is tested by ``sub.contains``."""
    nz = a._nz
    d = a.dim
    for r in sub.basis_vectors():
        support = [(j, c) for j, c in enumerate(r) if c]
        for i in range(d):
            left, right = [0] * d, [0] * d
            for j, c in support:
                for k, x in nz[i][j]:
                    left[k] += c * x
                for k, x in nz[j][i]:
                    right[k] += c * x
            if (any(left) and not sub.contains(left)) or (any(right) and not sub.contains(right)):
                return False
    return True


def _nilpotency_chain(a: Algebra, sub: Subspace) -> Optional[List[Subspace]]:
    """J, J^2, ... down to zero, or None when powers stop shrinking."""
    rows = sub.basis_vectors()
    powers = [sub]
    cur = sub
    while cur.dim:
        nxt = _subspace_product(a, rows, cur.basis_vectors())
        if nxt.dim >= cur.dim:
            return None
        powers.append(nxt)
        cur = nxt
    return powers


def _subspace_product(a: Algebra, u_rows: List[Tuple], v_rows: List[Tuple]) -> Subspace:
    acc = echelon_for(a.field, a.dim)
    for u in u_rows:
        for v in v_rows:
            acc.insert(list(a.multiply_coords(u, v)))
    return _subspace_from_acc(a.field, a.dim, acc)


def _check_radical(a: Algebra, rad: Subspace) -> List[Subspace]:
    """The chain rad, rad^2, ... down to zero of a nilpotent two-sided ideal,
    or InternalInconsistency."""
    if not _ideal_contains_products(a, rad):
        raise InternalInconsistency("radical candidate is not a two-sided ideal")
    chain = _nilpotency_chain(a, rad)
    if chain is None:
        raise InternalInconsistency("radical candidate is not nilpotent")
    return chain


def _guessed_grading(a: Algebra) -> Optional[List[int]]:
    """Degrees of the basis guessed from the nonzero structure constants, or
    None; ``_graded_radical`` decides whether the guess holds.

    Degree 0 is the unit's support, closed under: c_ijk != 0 with k in degree
    0 puts i and j in degree 0 (so e_rs·e_sr = e_rr takes the matrix units of
    an inflation, and M_n(F) is all degree 0).  Any other b_k gets
    deg i + deg j from the first product b_i·b_j, both outside degree 0, whose
    support holds b_k, and 1 when there is none.  A cycle among those first
    products drops the guess.
    """
    d = a.dim
    into: List[List[Tuple[int, int]]] = [[] for _ in range(d)]  # (i, j) with c_ijk != 0
    for i, plane in enumerate(a._nz):
        for j, row in enumerate(plane):
            for k, _ in row:
                into[k].append((i, j))
    zero = [bool(c) for c in a.unit]
    work = [k for k in range(d) if zero[k]]
    while work:
        for pair in into[work.pop()]:
            for i in pair:
                if not zero[i]:
                    zero[i] = True
                    work.append(i)
    first = [None if zero[k] else next(((i, j) for i, j in into[k] if not (zero[i] or zero[j])),
                                       None)
             for k in range(d)]
    # each b_k waits for the factors of its first product (Kahn's order)
    waiting = [0] * d
    users: List[List[int]] = [[] for _ in range(d)]
    for k, pair in enumerate(first):
        for i in set(pair or ()):
            waiting[k] += 1
            users[i].append(k)
    degrees: List[Optional[int]] = [0 if z else None for z in zero]
    work = [k for k in range(d) if not zero[k] and not waiting[k]]
    while work:
        k = work.pop()
        degrees[k] = 1 if first[k] is None else degrees[first[k][0]] + degrees[first[k][1]]
        for m in users[k]:
            waiting[m] -= 1
            if not waiting[m]:
                work.append(m)
    return None if None in degrees else degrees


def _idempotent_fault(a: Algebra, positions: Sequence[int]) -> Optional[str]:
    """Why the basis vectors b_i at ``positions`` (degree 0 of a grading, or
    the unit's support) are not pairwise orthogonal idempotents u_i·b_i, or
    None.  u_i is the unit's coefficient on b_i, so that
    b_i·b_i = u_i⁻¹·b_i, read off the index of nonzero structure constants:
    ``_nz[i][i] == ((i, u_i⁻¹),)``."""
    F = a.field
    nz = a._nz
    for i in positions:
        u = a.unit[i]
        if not u or nz[i][i] != ((i, F.inv(u)),):
            return f"degree-0 basis element {i} is not idempotent"
    for i, j in itertools.permutations(positions, 2):
        if nz[i][j]:
            return f"degree-0 basis elements {i} and {j} are not orthogonal"
    return None


class _Graded(NamedTuple):
    """What ``_graded_radical`` certified: the chain J^n = A_{>=n}, and the
    basis guess of idempotents when it was what certified degree 0 (else
    None)."""

    chain: List[Subspace]
    certified: Optional[_Record]


def _graded_radical(a: Algebra, degrees: Sequence[int]) -> _Graded:
    """The chain J^n = A_{>=n}, n = 1 up to the first zero, for a grading of
    the basis, certified; Rad A = J = A_{>=1}.

    The checks, each raising InternalInconsistency:

    - the degrees are non-negative, one per basis element;
    - every nonzero c_ijk has deg k = deg i + deg j, so A = (+)_m A_m is graded
      and A_{>=1} is a nilpotent two-sided ideal, inside Rad A;
    - J = A_{>=1} is all of Rad A.  Either the degree-0 basis elements are
      pairwise orthogonal idempotents u_i·b_i, with u_i the unit's
      coefficient, so A/A_{>=1} ~ A_0 is a product of copies of the field,
      semisimple; or the basis guess of idempotents
      (``_adopt_basis_candidate``) passes ``_certify_candidate`` against
      A_{>=1}, which gives dim A - dim A_{>=1} = sum n_i^2;
    - for each m >= 2 the products (degree 1)·(degree m-1) of basis elements
      span A_m (by rank), so A_m = A_1^(m-n)·A_n lies in J^n for m >= n, and
      J^n = A_{>=n}.
    """
    F, d = a.field, a.dim
    if len(degrees) != d or min(degrees) < 0:
        raise InternalInconsistency("the grading does not give each basis element a degree >= 0")
    top = max(degrees)
    for i, plane in enumerate(a._nz if top else ()):  # all of degree 0 is homogeneous
        for j, row in enumerate(plane):
            want = degrees[i] + degrees[j]
            for k, _ in row:
                if degrees[k] != want:
                    raise InternalInconsistency(
                        f"structure constant c_({i},{j},{k}) is not homogeneous in the grading")
    by_degree: Dict[int, List[int]] = {}
    for i, g in enumerate(degrees):
        by_degree.setdefault(g, []).append(i)
    certified = None
    fault = _idempotent_fault(a, by_degree.get(0, []))
    if fault is not None:
        rad = coordinate_subspace(F, d, [i for i, g in enumerate(degrees) if g])
        certified = _adopt_basis_candidate(a, rad)
        if certified is None:
            raise InternalInconsistency(fault)
    # a degree m with no degree m - 1 fails here, so the chain below has at most d + 1 terms
    for m, targets in sorted(by_degree.items()):
        if m < 2:
            continue
        acc = echelon_for(F, len(targets))
        for i, j in itertools.product(by_degree.get(1, []), by_degree.get(m - 1, [])):
            acc.insert([a.mul[i][j][k] for k in targets])
            if acc.rank == len(targets):
                break
        else:
            raise InternalInconsistency(f"degree {m} is not generated by the arrows")
    chain = [coordinate_subspace(F, d, [i for i, g in enumerate(degrees) if g >= n])
             for n in range(1, top + 2)]
    return _Graded(chain, certified)


def _guessed_radical(a: Algebra) -> Optional[_Graded]:
    """``_graded_radical`` of the guessed grading, or None when the guess is
    dropped or fails; it raises nothing and caches nothing."""
    degrees = _guessed_grading(a)
    if degrees is None:
        return None
    try:
        return _graded_radical(a, degrees)
    except InternalInconsistency:
        return None


def radical(a: Algebra) -> Subspace:
    """Jacobson radical as a canonical subspace of the coordinate space.

    It tries a grading guessed from the structure constants
    (``_guessed_grading``); a guess that is dropped or fails leaves A to the
    trace-form routes.  Every route returns the chain J ⊃ J^2 ⊃ ... ⊃ 0 it
    certified.  Unless the guessed grading already certified them, the
    basis may supply the primitive idempotents (``_adopt_basis_candidate``),
    which ``_certify_candidate`` checks against the radical.  Only when
    every check has passed are the radical, its chain (``"rad_powers"``)
    and the certified record cached, so a failure caches none of them.
    """
    cached = a._cache.get("radical")
    if cached is not None:
        return cached
    graded = _guessed_radical(a)
    if graded is not None:
        chain, certified = graded
    elif a.field.characteristic == 0:
        chain, certified = _check_radical(a, span(a.field, a.dim, _radical_char0(a))), None
    else:
        chain, certified = _radical_charp(a), None
    rad = chain[0]
    if certified is None:
        certified = _adopt_basis_candidate(a, rad)
    if certified is not None:
        a._cache["certified_candidate"] = certified
    a._cache["rad_powers"] = chain
    a._cache["radical"] = rad
    return rad


def radical_power(a: Algebra, n: int) -> Subspace:
    """J^n, read off the chain ``radical`` certified; J^n = 0 from the Loewy
    length on."""
    if n < 1:
        raise BadParameter("n must be >= 1")
    radical(a)
    chain = a._cache["rad_powers"]
    return chain[min(n, len(chain)) - 1]


def loewy_length(a: Algebra) -> int:
    """The least n with J^n = 0: the length of the chain ``radical`` certified,
    which ends at its first zero."""
    radical(a)
    return len(a._cache["rad_powers"])


def semisimple_quotient(a: Algebra) -> QuotientData:
    """A/J, memoized; built only by the search and by ``wedderburn_split``."""
    cached = a._cache.get("ss_quotient")
    if cached is None:
        cached = quotient_algebra(a, radical(a))
        a._cache["ss_quotient"] = cached
    return cached


# -- semisimple decomposition -------------------------------------------------


@dataclass
class SemisimpleDecomposition:
    """The Wedderburn data of A/Rad(A), read off the idempotent record."""

    corner_dims: List[int]           # dim ē·(A/J)·ē for each primitive
    components: List[List[int]]      # primitive indices per Wedderburn component
    component_dims: List[int]
    split: bool


def _coprime_pieces_fp(field: Field, minpoly, rng) -> Optional[List[List]]:
    fac = factor_fp(field, minpoly, rng)
    if len(fac) < 2:
        return None
    pieces = []
    for g, e in fac.items():
        piece = [field.one()]
        for _ in range(e):
            piece = poly_mul(field, piece, list(g))
        pieces.append(piece)
    return pieces


def _coprime_pieces_q(field: Field, minpoly) -> Optional[List[List]]:
    """Coprime prime-power pieces of the minimal polynomial, or None when no
    coprime split is visible."""
    roots, cofactor, _ = rational_linear_factors(minpoly)
    pieces = []
    for r, e in roots.items():
        piece = [field.one()]
        for _ in range(e):
            piece = poly_mul(field, piece, [field.neg(r), field.one()])
        pieces.append(piece)
    if degree(cofactor) >= 1:
        pieces.append(monic(field, cofactor))
    return pieces if len(pieces) >= 2 else None


def _poly_invmod(field: Field, f, m):
    """Inverse of f modulo m via extended Euclid."""
    r0, r1 = monic(field, list(m)), poly_mod(field, list(f), m)
    s0, s1 = [], [field.one()]
    while r1:
        q, r2 = poly_divmod(field, r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, trim([
            field.sub(a, b)
            for a, b in itertools.zip_longest(
                s0, poly_mul(field, q, s1), fillvalue=field.zero())
        ])
    if degree(r0) != 0:
        raise ZeroDivisionError("polynomial not invertible modulo m")
    inv_lead = field.inv(r0[0])
    return [field.mul(inv_lead, c) for c in s0]


def _crt_idempotents(b: Algebra, z: Sequence, minpoly, pieces) -> List[Element]:
    field = b.field
    m = minpoly
    out = []
    ze = b.element(z)
    for h in pieces:
        mh, rem = poly_divmod(field, m, h)
        if rem:
            raise InternalInconsistency("CRT piece does not divide the minimal polynomial")
        inv = _poly_invmod(field, mh, h)
        g = poly_mod(field, poly_mul(field, mh, inv), m)
        e = poly_eval_element(b, g, ze)
        if e.is_zero():
            raise InternalInconsistency("CRT idempotent is zero")
        out.append(e)
    return out


def _splitting_candidates(b: Algebra, rng):
    d = b.dim
    for i in range(d):
        yield b._unit_vec(i)
    for i in range(d):
        for j in range(i + 1, d):
            v = list(b._unit_vec(i))
            v[j] = b.field.add(v[j], b.field.one())
            yield tuple(v)
    F = b.field
    if F.is_prime_field:
        for _ in range(RANDOM_SPLIT_TRIES_FP):
            yield tuple(rng.randrange(F.p) for _ in range(d))
    else:
        for _ in range(RANDOM_SPLIT_TRIES_Q):
            yield tuple(rng.randint(-9, 9) for _ in range(d))


def _is_field_fp(b: Algebra) -> bool:
    """Whether a commutative algebra over F_p is a field.

    Frobenius z -> z^p is F_p-linear on b.  It is injective exactly when b is
    reduced, that is a product of fields F_{p^f}, and then its fixed points are
    one copy of F_p per factor (Rónyai, J. Symbolic Comput. 9 (1990)).  So b
    is a field iff rank{b_i^p} = d and rank{b_i^p - b_i} = d - 1; nothing is
    assumed about b's radical.  Both spans grow one image at a time, and the
    test stops at the first image b_i^p that does not raise the first rank or
    the second shifted image b_i^p - b_i that does not raise the second.
    """
    F, d = b.field, b.dim
    images, shifted = echelon_for(F, d), echelon_for(F, d)
    misses = 0
    for i in range(d):
        basis = b._unit_vec(i)
        img = b.power_coords(basis, F.p)
        if not images.insert(img):
            return False
        if not shifted.insert([F.sub(x, y) for x, y in zip(img, basis)]):
            misses += 1
            if misses == 2:
                return False
    return misses == 1


def _primitive_decomposition(b: Algebra, rng) -> List[Tuple[Tuple, int]]:
    """Primitive orthogonal idempotents of a semisimple unital algebra.

    Returns (coordinates, corner dim) pairs; corner dim 1 certifies a split
    primitive, a larger corner is a field F_{p^f} certified by ``_is_field_fp``
    (over F_p a primitive corner is a division ring, hence a field, by
    Wedderburn's little theorem).  Any other piece is split by the minimal
    polynomial of a candidate element.  Raises SplitUndecided when no
    candidate splits a piece: over F_p, a piece that is not a field; over Q,
    a piece whose minimal polynomials admit no rational linear split.
    """
    if b.dim == 1:
        return [(tuple(b.unit), 1)]
    F = b.field
    if F.is_prime_field and b.is_commutative() and _is_field_fp(b):
        return [(tuple(b.unit), b.dim)]
    for z in _splitting_candidates(b, rng):
        mp = minimal_polynomial(b, z)
        if F.is_prime_field:
            pieces = _coprime_pieces_fp(F, mp, rng)
        else:
            pieces = _coprime_pieces_q(F, mp)
        if pieces:
            return _recurse_split(b, z, mp, pieces, rng)
    if F.is_prime_field:
        raise SplitUndecided(f"no candidate, {RANDOM_SPLIT_TRIES_FP} random ones included, "
                             "splits a piece that is not a field")
    raise SplitUndecided("minimal polynomials admit no rational linear split")


def _recurse_split(b: Algebra, z, minpoly, pieces, rng) -> List[Tuple[Tuple, int]]:
    idems = _crt_idempotents(b, z, minpoly, pieces)
    if len(idems) == b.dim:  # each corner is the field, whose split draws no random number
        return [(e.coords, 1) for e in idems]
    out = []
    for e in idems:
        sub, rows = corner_data(b, e)
        prims = _primitive_decomposition(sub, rng)
        lifted = combine(b.field, [coords for coords, _ in prims], rows)
        out += [(x, cdim) for x, (_, cdim) in zip(lifted, prims)]
    return out


def semisimple_decomposition(a: Algebra, seed: int = 0) -> SemisimpleDecomposition:
    """Decomposition data of A/Rad(A), read off the idempotent record.

    The components are the record's classes.  A class of n_i idempotents of
    corner dim f_i is a component M_{n_i}(D_i) with dim D_i = f_i, of dim
    n_i^2·f_i.  A is split when every corner dim is 1, and then the record
    has passed ``_certify_candidate``, which makes A/J the product of the
    M_{n_i}(F).
    """
    record = _idempotent_record(a, seed)
    classes = record.classes
    return SemisimpleDecomposition(
        list(record.corner_dims), [list(c) for c in classes],
        [len(c) ** 2 * record.corner_dims[c[0]] for c in classes], record.grid is not None)


def wedderburn_split(a: Algebra, seed: int = 0) -> Tuple[List[Element], bool]:
    """Central primitive idempotents of A/Rad(A), the images of the record's
    class sums, and the split flag."""
    record = _idempotent_record(a, seed)
    qd = semisimple_quotient(a)
    F = a.field
    sums = [tuple(functools.reduce(F.add, col) for col in zip(*(record.idempotents[k] for k in c)))
            for c in record.classes]
    return [qd.algebra.element(qd.image(e)) for e in sums], record.grid is not None


def ell(a: Algebra, seed: int = 0) -> int:
    """Number of isomorphism classes of simple modules (Wedderburn components)."""
    return len(semisimple_decomposition(a, seed).components)


# -- the idempotent record ------------------------------------------------------


def _idempotent_record(a: Algebra, seed: int) -> _Record:
    """The record per (algebra, seed): the certified basis guess when there
    is one, else the search's, memoized per seed."""
    radical(a)  # adopts a guess from the basis when it passes its certificate
    record = a._cache.get("certified_candidate")
    if record is not None:
        return record
    key = ("idempotent_search", seed)
    record = a._cache.get(key)
    if record is None:
        record = a._cache[key] = _searched_idempotents(a, seed)
    return record


def _searched_idempotents(a: Algebra, seed: int) -> _Record:
    """The record from a seeded split of A/J (``_primitive_decomposition``).

    Each primitive ē of A/J is lifted to an idempotent e of A over it:
    x -> 3x^2 - 2x^3 (the defect squares each pass, so nilpotency of J
    forces convergence), pushed through shrinking corners so that the lifts
    stay pairwise orthogonal.  The lifts are grouped by e_r·A·e_s ⊄ J
    (``_classes``) on one Peirce table, sliced for the certificate.  When every
    corner dim is 1, each other member k of a class with representative r
    gets matrix units: u is the first basis vector of e_r·A·e_k outside J,
    and v = e_k·w·e_r for a w with u·w·e_r = e_r,
    solved over the rows u·b·e_r.  Such a w exists: ū != 0 maps the simple
    ē_k·(A/J) onto ē_r·(A/J), so u·e_k·A + e_r·A·J = e_r·A, and left
    multiplication by u maps e_k·A onto e_r·A by Nakayama; so e_r = u·y with
    y in e_k·A, and w = y.  Then u·v = e_r, and v·u is a nonzero idempotent
    of the local ring e_k·A·e_k, so v·u = e_k.  The set then passes
    ``_certify_candidate``, and a failure raises InternalInconsistency.
    Otherwise A is not split, and the classes must still fill A/J: a class
    of n_i lifts with corner dim f_i is a component M_{n_i}(D_i) of dim
    n_i^2·f_i, so sum n_i^2·f_i = dim A - dim J, or InternalInconsistency.
    """
    qd = semisimple_quotient(a)
    prims = _primitive_decomposition(qd.algebra, random.Random(seed))
    max_iter = max(loewy_length(a), 1).bit_length() + 2
    lifted: List[Tuple] = []
    total = a.zero_element()
    unit = a.unit_element()
    for scoords, _ in prims:
        x = a.element(qd.lift(scoords))
        shrink = unit - total
        x = shrink * x * shrink
        for _ in range(max_iter):
            sq = x * x
            if sq == x:
                break
            x = sq.scale(3) - (sq * x).scale(2)
        else:
            raise InternalInconsistency("idempotent lifting did not converge")
        lifted.append(x.coords)
        total = total + x
    if total != unit:
        raise InternalInconsistency("lifted idempotents do not sum to the unit")
    es = tuple(lifted)
    rad = qd.ideal
    table = _peirce_table(a, es)

    def outside(r: int, s: int) -> Optional[Tuple]:
        """The first basis vector of e_r·A·e_s outside J, or None."""
        return next((x for x in table[r][s].basis_vectors() if not rad.contains(x)), None)

    classes = _classes(len(es), lambda r, s: outside(r, s) is not None)
    corner_dims = tuple(cdim for _, cdim in prims)
    if any(cdim != 1 for cdim in corner_dims):
        found = sum(len(c) ** 2 * corner_dims[c[0]] for c in classes)
        if found != a.dim - rad.dim:
            raise InternalInconsistency(f"dim A - dim J = {a.dim - rad.dim}, but the searched "
                                        f"classes give sum n_i^2 f_i = {found}")
        return _Record(es, classes, corner_dims, None, {})
    units = {}
    for c in classes:
        r = es[c[0]]
        for k in c[1:]:
            u = outside(c[0], k)
            w = None if u is None else solve_in_span(
                a.field, [a.sandwich_coords(u, a._unit_vec(m), r) for m in range(a.dim)], r)
            if w is not None:
                units[k] = (u, a.sandwich_coords(es[k], w, r))
    reps = [c[0] for c in classes]
    return _certify_candidate(a, _Record(es, classes, corner_dims, None, units), rad, "searched",
                              tuple(tuple(table[r][s] for s in reps) for r in reps))


def _classes(m: int, linked) -> Tuple[Tuple[int, ...], ...]:
    """The classes of 0..m-1 under the equivalence generated by the pairs
    r < s with ``linked(r, s)``, each in order, ordered by first member."""
    label = list(range(m))
    for r, s in itertools.combinations(range(m), 2):
        if label[r] != label[s] and linked(r, s):
            old = label[s]
            label = [label[r] if x == old else x for x in label]
    return tuple(sorted(tuple(x for x in range(m) if label[x] == c) for c in set(label)))


@dataclass
class IdempotentSet:
    """Pairwise-orthogonal primitive idempotents with iso-class grouping."""

    idempotents: List[Element]
    iso_classes: List[List[int]]
    basic_representatives: List[int]
    seed: int
    matrix_units: Dict[int, Tuple[Tuple, Tuple]]  # as in _Record

    def __len__(self):
        return len(self.idempotents)


def primitive_idempotents(a: Algebra, seed: int = 0) -> IdempotentSet:
    """A complete set of primitive orthogonal idempotents, grouped by iso
    class, read off the idempotent record; NotSplit unless A is split.

    The record's two sources, each certified by ``_certify_candidate``:

    - guessed from the basis: ``radical`` takes the unit's terms u_i·b_i,
      each a nonzero multiple of a basis vector, when they pass the
      certificate (``_basis_candidate``); on a quiver build these are the
      vertex idempotents, each its own class, in vertex order, and on an
      inflation, or a text copy of one, whose diagonal matrix units are
      multiples of basis vectors, those units, grouped by class;
    - searched: the primitives of a seeded split of A/Rad(A), lifted to A,
      grouped by e_r·A·e_s ⊄ J and given matrix units
      (``_searched_idempotents``, which proves the matrix units exist).
    """
    key = ("idempotents", seed)
    cached = a._cache.get(key)
    if cached is not None:
        return cached
    record = _idempotent_record(a, seed)
    if record.grid is None:
        raise NotSplit("primitive idempotents require a split algebra")
    result = IdempotentSet([Element(a, e, _canonical=True) for e in record.idempotents],
                           [list(c) for c in record.classes],
                           [c[0] for c in record.classes], seed, record.matrix_units)
    a._cache[key] = result
    return result


def _certify_candidate(a: Algebra, record: _Record, rad: Subspace, source: str,
                       grid: Tuple[Tuple[Subspace, ...], ...]) -> _Record:
    """Certify a record's idempotents, classes and matrix units against a
    nilpotent ideal J inside Rad(A), or raise InternalInconsistency; returns
    the record with every corner dim 1 and ``grid`` as its Peirce table.
    ``source`` ("guessed" or "searched") opens each message.  ``grid[i][j]``
    is e_r·A·e_s over the representatives r, s of the i-th and j-th classes,
    which the caller builds from the idempotents: the basis guess reads it off
    its Peirce blocks (``_coordinate_blocks``), the search slices the table it
    spanned (``_peirce_table``).

    The checks: each e is a nonzero idempotent, the set is pairwise
    orthogonal and sums to 1; e_r·A·e_s ⊆ J for representatives r != s; each other member k of a
    class is isomorphic to its representative r through its matrix units
    (u·v = e_r, v·u = e_k); and dim A - dim J = sum n_i^2 over the classes.

    Why that suffices: A/J is the sum of the ē_k·(A/J)·ē_l.  The matrix
    units make each one with k, l in one class isomorphic to its
    representative's ē_r·(A/J)·ē_r, which holds ē_r != 0 (a nilpotent J holds
    no nonzero idempotent), and put each one
    with k, l in different classes inside the image of e_r·A·e_s, which is 0.
    So dim A/J = sum n_i^2·dim ē_r·(A/J)·ē_r >= sum n_i^2, with equality
    exactly when every ē_r·(A/J)·ē_r is the field: then A/J is the product of
    the M_{n_i}(F), semisimple, so J is all of Rad(A), each e_r is a split
    primitive and representatives of different classes are not isomorphic.

    When each idempotent is a nonzero multiple s·b_i of a basis vector,
    orthogonality is read off the index ``Algebra._nz`` (e_x·e_y = 0 exactly
    when the row c_{i_x i_y} is zero) instead of multiplied.
    """
    F = a.field
    es = record.idempotents
    mul = a.multiply_coords
    classes = record.classes
    if sorted(k for c in classes for k in c) != list(range(len(es))) or not all(classes):
        raise InternalInconsistency(f"{source} iso classes do not partition the idempotents")
    total = [F.zero()] * a.dim
    positions = _basis_positions(es)
    for x, e in enumerate(es):
        if not any(e):
            raise InternalInconsistency(f"{source} idempotent {x} is zero")
        if mul(e, e) != e:
            raise InternalInconsistency(f"{source} idempotent {x} is not idempotent")
        if positions is None:
            touching = any(any(mul(e, f)) for y, f in enumerate(es) if y != x)
        else:  # e_x·e_y = s_x s_y·b_i b_j is 0 exactly when the row c_ij is
            row = a._nz[positions[x]]
            touching = any(row[positions[y]] for y in range(len(es)) if y != x)
        if touching:
            raise InternalInconsistency(f"{source} idempotent {x} is not orthogonal to the rest")
        total = [F.add(t, c) for t, c in zip(total, e)]
    if tuple(total) != a.unit:
        raise InternalInconsistency(f"{source} idempotents do not sum to the unit")
    reps = [c[0] for c in classes]
    for i, row in enumerate(grid):
        for j, sub in enumerate(row):
            if j != i and not all(rad.contains(w) for w in sub.basis_vectors()):
                raise InternalInconsistency(
                    f"{source} representatives {reps[i]} and {reps[j]} are isomorphic")
    for c in classes:
        r = es[c[0]]
        for k in c[1:]:
            u, v = record.matrix_units.get(k, (None, None))
            e = es[k]
            if (u is None or a.sandwich_coords(r, u, e) != u or a.sandwich_coords(e, v, r) != v
                    or mul(u, v) != r or mul(v, u) != e):
                raise InternalInconsistency(
                    f"{source} idempotent {k} is not isomorphic to its representative {c[0]}")
    squares = sum(len(c) ** 2 for c in classes)
    if a.dim - rad.dim != squares:
        raise InternalInconsistency(
            f"dim A - dim J = {a.dim - rad.dim}, but the {source} classes give sum n_i^2 = "
            f"{squares}: the radical misses part of Rad(A), or an idempotent is not a split "
            "primitive")
    return record._replace(corner_dims=(1,) * len(es), grid=grid)


def _coordinate_blocks(a: Algebra,
                       es: Sequence[Tuple]) -> Optional[Dict[Tuple[int, int], List[int]]]:
    """The basis vectors of each Peirce block e_r·A·e_s, when the basis is
    adapted to the e's; otherwise None.

    Adapted means: every e_r is a nonzero multiple s_r·b_{i_r} of a basis
    vector, and each b_m has e_r·b_m = b_m = b_m·e_s for some (r, s), read off
    the structure constants with no product: e_r·b_m = s_r·c_{i_r,m,·}, so
    the test is c_{i_r,m,·} = s_r⁻¹·b_m, on the index of nonzero constants
    ``_nz[i_r][m] == ((m, s_r⁻¹),)``.  For pairwise orthogonal idempotents
    summing to 1, A is the direct sum of the e_r·A·e_s, so that (r, s) is
    unique, and the d basis vectors, each inside its block, span every
    block: e_r·A·e_s is the coordinate subspace on its basis vectors.  The
    caller checks orthogonality and the sum.
    """
    positions = _basis_positions(es)
    if positions is None:
        return None
    inverses = [a.field.inv(e[i]) for e, i in zip(es, positions)]
    nz = a._nz
    blocks: Dict[Tuple[int, int], List[int]] = {}
    for m in range(a.dim):
        left = next((r for r, i in enumerate(positions) if nz[i][m] == ((m, inverses[r]),)),
                    None)
        right = next((s for s, i in enumerate(positions) if nz[m][i] == ((m, inverses[s]),)),
                     None)
        if left is None or right is None:
            return None
        blocks.setdefault((left, right), []).append(m)
    return blocks


def _basis_positions(es: Sequence[Tuple]) -> Optional[List[int]]:
    """The index i of each e when every e is a nonzero multiple s·b_i of a
    basis vector; otherwise None."""
    positions = []
    for e in es:
        support = [i for i, c in enumerate(e) if c]
        if len(support) != 1:
            return None
        positions.append(support[0])
    return positions


def _point(a: Algebra, i: int, c) -> Tuple:
    """c·b_i in coordinates."""
    v = [a.field.zero()] * a.dim
    v[i] = c
    return tuple(v)


def _basis_candidate(a: Algebra, rad: Subspace
                     ) -> Optional[Tuple[_Record, Tuple[Tuple[Subspace, ...], ...]]]:
    """Primitive idempotents guessed from the basis, as a record, with the
    representatives' Peirce table read off their blocks; or None.

    The guess: over the support S of the unit 1 = sum_i u_i·b_i, the
    elements e_i = u_i·b_i, each a nonzero multiple of a basis vector.  They
    are pairwise orthogonal idempotents when b_i·b_i = u_i⁻¹·b_i and
    b_i·b_j = 0 for i != j in S, both read off the structure constants
    (``_idempotent_fault``); and every basis vector must lie in one of their
    Peirce blocks (``_coordinate_blocks``).  i ~ j when the block (i, j)
    holds a basis vector outside J; a class's representative is its first
    member.  The guess is dropped unless dim A - dim J = sum n_i^2 over the
    classes, a test that needs no product.  For each other member k of a class with
    representative r, the matrix units are a basis vector u in block (r, k)
    and a multiple of a basis vector v in block (k, r) with u·v = e_r
    (``_basis_matrix_units``).  ``_certify_candidate`` then decides whether
    the guess holds; each block, once the guess is orthogonal and sums to 1,
    is the coordinate subspace on its basis vectors.
    """
    d = a.dim
    one = a.field.one()
    support = [i for i, c in enumerate(a.unit) if c]
    if _idempotent_fault(a, support) is not None:
        return None
    es = [a._unit_vec(i) if a.unit[i] == one else _point(a, i, a.unit[i]) for i in support]
    blocks = _coordinate_blocks(a, es)
    if blocks is None:
        return None
    classes = _classes(len(es), lambda r, s: any(
        not rad.contains(a._unit_vec(m))
        for m in itertools.chain(blocks.get((r, s), ()), blocks.get((s, r), ()))))
    if d - rad.dim != sum(len(c) ** 2 for c in classes):
        return None
    units = {}
    for c in classes:
        for k in c[1:]:
            units[k] = _basis_matrix_units(a, support[c[0]], blocks.get((c[0], k), ()),
                                           blocks.get((k, c[0]), ()))
            if units[k] is None:
                return None
    reps = [c[0] for c in classes]
    grid = tuple(tuple(coordinate_subspace(a.field, d, blocks.get((r, s), ())) for s in reps)
                 for r in reps)
    return _Record(tuple(es), classes, (1,) * len(es), None, units), grid


def _basis_matrix_units(a: Algebra, r: int, left: Sequence[int],
                        right: Sequence[int]) -> Optional[Tuple[Tuple, Tuple]]:
    """(b_u, (u_r / c)·b_v) for the first basis vectors u in ``left`` and v in
    ``right`` with b_u·b_v = c·b_r, c != 0, where u_r is the unit's
    coefficient on b_r, so that their product is e_r = u_r·b_r; or None."""
    nz = a._nz
    for u in left:
        for v in right:
            pairs = nz[u][v]
            if len(pairs) == 1 and pairs[0][0] == r:
                return a._unit_vec(u), _point(a, v, a.field.div(a.unit[r], pairs[0][1]))
    return None


def _adopt_basis_candidate(a: Algebra, rad: Subspace) -> Optional[_Record]:
    """The certified record of the basis guess when ``_certify_candidate``
    accepts it; None, which leaves A to the search, for a guess that is
    dropped or fails."""
    guess = _basis_candidate(a, rad)
    if guess is None:
        return None
    record, grid = guess
    try:
        return _certify_candidate(a, record, rad, "guessed", grid)
    except InternalInconsistency:
        return None


# -- the Peirce table and Cartan data -------------------------------------------


def peirce_component(a: Algebra, e: Element, f: Element) -> Subspace:
    """The Peirce component e·A·f of any two elements."""
    return peirce_rows(a, e.coords, f.coords)


def _peirce_table(a: Algebra, es: Sequence[Tuple]) -> Tuple[Tuple[Subspace, ...], ...]:
    """table[r][s] = e_r·A·e_s as the span of e_r·x over a basis x of A·e_s,
    spanned once per s: l·d + l·sum_s dim A·e_s products, not 2·l^2·d."""
    F, d = a.field, a.dim
    right = [span(F, d, [a.multiply_coords(a._unit_vec(j), f) for j in range(d)]) for f in es]
    return tuple(tuple(span(F, d, [a.multiply_coords(e, x) for x in r.basis.entries])
                       for r in right) for e in es)


def peirce_grid(a: Algebra, seed: int = 0) -> Tuple[Tuple[Subspace, ...], ...]:
    """grid[i][j] = e_i·A·e_j over the basic representatives e_1..e_l of
    ``primitive_idempotents(a, seed)``: the table their certificate returned."""
    primitive_idempotents(a, seed)  # NotSplit unless A is split
    return _idempotent_record(a, seed).grid


def peirce_radical_diagonal(a: Algebra, n: int, seed: int = 0) -> Tuple[Subspace, ...]:
    """diag[i] = e_i·J^n·e_i over the basic representatives, as
    J^n ∩ e_i·A·e_i (Lam, *A First Course in Noncommutative Rings*, §21)
    with e_i·A·e_i read from ``peirce_grid``; memoized per (n, seed).  When
    J^n and the block are both coordinate subspaces, as on a graded algebra
    whose record is read off the basis, that is the positions they share."""
    key = ("peirce_radical_diagonal", n, seed)
    diag = a._cache.get(key)
    if diag is None:
        jn = radical_power(a, n)
        diag = tuple(subspace_intersect(jn, row[i]) for i, row in enumerate(peirce_grid(a, seed)))
        a._cache[key] = diag
    return diag


def cartan_matrix(a: Algebra, seed: int = 0) -> List[List[int]]:
    """C[i][j] = dim e_i A e_j over basic representatives, read from the
    memoized ``peirce_grid``."""
    return [[sub.dim for sub in row] for row in peirce_grid(a, seed)]


def ext1_diagonal(a: Algebra, seed: int = 0) -> List[int]:
    """dim e_i (J/J^2) e_i per iso class (the Ext^1(S_i, S_i) dimensions),
    read from the memoized ``peirce_radical_diagonal`` at levels 1 and 2."""
    j1, j2 = peirce_radical_diagonal(a, 1, seed), peirce_radical_diagonal(a, 2, seed)
    return [x.dim - y.dim for x, y in zip(j1, j2)]

