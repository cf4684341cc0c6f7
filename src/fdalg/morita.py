"""Basic algebras, fullness witnesses, the induced coset maps, and
progenerator inflation.  An inflation is handed only its tensor and unit;
``structure.radical`` finds its radical and primitive idempotents as on any
other algebra, by the grading and basis guesses when they certify and by
the computed routes otherwise.

The invariance certificate is computed per instance: for a full idempotent e
with 1 = sum u_k e v_k, the map a + K(A) -> sum e v_k a u_k e + K(B) on cosets
is checked to be well defined and bijective, and to carry each K_n(A)/K(A)
onto K_n(B)/K(B).  The witness is (1, 1) for e = 1, the certified matrix
units of the idempotent record for the basic idempotent (Lam, *A First
Course in Noncommutative Rings*, §21), and solved for any other e.  When A
is its own basic algebra (e = 1), every one of these maps is the identity:
the witness is still verified and 1 is certified a two-sided unit, but no
map is built, and the report is read off the memoized series K_n(A).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .algebras import Algebra, Element, corner_data
from .errors import BadParameter, InternalInconsistency, NotBasic, NotFull, ParentMismatch
from .invariants import commutator_subspace, k_n_space, k_of
from .linalg import Matrix, echelon_for, kernel, solve_in_span, span
from .structure import loewy_length, peirce_grid, primitive_idempotents, radical_power


def basic_idempotent(a: Algebra, seed: int = 0) -> Element:
    """Sum of one primitive idempotent per iso class."""
    idems = primitive_idempotents(a, seed)
    e = a.zero_element()
    for r in idems.basic_representatives:
        e = e + idems.idempotents[r]
    return e


def basic_algebra_data(a: Algebra, seed: int = 0) -> Tuple[Algebra, Element, List[Tuple]]:
    """(B, e, rows): the basic corner B = eAe, cached per seed so every caller
    shares one B and everything cached on it.

    When A is already basic, e = 1 and the corner would be a copy of A's
    tensor on the same basis, so B is A itself, with the standard basis rows
    (and ``fullness_witness`` takes the pair (1, 1) for e = 1).  Otherwise eAe
    is spanned by the blocks e_r·A·e_s of the record's Peirce table, with no product.
    """
    key = ("basic", seed)
    cached = a._cache.get(key)
    if cached is None:
        e = basic_idempotent(a, seed)
        if e.coords == a.unit:
            cached = (a, e, [a._unit_vec(i) for i in range(a.dim)])
        else:
            blocks = [w for row in peirce_grid(a, seed) for sub in row for w in sub.basis_vectors()]
            alg, rows = corner_data(a, e, span(a.field, a.dim, blocks))
            cached = (alg, e, rows)
        a._cache[key] = cached
    return cached


def basic_algebra(a: Algebra, seed: int = 0) -> Algebra:
    return basic_algebra_data(a, seed)[0]


@dataclass
class FullnessWitness:
    """Pairs (u_k, v_k) with sum u_k e v_k = 1."""

    e: Element
    pairs: List[Tuple[Element, Element]]

    def verify(self) -> bool:
        a = self.e.algebra
        acc = a.zero_element()
        for u, v in self.pairs:
            acc = acc + u * self.e * v
        return acc == a.unit_element()


def fullness_witness(a: Algebra, e: Element, seed: int = 0) -> FullnessWitness:
    """Pairs (u_k, v_k) with 1 = sum u_k e v_k; NotFull when there are none.

    For e = 1 the pair is (1, 1).  For the basic idempotent of this seed
    (``basic_algebra_data``), e = sum_r e_r over the record's class
    representatives, the pairs are (e_r, e_r) and, for each other member k,
    (v_k, u_k) from its matrix units, as v_k·e·u_k = v_k·u_k = e_k.
    Otherwise 1 = sum c_(i,j) b_i e b_j is solved over the products that
    raise the rank.  Each witness is verified, and one that does not sum to
    1 raises InternalInconsistency.  The coset map ``tau_map`` does not
    depend on which witness is taken.
    """
    if e.algebra is not a:
        raise ParentMismatch("idempotent from another algebra")
    basic = a._cache.get(("basic", seed))
    if e.coords == a.unit:
        pairs = [(e, e)]
    elif basic is not None and basic[1] == e:
        idems = primitive_idempotents(a, seed)
        pairs = [(idems.idempotents[c[0]],) * 2 for c in idems.iso_classes]
        pairs += [(Element(a, v, _canonical=True), Element(a, u, _canonical=True))
                  for c in idems.iso_classes for u, v in (idems.matrix_units[k] for k in c[1:])]
    else:
        pairs = _solved_pairs(a, e)
    witness = FullnessWitness(e, pairs)
    if not witness.verify():
        raise InternalInconsistency("fullness witness does not sum to the unit")
    return witness


def _solved_pairs(a: Algebra, e: Element) -> List[Tuple[Element, Element]]:
    d = a.dim
    rows = []  # the products that raised the rank: a basis of their span
    index = []
    acc = echelon_for(a.field, d)
    for i in range(d):
        bie = a.multiply_coords(a._unit_vec(i), e.coords)
        for j in range(d):
            prod = a.multiply_coords(bie, a._unit_vec(j))
            if acc.insert(prod):
                rows.append(prod)
                index.append((i, j))
        if acc.rank == d:
            break  # generators span everything; later pairs are redundant
    coeffs = solve_in_span(a.field, rows, a.unit)
    if coeffs is None:
        raise NotFull("span{b_i e b_j} does not contain 1; the idempotent is not full")
    return [(a.basis_element(i).scale(c), a.basis_element(j))
            for c, (i, j) in zip(coeffs, index) if c]


@dataclass
class TauMap:
    """Coset-level map A/K(A) -> B/K(B) induced by a fullness witness."""

    matrix: Matrix                 # columns indexed by A-coset basis, rows by B-coset basis
    a_positions: Tuple[int, ...]   # complement coordinates of K(A) in A
    b_positions: Tuple[int, ...]   # complement coordinates of K(B) in B
    well_defined: bool
    bijective: bool


@dataclass
class MoritaReport:
    """Per-instance verification of the coset isomorphisms A/K_n -> B/K_n."""

    basic_dim: int
    k_a: int
    k_b: int
    tau_well_defined: bool
    tau_bijective: bool
    dims_a: List[int]              # dim A/K_n(A), n = 1..max LL
    dims_b: List[int]
    level_maps_match: List[bool]   # tau(K_n(A)/K) == K_n(B)/K per level
    sigma_inverse: bool

    @property
    def ok(self) -> bool:
        return (self.tau_well_defined and self.tau_bijective
                and self.dims_a == self.dims_b and all(self.level_maps_match)
                and self.sigma_inverse)


def tau_map(a: Algebra, e: Element, witness: FullnessWitness, b: Algebra,
            rows: List[Tuple]) -> TauMap:
    """Matrix of a + K(A) -> sum_k e v_k a u_k e + K(B) on coset bases, for
    the corner B = eAe with basis ``rows`` in A-coordinates."""
    F = a.field
    ka = commutator_subspace(a)
    kb = commutator_subspace(b)
    a_pos = ka.complement_positions()
    b_pos = kb.complement_positions()
    sub = span(F, a.dim, rows)

    # the coset map is induced by the linear map x -> sum_k (e v_k) x (u_k e)
    sides = [(a.multiply_coords(e.coords, v.coords), a.multiply_coords(u.coords, e.coords))
             for u, v in witness.pairs]

    def raw_tau(vec) -> Tuple:
        acc = [F.zero()] * a.dim
        for ev, ue in sides:
            term = a.sandwich_coords(ev, vec, ue)
            for i, x in enumerate(term):
                if x:
                    acc[i] = F.add(acc[i], x)
        return tuple(acc)

    def tau_of(vec) -> Tuple:
        coords = sub.coords_of(raw_tau(vec))
        if coords is None:
            raise InternalInconsistency("image left the corner subalgebra")
        return kb.coset_coords(coords)

    well_defined = True
    for v in ka.basis_vectors():
        if any(tau_of(v)):
            well_defined = False
            break
    cols = tuple(tau_of(a._unit_vec(pos)) for pos in a_pos)
    mat = Matrix(F, len(a_pos), len(b_pos), cols).transpose()
    bijective = (len(a_pos) == len(b_pos)
                 and kernel(mat).dim == 0)
    return TauMap(mat, a_pos, b_pos, well_defined, bijective)


def verify_morita_invariance(a: Algebra, seed: int = 0) -> MoritaReport:
    """Run all coset-isomorphism checks between A and its basic algebra.

    The fullness witness is built and verified on every route.  When A is
    basic (``basic_algebra_data`` returns B = A, e = 1), the progenerator
    is A itself, so tau, sigma and every level map are the identity once 1
    is a two-sided unit (Anderson and Fuller, *Rings and Categories of
    Modules*, GTM 13, ch. 6).  That premise is certified by
    ``Algebra._unit_failures``, and the report is read off the memoized
    series K_n(A), with no coset map built.  Any other A goes through
    ``_coset_report``.
    """
    b, e, rows = basic_algebra_data(a, seed)
    witness = fullness_witness(a, e, seed)
    if b is not a:
        return _coset_report(a, b, e, rows, witness)
    failures = a._unit_failures(a.field.characteristic)
    if failures:
        raise InternalInconsistency(f"the unit is not two-sided at basis vector {failures[0]}")
    dims = [a.dim - k_n_space(a, n).dim for n in range(1, loewy_length(a) + 1)]
    k = k_of(a)
    return MoritaReport(a.dim, k, k, True, True, dims, list(dims), [True] * len(dims), True)


def _coset_report(a: Algebra, b: Algebra, e: Element, rows: List[Tuple],
                  witness: FullnessWitness) -> MoritaReport:
    """The report from the coset map tau of ``witness``, for the corner
    B = eAe with basis ``rows`` in A-coordinates: tau well defined and
    bijective, tau(K_n(A)/K(A)) = K_n(B)/K(B) at every level, and sigma,
    b + K(B) -> b + K(A), inverse to tau on both sides."""
    tau = tau_map(a, e, witness, b, rows)
    ka = commutator_subspace(a)
    kb = commutator_subspace(b)
    lla, llb = loewy_length(a), loewy_length(b)
    top = max(lla, llb)
    dims_a = [a.dim - k_n_space(a, n).dim for n in range(1, top + 1)]
    dims_b = [b.dim - k_n_space(b, n).dim for n in range(1, top + 1)]
    F = a.field
    level_match = []
    for n in range(1, top + 1):
        img_rows = [tau.matrix.apply(ka.coset_coords(v))
                    for v in radical_power(a, n).basis_vectors()]
        img = span(F, len(tau.b_positions), img_rows)
        tgt = span(F, len(tau.b_positions),
                   [kb.coset_coords(v) for v in radical_power(b, n).basis_vectors()])
        level_match.append(img == tgt)

    # sigma: b + K(B) -> b + K(A), where B's basis vector pos is rows[pos] in A;
    # check both composites are identities
    m = len(tau.b_positions)
    sigma = Matrix(F, m, len(tau.a_positions),
                   tuple(ka.coset_coords(rows[pos]) for pos in tau.b_positions)).transpose()
    ts = tau.matrix.matmul(sigma)
    st = sigma.matmul(tau.matrix)
    ident_b = Matrix.identity(F, m)
    ident_a = Matrix.identity(F, len(tau.a_positions))
    sigma_inverse = (ts == ident_b and st == ident_a)
    return MoritaReport(b.dim, k_of(a), k_of(b), tau.well_defined, tau.bijective,
                        dims_a, dims_b, level_match, sigma_inverse)


# -- progenerator inflation ---------------------------------------------------


def _inflation_classes(a: Algebra, multiplicities: Sequence[int], seed: int) -> int:
    """The number l of iso classes, once A is known basic and the vector fits."""
    idems = primitive_idempotents(a, seed)
    l = len(idems.iso_classes)
    if len(idems.idempotents) != l:
        raise NotBasic("inflation requires a basic algebra")
    if len(multiplicities) != l:
        raise BadParameter(f"need {l} multiplicities, got {len(multiplicities)}")
    if any(m < 1 for m in multiplicities):
        raise BadParameter("multiplicities must be positive")
    return l


def inflate(a: Algebra, multiplicities: Sequence[int], seed: int = 0) -> Algebra:
    """Blown-up Morita-equivalent algebra: block matrices over the Peirce grid.

    For a basic algebra with primitive idempotents e_1..e_l, the result B is
    the endomorphism algebra of the projective generator with the given
    multiplicities: basis elements are (class i, copy r, class j, copy s, w)
    with w running over a basis of e_i A e_j (read from ``peirce_grid``),
    multiplied like matrix units with entry composition in A.  Each product
    of Peirce basis vectors is taken once and copied into every block.

    B is given its tensor and its unit, the sum of the diagonal units
    ε_(i,r), e_i in block (i, r, i, r), and nothing else: ``structure.radical``
    certifies its radical and primitive idempotents as on any other algebra.
    When each e_i is a multiple of a basis vector of e_i·A·e_i, the ε_(i,r)
    are multiples of basis vectors of B, which the basis guess takes;
    otherwise they are searched for.
    """
    l = _inflation_classes(a, multiplicities, seed)
    idems = primitive_idempotents(a, seed)
    es = [idems.idempotents[r] for r in idems.basic_representatives]
    F = a.field
    z = F.zero()
    peirce = peirce_grid(a, seed)
    vecs = [[sub.basis_vectors() for sub in row] for row in peirce]
    copies = [(i, r) for i in range(l) for r in range(multiplicities[i])]
    offset = {}  # first basis index of block (i, r, j, s); the basis runs block by block
    dim = 0
    for i, r in copies:
        for j, s in copies:
            offset[(i, r, j, s)] = dim
            dim += peirce[i][j].dim
    mul = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    m = multiplicities
    for i, j, t in itertools.product(range(l), repeat=3):
        for (w1, x), (w2, y) in itertools.product(enumerate(vecs[i][j]), enumerate(vecs[j][t])):
            coords = peirce[i][t].coords_of(a.multiply_coords(x, y))
            if coords is None:
                raise InternalInconsistency("Peirce components not multiplicatively closed")
            nz = [(widx, c) for widx, c in enumerate(coords) if c]
            if not nz:
                continue
            for r, s, u in itertools.product(range(m[i]), range(m[j]), range(m[t])):
                row = mul[offset[(i, r, j, s)] + w1][offset[(j, s, t, u)] + w2]
                base = offset[(i, r, t, u)]
                for widx, c in nz:
                    row[base + widx] = c

    unit = [z] * dim  # the sum of the ε_(i,r), whose blocks are disjoint
    for i, e in enumerate(es):
        c = peirce[i][i].coords_of(e.coords)
        if c is None:
            raise InternalInconsistency("idempotent lies outside its own Peirce component")
        for r in range(m[i]):
            start = offset[(i, r, i, r)]
            unit[start:start + len(c)] = c
    return Algebra(F, mul, unit, _canonical=True)


def inflation_dim(a: Algebra, multiplicities: Sequence[int], seed: int = 0) -> int:
    """Dimension the inflation will have, without building it; rejects the
    same inputs as ``inflate``."""
    _inflation_classes(a, multiplicities, seed)
    return sum(multiplicities[i] * multiplicities[j] * sub.dim
               for i, row in enumerate(peirce_grid(a, seed)) for j, sub in enumerate(row))
