"""Basic algebras, fullness witnesses, the induced coset maps, and
progenerator inflation.

The invariance certificate is computed per instance: for a full idempotent e
with 1 = sum u_k e v_k, the map a + K(A) -> sum e v_k a u_k e + K(B) on cosets
is checked to be well defined and bijective, and to carry each K_n(A)/K(A)
onto K_n(B)/K(B).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .algebras import Algebra, Element, corner_data
from .errors import BadParameter, InternalInconsistency, NotBasic, NotFull, ParentMismatch
from .invariants import commutator_subspace, k_n_space, k_of
from .linalg import Matrix, echelon_for, kernel, solve_in_span, span
from .structure import (
    loewy_length,
    peirce_grid,
    primitive_idempotents,
    radical_power,
)


def basic_idempotent(a: Algebra, seed: int = 0) -> Element:
    """Sum of one primitive idempotent per iso class."""
    idems = primitive_idempotents(a, seed)
    e = a.zero_element()
    for r in idems.basic_representatives:
        e = e + idems.idempotents[r]
    return e


def basic_algebra_data(a: Algebra, seed: int = 0) -> Tuple[Algebra, Element, List[Tuple]]:
    """(B, e, rows): the basic corner B = eAe, cached per seed so every caller
    shares one B and everything cached on it."""
    key = ("basic", seed)
    cached = a._cache.get(key)
    if cached is None:
        e = basic_idempotent(a, seed)
        alg, rows = corner_data(a, e)
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


def fullness_witness(a: Algebra, e: Element) -> FullnessWitness:
    """Solve 1 = sum c_(i,j) b_i e b_j; NotFull when span{b_i e b_j} != A."""
    if e.algebra is not a:
        raise ParentMismatch("idempotent from another algebra")
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
    pairs = []
    for c, (i, j) in zip(coeffs, index):
        if c:
            pairs.append((a.basis_element(i).scale(c), a.basis_element(j)))
    witness = FullnessWitness(e, pairs)
    if not witness.verify():
        raise InternalInconsistency("fullness witness does not sum to the unit")
    return witness


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


def tau_map(a: Algebra, e: Element, witness: FullnessWitness,
            b: Optional[Algebra] = None, rows: Optional[List[Tuple]] = None) -> TauMap:
    """Matrix of a + K(A) -> sum_k e v_k a u_k e + K(B) on coset bases."""
    if b is None or rows is None:
        b, rows = corner_data(a, e)
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
        red = kb.reduce(coords)
        return tuple(red[i] for i in b_pos)

    well_defined = True
    for v in ka.basis_vectors():
        if any(tau_of(v)):
            well_defined = False
            break
    cols = []
    for pos in a_pos:
        cols.append(tau_of(a._unit_vec(pos)))
    mat = Matrix(F, len(b_pos), len(a_pos),
                 tuple(tuple(cols[j][i] for j in range(len(a_pos)))
                       for i in range(len(b_pos))))
    bijective = (len(a_pos) == len(b_pos)
                 and kernel(mat).dim == 0)
    return TauMap(mat, a_pos, b_pos, well_defined, bijective)


def verify_morita_invariance(a: Algebra, seed: int = 0) -> MoritaReport:
    """Run all coset-isomorphism checks between A and its basic algebra."""
    b, e, rows = basic_algebra_data(a, seed)
    witness = fullness_witness(a, e)
    tau = tau_map(a, e, witness, b, rows)
    ka = commutator_subspace(a)
    kb = commutator_subspace(b)
    lla, llb = loewy_length(a), loewy_length(b)
    top = max(lla, llb)
    dims_a = [a.dim - k_n_space(a, n).dim for n in range(1, top + 1)]
    dims_b = [b.dim - k_n_space(b, n).dim for n in range(1, top + 1)]
    F = a.field

    def a_coset(vec) -> Tuple:
        red = ka.reduce(vec)
        return tuple(red[i] for i in tau.a_positions)

    def b_coset(vec) -> Tuple:
        red = kb.reduce(vec)
        return tuple(red[i] for i in tau.b_positions)

    level_match = []
    for n in range(1, top + 1):
        img_rows = [tau.matrix.apply(a_coset(v))
                    for v in radical_power(a, n).basis_vectors()]
        img = span(F, len(tau.b_positions), img_rows)
        tgt = span(F, len(tau.b_positions),
                   [b_coset(v) for v in radical_power(b, n).basis_vectors()])
        level_match.append(img == tgt)

    # sigma: b + K(B) -> b + K(A), where B's basis vector pos is rows[pos] in A;
    # check both composites are identities
    sigma_cols = [a_coset(rows[pos]) for pos in tau.b_positions]
    m = len(tau.b_positions)
    sigma = Matrix(F, len(tau.a_positions), m,
                   tuple(tuple(sigma_cols[j][i] for j in range(m))
                         for i in range(len(tau.a_positions))))
    ts = tau.matrix.matmul(sigma)
    st = sigma.matmul(tau.matrix)
    ident_b = Matrix.identity(F, m)
    ident_a = Matrix.identity(F, len(tau.a_positions))
    sigma_inverse = (ts == ident_b and st == ident_a)
    return MoritaReport(b.dim, k_of(a), k_of(b), tau.well_defined, tau.bijective,
                        dims_a, dims_b, level_match, sigma_inverse)


# -- progenerator inflation ---------------------------------------------------


def inflate(a: Algebra, multiplicities: Sequence[int], seed: int = 0) -> Algebra:
    """Blown-up Morita-equivalent algebra: block matrices over the Peirce grid.

    For a basic algebra with primitive idempotents e_1..e_l, the result is the
    endomorphism algebra of the projective generator with the given
    multiplicities: basis elements are (class i, copy r, class j, copy s, w)
    with w running over a basis of e_i A e_j (read from ``peirce_grid``),
    multiplied like matrix units with entry composition in A.
    """
    idems = primitive_idempotents(a, seed)
    l = len(idems.iso_classes)
    if len(idems.idempotents) != l:
        raise NotBasic("inflation requires a basic algebra")
    if len(multiplicities) != l:
        raise BadParameter(f"need {l} multiplicities, got {len(multiplicities)}")
    if any(m < 1 for m in multiplicities):
        raise BadParameter("multiplicities must be positive")
    F = a.field
    es = [idems.idempotents[r] for r in idems.basic_representatives]
    peirce = peirce_grid(a, seed)
    basis = []
    for i in range(l):
        for r in range(multiplicities[i]):
            for j in range(l):
                for s in range(multiplicities[j]):
                    for w in range(peirce[i][j].dim):
                        basis.append((i, r, j, s, w))
    index = {b: k for k, b in enumerate(basis)}
    dim = len(basis)
    z = F.zero()
    mul = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
    for p1, (i, r, j, s, w1) in enumerate(basis):
        w1v = peirce[i][j].basis_vectors()[w1]
        for p2, (j2, s2, t, u, w2) in enumerate(basis):
            if j2 != j or s2 != s:
                continue
            w2v = peirce[j][t].basis_vectors()[w2]
            prod = a.multiply_coords(w1v, w2v)
            coords = peirce[i][t].coords_of(prod)
            if coords is None:
                raise InternalInconsistency("Peirce components not multiplicatively closed")
            row = mul[p1][p2]
            for widx, c in enumerate(coords):
                if c:
                    row[index[(i, r, t, u, widx)]] = c
    unit = [z] * dim
    for i in range(l):
        ecoords = peirce[i][i].coords_of(es[i].coords)
        if ecoords is None:
            raise InternalInconsistency("idempotent lies outside its own Peirce component")
        for r in range(multiplicities[i]):
            for widx, c in enumerate(ecoords):
                if c:
                    unit[index[(i, r, i, r, widx)]] = c
    return Algebra(F, mul, unit, _canonical=True)


def inflation_dim(a: Algebra, multiplicities: Sequence[int], seed: int = 0) -> int:
    """Dimension the inflation will have, without building it."""
    return sum(multiplicities[i] * multiplicities[j] * sub.dim
               for i, row in enumerate(peirce_grid(a, seed)) for j, sub in enumerate(row))
