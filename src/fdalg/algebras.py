"""Structure-constant model of a finite-dimensional unital associative algebra.

An ``Algebra`` owns a dense tensor c[i][j][k] with b_i · b_j = sum_k c[i][j][k] b_k,
a distinguished unit vector, and a ``kind`` ("generic", "quiver" or "group")
that reports print as its provenance.  Elements are coordinate
vectors tied to their parent algebra by identity, so cross-algebra arithmetic
fails loudly rather than silently mixing tensors.

A construction hands ``Algebra(...)`` nothing else: no grading, radical or
idempotents.  ``structure.radical`` finds the radical by one of three
routes (a grading guessed from the structure constants, the char-0 trace
form, the char-p power-trace stages) and the primitive idempotents from two
sources (a guess from the basis, the split search), and certifies each.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import _numutil
from .errors import (
    AmbientMismatch,
    BadParameter,
    InternalInconsistency,
    NotAGroup,
    NotIdempotent,
    ParentMismatch,
    TooLarge,
)
from .fields import Field
from .linalg import Matrix, Subspace, span
from . import linalg

# The most terms the associativity sweep may visit: its worst case at
# dimension 64, d^2 + 2·d^5, so every tensor of dimension <= 64 is checked.
VALIDATE_TERM_BOUND = 64 ** 2 + 2 * 64 ** 5


@dataclass
class ValidationReport:
    ok: bool
    associativity_failures: List[Tuple[int, int, int]]
    unit_failures: List[int]

    def __bool__(self):
        return self.ok


def _any_nonzero(values, p: int) -> bool:
    """Whether an unreduced value is nonzero: mod p over F_p, exactly over Q
    (``p`` is 0)."""
    return any(v % p if p else v for v in values)


class Element:
    """A coordinate vector over a named parent algebra.

    The public constructor coerces every coordinate with ``Field.coerce`` to
    the canonical scalar: a residue over F_p, and over Q an int when integral,
    else a Fraction.  Arithmetic results, basis, unit and zero elements
    already hold canonical scalars and pass ``_canonical=True``.
    """

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: "Algebra", coords: Sequence, *, _canonical: bool = False):
        if len(coords) != algebra.dim:
            raise AmbientMismatch(f"coordinate length {len(coords)} vs dim {algebra.dim}")
        self.algebra = algebra
        if _canonical:
            self.coords = tuple(coords)
        else:
            self.coords = tuple(algebra.field.coerce(x) for x in coords)

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise ParentMismatch("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        F = self.algebra.field
        return Element(self.algebra, tuple(F.add(a, b) for a, b in zip(self.coords, other.coords)),
                       _canonical=True)

    def __sub__(self, other):
        self._check(other)
        F = self.algebra.field
        return Element(self.algebra, tuple(F.sub(a, b) for a, b in zip(self.coords, other.coords)),
                       _canonical=True)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __neg__(self):
        F = self.algebra.field
        return Element(self.algebra, tuple(F.neg(a) for a in self.coords), _canonical=True)

    def scale(self, scalar):
        F = self.algebra.field
        s = F.coerce(scalar)
        return Element(self.algebra, tuple(F.mul(s, a) for a in self.coords), _canonical=True)

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.algebra), self.coords))

    def __repr__(self):
        fmt = self.algebra.field.format_scalar
        return "Element(" + ", ".join(fmt(c) for c in self.coords) + ")"


class Algebra:
    """Finite-dimensional unital associative algebra over F_p or Q.

    The public constructor coerces every scalar with ``Field.coerce``, so
    outside data may hold ints, Fractions or scalar strings; over Q the
    canonical scalar is an int when integral, else a Fraction.  The package's
    own builders (matrix_algebra, direct_sum, corner_data, the group,
    quotient, inflation, quiver and corpus constructions, parse_algebra_text)
    make canonical scalars and pass ``_canonical=True``: shape checks only.

    ``_nz``, built on first use and memoized, indexes the nonzero structure
    constants: ``_nz[i][j]`` is the tuple of pairs (k, c_ijk) with c_ijk != 0.
    The whole-tensor sweeps read it, not the d^3 tensor: ``validate``,
    ``center``, ``invariants.commutator_subspace``, and in ``structure`` the
    grading guess, its homogeneity check, the orthogonality tests and the
    two-sided ideal test.
    ``multiply_coords`` reads the dense rows.
    """

    def __init__(self, field: Field, mul, unit, kind: str = "generic", *,
                 _canonical: bool = False):
        d = len(mul)
        if d == 0:
            raise BadParameter("dimension must be positive")
        self.field = field
        self.dim = d
        if _canonical:
            self.mul = tuple(tuple(map(tuple, plane)) for plane in mul)
            self.unit = tuple(unit)
        else:
            co = field.coerce
            self.mul = tuple(tuple(tuple(co(x) for x in row) for row in plane) for plane in mul)
            self.unit = tuple(co(x) for x in unit)
        for plane in self.mul:
            if len(plane) != d or any(len(row) != d for row in plane):
                raise BadParameter("structure tensor is not d x d x d")
        if len(self.unit) != d:
            raise BadParameter("unit vector length mismatch")
        self.kind = kind
        self._cache: dict = {}

    # -- fast-path plumbing ------------------------------------------------

    @property
    def _np_tensor(self):
        t = self._cache.get("np_tensor")
        if t is None:
            t = _numutil.tensor_from_mul(self.mul, self.field.p)
            self._cache["np_tensor"] = t
        return t

    @property
    def _nz(self) -> Tuple[Tuple[Tuple[Tuple[int, object], ...], ...], ...]:
        """The nonzero structure constants: ``_nz[i][j]`` holds the pairs
        (k, c_ijk) with c_ijk != 0 in order of k, and is () for a zero row."""
        nz = self._cache.get("nz")
        if nz is None:
            nz = tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c) if any(row) else ()
                             for row in plane) for plane in self.mul)
            self._cache["nz"] = nz
        return nz

    # -- elements ------------------------------------------------------------

    def element(self, coords) -> Element:
        return Element(self, coords)

    def basis_element(self, i: int) -> Element:
        z = self.field.zero()
        coords = [z] * self.dim
        coords[i] = self.field.one()
        return Element(self, coords, _canonical=True)

    def unit_element(self) -> Element:
        return Element(self, self.unit, _canonical=True)

    def zero_element(self) -> Element:
        return Element(self, [self.field.zero()] * self.dim, _canonical=True)

    def basis(self) -> List[Element]:
        return [self.basis_element(i) for i in range(self.dim)]

    # -- multiplication -------------------------------------------------------

    def multiply_coords(self, x: Sequence, y: Sequence) -> Tuple:
        """x·y in coordinates, reading only the rows c_ij with x_i y_j != 0."""
        F = self.field
        out = [F.zero()] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            plane = self.mul[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = F.mul(xi, yj)
                row = plane[j]
                for k, ck in enumerate(row):
                    if ck:
                        out[k] = F.add(out[k], F.mul(c, ck))
        return tuple(out)

    def multiply(self, x: Element, y: Element) -> Element:
        if x.algebra is not self or y.algebra is not self:
            raise ParentMismatch("elements do not belong to this algebra")
        return Element(self, self.multiply_coords(x.coords, y.coords), _canonical=True)

    def sandwich_coords(self, l: Sequence, x: Sequence, r: Sequence) -> Tuple:
        """l·x·r in coordinates, as two products."""
        return self.multiply_coords(self.multiply_coords(l, x), r)

    def power_coords(self, x: Sequence, e: int) -> Tuple:
        """x^e in coordinates, by square-and-multiply.  The product starts
        from x^(2^k) at the lowest set bit k of e rather than from 1·x, and
        no square follows the last bit, so x^p costs 1, 2 and 3 products
        for p = 2, 3 and 5."""
        if not e:
            return tuple(self.unit)
        base = tuple(x)
        while not e & 1:
            base = self.multiply_coords(base, base)
            e >>= 1
        acc = base
        e >>= 1
        while e:
            base = self.multiply_coords(base, base)
            if e & 1:
                acc = self.multiply_coords(acc, base)
            e >>= 1
        return acc

    # -- validation -------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check associativity and the two-sided unit on every basis triple.

        Both checks read the index ``_nz`` and visit only the terms that
        compose.  The associativity sweep costs d^2 steps over (i, j) plus
        sum over m of col_m·(R_m + C_m) terms, where col_m counts the (i, j)
        with c_ijm != 0, R_m = sum_k |nz(b_m b_k)| and C_m = sum_i
        |nz(b_i b_m)|; so a sparse tensor costs far less than its d^3
        triples.  When that count exceeds ``VALIDATE_TERM_BOUND`` (possible
        only above dimension 64) the check raises TooLarge before it starts.
        The unit check costs the nonzero constants of the unit's support.
        The report is cached on the algebra.
        """
        cached = self._cache.get("validation")
        if cached is None:
            d = self.dim
            if d * d + 2 * d ** 5 > VALIDATE_TERM_BOUND:
                terms = self._assoc_terms()
                if terms > VALIDATE_TERM_BOUND:
                    raise TooLarge(f"associativity check of dim {d} visits {terms} terms, "
                                   f"above the bound {VALIDATE_TERM_BOUND}")
            p = self.field.p if self.field.is_prime_field else 0
            assoc_failures = self._full_assoc_failures(p)
            unit_failures = self._unit_failures(p)
            cached = ValidationReport(not assoc_failures and not unit_failures,
                                      assoc_failures, unit_failures)
            self._cache["validation"] = cached
        return cached

    def _assoc_terms(self) -> int:
        """The cost of ``_full_assoc_failures``, d^2 + sum_m col_m·(R_m + C_m),
        read off the index in O(nnz)."""
        d = self.dim
        col, rows, cols = [0] * d, [0] * d, [0] * d
        for i, plane in enumerate(self._nz):
            for j, ij in enumerate(plane):
                if ij:
                    rows[i] += len(ij)
                    cols[j] += len(ij)
                    for m, _ in ij:
                        col[m] += 1
        return d * d + sum(c * (r + s) for c, r, s in zip(col, rows, cols))

    def _unit_failures(self, p: int) -> List[int]:
        """The i with u·b_i != b_i or b_i·u != b_i, read off the index:
        u·b_i = sum_m u_m (b_m b_i) and b_i·u = sum_m u_m (b_i b_m), each
        accumulated unreduced against -b_i."""
        nz = self._nz
        d = self.dim
        left = [{i: -1} for i in range(d)]
        right = [{i: -1} for i in range(d)]
        for m, u in enumerate(self.unit):
            if not u:
                continue
            for i in range(d):
                for side, row in ((left, nz[m][i]), (right, nz[i][m])):
                    if row:
                        acc = side[i]
                        for k, c in row:
                            acc[k] = acc.get(k, 0) + u * c
        return [i for i in range(d)
                if _any_nonzero(left[i].values(), p) or _any_nonzero(right[i].values(), p)]

    def _full_assoc_failures(self, p: int) -> List[Tuple[int, int, int]]:
        """The first 50 triples (i, j, k), in lexicographic order, where
        (b_i b_j) b_k != b_i (b_j b_k), over all d^3 triples.

        For each (i, j) in order, (b_i b_j) b_k = sum_m c_ijm (b_m b_k) is
        accumulated over the k with b_m b_k != 0, and b_i (b_j b_k) =
        sum_m c_jkm (b_i b_m) over the k with b_j b_k != 0 and the m with
        b_i b_m != 0; the difference for each k that got a term is unreduced,
        and tested once, mod p over F_p (``p`` is 0 over Q).
        """
        nz = self._nz
        # rows[m]: the pairs (k, nz[m][k]) with b_m b_k != 0
        rows = [[(k, row) for k, row in enumerate(plane) if row] for plane in nz]
        failures: List[Tuple[int, int, int]] = []
        for i, plane_i in enumerate(nz):
            for j, ij in enumerate(plane_i):
                diff: Dict[int, dict] = {}
                for m, c in ij:
                    for k, row in rows[m]:
                        dk = diff.get(k)
                        if dk is None:
                            dk = diff[k] = {}
                        for l, x in row:
                            dk[l] = dk.get(l, 0) + c * x
                for k, jk in rows[j]:
                    dk = diff.get(k)
                    for m, c in jk:
                        row = plane_i[m]
                        if row:
                            if dk is None:
                                dk = diff[k] = {}
                            for l, x in row:
                                dk[l] = dk.get(l, 0) - c * x
                for k in sorted(diff):
                    if _any_nonzero(diff[k].values(), p):
                        failures.append((i, j, k))
                        if len(failures) >= 50:
                            return failures
        return failures

    def _unit_vec(self, i: int):
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return tuple(v)

    # -- derived subspaces -----------------------------------------------

    def center(self) -> Subspace:
        """x with x·b_j = b_j·x for all j: the kernel of the difference system,
        whose row (j, k) is (c_ijk - c_jik)_i.  Only its nonzero rows are
        built, in order of (j, k), from the pairs b_i b_j != b_j b_i of the
        index ``_nz``."""
        cached = self._cache.get("center")
        if cached is not None:
            return cached
        d = self.dim
        F = self.field
        mul, nz = self.mul, self._nz
        rows = []
        for j in range(d):
            # k -> the i with b_i b_j != b_j b_i and k in the support of either
            support: Dict[int, List[int]] = {}
            for i in range(d):
                if nz[i][j] != nz[j][i]:
                    for k, _ in nz[i][j] + nz[j][i]:
                        support.setdefault(k, []).append(i)
            for k in sorted(support):
                row = [F.zero()] * d
                for i in support[k]:
                    row[i] = F.sub(mul[i][j][k], mul[j][i][k])
                if any(row):
                    rows.append(tuple(row))
        if not rows:
            result = linalg.full_subspace(F, d)
        else:
            m = Matrix(F, len(rows), d, tuple(rows))
            result = linalg.kernel(m)
        self._cache["center"] = result
        return result

    def k_star(self) -> int:
        return self.center().dim

    def is_commutative(self) -> bool:
        d = self.dim
        return all(
            self.mul[i][j] == self.mul[j][i] for i in range(d) for j in range(i + 1, d)
        )

    def __repr__(self):
        return f"Algebra(dim={self.dim}, field={self.field}, provenance={self.kind})"


# -- constructions ----------------------------------------------------------


def matrix_algebra(field: Field, n: int) -> Algebra:
    """Full matrix algebra M_n(F) on the basis of matrix units, row-major."""
    if n < 1:
        raise BadParameter("n must be positive")
    d = n * n
    z, o = field.zero(), field.one()
    mul = [[[z] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        mul[a * n + b][c * n + e][a * n + e] = o
    unit = [z] * d
    for a in range(n):
        unit[a * n + a] = o
    return Algebra(field, mul, unit, _canonical=True)


def direct_sum(a: Algebra, b: Algebra) -> Algebra:
    if a.field != b.field:
        raise BadParameter("direct sum over different fields")
    F = a.field
    d = a.dim + b.dim
    z = F.zero()
    mul = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.mul[i][j][k]
                if c:
                    mul[i][j][k] = c
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                c = b.mul[i][j][k]
                if c:
                    mul[a.dim + i][a.dim + j][a.dim + k] = c
    return Algebra(F, mul, a.unit + b.unit, _canonical=True)


def peirce_rows(a: Algebra, e: Sequence, f: Sequence) -> Subspace:
    """The Peirce component e·A·f, spanned by the images e·b_j·f."""
    return span(a.field, a.dim,
                [a.sandwich_coords(e, a._unit_vec(j), f) for j in range(a.dim)])


def corner_data(a: Algebra, e: Element, sub: Optional[Subspace] = None
                ) -> Tuple[Algebra, List[Tuple]]:
    """The corner algebra eAe plus its basis rows in A-coordinates; ``sub``
    is eAe when the caller has already spanned it (``peirce_rows`` otherwise)."""
    if e.algebra is not a:
        raise ParentMismatch("idempotent from another algebra")
    if a.multiply(e, e) != e:
        raise NotIdempotent("e·e != e")
    F = a.field
    if sub is None:
        sub = peirce_rows(a, e.coords, e.coords)
    rows = sub.basis_vectors()
    m = len(rows)
    if m == 0:
        raise NotIdempotent("corner of zero idempotent")
    mul = []
    for x in rows:
        plane = []
        for y in rows:
            prod = a.multiply_coords(x, y)
            coords = sub.coords_of(prod)
            if coords is None:
                raise InternalInconsistency("corner not multiplicatively closed")
            plane.append(list(coords))
        mul.append(plane)
    unit = sub.coords_of(e.coords)
    if unit is None:
        raise InternalInconsistency("idempotent lies outside its own corner")
    return Algebra(F, mul, unit, _canonical=True), rows


def corner(a: Algebra, e: Element) -> Algebra:
    return corner_data(a, e)[0]


def group_algebra_from_cayley(field: Field, table: Sequence[Sequence[int]]) -> Algebra:
    """Group algebra FG from an n x n Cayley table (index 0 = identity)."""
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    tab = [list(map(int, row)) for row in table]
    for row in tab:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("closure", "entries must be indices 0..n-1")
    for j in range(n):
        if tab[0][j] != j:
            raise NotAGroup("identity", f"row 0 must be the identity row (col {j})")
    for i in range(n):
        if tab[i][0] != i:
            raise NotAGroup("identity", f"column 0 must be the identity column (row {i})")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if tab[tab[i][j]][k] != tab[i][tab[j][k]]:
                    raise NotAGroup("associativity", f"({i}·{j})·{k} != {i}·({j}·{k})")
    for i in range(n):
        if 0 not in tab[i] or tab[tab[i].index(0)][i] != 0:
            raise NotAGroup("inverses", f"element {i} has no two-sided inverse")
    z, o = field.zero(), field.one()
    mul = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            mul[i][j][tab[i][j]] = o
    unit = [o] + [z] * (n - 1)
    return Algebra(field, mul, unit, "group", _canonical=True)
