"""Exact dense linear algebra over F_p and Q.

Everything downstream (radicals, commutator spaces, Cartan data) reduces to
the operations here.  Subspaces are stored only as reduced row echelon bases,
so two subspaces are equal iff their ``Subspace`` values compare equal.

A coordinate subspace, the span of unit vectors, is known as one where it is
built: by ``coordinate_subspace``, and by sums and intersections of
coordinate subspaces.  Its queries read positions and build no echelon, and
sums and intersections with it zero or read positions too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

from . import _kernels
from .errors import AmbientMismatch, BadParameter
from .fields import Field


def echelon_for(field: Field, width: int):
    """New incremental RREF accumulator over the given field."""
    if field.is_prime_field:
        return _kernels.fp_echelon(width, field.p)
    return _kernels.q_echelon(width)


_INT = frozenset((int,))


def _kernel_row(field: Field, vec: Sequence) -> Sequence:
    """``vec`` as the echelon kernels take it: canonical scalars, except that
    the F_p kernels reduce ints mod p themselves.  A vector of ints passes as
    it is; any other (one holding a Fraction, a float or a scalar string) is
    coerced.  Over Q the test reads the entry types, since a sum of Fractions
    costs a gcd per entry."""
    if field.p:
        try:
            if type(sum(vec)) is int:
                return vec
        except TypeError:
            pass
    elif set(map(type, vec)) <= _INT:
        return vec
    return [field.coerce(x) for x in vec]


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with exact entries."""

    field: Field
    rows: int
    cols: int
    entries: Tuple[Tuple[object, ...], ...]

    @staticmethod
    def from_rows(field: Field, rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        ncols = len(data[0]) if data else 0
        if any(len(r) != ncols for r in data):
            raise AmbientMismatch("ragged rows")
        return Matrix(field, len(data), ncols, data)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.cols, self.rows,
                      tuple(zip(*self.entries)) if self.entries else ())

    def apply(self, vec: Sequence) -> Tuple:
        """Matrix-vector product M·v (v a column vector)."""
        if len(vec) != self.cols:
            raise AmbientMismatch(f"vector length {len(vec)} vs {self.cols} columns")
        F = self.field
        out = []
        for row in self.entries:
            acc = F.zero()
            for a, x in zip(row, vec):
                if a and x:
                    acc = F.add(acc, F.mul(a, x))
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise AmbientMismatch("inner dimensions differ")
        F = self.field
        ot = other.transpose().entries
        data = []
        for row in self.entries:
            out = []
            for col in ot:
                acc = F.zero()
                for a, b in zip(row, col):
                    if a and b:
                        acc = F.add(acc, F.mul(a, b))
                out.append(acc)
            data.append(tuple(out))
        return Matrix(F, self.rows, other.cols, tuple(data))

    def __str__(self):
        fmt = self.field.format_scalar
        return "\n".join(" ".join(fmt(x) for x in row) for row in self.entries)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^d, stored as its unique RREF basis (zero rows dropped)."""

    field: Field
    ambient_dim: int
    basis: Matrix

    # True in the instance dict of a coordinate subspace, set only by the
    # builders named in the module docstring; never found by scanning rows
    _coordinate = False

    @property
    def dim(self) -> int:
        return self.basis.rows

    # pivots, their complement and the reduction state are pure functions of
    # the basis, so all three are cached on the instance
    @cached_property
    def pivots(self) -> Tuple[int, ...]:
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.basis.entries)

    @cached_property
    def _complement(self) -> Tuple[int, ...]:
        return tuple(sorted(set(range(self.ambient_dim)).difference(self.pivots)))

    def codim(self) -> int:
        return self.ambient_dim - self.dim

    @cached_property
    def _acc(self):
        acc = echelon_for(self.field, self.ambient_dim)
        for row in self.basis.entries:
            acc.insert(row)
        return acc

    def _row(self, vec: Sequence) -> Sequence:
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch(f"vector length {len(vec)} vs ambient {self.ambient_dim}")
        return _kernel_row(self.field, vec)

    def _entries(self, row: Sequence, positions: Iterable[int]) -> Tuple:
        """The canonical entries of a kernel row at the given positions."""
        p = self.field.p
        if p:
            return tuple([row[i] % p for i in positions])
        return tuple(map(row.__getitem__, positions))

    def _holds(self, row: Sequence) -> bool:
        """Whether a kernel row lies in the subspace; a coordinate subspace
        holds the rows that are zero off its pivots."""
        if self._coordinate:
            return not any(self._entries(row, self._complement))
        return not any(self._acc.reduce(row))

    def reduce(self, vec: Sequence) -> Tuple:
        """Remainder of ``vec`` after reduction by the basis."""
        row = self._row(vec)
        if self._coordinate:
            red = list(self._entries(row, range(self.ambient_dim)))
            for i in self.pivots:
                red[i] = 0
            return tuple(red)
        return tuple(self._acc.reduce(row))

    def contains(self, vec: Sequence) -> bool:
        return self._holds(self._row(vec))

    def coords_of(self, vec: Sequence) -> Optional[Tuple]:
        """Coordinates of ``vec`` in the RREF basis, or None if outside.

        With a fully reduced basis the coefficient of row j is just the
        entry of ``vec`` at that row's pivot column.
        """
        row = self._row(vec)
        return self._entries(row, self.pivots) if self._holds(row) else None

    def complement_positions(self) -> Tuple[int, ...]:
        """Coordinate positions whose unit vectors complement this subspace."""
        return self._complement

    def coset_coords(self, vec: Sequence) -> Tuple:
        """Coordinates of the coset ``vec`` + U in F^d/U, for U this subspace:
        the entries of the reduced ``vec`` at ``complement_positions``."""
        red = self.reduce(vec)
        return tuple(red[i] for i in self._complement)

    def basis_vectors(self) -> List[Tuple]:
        return [tuple(row) for row in self.basis.entries]

    def __le__(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("ambient dimensions differ")
        return all(other.contains(row) for row in self.basis.entries)


def _accumulate(field: Field, width: int, vectors: Iterable[Sequence]):
    acc = echelon_for(field, width)
    for v in vectors:
        acc.insert(_kernel_row(field, v))
    return acc


def _subspace_from_acc(field: Field, width: int, acc) -> Subspace:
    rows = tuple(map(tuple, acc.rows()))
    return Subspace(field, width, Matrix(field, len(rows), width, rows))


def span(field: Field, ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
    return _subspace_from_acc(field, ambient_dim, _accumulate(field, ambient_dim, vectors))


def _unit_rows(field: Field, ambient_dim: int, positions: Sequence[int]) -> Tuple[Tuple, ...]:
    zeros, one = (field.zero(),) * ambient_dim, (field.one(),)
    return tuple([zeros[:q] + one + zeros[q + 1:] for q in positions])


def _with_pivots(field: Field, ambient_dim: int, rows: Sequence[Tuple],
                 pivots: Tuple[int, ...]) -> Subspace:
    sub = Subspace(field, ambient_dim, Matrix(field, len(rows), ambient_dim, tuple(rows)))
    sub.__dict__["pivots"] = pivots
    return sub


def _units(field: Field, ambient_dim: int, pivots: Tuple[int, ...]) -> Subspace:
    """The coordinate subspace on positions already known to be valid."""
    sub = _with_pivots(field, ambient_dim, _unit_rows(field, ambient_dim, pivots), pivots)
    sub.__dict__["_coordinate"] = True
    return sub


def coordinate_subspace(field: Field, ambient_dim: int, positions: Iterable[int]) -> Subspace:
    """The span of the unit vectors at the given positions, which must
    increase strictly within 0..ambient_dim-1 (else BadParameter); those
    unit vectors are already its RREF basis."""
    pivots = tuple(positions)
    if pivots and (pivots[0] < 0 or pivots[-1] >= ambient_dim
                   or list(pivots) != sorted(set(pivots))):
        raise BadParameter(f"coordinate positions {list(pivots)} are not strictly increasing "
                           f"within 0..{ambient_dim - 1}")
    return _units(field, ambient_dim, pivots)


def zero_subspace(field: Field, ambient_dim: int) -> Subspace:
    return _units(field, ambient_dim, ())


def full_subspace(field: Field, ambient_dim: int) -> Subspace:
    return coordinate_subspace(field, ambient_dim, range(ambient_dim))


def rref(m: Matrix) -> Tuple[Matrix, int, List[int]]:
    """Unique reduced row echelon form of m, with rank and pivot columns.

    The result keeps the shape of m (zero rows at the bottom).
    """
    acc = _accumulate(m.field, m.cols, m.entries)
    rows = list(map(tuple, acc.rows()))
    rows += [(m.field.zero(),) * m.cols] * (m.rows - len(rows))
    return Matrix(m.field, m.rows, m.cols, tuple(rows)), acc.rank, acc.pivots()


def null_vectors(field: Field, width: int, acc) -> List[List]:
    """A basis of {v : M·v = 0}, one vector per free column, for ``acc``
    the echelon accumulator of M's rows."""
    rows, pivots = acc.rows(), acc.pivots()
    pivot_set = set(pivots)
    vecs = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [field.zero()] * width
        v[f] = field.one()
        for row, pc in zip(rows, pivots):
            v[pc] = field.neg(row[f])
        vecs.append(v)
    return vecs


def kernel(m: Matrix) -> Subspace:
    """The solution space {v : M·v = 0}, ambient dimension = cols(M)."""
    F, n = m.field, m.cols
    return span(F, n, null_vectors(F, n, _accumulate(F, n, m.entries)))


def _check_ambient(spaces: Sequence[Subspace]) -> None:
    if any(s.ambient_dim != spaces[0].ambient_dim for s in spaces):
        raise AmbientMismatch("ambient dimensions differ")


def subspace_sum(*spaces: Subspace) -> Subspace:
    """The sum of one or more subspaces.

    The coordinate summands give unit rows on positions P.  The other rows,
    with P zeroed, are row-reduced and merged with those unit rows: no pivot
    column of either set is nonzero in the other, so the merge is the RREF.
    """
    _check_ambient(spaces)
    F, d = spaces[0].field, spaces[0].ambient_dim
    positions = set()
    rows = []
    for s in spaces:
        if s._coordinate:
            positions.update(s.pivots)
        else:
            rows.extend(s.basis.entries)
    if not rows:
        return _units(F, d, tuple(sorted(positions)))
    if not positions:
        return span(F, d, rows)
    zeroed = []
    for row in rows:
        row = list(row)
        for q in positions:
            row[q] = 0
        zeroed.append(row)
    acc = _accumulate(F, d, zeroed)
    if not acc.rank:
        return _units(F, d, tuple(sorted(positions)))
    by_pivot = dict(zip(acc.pivots(), map(tuple, acc.rows())))
    units = sorted(positions)
    by_pivot.update(zip(units, _unit_rows(F, d, units)))
    pivots = tuple(sorted(by_pivot))
    return _with_pivots(F, d, [by_pivot[q] for q in pivots], pivots)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """U ∩ V.  Of two coordinate subspaces it is the coordinate subspace on
    their shared positions; of a coordinate U and any V, the vectors of V
    zero off U's positions; otherwise the kernel of the stacked-basis
    coefficient system.

    Row vectors (a | b) with a·U = b·V form the kernel of [U; V]^T; the
    intersection is the image of the a-part.
    """
    _check_ambient((u, v))
    F, d = u.field, u.ambient_dim
    ru, rv = u.dim, v.dim
    if ru == 0 or rv == 0:
        return zero_subspace(F, d)
    if v._coordinate:
        u, v = v, u
    if u._coordinate:
        if v._coordinate:
            return _units(F, d, tuple(sorted(set(u.pivots).intersection(v.pivots))))
        # the coefficients c of V's rows with sum_j c_j·v_j zero off U's positions
        vrows = v.basis.entries
        acc = _accumulate(F, v.dim, ([row[q] for row in vrows] for q in u._complement))
        return span(F, d, combine(F, null_vectors(F, v.dim, acc), vrows))
    stacked = Matrix(F, ru + rv, d, tuple(list(u.basis.entries) + list(v.basis.entries)))
    null = kernel(stacked.transpose())
    coeffs = [row[:ru] for row in null.basis.entries]
    return span(F, d, combine(F, coeffs, u.basis.entries))


def combine(field: Field, coeff_rows: Iterable[Sequence], vecs: Sequence[Sequence]) -> List[Tuple]:
    """sum_j c_j·vecs[j] for each coefficient row c, skipping zero terms."""
    out = []
    for row in coeff_rows:
        acc = [field.zero()] * len(vecs[0])
        for c, v in zip(row, vecs):
            if c:
                for k, x in enumerate(v):
                    if x:
                        acc[k] = field.add(acc[k], field.mul(c, x))
        out.append(tuple(acc))
    return out


def contains(u: Subspace, vec: Sequence) -> bool:
    return u.contains(vec)


def codim(u: Subspace) -> int:
    return u.codim()


def solve_in_span(field: Field, rows: Sequence[Sequence], target: Sequence) -> Optional[List]:
    """Express ``target`` as a combination of ``rows``; None if impossible.

    Augmented-echelon bookkeeping: each inserted row carries an indicator
    tail, and rows whose leading part reduces to zero are skipped, so stored
    pivots stay in the leading block and the tail of the reduced probe reads
    off the (negated) coefficients.
    """
    width = len(target)
    m = len(rows)
    acc = echelon_for(field, width + m)
    tail = [field.zero()] * m
    for idx, row in enumerate(rows):
        if len(row) != width:
            raise AmbientMismatch("row length mismatch")
        aug = [*_kernel_row(field, row), *tail]
        aug[width + idx] = field.one()
        red = acc.reduce(aug)
        if any(red[:width]):
            acc.insert(red)
    red = acc.reduce([*_kernel_row(field, target), *tail])
    if any(red[:width]):
        return None
    return [field.neg(c) for c in red[width:]]
