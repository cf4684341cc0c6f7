import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdalg.errors import AmbientMismatch, BadParameter
from fdalg.fields import Field, GF, QQ
from fdalg.linalg import (
    Matrix,
    Subspace,
    codim,
    combine,
    contains,
    coordinate_subspace,
    kernel,
    rref,
    solve_in_span,
    span,
    subspace_intersect,
    subspace_sum,
    zero_subspace,
)

F2 = GF(2)
F5 = GF(5)


def test_field_parsing():
    assert Field.parse("Fp:7").p == 7
    assert Field.parse("Q").characteristic == 0
    assert F5.parse_scalar("3/2") == 3 * pow(2, 3, 5) % 5
    assert QQ.parse_scalar("-4/6") == Fraction(-2, 3)
    with pytest.raises(Exception):
        Field.prime(15)


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, rank, piv = rref(m)
    assert r == m and rank == 2 and piv == [0, 1]


def test_rref_zero():
    m = Matrix.zeros(F5, 3, 3)
    r, rank, piv = rref(m)
    assert rank == 0 and piv == [] and r == m


def test_rref_rank_one_rational():
    m = Matrix.from_rows(QQ, [[2, 4], [1, 2]])
    r, rank, piv = rref(m)
    assert rank == 1 and piv == [0]
    assert r.entries == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(F5, 4)).dim == 0
    k = kernel(Matrix.zeros(QQ, 1, 3))
    assert k.dim == 3 and k.ambient_dim == 3


def test_kernel_f2_example():
    k = kernel(Matrix.from_rows(F2, [[1, 1]]))
    assert k.basis_vectors() == [(1, 1)]


def test_subspace_sum_intersect_trivia():
    u = span(QQ, 2, [[1, 0]])
    v = span(QQ, 2, [[0, 1]])
    assert subspace_sum(u, v).codim() == 0
    w = span(QQ, 2, [[1, 1]])
    assert subspace_intersect(w, u).dim == 0
    assert codim(zero_subspace(QQ, 4)) == 4


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        subspace_sum(span(QQ, 2, [[1, 0]]), span(QQ, 3, [[1, 0, 0]]))


def test_contains_and_coords():
    u = span(F5, 3, [[1, 2, 0], [0, 0, 1]])
    assert contains(u, (2, 4, 3))
    assert not contains(u, (0, 1, 0))
    assert u.coords_of((2, 4, 3)) == (2, 3)
    assert u.coords_of((1, 0, 0)) is None


def test_solve_in_span():
    rows = [[1, 2, 0], [0, 1, 1], [1, 3, 1]]
    coeffs = solve_in_span(QQ, rows, [2, 5, 1])
    assert coeffs is not None
    acc = [0, 0, 0]
    for c, row in zip(coeffs, rows):
        for i, x in enumerate(row):
            acc[i] += c * x
    assert acc == [2, 5, 1]
    assert solve_in_span(QQ, [[1, 0, 0]], [0, 1, 0]) is None


@st.composite
def _f5_matrix(draw):
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    data = draw(st.lists(st.lists(st.integers(0, 4), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return Matrix.from_rows(F5, data)


@given(_f5_matrix())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    r1, rank1, piv1 = rref(m)
    r2, rank2, piv2 = rref(r1)
    assert r1 == r2 and rank1 == rank2 and piv1 == piv2


@given(_f5_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_plus_codim(m):
    sub = span(F5, m.cols, m.entries)
    assert sub.dim + sub.codim() == m.cols


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_dim_formula_random_subspaces(seed_u, seed_v):
    import random

    rng = random.Random(seed_u * 1000003 + seed_v)
    vecs_u = [[rng.randrange(5) for _ in range(6)] for _ in range(rng.randint(0, 5))]
    vecs_v = [[rng.randrange(5) for _ in range(6)] for _ in range(rng.randint(0, 5))]
    u = span(F5, 6, vecs_u)
    v = span(F5, 6, vecs_v)
    s = subspace_sum(u, v)
    i = subspace_intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim
    for row in i.basis_vectors():
        assert u.contains(row) and v.contains(row)


@pytest.mark.parametrize("p,d", [(2, 4), (3, 3), (5, 2)])
def test_membership_matches_enumeration(p, d):
    import random

    rng = random.Random(p * 100 + d)
    field = GF(p)
    vecs = [[rng.randrange(p) for _ in range(d)] for _ in range(2)]
    sub = span(field, d, vecs)
    members = set()
    basis = sub.basis_vectors()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        acc = [0] * d
        for c, row in zip(coeffs, basis):
            for i, x in enumerate(row):
                acc[i] = (acc[i] + c * x) % p
        members.add(tuple(acc))
    for point in itertools.product(range(p), repeat=d):
        assert sub.contains(point) == (tuple(point) in members)


def _types(vecs):
    return {type(x) for v in vecs for x in v}


def test_public_entry_points_canonicalize_input():
    # negative ints and ints >= p over F_p, Fractions and scalar strings over
    # F_p, ints over Q: all come out canonical
    u = span(F5, 3, [[-4, 7, 2], [0, 0, 6]])
    assert u == span(F5, 3, [[1, 2, 2], [0, 0, 1]])
    assert u.basis_vectors() == [(1, 2, 0), (0, 0, 1)] and _types(u.basis_vectors()) == {int}
    assert span(F5, 2, [[Fraction(1, 2), "1/3"]]).basis_vectors() == [(1, 4)]
    assert u.reduce((-1, 0, 0)) == (0, 2, 0)
    assert u.reduce((Fraction(1, 2), 0, 11)) == (0, 4, 0)
    assert u.coords_of((-4, 7, 12)) == (1, 2)
    assert u.coords_of((Fraction(1, 3), "2/3", 0)) == (2, 0)
    assert _types([u.coords_of((-4, 7, 12))]) == {int}
    assert solve_in_span(F5, [[-1, 0], [0, 6]], [Fraction(1, 2), 7]) == [2, 2]

    # over Q an integral scalar is an int and any other a Fraction with
    # denominator > 1, whatever form it came in
    w = span(QQ, 2, [[2, 4]])
    assert w.basis_vectors() == [(1, 2)] and _types(w.basis_vectors()) == {int}
    assert w.coords_of((3, 6)) == (3,) and _types([w.coords_of((3, 6))]) == {int}
    assert _types([w.reduce((1, 1))]) == {int}
    coeffs = solve_in_span(QQ, [[2, 0], [0, 3]], [1, 1])
    assert coeffs == [Fraction(1, 2), Fraction(1, 3)] and _types([coeffs]) == {Fraction}
    assert QQ.coerce(Fraction(4, 2)) == 2 and type(QQ.coerce(Fraction(4, 2))) is int
    assert QQ.coerce("6/3") == 2 and type(QQ.coerce("6/3")) is int
    assert [(type(x), x) for x in map(QQ.coerce, (np.int64(3), True, 4.0, 2.5))] == [
        (int, 3), (int, 1), (int, 4), (Fraction, Fraction(5, 2))]
    assert w.coords_of((Fraction(4, 2), "8/2")) == (2,) and _types([w.coords_of((Fraction(4, 2), "8/2"))]) == {int}
    assert w.reduce(("6/3", 0)) == (0, -4) and _types([w.reduce(("6/3", 0))]) == {int}
    v = span(QQ, 2, [["5/3", 0], [0, Fraction(6, 3)]])
    assert v.basis_vectors() == [(1, 0), (0, 1)] and _types(v.basis_vectors()) == {int}
    x = span(QQ, 2, [[3, "5/3"]])
    assert x.basis_vectors() == [(1, Fraction(5, 9))]
    assert _types([x.basis_vectors()[0][1:]]) == {Fraction}
    # 1/2 + 1/2: a reduction whose Fraction arithmetic lands on an integer
    half = span(QQ, 2, [[1, Fraction(1, 2)]])
    assert half.reduce((0, Fraction(1, 2))) == (0, Fraction(1, 2))
    r = half.reduce((-1, Fraction(1, 2)))
    assert r == (0, 1) and _types([r]) == {int}


# -- coordinate subspaces against the echelon -------------------------------------


@pytest.mark.parametrize("positions", [[3, 1], [1, 1], [7], [4], [-1, 2]])
def test_coordinate_subspace_rejects_bad_positions(positions):
    with pytest.raises(BadParameter):
        coordinate_subspace(F5, 4, positions)


def test_coordinate_subspace_is_the_span_of_its_unit_vectors():
    sub = coordinate_subspace(F5, 4, [1, 3])
    ref = span(F5, 4, [[0, 1, 0, 0], [0, 0, 0, 1]])
    assert sub == ref and sub.pivots == ref.pivots == (1, 3)
    assert sub._coordinate and not ref._coordinate  # never found by scanning rows
    assert coordinate_subspace(F5, 0, []).dim == 0


def _scalar(field, rng):
    """A random scalar in one of the forms the public entry points accept."""
    if field.p:
        return rng.choice([0, 0, 1, rng.randrange(-3 * field.p, 3 * field.p)])
    return rng.choice([0, 0, 1, rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 3))])


def _random_subspace(field, d, rng, kind):
    if kind == "coordinate":
        return coordinate_subspace(field, d, sorted(rng.sample(range(d), rng.randint(0, d))))
    vecs = [[_scalar(field, rng) for _ in range(d)] for _ in range(rng.randint(0, d))]
    return span(field, d, vecs)


def _echelon_copy(sub):
    """The same subspace without the coordinate fact, so every query row-reduces."""
    ref = span(sub.field, sub.ambient_dim, sub.basis_vectors())
    assert ref == sub and not ref._coordinate
    return ref


def _same(x, y):
    return repr(x) == repr(y)


@pytest.mark.parametrize("field", [QQ, F5, GF(2 ** 31 + 11)], ids=str)
def test_coordinate_paths_match_the_echelon(field):
    rng = random.Random(field.p or 7)
    kinds = ("coordinate", "general")
    counts = dict.fromkeys(("coordinate", "mixed", "general"), 0)
    for _ in range(150):
        d = rng.randint(1, 7)
        u = _random_subspace(field, d, rng, rng.choice(kinds))
        v = _random_subspace(field, d, rng, rng.choice(kinds))
        w = _random_subspace(field, d, rng, rng.choice(kinds))
        ur, vr, wr = map(_echelon_copy, (u, v, w))
        n_coord = u._coordinate + v._coordinate
        counts[("general", "mixed", "coordinate")[n_coord]] += 1
        probes = [[_scalar(field, rng) for _ in range(d)] for _ in range(4)]
        if u.dim:
            probes.append(combine(field, [[_scalar(field, rng) for _ in range(u.dim)]],
                                  u.basis_vectors())[0])
        for vec in probes:
            for query in ("reduce", "contains", "coords_of", "coset_coords"):
                assert _same(getattr(u, query)(vec), getattr(ur, query)(vec)), (query, u, vec)
        s = subspace_sum(u, v)
        assert s == span(field, d, ur.basis_vectors() + vr.basis_vectors())
        assert s.pivots == _echelon_copy(s).pivots and _same(s.basis, _echelon_copy(s).basis)
        three = subspace_sum(u, v, w)
        assert three == subspace_sum(ur, vr, wr) and three.pivots == _echelon_copy(three).pivots
        i = subspace_intersect(u, v)
        assert i == subspace_intersect(ur, vr) and _same(i.basis, _echelon_copy(i).basis)
        assert i.dim + s.dim == u.dim + v.dim
        # the fact is kept through sums and intersections, and never wrong
        assert s._coordinate and i._coordinate or n_coord < 2
        for out in (s, three, i):
            assert not out._coordinate or all(sorted(row) == [0] * (d - 1) + [1]
                                              for row in out.basis.entries)
    assert min(counts.values()) >= 20, counts
