import random

import pytest

from fdalg.algebras import (
    Algebra,
    Element,
    corner,
    corner_data,
    direct_sum,
    group_algebra_from_cayley,
    matrix_algebra,
)
from fdalg.corpus import lower_triangular, truncated_polynomial, S3_TABLE
from fdalg.errors import NotAGroup, NotIdempotent, ParentMismatch
from fdalg.fields import GF, QQ
from fdalg.invariants import k_of
from fdalg.linalg import span
from fdalg.structure import peirce_component
from regular_matrices import left_regular_coords, right_regular_coords

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_ground_field_is_valid():
    a = Algebra(QQ, [[[1]]], [1])
    assert a.validate().ok
    assert a.k_star() == 1


def test_perturbed_tensor_reports_failures():
    t = truncated_polynomial(F5, 2)
    mul = [[list(row) for row in plane] for plane in t.mul]
    mul[0][1][0] = 3  # breaks 1·x
    bad = Algebra(F5, mul, t.unit)
    rep = bad.validate()
    assert not rep.ok
    assert rep.associativity_failures or rep.unit_failures


def test_group_algebra_from_cayley_valid():
    g = group_algebra_from_cayley(F3, S3_TABLE)
    assert g.validate().ok
    assert g.kind == "group"


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["Fp:2", "Fp:3", "Q"])
def test_group_algebra_k_is_the_class_number(field):
    # K(FG) is spanned by the g - hgh^-1, so k(FG) = codim K(FG) is the number
    # of conjugacy classes in every characteristic
    assert k_of(group_algebra_from_cayley(field, S3_TABLE)) == 3
    for n in range(1, 6):
        cyclic = [[(i + j) % n for j in range(n)] for i in range(n)]
        assert k_of(group_algebra_from_cayley(field, cyclic)) == n


def test_cayley_rejects_broken_tables():
    with pytest.raises(NotAGroup):
        group_algebra_from_cayley(F2, [[0, 1], [1, 1]])  # not identity column
    with pytest.raises(NotAGroup):
        group_algebra_from_cayley(F2, [[0, 1, 2], [1, 0, 0], [2, 0, 0]])


def test_trivial_group_is_ground_field():
    g = group_algebra_from_cayley(F5, [[0]])
    assert g.dim == 1 and g.validate().ok


def test_unit_multiplication():
    t = truncated_polynomial(QQ, 4)
    x = t.basis_element(1)
    assert t.unit_element() * x == x
    assert x * t.unit_element() == x


def test_truncation_kills_high_powers():
    t = truncated_polynomial(QQ, 3)
    x, x2 = t.basis_element(1), t.basis_element(2)
    assert (x * x2).is_zero()


def test_matrix_units():
    m2 = matrix_algebra(F5, 2)
    e11, e12, e21 = m2.basis_element(0), m2.basis_element(1), m2.basis_element(2)
    assert e12 * e21 == e11
    assert (e12 * e12).is_zero()


def test_parent_mismatch_raises():
    a = truncated_polynomial(QQ, 2)
    b = truncated_polynomial(QQ, 2)
    with pytest.raises(ParentMismatch):
        a.basis_element(0) * b.basis_element(0)


def test_center_examples():
    # commutative: the whole algebra
    t = truncated_polynomial(F5, 4)
    assert t.k_star() == 4
    # k*(T_n) = 1 and k*(M_2) = 1
    for n in (2, 3, 4, 5):
        assert lower_triangular(QQ, n).k_star() == 1
    assert matrix_algebra(F3, 2).k_star() == 1


def test_corner_of_unit_is_whole_algebra():
    a = lower_triangular(QQ, 2)
    c = corner(a, a.unit_element())
    assert c.dim == a.dim


def test_corner_of_matrix_unit():
    m2 = matrix_algebra(QQ, 2)
    c = corner(m2, m2.basis_element(0))
    assert c.dim == 1 and c.validate().ok


def test_corner_requires_idempotent():
    m2 = matrix_algebra(QQ, 2)
    with pytest.raises(NotIdempotent):
        corner(m2, m2.basis_element(1))


def test_direct_sum_dims_and_k():
    ds = direct_sum(Algebra(F5, [[[1]]], [1]), matrix_algebra(F5, 2))
    assert ds.dim == 5 and ds.validate().ok
    assert k_of(ds) == 2  # scalars plus trace functional of the matrix block


def test_regular_representation_homomorphism():
    a = matrix_algebra(F3, 2)
    rng = random.Random(0)
    for _ in range(10):
        x = a.element([rng.randrange(3) for _ in range(4)])
        y = a.element([rng.randrange(3) for _ in range(4)])
        lx, ly = left_regular_coords(a, x.coords), left_regular_coords(a, y.coords)
        assert left_regular_coords(a, (x * y).coords) == lx.matmul(ly)
        rx, ry = right_regular_coords(a, x.coords), right_regular_coords(a, y.coords)
        assert right_regular_coords(a, (x * y).coords) == ry.matmul(rx)


def test_associativity_random_sampling():
    a = group_algebra_from_cayley(F2, S3_TABLE)
    rng = random.Random(1)
    for _ in range(20):
        x = a.element([rng.randrange(2) for _ in range(6)])
        y = a.element([rng.randrange(2) for _ in range(6)])
        z = a.element([rng.randrange(2) for _ in range(6)])
        assert (x * y) * z == x * (y * z)


def test_z2_group_algebra_is_dual_numbers():
    # g - 1 maps to X: an explicit isomorphism onto F_2[X]/(X^2)
    g2 = group_algebra_from_cayley(F2, [[0, 1], [1, 0]])
    one, g = g2.basis_element(0), g2.basis_element(1)
    x = g - one
    assert (x * x).is_zero()
    # {1, g-1} is a basis, so the span of powers of x plus 1 is everything
    from fdalg.linalg import span

    assert span(F2, 2, [one.coords, x.coords]).dim == 2


def test_group_commutator_codim_is_class_count():
    for field in (F2, F3, F5, QQ):
        g = group_algebra_from_cayley(field, S3_TABLE)
        assert k_of(g) == 3
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    for field in (F2, F3, QQ):
        assert k_of(group_algebra_from_cayley(field, table)) == 4


# -- the sparse associativity check against the per-triple loop it replaced ----

BIG_P = GF(2147483659)


def _reference_validate(a, full, sample_seed):
    """Two dense products per side for every triple, as the check once ran."""
    unit_failures = []
    for i in range(a.dim):
        b = a._unit_vec(i)
        if a.multiply_coords(a.unit, b) != b or a.multiply_coords(b, a.unit) != b:
            unit_failures.append(i)
    d = a.dim
    triples = ([(i, j, k) for i in range(d) for j in range(d) for k in range(d)] if full
               else a._validate_triples(sample_seed))
    assoc = []
    for (i, j, k) in triples:
        bi, bj, bk = a._unit_vec(i), a._unit_vec(j), a._unit_vec(k)
        lhs = a.multiply_coords(a.multiply_coords(bi, bj), bk)
        rhs = a.multiply_coords(bi, a.multiply_coords(bj, bk))
        if lhs != rhs:
            assoc.append((i, j, k))
            if len(assoc) >= 50:
                break
    return not assoc and not unit_failures, assoc, unit_failures


def _corrupted_copies(corpus, field, count, rng):
    """Copies of small corpus tensors over ``field``, a few entries overwritten,
    then written in a rescaled basis s_i b_i so that the constants are dense
    residues (or fractions) rather than small integers."""
    F = field
    sources = [e.algebra for e in corpus if e.algebra.dim <= 9]
    out = []
    for _ in range(count):
        src = rng.choice(sources)
        d = src.dim
        mul = [[[F.coerce(c) for c in row] for row in plane] for plane in src.mul]
        unit = [F.coerce(c) for c in src.unit]
        for _ in range(rng.randint(0, 3)):
            mul[rng.randrange(d)][rng.randrange(d)][rng.randrange(d)] = F.coerce(rng.randint(-4, 4))
        if rng.random() < 0.2:
            unit[rng.randrange(d)] = F.coerce(rng.randint(-2, 2))
        out.append(_rescaled(field, mul, unit, rng))
    return out


def _rescaled(F, mul, unit, rng):
    """The tensor written in the basis s_i b_i for random nonzero s_i."""
    d = len(mul)
    s = [F.coerce(rng.randrange(1, F.p) if F.p else rng.choice([-3, -2, -1, 1, 2, 3]))
         for _ in range(d)]
    mul = [[[F.div(F.mul(F.mul(s[i], s[j]), mul[i][j][k]), s[k]) for k in range(d)]
            for j in range(d)] for i in range(d)]
    unit = [F.div(unit[k], s[k]) for k in range(d)]
    return Algebra(F, mul, unit)


def _many_failures(field):
    # every product of two non-unit basis elements of truncated(6) made nonzero
    t = truncated_polynomial(QQ, 6)
    mul = [[list(row) for row in plane] for plane in t.mul]
    for i in range(1, 6):
        for j in range(1, 6):
            mul[i][j][(i * j) % 6] = 1
    return Algebra(field, mul, t.unit)


@pytest.mark.parametrize("field", [QQ, F5, BIG_P], ids=["Q", "Fp:5", "Fp:2147483659"])
def test_sparse_validate_matches_per_triple_loop(corpus, field):
    rng = random.Random(field.p + 11)
    algebras = _corrupted_copies(corpus, field, 24, rng) + [_many_failures(field)]
    assert len(_reference_validate(algebras[-1], True, 0)[1]) == 50
    saw_failure = saw_ok = False
    for a in algebras:
        for full, sample_seed in ((True, 0), (False, 7)):
            rep = a.validate(full=full, sample_seed=sample_seed)
            ok, assoc, unit = _reference_validate(a, full, sample_seed)
            assert rep.associativity_failures == assoc, (a, full)
            assert rep.unit_failures == unit and rep.ok == ok
            saw_failure |= bool(assoc)
            saw_ok |= ok
    assert saw_failure and saw_ok


def _dense_center(a):
    """The centre as it was once built: one row (c_ijk - c_jik)_i for every
    (j, k), zero rows dropped."""
    from fdalg import linalg

    F, d = a.field, a.dim
    rows = [row for j in range(d) for k in range(d)
            for row in [tuple(F.sub(a.mul[i][j][k], a.mul[j][i][k]) for i in range(d))]
            if any(row)]
    return linalg.kernel(linalg.Matrix(F, len(rows), d, tuple(rows))) if rows \
        else linalg.full_subspace(F, d)


def _dense_commutator(a):
    """K(A) as it was once built: every row b_i b_j - b_j b_i, i < j, in order."""
    from fdalg.linalg import _subspace_from_acc, echelon_for

    F, d = a.field, a.dim
    acc = echelon_for(F, d)
    for i in range(d):
        for j in range(i + 1, d):
            row = [F.sub(x, y) for x, y in zip(a.mul[i][j], a.mul[j][i])]
            if any(row):
                acc.insert(row)
    return _subspace_from_acc(F, d, acc)


@pytest.mark.parametrize("field", [QQ, F5, BIG_P], ids=["Q", "Fp:5", "Fp:2147483659"])
def test_center_and_commutator_match_dense_rows(corpus, field):
    from fdalg.invariants import commutator_subspace

    rng = random.Random(field.p + 13)
    algebras = _corrupted_copies(corpus, field, 24, rng) + [_many_failures(field)]
    noncentral = 0
    for a in algebras:
        for got, want in ((a.center(), _dense_center(a)),
                          (commutator_subspace(a), _dense_commutator(a))):
            assert got.dim == want.dim, a
            assert [[(type(x), x) for x in v] for v in got.basis_vectors()] == \
                [[(type(x), x) for x in v] for v in want.basis_vectors()], a
        noncentral += a.center().dim < a.dim
    assert noncentral


@pytest.mark.parametrize("field", [QQ, F5, BIG_P], ids=["Q", "Fp:5", "Fp:2147483659"])
def test_nonzero_index_holds_exactly_the_nonzero_constants(corpus, field):
    rng = random.Random(field.p + 17)
    zero_rows = 0
    for a in _corrupted_copies(corpus, field, 12, rng) + [_many_failures(field)]:
        nz = a._nz
        assert a._nz is nz and a._cache["nz"] is nz
        for plane, nz_plane in zip(a.mul, nz):
            for row, pairs in zip(plane, nz_plane):
                assert pairs == tuple((k, c) for k, c in enumerate(row) if c)
                assert all(type(c) is type(field.coerce(c)) and c == field.coerce(c)
                           for _, c in pairs)
                zero_rows += pairs == ()
    assert zero_rows


# -- the product routines against products read straight off the tensor --------


# -- the product routines against products read straight off the tensor --------


def _tensor_product(a, x, y):
    """x·y = sum over every (i, j, k) of x_i y_j c_ijk, zeros included."""
    F = a.field
    out = [F.zero()] * a.dim
    for i, plane in enumerate(a.mul):
        for j, row in enumerate(plane):
            xy = F.mul(x[i], y[j])
            for k, c in enumerate(row):
                out[k] = F.add(out[k], F.mul(xy, c))
    return tuple(out)


def _idempotents(a):
    """The unit, each b_i / λ with b_i·b_i = λ b_i (λ != 0), and the sum of the
    first two orthogonal ones."""
    F = a.field
    found = []
    for i in range(a.dim):
        sq = a.mul[i][i]
        if sq[i] and not any(c for k, c in enumerate(sq) if k != i):
            found.append(tuple(F.div(c, sq[i]) for c in a._unit_vec(i)))
    zero = tuple([F.zero()] * a.dim)
    for n, e in enumerate(found):
        for f in found[n + 1:]:
            if _tensor_product(a, e, f) == zero == _tensor_product(a, f, e):
                return [a.unit] + found + [tuple(F.add(x, y) for x, y in zip(e, f))]
    return [a.unit] + found


def _peirce_span(a, e, f):
    return span(a.field, a.dim, [_tensor_product(a, _tensor_product(a, e, a._unit_vec(j)), f)
                                 for j in range(a.dim)])


def _combination(F, coeffs, rows):
    out = [F.zero()] * len(rows[0])
    for c, row in zip(coeffs, rows):
        out = [F.add(o, F.mul(c, x)) for o, x in zip(out, row)]
    return tuple(out)


@pytest.mark.parametrize("field", [F5, BIG_P], ids=["Fp:5", "Fp:2147483659"])
def test_products_match_tensor_reference(corpus, field):
    rng = random.Random(field.p)
    F = field
    corners = 0
    for entry in corpus:
        src = entry.algebra
        if not entry.name.endswith("/Q") or src.dim > 9:
            continue
        a = _rescaled(F, [[[F.coerce(c) for c in row] for row in plane] for plane in src.mul],
                      [F.coerce(c) for c in src.unit], rng)
        basis = [a._unit_vec(j) for j in range(a.dim)]
        vecs = [tuple(F.coerce(rng.randrange(F.p)) for _ in range(a.dim)) for _ in range(3)]
        vecs += [a.unit, basis[-1]]
        for x in vecs:
            for y in vecs:
                assert a.multiply_coords(x, y) == _tensor_product(a, x, y), entry
            # columns of the regular matrices are the images of the basis
            assert left_regular_coords(a, x).transpose().entries == tuple(
                _tensor_product(a, x, b) for b in basis), entry
            assert right_regular_coords(a, x).transpose().entries == tuple(
                _tensor_product(a, b, x) for b in basis), entry
        idems = _idempotents(a)
        for e in idems:
            assert _tensor_product(a, e, e) == e
            for f in idems + vecs[:1]:
                assert peirce_component(a, a.element(e), a.element(f)) == _peirce_span(a, e, f)
            b, rows = corner_data(a, a.element(e))
            assert rows == _peirce_span(a, e, e).basis_vectors(), entry
            for i, x in enumerate(rows):
                for j, y in enumerate(rows):
                    assert _combination(F, b.mul[i][j], rows) == _tensor_product(a, x, y)
            assert _combination(F, b.unit, rows) == e
            corners += 1
    assert corners > 40


def _typed(a):
    """Every scalar of the tensor and unit with its type, so 1 and Fraction(1) differ."""
    return ([(type(c), c) for plane in a.mul for row in plane for c in row],
            [(type(c), c) for c in a.unit])


def _internal_constructions(F):
    """(name, algebra) for every internal builder that skips coercion."""
    from fdalg.corpus import (cyclic_group_algebra, kronecker, random_local_algebra,
                              random_quiver_algebra, two_loop_q_algebra)
    from fdalg.formats import parse_algebra_text, write_algebra_text
    from fdalg.morita import basic_algebra, inflate
    from fdalg.structure import primitive_idempotents, quotient_algebra, radical

    t3, tri, kr = truncated_polynomial(F, 3), lower_triangular(F, 3), kronecker(F, 2)
    out = [("truncated", t3), ("triangular", tri), ("kronecker", kr),
           ("matrix", matrix_algebra(F, 2)), ("cyclic", cyclic_group_algebra(F, 3)),
           ("direct_sum", direct_sum(t3, kr)),
           ("random_quiver", random_quiver_algebra(F, 4, max_dim=12)),
           ("random_local", random_local_algebra(F, 2, max_dim=8)),
           ("parsed", parse_algebra_text(write_algebra_text(tri)))]
    if F.p != 2:  # q must avoid 0 and 1
        out.append(("a_q", two_loop_q_algebra(F, -1)))
    for name, a in (("triangular", tri), ("kronecker", kr)):
        for e in primitive_idempotents(a).idempotents:
            out.append((f"corner of {name}", corner_data(a, e)[0]))
        out.append((f"quotient of {name}", quotient_algebra(a, radical(a)).algebra))
    out.append(("inflated truncated", inflate(basic_algebra(t3), [2])))
    out.append(("inflated kronecker", inflate(basic_algebra(kr), [1, 2])))
    return out


@pytest.mark.parametrize("field", [F2, F5, BIG_P, QQ],
                         ids=["Fp:2", "Fp:5", "Fp:2147483659", "Q"])
def test_internal_constructions_hold_canonical_scalars(field):
    # the builders skip Field.coerce; the coercing constructor must agree on
    # every value and every type
    for name, a in _internal_constructions(field):
        assert _typed(a) == _typed(Algebra(field, a.mul, a.unit)), name


@pytest.mark.parametrize("field", [F2, F5, BIG_P, QQ],
                         ids=["Fp:2", "Fp:5", "Fp:2147483659", "Q"])
def test_element_results_hold_canonical_scalars(field):
    # products, sums, differences, negatives, multiples and the basis, unit
    # and zero elements skip Field.coerce; the coercing constructor must agree
    # on every value and every type
    from fractions import Fraction

    def typed(x):
        return [(type(c), c) for c in x.coords]

    rng = random.Random(11)
    raw = (-7, -1, 0, 1, 2, 5, 2 ** 40, Fraction(3, 7), "-4", "5/3")
    for name, a in _internal_constructions(field):
        x, y = (a.element([rng.choice(raw) for _ in range(a.dim)]) for _ in range(2))
        results = [x * y, a.multiply(y, x), x + y, x - y, -x, x.scale(3), 2 * x,
                   x * Fraction(-1, 3), x.scale("7"), a.unit_element(), a.zero_element(),
                   a.basis_element(a.dim - 1)]
        for r in results:
            assert typed(r) == typed(Element(a, r.coords)), name


def test_public_constructor_canonicalizes():
    from fractions import Fraction

    a = Algebra(F5, [[[-4]]], [Fraction(6, 1)])
    assert _typed(a) == ([(int, 1)], [(int, 1)])
    b = Algebra(F5, [[[Fraction(1, 2), "1/3"], [0, 7]], [[0, 0], [0, -1]]], [1, 0])
    assert b.mul == (((3, 2), (0, 2)), ((0, 0), (0, 4)))
    # over Q an integral value is an int, never a Fraction with denominator 1
    q = Algebra(QQ, [[[1]]], [1])
    assert _typed(q) == ([(int, 1)], [(int, 1)])
    h = Algebra(QQ, [[[Fraction(4, 2), "6/3"], [0, "5/3"]], [[0, 0], [0, 1.5]]], [1, 0])
    assert [(type(c), c) for c in h.mul[0][0] + h.mul[0][1] + h.mul[1][1]] == [
        (int, 2), (int, 2), (int, 0), (Fraction, Fraction(5, 3)), (int, 0), (Fraction, Fraction(3, 2))]


# -- powers by square-and-multiply -----------------------------------------------


def _repeated_power(a, x, e):
    """x^e as e - 1 products x·x···x, and the unit for e = 0."""
    acc = tuple(a.unit) if e == 0 else tuple(x)
    for _ in range(e - 1):
        acc = a.multiply_coords(acc, x)
    return acc


def _power_cases(a, rng):
    """A dense random element and a random basis vector of ``a``."""
    dense = [a.field.coerce(rng.randrange(-2, 3)) for _ in range(a.dim)]
    return [dense, a._unit_vec(rng.randrange(a.dim))]


def test_power_coords_matches_repeated_products(corpus):
    from fdalg.corpus import cyclic_group_algebra

    rng = random.Random(5)
    for entry in corpus:
        a = entry.algebra
        exponents = list(range(13)) + ([a.field.p] if a.field.p else [])
        for x in _power_cases(a, rng):
            for e in exponents:
                assert a.power_coords(x, e) == _repeated_power(a, x, e), (entry.name, e)
    for a in (truncated_polynomial(BIG_P, 5), lower_triangular(BIG_P, 3),
              matrix_algebra(BIG_P, 2), cyclic_group_algebra(BIG_P, 3)):
        for x in _power_cases(a, rng):
            for e in range(13):
                assert a.power_coords(x, e) == _repeated_power(a, x, e), e


@pytest.mark.parametrize("p,products", [(2, 1), (3, 2), (5, 3)])
def test_power_coords_makes_no_wasted_products(monkeypatch, p, products):
    # x^p starts from x at the lowest set bit and squares nothing after the last
    a = truncated_polynomial(GF(p), 8)
    calls = []
    real = Algebra.multiply_coords
    monkeypatch.setattr(Algebra, "multiply_coords",
                        lambda self, x, y: calls.append(1) or real(self, x, y))
    x = a._unit_vec(1)
    assert a.power_coords(x, p) == a._unit_vec(p)
    assert len(calls) == products
