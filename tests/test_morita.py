import itertools

import pytest

from fdalg.algebras import Algebra, direct_sum, matrix_algebra
from fdalg.corpus import (
    kronecker,
    lower_triangular,
    s3_group_algebra,
    truncated_polynomial,
    two_loop_q_algebra,
)
from fdalg.errors import NotFull
from fdalg.fields import GF, QQ
from fdalg.invariants import codim_series, k_of
from fdalg.morita import (
    basic_algebra,
    basic_algebra_data,
    basic_idempotent,
    fullness_witness,
    inflate,
    inflation_dim,
    tau_map,
    verify_morita_invariance,
)
from fdalg.structure import cartan_matrix, primitive_idempotents

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_basic_of_basic_is_identity_sized():
    t3 = lower_triangular(QQ, 3)
    assert basic_idempotent(t3) == t3.unit_element()
    assert basic_algebra(t3).dim == t3.dim


def test_basic_algebra_data_is_cached_per_seed():
    a = inflate(kronecker(F3, 2), [2, 1])
    first = basic_algebra_data(a, 0)
    assert basic_algebra_data(a, 0) is first
    assert basic_algebra(a, 0) is first[0]


def test_basic_of_matrix_is_ground_field():
    b = basic_algebra(matrix_algebra(F5, 2))
    assert b.dim == 1


def test_fullness_witness_unit():
    a = truncated_polynomial(QQ, 3)
    w = fullness_witness(a, a.unit_element())
    assert w.verify()
    assert len(w.pairs) == 1


def test_fullness_witness_matrix_unit():
    m2 = matrix_algebra(QQ, 2)
    w = fullness_witness(m2, m2.basis_element(0))
    assert w.verify()
    assert len(w.pairs) == 2


def test_not_full():
    ff = direct_sum(Algebra(QQ, [[[1]]], [1]), Algebra(QQ, [[[1]]], [1]))
    with pytest.raises(NotFull):
        fullness_witness(ff, ff.basis_element(0))


def test_tau_matrix_algebra_to_field():
    m2 = matrix_algebra(QQ, 2)
    b, e, rows = basic_algebra_data(m2)
    w = fullness_witness(m2, e)
    tau = tau_map(m2, e, w, b, rows)
    assert tau.well_defined and tau.bijective
    assert tau.matrix.rows == 1 and tau.matrix.cols == 1


def test_tau_identity_for_basic():
    a = kronecker(F3, 2)
    rep = verify_morita_invariance(a)
    assert rep.ok
    assert rep.basic_dim == a.dim


def test_inflate_ground_field_gives_matrix_algebra():
    f = Algebra(QQ, [[[1]]], [1])
    m = inflate(f, [2])
    assert m.dim == 4 and m.validate().ok
    assert k_of(m) == 1
    assert basic_algebra(m).dim == 1


def test_inflate_truncated_dims_and_series():
    t3 = truncated_polynomial(F5, 3)
    infl = inflate(t3, [2])
    assert infl.dim == 12          # dim = sum m_i m_j dim e_i A e_j = 4 * 3
    assert infl.validate().ok
    assert k_of(infl) == 3
    assert codim_series(infl).values == codim_series(t3).values
    rep = verify_morita_invariance(infl)
    assert rep.ok and rep.basic_dim == 3


def test_inflate_kronecker_mixed_multiplicities():
    k1 = kronecker(F2, 1)
    assert inflation_dim(k1, [1, 2]) == 7
    infl = inflate(k1, [1, 2])
    assert infl.dim == 7 and infl.validate().ok
    assert codim_series(infl).values == [2, 2]
    assert verify_morita_invariance(infl).ok


def test_inflate_two_loop_preserves_series():
    a = two_loop_q_algebra(F5, 2)
    infl = inflate(a, [3])
    assert infl.dim == 36
    rep = verify_morita_invariance(infl)
    assert rep.ok
    assert codim_series(infl).values == [1, 3, 3]


def _cartan_canonical(c):
    """Cartan matrix up to simultaneous permutation of the class labels."""
    n = len(c)
    best = None
    for perm in itertools.permutations(range(n)):
        arranged = tuple(tuple(c[perm[i]][perm[j]] for j in range(n)) for i in range(n))
        if best is None or arranged < best:
            best = arranged
    return best


def test_inflate_and_rebasic_idempotent_on_invariants():
    t2 = lower_triangular(F3, 2)
    for mult in itertools.product((1, 2), repeat=2):
        infl = inflate(t2, list(mult))
        b = basic_algebra(infl)
        assert codim_series(b).values == codim_series(t2).values
        assert _cartan_canonical(cartan_matrix(b)) == _cartan_canonical(cartan_matrix(t2))


def test_morita_report_on_semisimple_group_algebra():
    rep = verify_morita_invariance(s3_group_algebra(F5))
    assert rep.ok
    assert rep.basic_dim == 3  # F x F x F for the three simples


def _witness_over_all_products(a, e):
    """A fullness witness solved over all d^2 products b_i·e·b_j."""
    from fdalg.linalg import solve_in_span
    from fdalg.morita import FullnessWitness

    index = [(i, j) for i in range(a.dim) for j in range(a.dim)]
    rows = [a.sandwich_coords(a._unit_vec(i), e.coords, a._unit_vec(j)) for i, j in index]
    coeffs = solve_in_span(a.field, rows, a.unit)
    return FullnessWitness(e, [(a.basis_element(i).scale(c), a.basis_element(j))
                               for c, (i, j) in zip(coeffs, index) if c])


@pytest.mark.parametrize("field", [F2, F3, QQ, GF(2147483659)],
                         ids=["Fp:2", "Fp:3", "Q", "Fp:2147483659"])
def test_pruned_witness_gives_the_same_tau(field, monkeypatch):
    # the witness solves on rank-raising products only (at most d rows and
    # d pairs); the coset map does not depend on the witness
    import fdalg.morita
    from fdalg.linalg import solve_in_span

    solved = []

    def spy(field, rows, target):
        solved.append(len(rows))
        return solve_in_span(field, rows, target)

    monkeypatch.setattr(fdalg.morita, "solve_in_span", spy)
    cases = [(truncated_polynomial(field, 2), [3]), (lower_triangular(field, 2), [1, 2]),
             (kronecker(field, 2), [2, 1])]
    if field.p != 2:
        cases.append((two_loop_q_algebra(field, -1), [2]))
    for src, mult in cases:
        a = inflate(basic_algebra(src), mult)
        b, e, rows = basic_algebra_data(a)
        w = fullness_witness(a, e)
        assert solved[-1] <= a.dim and len(w.pairs) <= a.dim and w.verify()
        full = _witness_over_all_products(a, e)
        assert full.verify()
        assert tau_map(a, e, w, b, rows).matrix == tau_map(a, e, full, b, rows).matrix
