import hashlib
import itertools

import numpy as np
import pytest

from fdalg.algebras import Algebra, direct_sum, matrix_algebra
from fdalg.corpus import (
    cyclic_group_algebra,
    kronecker,
    lower_triangular,
    random_quiver_algebra,
    s3_group_algebra,
    truncated_polynomial,
    two_loop_q_algebra,
)
from fdalg.errors import CharZero, NotBasic
from fdalg.fields import GF, QQ
from fdalg.invariants import (
    SYMMETRIC_BUDGET,
    acyc_cyc_space,
    codim_k_n,
    codim_series,
    commutator_subspace,
    is_local,
    k_n_space,
    k_of,
    p_power_space,
    peirce_codim_bound,
    rad_in_commutators,
    symmetrizing_form_search,
    verify_symmetrizing_form,
)
from fdalg.linalg import Matrix, kernel
from fdalg.structure import loewy_length, primitive_idempotents

F2, F3, F5 = GF(2), GF(3), GF(5)
# symmetrizing_form_search's "yes" verdicts on the acceptance corpus, as
# found before the centre certificate: count and sha256 of their lines
YES_COUNT = 140
YES_DIGEST = "a5f3ff5003923c69316483d94e3bbe94d6b75afd3cfd2f3004573878a4c3a5d0"


def test_commutator_ground_field():
    a = Algebra(QQ, [[[1]]], [1])
    assert commutator_subspace(a).dim == 0
    assert k_of(a) == 1


def test_commutator_two_loop():
    for q, field in ((2, F5), (3, F5), (2, QQ)):
        a = two_loop_q_algebra(field, q)
        k = commutator_subspace(a)
        assert k.dim == 1 and k_of(a) == 3


def test_commutator_matrix_trace_zero():
    for field in (QQ, F3, F5):
        a = matrix_algebra(field, 2)
        assert k_of(a) == 1
        # commutators span the trace-zero subspace: e11 - e22 included
        assert commutator_subspace(a).contains((1, 0, 0, field.neg(field.one())))
    # char 2: still codimension one
    assert k_of(matrix_algebra(F2, 2)) == 1


def test_codim_series_examples():
    assert codim_series(truncated_polynomial(QQ, 3)).values == [1, 2, 3]
    assert codim_series(two_loop_q_algebra(F5, 2)).values == [1, 3, 3]
    assert codim_series(kronecker(F2, 2)).values == [2, 2]


def test_codim_series_propagates_unexpected_errors(monkeypatch):
    import fdalg.invariants

    def broken(a, seed=0):
        raise RuntimeError("internal failure")

    monkeypatch.setattr(fdalg.invariants, "semisimple_decomposition", broken)
    with pytest.raises(RuntimeError, match="internal failure"):
        codim_series(truncated_polynomial(F3, 3))


def test_series_monotone_and_k():
    for a in (lower_triangular(QQ, 4), s3_group_algebra(F3),
              two_loop_q_algebra(F5, 2), cyclic_group_algebra(F2, 4)):
        s = codim_series(a)
        assert all(x <= y for x, y in zip(s.values, s.values[1:]))
        assert s.values[-1] == s.k == k_of(a)


def test_p_power_space_examples():
    t = truncated_polynomial(F2, 2)
    sp = p_power_space(t)
    assert sp.basis_vectors() == [(0, 1)] and sp.codim() == 1
    ss = direct_sum(Algebra(F3, [[[1]]], [1]), Algebra(F3, [[[1]]], [1]))
    assert p_power_space(ss).dim == 0 and p_power_space(ss).codim() == 2
    s3 = s3_group_algebra(F3)
    assert p_power_space(s3).codim() == 2  # simple-module count
    assert p_power_space(s3) == k_n_space(s3, 1)


def _reference_p_power_space(a):
    """K(A) plus the lifts of the stable kernel of phi, with the kernel of
    every power phi^m computed until its dimension stops growing."""
    from fdalg.linalg import span, subspace_sum

    F = a.field
    kspace = commutator_subspace(a)
    positions = kspace.complement_positions()
    q = len(positions)
    cols = tuple(kspace.coset_coords(a.power_coords(a._unit_vec(pos), F.p))
                 for pos in positions)
    phi = Matrix(F, q, q, cols).transpose()
    power, prev_dim, ker, steps = phi, -1, kernel(phi), 1
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
    return subspace_sum(kspace, span(F, a.dim, lifts)), ker.dim


def test_p_power_space_matches_the_kernel_of_every_power(corpus):
    algebras = [entry.algebra for entry in corpus if entry.algebra.field.p]
    algebras += [random_quiver_algebra((F2, F3, F5)[s % 3], s, max_dim=24) for s in range(140)]
    stable_dims = []
    for a in algebras:
        expected, stable_dim = _reference_p_power_space(a)
        assert p_power_space(a) == expected
        stable_dims.append(stable_dim)
    # phi has full rank (the stable kernel is 0) on some inputs, not on all
    assert 0 < stable_dims.count(0) < len(stable_dims)


def test_p_power_space_char0_raises():
    with pytest.raises(CharZero):
        p_power_space(truncated_polynomial(QQ, 2))


def test_acyc_cyc_local_reduces_to_radical_power():
    a = two_loop_q_algebra(F5, 2)
    idems = primitive_idempotents(a)
    from fdalg.structure import radical_power

    for n in (1, 2, 3):
        assert acyc_cyc_space(a, idems, n) == radical_power(a, n)


def test_acyc_cyc_triangular():
    t2 = lower_triangular(QQ, 2)
    idems = primitive_idempotents(t2)
    assert acyc_cyc_space(t2, idems, 1).codim() == 2


def test_acyc_cyc_kronecker():
    a = kronecker(F3, 2)
    idems = primitive_idempotents(a)
    assert acyc_cyc_space(a, idems, 2).codim() == 2


def test_acyc_cyc_requires_basic():
    m2 = matrix_algebra(F5, 2)
    idems = primitive_idempotents(m2)
    with pytest.raises(NotBasic):
        acyc_cyc_space(m2, idems, 1)


def test_peirce_bound_truncated_equality():
    for n in (3, 5):
        t = truncated_polynomial(F5, n)
        for m in range(1, n + 1):
            assert peirce_codim_bound(t, m) == m == codim_k_n(t, m)


def test_peirce_bound_two_loop():
    a = two_loop_q_algebra(F5, 2)
    assert [peirce_codim_bound(a, n) for n in (1, 2, 3)] == [1, 3, 4]
    assert [codim_k_n(a, n) for n in (1, 2, 3)] == [1, 3, 3]


def test_bound_equals_offdiagonal_span_codim_on_basic():
    # on basic algebras the diagonal Peirce bound is the codimension of the
    # off-diagonal plus diagonal-radical span, and equality at level n happens
    # exactly when the commutators sit inside that span
    cases = [
        lower_triangular(QQ, 2),
        lower_triangular(F3, 3),
        kronecker(F2, 2),
        two_loop_q_algebra(F5, 2),
        truncated_polynomial(F3, 4),
    ]
    for a in cases:
        idems = primitive_idempotents(a)
        kspace = commutator_subspace(a)
        for n in range(1, loewy_length(a) + 1):
            sp = acyc_cyc_space(a, idems, n)
            assert peirce_codim_bound(a, n) == sp.codim()
            inside = all(sp.contains(v) for v in kspace.basis_vectors())
            assert inside == (codim_k_n(a, n) == sp.codim())


def test_rad_in_commutators_examples():
    assert rad_in_commutators(lower_triangular(QQ, 3)) is True
    assert rad_in_commutators(truncated_polynomial(QQ, 2)) is False
    assert rad_in_commutators(matrix_algebra(F3, 2)) is True


def test_is_local():
    assert is_local(two_loop_q_algebra(F5, 2)) is True
    assert is_local(lower_triangular(QQ, 2)) is False
    assert is_local(cyclic_group_algebra(F2, 4)) is True
    assert is_local(cyclic_group_algebra(QQ, 3)) is None  # undecided over Q


def test_symmetrizing_form_truncated():
    for field in (F5, QQ):
        t = truncated_polynomial(field, 4)
        verdict = symmetrizing_form_search(t)
        assert verdict.kind == "yes"
        assert verify_symmetrizing_form(t, verdict.functional)
        # the classical certificate: coefficient of x^{n-1}
        assert verify_symmetrizing_form(t, [0, 0, 0, 1])


def test_symmetrizing_form_t2_exhaustive_no():
    assert symmetrizing_form_search(lower_triangular(F2, 2)).kind == "no"


def test_exhaustive_scan_tries_only_leading_coefficient_one(monkeypatch):
    import fdalg.invariants

    tried = []

    def never(a, dual, coeffs):
        tried.append(tuple(coeffs))
        return None

    monkeypatch.setattr(fdalg.invariants, "_trial", never)
    # commutative: dim Z = k = 3, so the scan over 3^3 forms runs to the end
    verdict = symmetrizing_form_search(truncated_polynomial(F3, 3))
    assert verdict.kind == "no" and verdict.reason.startswith("exhaustive scan: none of the 26")
    normalized = [c for c in itertools.product(range(3), repeat=3)
                  if any(c) and next(x for x in c if x) == 1]
    assert tried == normalized and len(tried) == (3 ** 3 - 1) // 2


def test_symmetrizing_form_group_algebra():
    for a in (cyclic_group_algebra(F3, 3), s3_group_algebra(F2)):
        verdict = symmetrizing_form_search(a)
        assert verdict.kind == "yes"
        assert verify_symmetrizing_form(a, verdict.functional)
        # coefficient-of-identity functional works for any group algebra
        ident = [1] + [0] * (a.dim - 1)
        assert verify_symmetrizing_form(a, ident)


def test_symmetrizing_form_t2_over_q_centre_no():
    # dim Z(T_2) = 1 but k(T_2) = 2, so no form on Q can symmetrize T_2
    verdict = symmetrizing_form_search(lower_triangular(QQ, 2))
    assert verdict.kind == "no"
    assert verdict.reason.startswith("centre: dim Z(A) = 1 != k(A) = 2")


def test_symmetrizing_form_unknown_over_fp():
    # dim Z = k = 7 and 5^7 forms exceed the scan budget: the random trials
    # find no nondegenerate form and decide nothing
    a = random_quiver_algebra(F5, 104)
    assert a.center().dim == k_of(a) == 7 and 5 ** 7 > SYMMETRIC_BUDGET
    verdict = symmetrizing_form_search(a)
    assert verdict.kind == "unknown" and verdict.functional is None
    assert verdict.reason.startswith("random trials exhausted")


def _invertible_exists(grams, p) -> bool:
    """Whether some matrix of the stack (n x d x d, entries mod p) is invertible.

    Batched forward elimination; a matrix leaves the stack at the first
    column without a pivot.
    """
    inv = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    g = grams % p
    for c in range(g.shape[1]):
        g = g[g[:, c:, c].any(axis=1)]
        if not len(g):
            return False
        rows = np.arange(len(g))
        piv = c + (g[:, c:, c] != 0).argmax(axis=1)
        top = g[rows, piv].copy()
        g[rows, piv] = g[rows, c]
        g[rows, c] = top
        factors = g[:, c + 1:, c] * inv[top[:, c]][:, None] % p
        g[:, c + 1:, :] = (g[:, c + 1:, :] - factors[:, :, None] * top[:, None, :]) % p
    return True


def _reference_symmetric(a) -> bool:
    """Exhaustive scan over F_p: does some form vanishing on every commutator
    b_i b_j - b_j b_i have a nondegenerate Gram matrix lambda(b_i b_j)?"""
    p, d = a.field.p, a.dim
    t = np.array(a.mul, dtype=np.int64)
    comm = (t - t.transpose(1, 0, 2)).reshape(d * d, d) % p
    forms = kernel(Matrix(a.field, d * d, d, tuple(map(tuple, comm.tolist()))))
    basis = np.array(forms.basis_vectors(), dtype=np.int64).reshape(-1, d)
    m = len(basis)
    assert m == k_of(a)
    index = np.arange(1, p ** m, dtype=np.int64)
    for start in range(0, len(index), 2048):
        chunk = index[start:start + 2048]
        coeffs = chunk[:, None] // p ** np.arange(m, dtype=np.int64) % p
        lam = coeffs @ basis % p
        if _invertible_exists(np.einsum("ijk,nk->nij", t, lam), p):
            return True
    return False


def test_symmetric_verdicts_match_exhaustive_reference():
    from test_acceptance import _criterion_2_3_corpus

    checked = 0
    for name, a in _criterion_2_3_corpus():
        F = a.field
        if F.is_prime_field and F.p ** k_of(a) <= SYMMETRIC_BUDGET:
            verdict = symmetrizing_form_search(a)
            assert verdict.kind == ("yes" if _reference_symmetric(a) else "no"), name
            checked += 1
    assert checked == 353


def test_symmetric_yes_verdicts_verify_and_hold():
    from test_acceptance import _criterion_2_3_corpus

    lines = []
    for name, a in _criterion_2_3_corpus():
        verdict = symmetrizing_form_search(a)
        if verdict.kind == "yes":
            assert verify_symmetrizing_form(a, verdict.functional), name
            fmt = a.field.format_scalar
            lines.append(f"{name}: {' '.join(fmt(c) for c in verdict.functional)}")
        elif verdict.reason.startswith("centre"):
            assert a.center().dim != k_of(a), name
    # the "yes" verdicts and functionals found before the centre certificate
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (YES_COUNT, YES_DIGEST)


def test_report_and_suite_share_memoized_analyses(monkeypatch):
    import fdalg.invariants
    import fdalg.structure
    from fdalg.classify import verify_theorem_suite
    from fdalg.cli import build_report

    calls = {"search": 0, "peirce": 0}
    search = fdalg.invariants._symmetrizing_form_search
    peirce_table = fdalg.structure._peirce_table
    spanned = []  # the algebra whose Peirce tables are counted

    def counting_search(a, seed):
        calls["search"] += 1
        return search(a, seed)

    def counting_peirce_table(alg, es):
        if alg is spanned[0]:
            calls["peirce"] += 1
        return peirce_table(alg, es)

    monkeypatch.setattr(fdalg.invariants, "_symmetrizing_form_search", counting_search)
    monkeypatch.setattr(fdalg.structure, "_peirce_table", counting_peirce_table)
    # the unit of FS_3 is one basis vector, so the basis guess is dropped and the
    # idempotents are searched
    a = s3_group_algebra(F5)
    spanned.append(a)
    report = build_report(a, 0)  # runs the theorem suite too; k = l, so it searches
    assert report["k"] == report["ell"] and report["theorems_ok"]
    assert "certified_candidate" not in a._cache
    # the search spans one Peirce table per seed, which its certificate,
    # the Cartan matrix and the basic corner all read
    assert calls == {"search": 1, "peirce": 1}
    verify_theorem_suite(a, 0)
    assert calls == {"search": 1, "peirce": 1}
    verify_theorem_suite(a, 1)
    assert calls == {"search": 2, "peirce": 2}
    # the matrix units E_ii of T_3 are the unit's support: the guessed idempotents
    # are certified and their Peirce table is read off the basis, with no span
    spanned[0] = b = lower_triangular(F5, 3)
    for seed in (0, 1):
        assert build_report(b, seed)["theorems_ok"]
        verify_theorem_suite(b, seed)
    assert calls == {"search": 4, "peirce": 2}
    # the spy sees a second span: a record rebuilt without its memo spans again
    spanned[0] = a
    del a._cache[("idempotent_search", 0)]
    fdalg.structure._idempotent_record(a, 0)
    assert calls == {"search": 4, "peirce": 3}


def test_memoized_results_are_fresh_objects():
    from fdalg.structure import cartan_matrix, ext1_diagonal

    a = lower_triangular(F5, 3)
    cartan = cartan_matrix(a)
    expected = [list(row) for row in cartan]
    cartan[0][0] = 99
    cartan.append([7])
    assert cartan_matrix(a) == expected
    ext1 = ext1_diagonal(a)
    ext1.append(5)
    assert ext1_diagonal(a) == ext1[:-1]
    series = codim_series(a)
    values = list(series.values)
    series.values[0] = 99
    series.values.append(4)
    assert codim_series(a).values == values
    assert codim_series(a) is not codim_series(a)
    sym = symmetrizing_form_search(a)
    sym.kind = "yes"
    assert symmetrizing_form_search(a).kind == "no"
