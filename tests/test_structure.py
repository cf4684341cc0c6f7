import itertools
import random

import numpy as np
import pytest

from fdalg import _kernels, _numutil, algebras, structure
from fdalg.algebras import Algebra, corner_data, direct_sum, matrix_algebra
from fdalg.corpus import (
    cyclic_group_algebra,
    kronecker,
    lower_triangular,
    random_quiver_algebra,
    s3_group_algebra,
    truncated_polynomial,
    two_loop_q_algebra,
)
from fdalg.errors import InternalInconsistency, NotSplit, SplitUndecided
from fdalg.fields import GF, QQ
from fdalg.formats import parse_algebra_text, write_algebra_text
from fdalg.invariants import acyc_cyc_space, codim_series, commutator_subspace
from fdalg.linalg import span
from fdalg.morita import basic_algebra_data, inflate, inflation_dim
from fdalg.oracle import RADICAL_ORACLE_CAP, radical_oracle
from fdalg.structure import (
    _ideal_contains_products,
    _kernel_combos,
    _nilpotency_chain,
    _trace_gram,
    cartan_matrix,
    ell,
    ext1_diagonal,
    loewy_length,
    minimal_polynomial,
    primitive_idempotents,
    radical,
    radical_power,
    semisimple_decomposition,
    semisimple_quotient,
    wedderburn_split,
)
from regular_matrices import left_regular_coords
from test_algebras import _rescaled

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_radical_semisimple_is_zero():
    assert radical(matrix_algebra(QQ, 2)).dim == 0
    assert radical(matrix_algebra(F2, 2)).dim == 0
    assert radical(matrix_algebra(F2, 3)).dim == 0


def test_radical_triangular_char0():
    t3 = lower_triangular(QQ, 3)
    r = radical(t3)
    assert r.dim == 3  # strict lower triangle
    # basis elements e_ij with i > j are in the radical
    for v in r.basis_vectors():
        assert t3.unit[0] is not None  # structural smoke
    assert loewy_length(t3) == 3


def test_radical_z2_char2():
    a = cyclic_group_algebra(F2, 2)
    assert radical(a).basis_vectors() == [(1, 1)]
    assert loewy_length(a) == 2


def test_radical_powers_truncated():
    t = truncated_polynomial(QQ, 4)
    for n in range(1, 5):
        assert radical_power(t, n).dim == 4 - n
    assert loewy_length(t) == 4


def test_radical_powers_two_loop():
    a = two_loop_q_algebra(F5, 2)
    assert radical(a).dim == 3
    assert radical_power(a, 2).dim == 1
    assert radical_power(a, 3).dim == 0
    assert loewy_length(a) == 3


def test_loewy_length_semisimple():
    assert loewy_length(s3_group_algebra(F5)) == 1


def _chain_by_products(a):
    """J, J^2, ... up to the first zero, each J^n spanned by the products
    J^(n-1)·J of basis vectors, apart from the chain ``radical`` caches."""
    rows = radical(a).basis_vectors()
    chain = [span(a.field, a.dim, rows)]
    while chain[-1].dim and len(chain) <= a.dim:
        prev = chain[-1].basis_vectors()
        chain.append(span(a.field, a.dim, [a.multiply_coords(u, v) for u in prev for v in rows]))
    return chain


# Q[x]/(x^3) on the basis 1, x, x + x^2: every product of x and x + x^2 is
# x^2 = b_2 - b_1, so b_1's first product is b_1·b_1 and the grading guess drops
Q_UNGRADED_TEXT = """algebra dim=3 field=Q
unit: 1 0 0
mul 0 0 0 1
mul 0 1 1 1
mul 0 2 2 1
mul 1 0 1 1
mul 2 0 2 1
mul 1 1 1 -1
mul 1 1 2 1
mul 1 2 1 -1
mul 1 2 2 1
mul 2 1 1 -1
mul 2 1 2 1
mul 2 2 1 -1
mul 2 2 2 1
"""


def _route(a):
    """The route ``radical`` takes on A."""
    if structure._guessed_radical(a) is not None:
        return "graded"
    return "char 0" if a.field.characteristic == 0 else "char p"


def _chain_route_input(route):
    """An algebra of the named kind, and the radical route it must take."""
    big = inflate(truncated_polynomial(F5, 3), [2])
    if route == "quiver":
        return random_quiver_algebra(F3, 3, max_dim=12), "graded"
    if route == "inflation":
        # F_3[C_3] has no grading, nor has its inflation
        return inflate(cyclic_group_algebra(F3, 3), [2]), "char p"
    if route == "graded inflation":
        return big, "graded"
    if route == "corner":
        return basic_algebra_data(big)[0], "graded"
    if route == "Q text":
        return parse_algebra_text(Q_UNGRADED_TEXT), "char 0"
    source = {"Fp text": cyclic_group_algebra(F2, 4), "semisimple Fp": s3_group_algebra(F5)}[route]
    return parse_algebra_text(write_algebra_text(source)), "char p"


@pytest.mark.parametrize("route", ["quiver", "inflation", "graded inflation", "corner", "Q text",
                                   "Fp text", "semisimple Fp"])
def test_radical_power_reads_the_certified_chain(route):
    a, want = _chain_route_input(route)
    assert _route(a) == want
    chain = _chain_by_products(a)
    ll = loewy_length(a)
    assert chain[-1].dim == 0 and all(sub.dim for sub in chain[:-1])
    assert ll == len(chain) and ll >= (1 if route == "semisimple Fp" else 3)
    for n in range(1, ll + 3):
        assert radical_power(a, n) == chain[min(n, ll) - 1], n


def test_minimal_polynomial_basics():
    m2 = matrix_algebra(F5, 2)
    assert minimal_polynomial(m2, m2._unit_vec(0)) == [0, 4, 1]  # x^2 - x
    assert minimal_polynomial(m2, m2._unit_vec(1)) == [0, 0, 1]  # nilpotent: x^2
    assert minimal_polynomial(m2, m2.unit) == [4, 1]             # x - 1


def test_wedderburn_f3_s3():
    a = s3_group_algebra(F3)
    centrals, split = wedderburn_split(a)
    assert split and len(centrals) == 2
    s = semisimple_quotient(a).algebra
    for e in centrals:
        assert e * e == e
        # central in A/J
        for i in range(s.dim):
            b = s.basis_element(i)
            assert e * b == b * e


def test_wedderburn_nonsplit_f2_z3():
    a = cyclic_group_algebra(F2, 3)
    centrals, split = wedderburn_split(a)
    assert not split
    assert len(centrals) == 2
    dec = semisimple_decomposition(a)
    assert sorted(dec.component_dims) == [1, 2]


def test_wedderburn_matrix():
    a = matrix_algebra(F5, 2)
    centrals, split = wedderburn_split(a)
    assert split and len(centrals) == 1
    dec = semisimple_decomposition(a)
    assert dec.component_dims == [4] and len(dec.components[0]) == 2


def test_semisimple_quotient_is_built_only_by_the_search():
    # a guessed record, and the report read off it, build no A/J; the search
    # splits A/J, so a searched input builds it once
    from fdalg.cli import build_report

    for a in (truncated_polynomial(F5, 3), random_quiver_algebra(F3, 5, max_dim=16)):
        build_report(a)
        assert "certified_candidate" in a._cache and "ss_quotient" not in a._cache
    a = s3_group_algebra(F3)
    build_report(a)
    assert ("idempotent_search", 0) in a._cache and "ss_quotient" in a._cache


def test_split_undecided_over_q():
    a = cyclic_group_algebra(QQ, 3)  # Q x Q(omega)
    with pytest.raises(SplitUndecided):
        primitive_idempotents(a)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2 ** 31 + 11])
def test_cyclic_group_decomposition_closed_form(p):
    # with n = p^a·n', F_p[C_n]/J = F_p[x]/(x^n' - 1), whose factors are the
    # fields F_{p^|O|} over the orbits O of x -> p·x on Z/n'
    field = GF(p)
    for n in range(2, 13):
        m = n
        while m % p == 0:
            m //= p
        orbits = {frozenset(x * p ** i % m for i in range(m)) for x in range(m)}
        sizes = sorted(len(o) for o in orbits)
        dec = semisimple_decomposition(cyclic_group_algebra(field, n))
        assert (len(dec.components), dec.split, sorted(dec.corner_dims)) == (
            len(sizes), sizes == [1] * len(sizes), sizes), n


def _poly_quotient(field, low):
    """F[x]/(x^n + low[n-1]·x^(n-1) + ... + low[0]) on the basis 1, x, ..., x^(n-1)."""
    n = len(low)
    z, o = field.zero(), field.one()
    powers = [[o if i == k else z for i in range(n)] for k in range(n)]
    for _ in range(n - 1):  # x·x^k, with x^n = -(low[0] + ... + low[n-1]·x^(n-1))
        prev = powers[-1]
        powers.append([field.sub(prev[i - 1] if i else z, field.mul(prev[-1], low[i]))
                       for i in range(n)])
    return Algebra(field, [[powers[i + j] for j in range(n)] for i in range(n)], powers[0])


@pytest.mark.parametrize("p,low", [(2, (1, 1)), (3, (1, 0)), (2 ** 31 + 11, (1, 0))])
def test_is_field_fp_accepts_quadratic_fields(p, low):
    # x^2 + x + 1 over F_2; x^2 + 1 over F_3 and over 2^31 + 11, both 3 mod 4
    assert structure._is_field_fp(_poly_quotient(GF(p), low))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_field_fp_matches_root_test(p):
    # a monic f of degree 2 or 3 is irreducible iff it has no root in F_p, and
    # F_p[x]/(f) is a field iff f is irreducible
    field = GF(p)
    for n in (2, 3):
        for low in itertools.product(range(p), repeat=n):
            rootless = all((t ** n + sum(c * t ** i for i, c in enumerate(low))) % p
                           for t in range(p))
            assert structure._is_field_fp(_poly_quotient(field, low)) == rootless, low


@pytest.mark.parametrize("p", [2, 3, 2 ** 31 + 11])
def test_is_field_fp_rejects_split_and_nonreduced(p):
    field = GF(p)
    fp = truncated_polynomial(field, 1)
    # Frobenius is the identity on F_p x F_p: injective, fixing a plane
    assert not structure._is_field_fp(direct_sum(fp, fp))
    # and kills x in F_p[x]/(x^2): not injective
    assert not structure._is_field_fp(truncated_polynomial(field, 2))


def test_is_field_fp_stops_at_the_second_fixed_point(monkeypatch):
    # on F_5^4 every b_i is fixed: the second shifted image already fails
    fp = truncated_polynomial(F5, 1)
    b = direct_sum(direct_sum(fp, fp), direct_sum(fp, fp))
    powers = []
    power = Algebra.power_coords
    monkeypatch.setattr(Algebra, "power_coords", lambda a, x, e: powers.append(x) or power(a, x, e))
    assert not structure._is_field_fp(b)
    assert len(powers) == 2


def test_primitive_idempotents_local():
    a = two_loop_q_algebra(F5, 2)
    idems = primitive_idempotents(a)
    assert len(idems) == 1
    assert idems.idempotents[0] == a.unit_element()


def test_primitive_idempotents_triangular():
    t3 = lower_triangular(QQ, 3)
    idems = primitive_idempotents(t3)
    assert len(idems) == 3
    assert len(idems.iso_classes) == 3
    total = t3.zero_element()
    for i, e in enumerate(idems.idempotents):
        assert e * e == e
        for j, f in enumerate(idems.idempotents):
            if i != j:
                assert (e * f).is_zero() and (f * e).is_zero()
        total = total + e
    assert total == t3.unit_element()


def test_primitive_idempotents_matrix_one_class():
    m2 = matrix_algebra(F5, 2)
    idems = primitive_idempotents(m2)
    assert len(idems) == 2
    assert len(idems.iso_classes) == 1


def test_not_split_raises():
    with pytest.raises(NotSplit):
        primitive_idempotents(cyclic_group_algebra(F2, 3))


def test_cartan_truncated():
    for n in (2, 3, 5):
        t = truncated_polynomial(F3, n)
        assert cartan_matrix(t) == [[n]]
        assert ell(t) == 1
        assert ext1_diagonal(t) == [1]


def test_cartan_kronecker():
    for n in (1, 2, 4):
        a = kronecker(F2, n)
        c = cartan_matrix(a)
        assert sorted(sum(c, [])) == sorted([1, n, 0, 1])
        assert c[0][0] == 1 and c[1][1] == 1
        assert ext1_diagonal(a) == [0, 0]
        assert ell(a) == 2


def test_cartan_two_loop():
    a = two_loop_q_algebra(F5, 2)
    assert cartan_matrix(a) == [[4]]
    assert ell(a) == 1
    assert ext1_diagonal(a) == [2]


def test_idempotent_lifting_nontrivial_radical():
    # T_3 over F_2 forces lifting through a nontrivial radical in char 2
    t3 = lower_triangular(F2, 3)
    idems = primitive_idempotents(t3)
    assert len(idems) == 3
    s = semisimple_quotient(t3)
    for e in idems.idempotents:
        assert e * e == e
        assert not e.is_zero()


def test_structure_report_fields():
    from fdalg.cli import build_report

    rep = build_report(two_loop_q_algebra(F5, 3))
    assert rep["split"] is True
    assert rep["ell"] == 1 and rep["loewy_length"] == 3 and rep["radical_dim"] == 3
    rep2 = build_report(cyclic_group_algebra(F2, 5))
    assert rep2["split"] is False and rep2["cartan"] is None
    rep3 = build_report(cyclic_group_algebra(QQ, 3))
    assert rep3["split"] is None and rep3["ell"] == "unavailable"


def test_trace_of_cartan_is_peirce_diagonal_sum():
    from fdalg.structure import peirce_component

    for a in (lower_triangular(QQ, 3), kronecker(F3, 2), two_loop_q_algebra(F5, 2)):
        idems = primitive_idempotents(a)
        reps = [idems.idempotents[r] for r in idems.basic_representatives]
        c = cartan_matrix(a)
        assert sum(c[i][i] for i in range(len(reps))) == sum(
            peirce_component(a, e, e).dim for e in reps)


def test_semisimple_multiplicity_reconstruction():
    # sum over classes of (multiplicity x simple dim) recovers dim A/J when split
    for a in (matrix_algebra(F3, 2), s3_group_algebra(F5), lower_triangular(F5, 3),
              direct_sum(matrix_algebra(F2, 2), matrix_algebra(F2, 2))):
        dec = semisimple_decomposition(a)
        assert dec.split
        total = sum(len(comp) ** 2 for comp in dec.components)
        assert total == semisimple_quotient(a).algebra.dim


# -- corners ----------------------------------------------------------------------

BIG_P = 2147483659  # above the exact-float64 gate: the tuple path


def _split_or_none(a):
    try:
        return a if semisimple_decomposition(a).split else None
    except SplitUndecided:
        return None


def test_corner_skips_radical_not_yet_known():
    # a corner computes no radical, of A or of itself
    a = lower_triangular(F5, 3)
    b, _ = corner_data(a, a.basis_element(0))
    assert "radical" not in a._cache
    assert "radical" not in b._cache


def test_wrong_radical_candidate_is_rejected():
    # A itself is a two-sided ideal of A, but not a nilpotent one
    t3 = truncated_polynomial(F3, 3)
    with pytest.raises(RuntimeError, match="not nilpotent"):
        structure._check_radical(t3, span(t3.field, t3.dim, [b.coords for b in t3.basis()]))
    assert "radical" not in t3._cache


def test_product_outside_corner_raises(monkeypatch):
    a = lower_triangular(F5, 2)
    # e00·T_2·e00 = span{e00}; a corrupted product of corner rows lands on
    # e10 instead.  The corruption starts once the corner basis is built, so
    # the corner itself is sound and only the products are wrong.
    real_peirce_rows = algebras.peirce_rows

    def peirce_rows_then_corrupt(alg, e, f):
        sub = real_peirce_rows(alg, e, f)
        monkeypatch.setattr(Algebra, "multiply_coords", lambda self, x, y: (0, 1, 0))
        return sub

    monkeypatch.setattr(algebras, "peirce_rows", peirce_rows_then_corrupt)
    with pytest.raises(RuntimeError, match="not multiplicatively closed"):
        corner_data(a, a.basis_element(0))


@pytest.mark.parametrize("p", [5, BIG_P])
def test_ideal_test_rejects_one_sided_ideal(p):
    t2 = lower_triangular(GF(p), 2)
    # basis e00, e10, e11 with e_ij·e_kl = [j == k] e_il: e00·T_2 = span{e00}
    e = t2.basis_element(0)
    right = span(t2.field, t2.dim,
                 [t2.multiply_coords(e.coords, b.coords) for b in t2.basis()])
    assert right.basis_vectors() == [(1, 0, 0)]
    r = right.basis_vectors()[0]
    assert all(right.contains(t2.multiply_coords(r, b.coords)) for b in t2.basis())
    assert not all(right.contains(t2.multiply_coords(b.coords, r)) for b in t2.basis())
    assert not _ideal_contains_products(t2, right)
    assert _ideal_contains_products(t2, radical(t2))


def _ideal_contains_products_loop(a, sub):
    """Reference: every product b_i·r and r·b_i, tested one at a time."""
    return all(sub.contains(a.multiply_coords(b.coords, r))
               and sub.contains(a.multiply_coords(r, b.coords))
               for b in a.basis() for r in sub.basis_vectors())


def test_batched_ideal_test_matches_loop(corpus):
    # every corpus field, and F_p above the float64 gate on the Q entries' tensors
    big = GF(BIG_P)
    inputs = [(entry.name, entry.algebra) for entry in corpus]
    inputs += [(f"{entry.name[:-1]}{big}", Algebra(big, entry.algebra.mul, entry.algebra.unit))
               for entry in corpus if entry.name.endswith("/Q")]
    verdicts = {}
    for name, a in inputs:
        subs = [radical(a), commutator_subspace(a)]
        for b in a.basis()[:3]:  # the right ideal b·A and the left ideal A·b
            subs.append(span(a.field, a.dim,
                             [a.multiply_coords(b.coords, x.coords) for x in a.basis()]))
            subs.append(span(a.field, a.dim,
                             [a.multiply_coords(x.coords, b.coords) for x in a.basis()]))
        for sub in subs:
            want = _ideal_contains_products_loop(a, sub)
            assert _ideal_contains_products(a, sub) == want, name
            verdicts.setdefault(str(a.field), set()).add(want)
    assert verdicts == {str(F): {True, False} for F in (F2, F3, F5, GF(7), QQ, big)}


# -- the trace form against the regular matrices, entry by entry ---------------


def _trace_gram_reference(a):
    """G[x][y] = tr(L_x L_y) over the basis, from the left regular matrices."""
    F = a.field
    mats = [left_regular_coords(a, a._unit_vec(i)).entries for i in range(a.dim)]
    out = []
    for ex in mats:
        row = []
        for ey in mats:
            acc = F.zero()
            for i in range(a.dim):
                for j in range(a.dim):
                    if ex[i][j] and ey[j][i]:
                        acc = F.add(acc, F.mul(ex[i][j], ey[j][i]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.parametrize("field", [F2, F3, F5, QQ, GF(BIG_P)], ids=str)
def test_trace_gram_matches_regular_matrix_reference(corpus, field):
    rng = random.Random(field.p)
    F = field
    inputs = [e.algebra for e in corpus if e.algebra.field == F]
    inputs += [_rescaled(F, [[[F.coerce(c) for c in row] for row in plane] for plane in src.mul],
                         [F.coerce(c) for c in src.unit], rng)
               for src in (e.algebra for e in corpus if e.name.endswith("/Q")) if src.dim <= 9]
    nonzero = 0
    for a in inputs:
        got = _trace_gram(a)
        assert got == _trace_gram_reference(a), a
        nonzero += any(map(any, got))
    assert len(inputs) >= 20 and nonzero >= 15


# -- char-p radical stages: lifted power traces against the charpoly loop ------


def _generic(a):
    """A copy of kind "generic" with an empty cache: with the grading
    guess switched off (``_guessed_grading`` patched to None), the char-p
    route runs, even on M_n(F) or an inflation, whose guess holds."""
    return Algebra(a.field, a.mul, a.unit, _canonical=True)


def _charpoly_stage_reference(a, vecs, power):
    """Reference stage matrix: G[y][x] = c_power(L_x L_y), one charpoly per pair."""
    p, d = a.field.p, a.dim
    m = len(vecs)
    # contracting with the tensor gives L̃ᵀ, so transpose back to L̃[k, j] = Σ_i v_i c[i, j, k]
    ls = np.tensordot(np.array(vecs, dtype=np.int64), a._np_tensor,
                      axes=([1], [0])).transpose(0, 2, 1) % p
    gram = [[0] * m for _ in range(m)]
    for y in range(m):
        prods = _numutil.mat_mul_mod(ls.reshape(m * d, d), ls[y], p).reshape(m, d, d)
        for x in range(m):
            gram[y][x] = _kernels.fp_charpoly(prods[x].tolist(), p)[d - power]
    return gram


def _radical_charp_reference(a):
    """(stage spaces, radical) of the charpoly stage loop that power traces replaced."""
    F = a.field
    p, d = F.p, a.dim
    vecs = [tuple(a._unit_vec(i)) for i in range(d)]
    vecs = _kernel_combos(F, _trace_gram_reference(a), vecs)
    stages = []
    power = p
    while power <= d and vecs:
        sub = span(F, d, vecs)
        if _ideal_contains_products(a, sub) and _nilpotency_chain(a, sub) is not None:
            return stages, sub
        stages.append(sub)
        vecs = _kernel_combos(F, _charpoly_stage_reference(a, vecs, power), vecs)
        power *= p
    return stages, span(F, d, vecs)


def _power_trace_route(a, monkeypatch):
    """(stage spaces, radical) of structure.radical, recording each stage it runs."""
    stages = []
    real = structure._power_trace_gram

    def recording(alg, sub, power):
        stages.append(sub)
        return real(alg, sub, power)

    with monkeypatch.context() as mp:
        mp.setattr(structure, "_power_trace_gram", recording)
        mp.setattr(structure, "_guessed_grading", lambda a: None)
        rad = radical(a)
    return stages, rad


def _charp_differential_inputs(corpus):
    for entry in corpus:
        a = entry.algebra
        if a.field.characteristic not in (2, 3, 5):
            continue
        yield entry.name, a
        if _split_or_none(a) is None:
            continue
        b = basic_algebra_data(a)[0]
        ell = len(semisimple_decomposition(a).components)
        for mult in itertools.product((1, 2), repeat=ell):
            if any(m > 1 for m in mult) and inflation_dim(b, list(mult)) <= 16:
                yield f"{entry.name} inflated {mult}", inflate(b, list(mult))
    for field in (F2, F3, F5):
        for seed in range(140):
            yield f"quiver(seed={seed})/{field}", random_quiver_algebra(field, seed, max_dim=24)


def test_power_trace_stages_match_charpoly_reference(corpus, monkeypatch):
    stages_run = cutting = oracle_checked = 0
    for name, a in _charp_differential_inputs(corpus):
        want_stages, want_rad = _radical_charp_reference(_generic(a))
        got_stages, got_rad = _power_trace_route(_generic(a), monkeypatch)
        assert got_stages == want_stages, name
        assert got_rad == want_rad, name
        if got_stages and a.field.p ** a.dim <= RADICAL_ORACLE_CAP:
            assert got_rad == radical_oracle(_generic(a)), name
            oracle_checked += 1
        stages_run += len(got_stages)
        cutting += sum(nxt.dim < cur.dim for cur, nxt in zip(got_stages, got_stages[1:] + [got_rad]))
    assert stages_run >= 300 and cutting >= 200 and oracle_checked >= 150


def test_stage_space_that_is_not_an_ideal_raises(monkeypatch):
    monkeypatch.setattr(structure, "_guessed_grading", lambda a: None)
    monkeypatch.setattr(structure, "_ideal_contains_products", lambda a, sub: False)
    with pytest.raises(InternalInconsistency, match="not a two-sided ideal"):
        radical(_generic(matrix_algebra(F2, 4)))


def test_power_trace_not_divisible_raises(monkeypatch):
    monkeypatch.setattr(structure, "_guessed_grading", lambda a: None)
    real = structure._lifted_power_traces
    monkeypatch.setattr(structure, "_lifted_power_traces",
                        lambda a, w, power, modulus: (real(a, w, power, modulus) + 1) % modulus)
    with pytest.raises(InternalInconsistency, match="not divisible"):
        radical(_generic(matrix_algebra(F2, 4)))


def test_radical_stages_make_no_charpoly(monkeypatch):
    m4 = matrix_algebra(F2, 4)
    infl = inflate(basic_algebra_data(kronecker(F3, 4))[0], [1, 2])
    want = [_radical_charp_reference(_generic(a))[1] for a in (m4, infl)]

    def no_charpoly(mat, p):
        raise AssertionError("fp_charpoly called")

    monkeypatch.setattr(_kernels, "fp_charpoly", no_charpoly)
    got = [_power_trace_route(_generic(a), monkeypatch) for a in (m4, infl)]
    assert [rad for _, rad in got] == want
    assert want[0].dim == 0 and len(got[0][0]) >= 1 and len(got[1][0]) >= 2


# -- the Peirce table against per-pair spans ------------------------------------


def _acyc_cyc_reference(a, idems, n):
    """The off-diagonal plus level-n diagonal-radical span, from the hand loops
    over basis images and J^n rows that the Peirce table replaced."""
    es = idems.idempotents
    vecs = []
    for i, ei in enumerate(es):
        for j, ej in enumerate(es):
            if i != j:
                vecs += [a.sandwich_coords(ei.coords, a._unit_vec(b), ej.coords)
                         for b in range(a.dim)]
    for ei in es:
        vecs += [a.sandwich_coords(ei.coords, w, ei.coords)
                 for w in radical_power(a, n).basis_vectors()]
    return span(a.field, a.dim, vecs)


def _sandwich_reference(a, reps, n):
    """e·J^n·e for each representative e, as the span of e·w·e over a basis
    w of J^n: two products per w and no intersection."""
    rows = radical_power(a, n).basis_vectors()
    return [span(a.field, a.dim, [a.sandwich_coords(e.coords, w, e.coords) for w in rows])
            for e in reps]


def _wedderburn_reference(a):
    """(components, component dims) of A/J from all m² Peirce dims e_i·S·e_j,
    over the images in A/J of the record's idempotents."""
    qd = semisimple_quotient(a)
    s = qd.algebra
    prims = [qd.image(e) for e in structure._idempotent_record(a, 0).idempotents]
    m = len(prims)
    dims = [[algebras.peirce_rows(s, e, f).dim for f in prims] for e in prims]
    comp_of = list(range(m))
    for i in range(m):
        for j in range(m):
            if dims[i][j] and comp_of[i] != comp_of[j]:
                old, new = comp_of[i], comp_of[j]
                comp_of = [new if c == old else c for c in comp_of]
    groups = {}
    for i in range(m):
        groups.setdefault(comp_of[i], []).append(i)
    components = sorted(groups.values(), key=min)
    return components, [sum(dims[i][j] for i in c for j in c) for c in components]


def _peirce_inputs(corpus):
    for entry in corpus:
        yield entry.name, entry.algebra
    for field in (F2, F3):
        for seed in range(10):
            yield f"quiver(seed={seed})/{field}", random_quiver_algebra(field, seed, max_dim=16)
    # inflations of basic algebras whose idempotents are basis vectors
    yield "triangular(2)/Fp:3 x[2, 1]", inflate(lower_triangular(F3, 2), [2, 1])
    yield "kronecker(2)/Fp:2 x[1, 2]", inflate(kronecker(F2, 2), [1, 2])
    yield "truncated(3)/Fp:5 x[2]", inflate(truncated_polynomial(F5, 3), [2])


def test_peirce_table_matches_per_pair_spans(corpus):
    grids = basic = levels = coordinate = 0
    for name, a in _peirce_inputs(corpus):
        try:
            dec = semisimple_decomposition(a)
        except SplitUndecided:
            continue
        assert (dec.components, dec.component_dims) == _wedderburn_reference(a), name
        if not dec.split:
            continue
        idems = primitive_idempotents(a)
        reps = [idems.idempotents[r] for r in idems.basic_representatives]
        grid = structure.peirce_grid(a)
        assert [list(row) for row in grid] == [
            [structure.peirce_component(a, e, f) for f in reps] for e in reps], name
        grids += 1
        # read off the basis, with no span, when the idempotents are basis vectors
        coordinate += structure._coordinate_blocks(
            a, [e.coords for e in idems.idempotents]) is not None
        for n in range(1, loewy_length(a) + 1):
            diag = structure.peirce_radical_diagonal(a, n)
            assert list(diag) == _sandwich_reference(a, reps, n), (name, n)
            levels += 1
            if len(idems) == len(idems.iso_classes):
                assert acyc_cyc_space(a, idems, n) == _acyc_cyc_reference(a, idems, n), (name, n)
                basic += 1
    assert grids >= 100 and basic >= 250 and levels >= 300
    assert coordinate >= 100 and grids - coordinate >= 8, (coordinate, grids)


def test_peirce_diagonal_on_random_basis_copies():
    # blocks that are not coordinate subspaces take the echelon intersection
    sources = [lower_triangular(F5, 3), kronecker(F3, 2), truncated_polynomial(F2, 4),
               inflate(lower_triangular(F3, 2), [2, 1])]
    sources += [random_quiver_algebra(F3, seed, max_dim=9) for seed in range(4)]
    rng = random.Random(32)
    spanned = 0
    for src in sources:
        a = _random_basis_copy(src, rng)
        idems = primitive_idempotents(a)
        reps = [idems.idempotents[r] for r in idems.basic_representatives]
        grid = structure.peirce_grid(a)
        spanned += not any(row[i]._coordinate for i, row in enumerate(grid))
        for n in range(1, loewy_length(a) + 1):
            diag = structure.peirce_radical_diagonal(a, n)
            assert list(diag) == _sandwich_reference(a, reps, n), (src, n)
            assert (sorted(x.dim for x in diag)
                    == sorted(x.dim for x in structure.peirce_radical_diagonal(src, n)))
    assert spanned >= 5, spanned


def _permuted_text(a, rng):
    """A's structure-constant text on a shuffled basis, so a parse of it
    has a basis order that is not A's."""
    d = a.dim
    perm = list(range(d))
    rng.shuffle(perm)
    mul = [[[a.mul[perm[i]][perm[j]][perm[k]] for k in range(d)] for j in range(d)]
           for i in range(d)]
    return write_algebra_text(Algebra(a.field, mul, [a.unit[perm[k]] for k in range(d)]))


def _idempotent_summary(a):
    """Radical power dims, k, the series, l, split, the Ext^1 multiset and
    the Cartan matrix up to one simultaneous permutation."""
    from test_morita import _cartan_canonical

    series = codim_series(a)
    dec = semisimple_decomposition(a)
    ext1 = ext1_diagonal(a)
    return ([radical_power(a, n).dim for n in range(1, loewy_length(a) + 1)], series.k,
            series.values, len(dec.components), dec.split, sorted(ext1),
            _cartan_canonical(cartan_matrix(a), ext1))


def test_basis_guess_matches_search_on_permuted_corpus(corpus, monkeypatch):
    rng = random.Random(16)
    compared = guessed = reordered = 0
    for entry in corpus:
        try:
            if not semisimple_decomposition(entry.algebra).split:
                continue
        except SplitUndecided:
            continue
        text = _permuted_text(entry.algebra, rng)
        a = parse_algebra_text(text)
        got = _idempotent_summary(a)
        guessed += "certified_candidate" in a._cache
        with monkeypatch.context() as m:
            m.setattr(structure, "_adopt_basis_candidate", lambda alg, rad: None)
            b = parse_algebra_text(text)
            want = _idempotent_summary(b)
            searched = structure._searched_idempotents(b, 0)
        assert "certified_candidate" not in b._cache, entry.name
        assert searched.grid is not None, entry.name  # the search's set passed the certificate
        assert got == want, entry.name
        idems = primitive_idempotents(a)
        assert sorted(map(len, idems.iso_classes)) == sorted(map(len, searched.classes))
        reordered += cartan_matrix(a) != cartan_matrix(b)
        compared += 1
    assert compared >= 90 and guessed >= 80 and reordered >= 20, (compared, guessed, reordered)


def _rescaled_text(a, rng):
    """A's text on a shuffled basis with each b_i replaced by s_i·b_i for a
    seeded random nonzero s_i: c'_ijk = c_ijk·s_i·s_j/s_k, u'_k = u_k/s_k."""
    return _permuted_text(_rescaled(a.field, a.mul, a.unit, rng), rng)


def test_basis_guess_matches_search_on_rescaled_corpus(corpus, monkeypatch):
    rng = random.Random(18)
    compared = guessed = rescaled = 0
    for entry in corpus:
        try:
            if not semisimple_decomposition(entry.algebra).split:
                continue
        except SplitUndecided:
            continue
        text = _rescaled_text(entry.algebra, rng)
        a = parse_algebra_text(text)
        got = _idempotent_summary(a)
        with monkeypatch.context() as m:
            m.setattr(structure, "_adopt_basis_candidate", lambda alg, rad: None)
            b = parse_algebra_text(text)
            want = _idempotent_summary(b)
        assert "certified_candidate" not in b._cache, entry.name
        assert got == want, entry.name
        certified = a._cache.get("certified_candidate")
        if certified is not None:
            guessed += 1
            rescaled += any(c not in (0, 1) for e in certified.idempotents for c in e)
        compared += 1
    assert compared >= 90 and guessed >= 84 and rescaled >= 50, (compared, guessed, rescaled)


def test_rescaled_inflation_reads_its_peirce_table_off_the_basis(monkeypatch):
    # the diagonal matrix units of an inflation of F_7[C_3] are multiples
    # 5·b_m of basis vectors: the basis guess takes them, and its certificate
    # spans no Peirce block
    big = inflate(cyclic_group_algebra(GF(7), 3), [1, 2, 1])
    calls = []
    peirce_table = structure._peirce_table
    monkeypatch.setattr(structure, "_peirce_table",
                        lambda *args: calls.append(args) or peirce_table(*args))
    radical(big)
    units = big._cache["certified_candidate"].idempotents
    assert all(sum(map(bool, e)) == 1 for e in units) and any(max(e) != 1 for e in units)
    assert not calls
    assert cartan_matrix(big) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and not calls
    # the spy sees a span: with the basis reading refused, the guess is
    # dropped, and the search's set is certified over the one table it spans
    monkeypatch.setattr(structure, "_coordinate_blocks", lambda *args: None)
    spanned = Algebra(big.field, big.mul, big.unit)
    assert cartan_matrix(spanned) == cartan_matrix(big) and len(calls) == 1
    assert "certified_candidate" not in spanned._cache


# M_2(F_5) x F_5 on the basis 1_M, 1_F, E_12, E_21, E_11: the unit's support
# {1_M, 1_F} is a pair of orthogonal idempotents, but 1_M is not primitive
M2_PLUS_F_TEXT = """algebra dim=5 field=Fp:5
unit: 1 1 0 0 0
mul 0 0 0 1
mul 0 2 2 1
mul 0 3 3 1
mul 0 4 4 1
mul 2 0 2 1
mul 3 0 3 1
mul 4 0 4 1
mul 1 1 1 1
mul 2 3 4 1
mul 3 2 0 1
mul 3 2 4 4
mul 4 2 2 1
mul 3 4 3 1
mul 4 4 4 1
"""


def _rescaled_m2_plus_f_text():
    """M2_PLUS_F_TEXT rescaled: the unit's coefficients are 1/s_0 and 1/s_1."""
    a = parse_algebra_text(M2_PLUS_F_TEXT)
    return _rescaled_text(a, random.Random(5))


def _m2_plus_f_summary(text=M2_PLUS_F_TEXT):
    a = parse_algebra_text(text)
    idems = primitive_idempotents(a)
    return ("certified_candidate" in a._cache, ell(a), len(idems),
            sorted(map(len, idems.iso_classes)), cartan_matrix(a))


def test_rejected_basis_guess_falls_back_to_the_search(monkeypatch):
    for text in (M2_PLUS_F_TEXT, _rescaled_m2_plus_f_text()):
        a = parse_algebra_text(text)
        assert a.validate().ok
        assert structure._basis_candidate(a, radical(a)) is None  # 1 + 1 != dim A/J = 5
        assert _m2_plus_f_summary(text) == (False, 2, 3, [1, 2], [[1, 0], [0, 1]])
    assert sorted(c for c in a.unit if c) != [1, 1]
    # a guess that passes the filter but fails its certificate is dropped too,
    # whether its idempotents are basis vectors or multiples of them
    plain = write_algebra_text(lower_triangular(F5, 3))
    rescaled = _rescaled_text(lower_triangular(F5, 3), random.Random(3))
    assert sorted(c for c in parse_algebra_text(rescaled).unit if c) != [1, 1, 1]
    texts = (plain, rescaled)
    want = []
    for text in texts:
        a = parse_algebra_text(text)
        want.append(_idempotent_summary(a))
        assert "certified_candidate" in a._cache

    certify = structure._certify_candidate

    def failing(alg, record, rad, source, grid):
        if source == "guessed":
            raise InternalInconsistency("refused")
        return certify(alg, record, rad, source, grid)

    monkeypatch.setattr(structure, "_certify_candidate", failing)
    for text, summary in zip(texts, want):
        b = parse_algebra_text(text)
        assert structure._basis_candidate(b, radical(b)) is not None
        assert _idempotent_summary(b) == summary
        assert "certified_candidate" not in b._cache


def test_orthogonality_of_basis_multiples_is_read_off_the_index(monkeypatch):
    # T_2 on the basis f_0 = e11, f_1 = e11 + e12, f_2 = e22, rescaled: all
    # three are idempotent up to a scalar, f_0 and f_2 are orthogonal, and
    # f_1·f_2 = e12 != 0
    mul = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mul[0][0], mul[0][1], mul[1][0] = [1, 0, 0], [0, 1, 0], [1, 0, 0]
    mul[1][1], mul[1][2], mul[2][2] = [0, 1, 0], [-1, 1, 0], [0, 0, 1]
    positions = structure._basis_positions
    for F in (F5, QQ):
        a = _rescaled(F, mul, [1, 0, 1], random.Random(5))
        assert a.validate().ok
        rad = radical(a)
        e0, e2 = structure._point(a, 0, a.unit[0]), structure._point(a, 2, a.unit[2])
        e1 = structure._point(a, 1, F.inv(a.mul[1][1][1]))
        good = structure._Record((e0, e2), ((0,), (1,)), (1, 1), None, {})
        bad = structure._Record((e1, e2), ((0,), (1,)), (1, 1), None, {})
        grid = structure._peirce_table(a, [e0, e2])
        records = []
        for read_off in (positions, lambda es: None):
            monkeypatch.setattr(structure, "_basis_positions", read_off)
            products = []
            multiply = Algebra.multiply_coords
            with monkeypatch.context() as m:
                m.setattr(Algebra, "multiply_coords",
                          lambda alg, x, y: products.append((x, y)) or multiply(alg, x, y))
                with pytest.raises(InternalInconsistency,
                                   match="guessed idempotent 0 is not orthogonal to the rest"):
                    structure._certify_candidate(a, bad, rad, "guessed", grid)
            # off the index, only e_1·e_1 is multiplied before the fault
            assert (products == [(e1, e1)]) == (read_off is positions)
            records.append(structure._certify_candidate(a, good, rad, "guessed", grid))
        assert records[0] == records[1]


def test_rejected_basis_guess_falls_back_under_python_O():
    import os
    import pathlib
    import subprocess
    import sys

    import fdalg

    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_structure import _m2_plus_f_summary; "
            "from test_structure import _rescaled_m2_plus_f_text; "
            "print(_m2_plus_f_summary()); print(_m2_plus_f_summary(_rescaled_m2_plus_f_text()))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fdalg.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(pathlib.Path(__file__).parent)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == [str(_m2_plus_f_summary()),
                                         str(_m2_plus_f_summary(_rescaled_m2_plus_f_text()))]


# -- the grading guessed from the basis -----------------------------------------


def _radical_summary(a):
    """J, each J^n up to the first zero, the Loewy length and the series."""
    series = codim_series(a)
    return (radical(a), [radical_power(a, n) for n in range(1, loewy_length(a) + 2)],
            loewy_length(a), series.k, series.values)


def _guess_inputs(corpus):
    """Permuted and rescaled texts of every split corpus algebra, and
    rescaled texts of its inflations with a multiplicity above 1."""
    rng = random.Random(23)
    for entry in corpus:
        a = _split_or_none(entry.algebra)
        if a is None:
            continue
        yield f"{entry.name} permuted", _permuted_text(a, rng)
        yield f"{entry.name} rescaled", _rescaled_text(a, rng)
        b = basic_algebra_data(a)[0]
        for mult in itertools.product((1, 2), repeat=ell(a)):
            if max(mult) > 1 and inflation_dim(b, list(mult)) <= 16:
                yield f"{entry.name} inflated {mult}", _rescaled_text(inflate(b, list(mult)), rng)


def test_guessed_grading_matches_the_computed_routes(corpus, monkeypatch):
    guessed = non_diagonal = oracle_checked = 0
    for name, text in _guess_inputs(corpus):
        graded = structure._guessed_radical(parse_algebra_text(text))
        if graded is None:
            continue
        a = parse_algebra_text(text)
        got = _radical_summary(a)
        with monkeypatch.context() as m:
            m.setattr(structure, "_guessed_grading", lambda alg: None)
            assert got == _radical_summary(parse_algebra_text(text)), name
        if a.field.p and a.field.p ** a.dim <= RADICAL_ORACLE_CAP:
            assert got[0] == radical_oracle(a), name
            oracle_checked += 1
        guessed += 1
        # degree 0 holds more than the unit's terms: the basis guess certified it
        non_diagonal += graded[1] is not None
    assert guessed >= 300 and non_diagonal >= 170 and oracle_checked >= 140, (
        guessed, non_diagonal, oracle_checked)


# F_7^3 on the basis 1, x = (0, 2, 4), y = x^2 = (0, 4, 2): y^2 = x and
# xy = -(x + y), so the first product holding x is x·y, and x waits for itself
CYCLE_TEXT = """algebra dim=3 field=Fp:7
unit: 1 0 0
mul 0 0 0 1
mul 0 1 1 1
mul 0 2 2 1
mul 1 0 1 1
mul 2 0 2 1
mul 1 1 2 1
mul 2 2 1 1
mul 1 2 1 6
mul 1 2 2 6
mul 2 1 1 6
mul 2 1 2 6
"""


def test_dropped_grading_guess_falls_back(monkeypatch):
    from test_quiver import _corrupt_quiver

    # F_2[C_4] collapses to degree 0, and its one basis idempotent fails the
    # count 4 - 0 != 1; the basic text of F_5[S_3] fails the degree-0 check;
    # CYCLE_TEXT's first products form a cycle
    cases = [(write_algebra_text(cyclic_group_algebra(F2, 4)), [0] * 4),
             (write_algebra_text(basic_algebra_data(s3_group_algebra(F5))[0]), [0] * 3),
             (CYCLE_TEXT, None)]
    for text, degrees in cases:
        assert parse_algebra_text(text).validate().ok
        a = parse_algebra_text(text)
        assert structure._guessed_grading(a) == degrees
        # the index of nonzero constants is the only memo; no result is cached
        assert structure._guessed_radical(a) is None and set(a._cache) == {"nz"}
        with monkeypatch.context() as m:
            m.setattr(structure, "_guessed_grading", lambda alg: None)
            want = _radical_summary(parse_algebra_text(text))
        assert _radical_summary(a) == want
        assert radical(a) == radical_oracle(a)
    assert radical(parse_algebra_text(cases[0][0])).dim == 3
    # a guess on a corrupted tensor raises nothing either
    for kind in ("non-homogeneous", "not idempotent", "not orthogonal", "not generated"):
        c, _ = _corrupt_quiver(kind)
        structure._guessed_radical(Algebra(c.field, c.mul, c.unit))


def test_ungraded_dense_input_drops_the_guess_without_products(monkeypatch):
    # every basis vector of a random-basis M_4(F_5) is in degree 0, and the
    # guess is dropped off the structure constants alone
    a = _random_basis_copy(matrix_algebra(F5, 4), random.Random(23))
    products = []
    multiply = Algebra.multiply_coords
    monkeypatch.setattr(Algebra, "multiply_coords",
                        lambda alg, x, y: products.append(x) or multiply(alg, x, y))
    assert structure._guessed_grading(a) == [0] * 16
    assert structure._guessed_radical(a) is None and not products and set(a._cache) == {"nz"}
    assert radical(a).dim == 0


def _corrupted_search_exit(path, cdim=1):
    """The exit code of `fdalg report` on the file with the split search
    corrupted to return the unit alone, as one primitive of corner dim
    ``cdim``."""
    from fdalg import cli

    search = structure._primitive_decomposition
    structure._primitive_decomposition = lambda b, rng: [(tuple(b.unit), cdim)]
    try:
        return cli.main(["report", str(path)])
    finally:
        structure._primitive_decomposition = search


# a split claim fails the certificate (sum n_i^2 = 1); a non-split one fails
# the count of A/J (sum n_i^2 f_i = 2) instead of reporting ell 1, split false
CORRUPTED_SEARCHES = [
    (1, r"^dim A - dim J = 6, but the searched classes give sum n_i\^2 = 1: "),
    (2, r"^dim A - dim J = 6, but the searched classes give sum n_i\^2 f_i = 2$"),
]


def test_corrupted_search_is_caught(tmp_path, monkeypatch, capsys):
    # a text copy of F_5[S_3] gets no guess (its unit is one basis vector,
    # and 1 != dim A/J = 6), so it is searched; a search claiming A/J = F,
    # or a division algebra of dim 2, is caught
    text = write_algebra_text(s3_group_algebra(F5))
    path = tmp_path / "s3.alg"
    path.write_text(text)
    for cdim, message in CORRUPTED_SEARCHES:
        with monkeypatch.context() as m:
            m.setattr(structure, "_primitive_decomposition",
                      lambda b, rng: [(tuple(b.unit), cdim)])
            a = parse_algebra_text(text)
            with pytest.raises(InternalInconsistency, match=message):
                semisimple_decomposition(a)
            assert "certified_candidate" not in a._cache
        assert _corrupted_search_exit(path, cdim) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal error: dim A - dim J = 6, but the searched"), cdim
    assert semisimple_decomposition(parse_algebra_text(text)).split


def test_corrupted_search_is_caught_under_python_O(tmp_path):
    import os
    import pathlib
    import subprocess
    import sys

    import fdalg

    path = tmp_path / "s3.alg"
    path.write_text(write_algebra_text(s3_group_algebra(F5)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_structure import _corrupted_search_exit; "
            "print(_corrupted_search_exit(sys.argv[2], int(sys.argv[3])))\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fdalg.__file__).parent.parent))
    for cdim, _ in CORRUPTED_SEARCHES:
        out = subprocess.run([sys.executable, "-O", "-c", code, str(pathlib.Path(__file__).parent),
                              str(path), str(cdim)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.stdout.split("\n")[-2:] == ["5", ""], out.stderr
        assert "internal error: dim A - dim J = 6, but the searched" in out.stderr


def _random_basis_copy(a, rng):
    """A on the basis b'_i = sum_k P_ik·b_k for a seeded random invertible P,
    so its idempotents are not multiples of basis vectors."""
    from fdalg.linalg import solve_in_span

    F, d = a.field, a.dim
    rows = []
    while len(rows) < d or span(F, d, rows).dim < d:
        rows = [tuple(F.coerce(rng.randrange(F.p)) for _ in range(d)) for _ in range(d)]
    mul = [[solve_in_span(F, rows, a.multiply_coords(x, y)) for y in rows] for x in rows]
    return Algebra(F, mul, solve_in_span(F, rows, a.unit))


def test_one_sided_peirce_table_matches_two_sided_spans():
    # A·f spanned once per f, then e·(A·f), against e·b_j·f over the basis
    cases = [cyclic_group_algebra(F5, 4), s3_group_algebra(QQ),
             cyclic_group_algebra(GF(BIG_P), 6),
             _random_basis_copy(lower_triangular(F5, 3), random.Random(22))]
    for a in cases:
        es = structure._idempotent_record(a, 0).idempotents
        assert "certified_candidate" not in a._cache and len(es) > 1
        table = structure._peirce_table(a, es)
        assert [list(row) for row in table] == [[algebras.peirce_rows(a, e, f) for f in es]
                                                for e in es]
    # the triangular copy has a radical, and its idempotents are spread over the basis
    assert radical(a).dim == 3 and all(sum(map(bool, e)) > 1 for e in es)


def _full_recursion(b, z, minpoly, pieces, rng):
    """``_recurse_split`` without its shortcut: every CRT idempotent's corner
    is split again."""
    out = []
    for e in structure._crt_idempotents(b, z, minpoly, pieces):
        sub, rows = corner_data(b, e)
        prims = structure._primitive_decomposition(sub, rng)
        lifted = structure.combine(b.field, [coords for coords, _ in prims], rows)
        out += [(x, cdim) for x, (_, cdim) in zip(lifted, prims)]
    return out


def test_recurse_split_shortcut_matches_the_full_recursion():
    # with dim b CRT idempotents every corner is one-dimensional: the
    # shortcut returns them with corner dim 1 and draws no random number
    for a in (cyclic_group_algebra(F5, 4), cyclic_group_algebra(GF(7), 3),
              cyclic_group_algebra(QQ, 2), cyclic_group_algebra(GF(BIG_P), 6)):
        b = semisimple_quotient(parse_algebra_text(write_algebra_text(a))).algebra
        F = b.field
        for z in structure._splitting_candidates(b, random.Random(0)):
            mp = minimal_polynomial(b, z)
            pieces = (structure._coprime_pieces_fp(F, mp, random.Random(0)) if F.p
                      else structure._coprime_pieces_q(F, mp))
            if pieces:
                break
        assert len(pieces) == b.dim
        fast, full = random.Random(5), random.Random(5)
        want = _full_recursion(b, z, mp, pieces, full)
        assert structure._recurse_split(b, z, mp, pieces, fast) == want
        assert fast.getstate() == full.getstate() == random.Random(5).getstate()
