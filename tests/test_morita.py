import dataclasses
import functools
import itertools

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
from fdalg.errors import BadParameter, InternalInconsistency, NotFull, SplitUndecided
from fdalg.fields import GF, QQ
from fdalg.invariants import codim_series, k_n_space, k_of
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
from fdalg.linalg import span
from fdalg.structure import (
    _certify_candidate,
    _check_radical,
    _graded_radical,
    _guessed_grading,
    _peirce_table,
    _searched_idempotents,
    cartan_matrix,
    ell,
    ext1_diagonal,
    loewy_length,
    primitive_idempotents,
    radical,
    radical_power,
    semisimple_decomposition,
    semisimple_quotient,
    wedderburn_split,
)
from test_structure import _wedderburn_reference

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


def _no_tau(*args):
    raise AssertionError("tau_map ran on the identity route")


def test_tau_identity_for_basic(monkeypatch):
    # a basic algebra takes the identity route, which builds no coset map
    import fdalg.morita

    monkeypatch.setattr(fdalg.morita, "tau_map", _no_tau)
    a = kronecker(F3, 2)
    rep = verify_morita_invariance(a)
    assert rep.ok
    assert rep.basic_dim == a.dim


def _identity_route_inputs(corpus):
    """Every split corpus algebra, or its basic algebra when it is not
    basic, then the random quiver algebras of seeds 0..29 over F_2, F_3, F_5."""
    for entry in corpus:
        try:
            split = semisimple_decomposition(entry.algebra).split
        except SplitUndecided:
            continue
        if split:
            yield entry.name, basic_algebra(entry.algebra)
    for seed in range(30):
        field = (F2, F3, F5)[seed % 3]
        yield f"random_quiver({seed})/{field}", random_quiver_algebra(field, seed, max_dim=24)


def test_identity_route_matches_the_coset_maps(corpus, monkeypatch):
    # on B = A, e = 1, the standard basis rows and the (1, 1) witness, the
    # coset maps tau, sigma and every level map give the identity route's report
    import fdalg.morita
    from fdalg.morita import _coset_report

    checked = 0
    for name, a in _identity_route_inputs(corpus):
        with monkeypatch.context() as m:
            m.setattr(fdalg.morita, "tau_map", _no_tau)
            rep = verify_morita_invariance(a)
        one = a.unit_element()
        rows = [a._unit_vec(i) for i in range(a.dim)]
        assert rep == _coset_report(a, a, one, rows, fullness_witness(a, one)), name
        assert rep.ok, name
        checked += 1
    assert checked == 94 + 30, checked


def test_identity_route_certifies_the_unit(monkeypatch):
    # the one premise of tau = id is that 1 is a two-sided unit
    monkeypatch.setattr(Algebra, "_unit_failures", lambda self, p: [0])
    with pytest.raises(InternalInconsistency, match="unit is not two-sided at basis vector 0"):
        verify_morita_invariance(kronecker(F3, 2))


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


def _cartan_canonical(c, ext1=None):
    """Cartan matrix, and the Ext^1 diagonal if given, up to one simultaneous
    permutation of the class labels."""
    n = len(c)
    ext1 = ext1 or [0] * n
    return min((tuple(tuple(c[perm[i]][perm[j]] for j in range(n)) for i in range(n)),
                tuple(ext1[i] for i in perm))
               for perm in itertools.permutations(range(n)))


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
    # the basic idempotent's witness is read off the record's matrix units,
    # one pair per primitive idempotent, with no solve; the solved witness
    # (rank-raising products only: at most d rows and d pairs) and the one
    # over all products give the same coset map
    import fdalg.morita
    from fdalg.linalg import solve_in_span
    from fdalg.morita import FullnessWitness, _solved_pairs

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
        # the inflation's record is guessed from the basis
        a = inflate(basic_algebra(src), mult)
        b, e, rows = basic_algebra_data(a)
        w = fullness_witness(a, e)
        assert not solved and len(w.pairs) == sum(mult) and w.verify()
        tau = tau_map(a, e, w, b, rows).matrix
        pruned = FullnessWitness(e, _solved_pairs(a, e))
        assert solved.pop() <= a.dim and len(pruned.pairs) <= a.dim and pruned.verify()
        full = _witness_over_all_products(a, e)
        assert full.verify()
        assert tau == tau_map(a, e, pruned, b, rows).matrix
        assert tau == tau_map(a, e, full, b, rows).matrix
        assert "certified_candidate" in a._cache


@pytest.mark.parametrize("mult,message", [([1, 2, 3], "need 2 multiplicities, got 3"),
                                          ([0, -1], "multiplicities must be positive"),
                                          ([1], "need 2 multiplicities, got 1")])
def test_inflation_dim_rejects_what_inflate_rejects(mult, message):
    k1 = kronecker(F3, 1)
    for build in (inflation_dim, inflate):
        with pytest.raises(BadParameter, match=message):
            build(k1, mult)


# -- what inflations get from the guesses ---------------------------------------


def _small_inflations(corpus, cap=16):
    """Inflations of dim <= cap of the basic algebras of the split corpus
    algebras, by multiplicity vectors in {1,2,3}^l."""
    for entry in corpus:
        try:
            dec = semisimple_decomposition(entry.algebra)
        except SplitUndecided:
            continue
        if not dec.split:
            continue
        b = basic_algebra(entry.algebra)
        for mult in itertools.product((1, 2, 3), repeat=len(dec.components)):
            if inflation_dim(b, list(mult)) <= cap:
                yield f"{entry.name} x{list(mult)}", inflate(b, list(mult)), list(mult)


def test_guessed_inflation_records_match_the_search(corpus, monkeypatch):
    # an inflation is handed nothing but its tensor and unit; where its
    # grading and idempotents are guessed, the results agree with a copy whose
    # radical is computed with the basis guess switched off, so that every
    # search route runs on it
    import fdalg.structure

    fields = set()
    checked = graded = guessed = 0
    for name, big, mult in _small_inflations(corpus):
        graded += fdalg.structure._guessed_radical(big) is not None
        generic = Algebra(big.field, big.mul, big.unit)
        with monkeypatch.context() as m:
            m.setattr(fdalg.structure, "_adopt_basis_candidate", lambda alg, rad: None)
            radical(generic)
        assert "certified_candidate" not in generic._cache, name
        assert verify_morita_invariance(big) == verify_morita_invariance(generic), name
        idems = primitive_idempotents(big)
        if "certified_candidate" in big._cache:
            # the basis guess took the diagonal units ε_(i,r), grouped by i,
            # and nothing above searched the inflation's semisimple quotient
            assert all(sum(map(bool, e.coords)) == 1 for e in idems.idempotents), name
            assert [len(c) for c in idems.iso_classes] == mult, name
            assert ("idempotent_search", 0) not in big._cache, name
            guessed += 1
        assert sorted(len(c) for c in idems.iso_classes) == sorted(mult), name
        ll = loewy_length(big)
        assert ll == loewy_length(generic), name
        for n in range(1, ll + 1):
            assert radical_power(big, n) == radical_power(generic, n), (name, n)
            assert k_n_space(big, n).dim == k_n_space(generic, n).dim, (name, n)
        assert _cartan_canonical(cartan_matrix(big), ext1_diagonal(big)) == _cartan_canonical(
            cartan_matrix(generic), ext1_diagonal(generic)), name
        assert ("idempotent_search", 0) in generic._cache, name
        assert ell(big) == ell(generic) == len(mult), name
        dec, gdec = semisimple_decomposition(big), semisimple_decomposition(generic)
        assert (dec.components, dec.component_dims) == _wedderburn_reference(big), name
        assert sorted(dec.component_dims) == sorted(gdec.component_dims), name
        assert dec.split and dec.corner_dims == [1] * sum(mult), name
        s = semisimple_quotient(big).algebra
        centrals = [c.coords for c in wedderburn_split(big)[0]]
        assert all(s.multiply_coords(c, c) == c for c in centrals), name
        assert functools.reduce(lambda x, y: tuple(map(s.field.add, x, y)),
                                centrals) == s.unit, name
        fields.add(str(big.field))
        checked += 1
    assert {"Fp:2", "Fp:3", "Fp:5", "Q"} <= fields
    assert checked >= 350, checked
    # the inflations of modular group algebras are not graded, and those of
    # the basic algebra of F_3[S_3] are searched
    assert graded >= 330 and guessed >= 350, (graded, guessed)


def _corrupt(kind, big=None):
    """A fresh algebra on the tensor of an inflation, and a call that hands
    the certificate guarding ``kind`` one corrupted object:

    - "radical row": ``_check_radical`` gets the radical with its first row
      replaced by the first diagonal unit;
    - "degree": ``_graded_radical`` gets the guessed grading with basis
      vector 0, the unit e_0 of block (0, 0, 0, 0), moved to degree 1;
    - "fullness pair": ``verify_morita_invariance`` runs with the certified
      set memoized with the second copy of the first class dropped, so the
      witness read off it has one pair too few;
    - any other kind: ``_certify_candidate`` gets the certified basis guess
      with one part altered, against the radical, and the Peirce table of
      its representatives.

    By default the inflation is a Kronecker one over F_3.  Its idempotents
    must be guessed, and the first class must hold two copies."""
    if big is None:
        big = inflate(kronecker(F3, 2), [2, 1])
    F = big.field
    rad = radical(big)
    record = big._cache["certified_candidate"]
    out = Algebra(big.field, big.mul, big.unit)
    if kind == "radical row":
        rows = [record.idempotents[0]] + rad.basis_vectors()[1:]
        return out, lambda: _check_radical(out, span(F, out.dim, rows))
    if kind == "degree":
        # in degree 1, e_0·e_0 = e_0 is not homogeneous
        degrees = _guessed_grading(big)
        degrees[0] = 1
        return out, lambda: _graded_radical(out, degrees)
    if kind == "fullness pair":
        idems = primitive_idempotents(out)
        classes = [c[:1] + c[2:] if n == 0 else c for n, c in enumerate(idems.iso_classes)]
        out._cache[("idempotents", 0)] = dataclasses.replace(idems, iso_classes=classes)
        return out, lambda: verify_morita_invariance(out)
    units = list(record.idempotents)
    if kind == "idempotent":
        units[1] = tuple(F.mul(2, x) for x in units[1])
        record = record._replace(idempotents=tuple(units))
    elif kind == "zero idempotent":
        # the first copy's idempotent moved onto the second; the nonzero
        # check comes first, so it names the zero
        units[0], units[1] = tuple(0 for _ in units[0]), tuple(map(F.add, *units[:2]))
        record = record._replace(idempotents=tuple(units))
    elif kind == "class grouping":
        # copies 0 and 1 of the first class, claimed to be two classes
        record = record._replace(classes=((0,), (1,)) + record.classes[1:], matrix_units={})
    elif kind == "matrix unit":
        u, v = record.matrix_units[1]
        record = record._replace(matrix_units={1: (v, u)})
    reps = [record.idempotents[c[0]] for c in record.classes]
    return out, lambda: _certify_candidate(out, record, rad, "guessed", _peirce_table(out, reps))


CORRUPTIONS = [
    ("radical row", "radical candidate is not a two-sided ideal"),
    ("degree", "not homogeneous"),
    ("idempotent", "idempotent 1 is not idempotent"),
    ("zero idempotent", "guessed idempotent 0 is zero"),
    ("class grouping", "representatives 0 and 1 are isomorphic"),
    ("matrix unit", "idempotent 1 is not isomorphic to its representative 0"),
    ("fullness pair", "fullness witness does not sum to the unit"),
]


@pytest.mark.parametrize("kind,message", CORRUPTIONS)
def test_corrupted_hand_over_is_caught(kind, message):
    _, check = _corrupt(kind)
    with pytest.raises(InternalInconsistency, match=message):
        check()


@pytest.mark.parametrize("kind,message", CORRUPTIONS)
def test_corrupted_rescaled_hand_over_is_caught(kind, message):
    # the diagonal matrix units of this inflation of F_7[C_3] are 5·b_m, so
    # its certificate reads the Peirce table off the basis; the algebra is
    # semisimple, and its guessed grading puts every basis vector in degree 0
    big = inflate(cyclic_group_algebra(GF(7), 3), [2, 1, 1])
    radical(big)
    assert all(sorted(set(e)) == [0, 5] for e in big._cache["certified_candidate"].idempotents)
    _, check = _corrupt(kind, big)
    with pytest.raises(InternalInconsistency, match=message):
        check()


@pytest.mark.parametrize("kind,message", [c for c in CORRUPTIONS if c[0] != "fullness pair"])
def test_failed_radical_caches_no_chain(kind, message, monkeypatch):
    # every corruption but the fullness pair fails inside a certificate that
    # radical() runs before it caches anything: run in place of the step of
    # radical() that calls that certificate, it leaves nothing cached
    import fdalg.structure

    out, check = _corrupt(kind)
    if kind == "radical row":
        monkeypatch.setattr(fdalg.structure, "_guessed_radical", lambda a: None)
        monkeypatch.setattr(fdalg.structure, "_radical_charp", lambda a: check())
    elif kind == "degree":
        monkeypatch.setattr(fdalg.structure, "_guessed_radical", lambda a: check())
    else:
        monkeypatch.setattr(fdalg.structure, "_adopt_basis_candidate", lambda a, rad: check())
    with pytest.raises(InternalInconsistency, match=message):
        radical(out)
    assert "radical" not in out._cache and "rad_powers" not in out._cache
    assert "certified_candidate" not in out._cache


def test_corrupted_hand_over_is_caught_under_python_O():
    import os
    import pathlib
    import subprocess
    import sys

    import fdalg

    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_morita import _corrupt; "
            "from fdalg.corpus import cyclic_group_algebra; "
            "from fdalg.errors import InternalInconsistency; "
            "from fdalg.fields import GF; "
            "from fdalg.morita import inflate, verify_morita_invariance\n"
            "for kind in ('class grouping', 'fullness pair'):\n"
            "  for big in (None, inflate(cyclic_group_algebra(GF(7), 3), [2, 1, 1])):\n"
            "    try:\n        _corrupt(kind, big)[1]()\n"
            "    except InternalInconsistency as exc:\n        print(kind, exc)\n"
            "for kind in ('radical row', 'degree'):\n"
            "  try:\n    _corrupt(kind)[1]()\n"
            "  except InternalInconsistency as exc:\n    print(kind, exc)\n"
            "from fdalg.algebras import Algebra\n"
            "from fdalg.corpus import kronecker\n"
            "Algebra._unit_failures = lambda self, p: [0]\n"
            "try:\n  verify_morita_invariance(kronecker(GF(3), 2))\n"
            "except InternalInconsistency as exc:\n  print('unit', exc)\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fdalg.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(pathlib.Path(__file__).parent)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "class grouping guessed representatives 0 and 1 are isomorphic"] * 2 + [
        "fullness pair fullness witness does not sum to the unit"] * 2 + [
        "radical row radical candidate is not a two-sided ideal",
        "degree structure constant c_(0,0,0) is not homogeneous in the grading",
        "unit the unit is not two-sided at basis vector 0"]


def test_dropped_radical_row_is_caught():
    # a nilpotent ideal smaller than the radical passes the ideal and nilpotency
    # checks; dim A - dim J = sum n_i^2 over the certified classes does not,
    # for the guessed set and the searched one alike.  The inflation of
    # F_3[C_3] by [2] is M_2(F_3[C_3]), whose radical is M_2(J) for
    # J = Rad F_3[C_3] = (g - 1), two rows per block; M_2(J^2) keeps one
    big = inflate(cyclic_group_algebra(F3, 3), [2])
    rows = radical_power(big, 2)
    out = Algebra(big.field, big.mul, big.unit)
    assert _check_radical(out, rows)[0] == rows and rows.dim == 4
    guess = big._cache["certified_candidate"]
    with pytest.raises(InternalInconsistency, match="misses part of Rad"):
        _certify_candidate(out, guess, rows, "guessed", guess.grid)
    assert "radical" not in out._cache
    search = _searched_idempotents(big, 0)
    with pytest.raises(InternalInconsistency, match="misses part of Rad"):
        _certify_candidate(out, search, rows, "searched", search.grid)
