import pytest

from fdalg import quiver, structure
from fdalg.algebras import Algebra
from fdalg.corpus import kronecker, random_quiver_algebra, two_loop_q_algebra
from fdalg.errors import InternalInconsistency, NotAdmissible, QuiverSyntaxError, UnsupportedRelations
from fdalg.fields import GF, QQ
from fdalg.morita import basic_algebra_data, verify_morita_invariance
from fdalg.oracle import RADICAL_ORACLE_CAP, radical_oracle
from fdalg.linalg import echelon_for
from fdalg.quiver import PATH_CAP, Relation, admissibility_bound, build_path_algebra, parse_quiver
from fdalg.structure import primitive_idempotents, radical, semisimple_decomposition
from test_structure import _wedderburn_reference

F2, F3, F5 = GF(2), GF(3), GF(5)

LOOP3 = "vertices: v; arrows: x: v->v; relations: x^3"
KRONECKER2 = "vertices: u v; arrows: a1: u->v, a2: u->v; relations:"
AQ = "vertices: v; arrows: x: v->v, y: v->v; relations: x^2, y^2, x*y - q y*x"


def test_parse_loop_presentation():
    q = parse_quiver(LOOP3, QQ)
    assert [v for v in q.vertices] == ["v"]
    assert len(q.arrows) == 1 and len(q.relations) == 1
    assert q.relations[0].degree == 3


def test_parse_kronecker():
    q = parse_quiver(KRONECKER2, F2)
    assert len(q.vertices) == 2 and len(q.arrows) == 2 and not q.relations


def test_nonparallel_relation_rejected():
    src = "vertices: u v; arrows: a: u->v, b: v->u; relations: a*b - 2 b*a"
    with pytest.raises(QuiverSyntaxError):
        parse_quiver(src, QQ)


def test_unknown_arrow_and_vertex():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices: v; arrows: x: v->w; relations:", QQ)
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices: v; arrows: x: v->v; relations: z^2", QQ)


def test_length_one_relation_rejected():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices: v; arrows: x: v->v; relations: x", QQ)


def test_mixed_length_relation_rejected():
    with pytest.raises(UnsupportedRelations):
        parse_quiver("vertices: v; arrows: x: v->v; relations: x^2 - x^3", QQ)


def test_power_requires_loop():
    with pytest.raises(QuiverSyntaxError):
        parse_quiver("vertices: u v; arrows: a: u->v; relations: a^2", QQ)


def test_admissibility_bounds():
    assert admissibility_bound(parse_quiver(LOOP3, QQ)) == 3
    assert admissibility_bound(parse_quiver(KRONECKER2, F2)) == 2
    with pytest.raises(NotAdmissible):
        admissibility_bound(parse_quiver("vertices: v; arrows: x: v->v; relations:", QQ))


def test_truncated_polynomial_presentation():
    for n in (1, 2, 4, 6):
        rel = f"x^{n}" if n > 1 else ""
        src = f"vertices: v; arrows: x: v->v; relations: {rel}"
        if n == 1:
            # x dies only with relation x itself, which is inadmissible; skip
            continue
        res = build_path_algebra(parse_quiver(src, QQ))
        assert res.algebra.dim == n
        assert res.algebra.validate().ok


def test_two_loop_q_algebra_structure():
    res = build_path_algebra(parse_quiver(AQ, F5, {"q": 2}))
    a = res.algebra
    assert a.dim == 4
    assert a.validate().ok
    x, y = a.basis_element(1), a.basis_element(2)
    assert x * y == (y * x).scale(2)          # xy = q·yx
    assert (x * x).is_zero() and (y * y).is_zero()
    assert res.bound == 3


def test_linear_quiver_matches_triangular_dims():
    for n in (2, 3, 4):
        vs = " ".join(f"v{i}" for i in range(n))
        arrows = ", ".join(f"a{i}: v{i} -> v{i+1}" for i in range(n - 1))
        src = f"vertices: {vs}; arrows: {arrows}; relations:"
        res = build_path_algebra(parse_quiver(src, QQ))
        assert res.algebra.dim == n * (n + 1) // 2


def test_kronecker_dims():
    for n in range(1, 6):
        arrows = ", ".join(f"a{i}: u -> v" for i in range(n))
        src = f"vertices: u v; arrows: {arrows}; relations:"
        assert build_path_algebra(parse_quiver(src, F2)).algebra.dim == n + 2


def test_arrow_ideal_is_radical_and_nilpotent():
    res = build_path_algebra(parse_quiver(AQ, F5, {"q": 3}))
    a = res.algebra
    ideal = res.arrow_ideal
    assert radical(a) == ideal
    # quotient by the ideal is spanned by the vertices
    assert ideal.codim() == len(res.path_basis.labels) - sum(
        1 for length in res.path_basis.lengths if length > 0)
    # the power-trace route, which reads no grading, finds the same subspace
    assert structure._radical_charp(a)[0] == ideal


def test_vertex_idempotents_sum_to_unit():
    res = build_path_algebra(parse_quiver(KRONECKER2, F2))
    total = res.algebra.zero_element()
    for e in res.vertex_idempotents:
        assert e * e == e
        total = total + e
    assert total == res.algebra.unit_element()


def test_syntax_error_positions():
    try:
        parse_quiver("vertices: v\narrows: x: v -> ?", QQ)
        assert False
    except QuiverSyntaxError as exc:
        assert exc.line == 2


# -- the grading guess on quiver builds ------------------------------------------


def _quiver_families(field):
    """Quiver presentations of the named families: kronecker, truncated,
    lower_triangular (the linear quiver) and two_loop (only where q = 2 is
    neither 0 nor 1)."""
    out = [(f"kronecker({n})", kronecker(field, n)) for n in (1, 2, 3)]
    for n in (2, 3, 4):
        src = f"vertices: v; arrows: x: v->v; relations: x^{n}"
        out.append((f"truncated({n})", build_path_algebra(parse_quiver(src, field)).algebra))
    for n in (2, 3, 4):
        vs = " ".join(f"v{i}" for i in range(n))
        arrows = ", ".join(f"a{i}: v{i} -> v{i+1}" for i in range(n - 1))
        src = f"vertices: {vs}; arrows: {arrows}; relations:"
        out.append((f"lower_triangular({n})", build_path_algebra(parse_quiver(src, field)).algebra))
    if field.p != 2:
        out.append(("two_loop(2)", two_loop_q_algebra(field, 2)))
    return out


def _quiver_builds(monkeypatch):
    """(name, build) for every quiver build of the test corpus, of
    ``_quiver_families`` over F_2, F_3, F_5 and Q, and of ``fdalg fuzz
    --family quiver`` seeds 0..139 (F_2, F_3 or F_5 by seed mod 3) at
    max_dim 24; each build is the ``PathAlgebraResult`` that compiled it,
    caught on its way out of ``_path_products``."""
    import fdalg.corpus
    import fdalg.quiver
    from conftest import _named_corpus

    real = fdalg.quiver._path_products
    built = {}

    def spy(q, st):
        res = real(q, st)
        built[id(res.algebra)] = res
        return res

    with monkeypatch.context() as m:
        m.setattr(fdalg.quiver, "_path_products", spy)
        m.setattr(fdalg.corpus, "_path_products", spy)
        named = [(entry.name, entry.algebra) for entry in _named_corpus()]
        for field in (F2, F3, F5, QQ):
            named += [(f"{name}/{field}", a) for name, a in _quiver_families(field)]
        for seed in range(140):
            field = (F2, F3, F5)[seed % 3]
            named.append((f"random_quiver({seed})/{field}",
                          random_quiver_algebra(field, seed, max_dim=24)))
    return [(name, built[id(a)]) for name, a in named if id(a) in built]


def test_guessed_grading_is_the_path_length(monkeypatch):
    # the grading guess recovers the path lengths and the vertex idempotents
    # of every build, so the radical is read off the grading, no split search
    # runs, and the radical agrees with the exhaustive oracle
    def no_search(b, rng):
        raise AssertionError("_primitive_decomposition ran on a quiver build")

    checked = oracle_checked = 0
    for name, res in _quiver_builds(monkeypatch):
        a = res.algebra
        assert a.kind == "quiver", name
        assert structure._guessed_grading(a) == res.path_basis.lengths, name
        with monkeypatch.context() as mp:
            mp.setattr(structure, "_primitive_decomposition", no_search)
            assert radical(a) == res.arrow_ideal, name
            idems = primitive_idempotents(a)
            assert idems.idempotents == res.vertex_idempotents, name
            assert basic_algebra_data(a)[0] is a, name
            assert verify_morita_invariance(a).ok, name
        dec = semisimple_decomposition(a)
        assert (dec.components, dec.component_dims) == _wedderburn_reference(a), name
        if a.field.p and a.field.p ** a.dim <= RADICAL_ORACLE_CAP:
            assert radical(a) == radical_oracle(a), name
            oracle_checked += 1
        checked += 1
    # 140 fuzz draws, 26 corpus builds (kronecker and a_q) and 39 family builds
    assert checked == 140 + 26 + 39 and oracle_checked >= 150, (checked, oracle_checked)


def _corrupt_quiver(kind):
    """A quiver build with its tensor or its path-length grading corrupted:
    a fresh algebra on the altered tensor, and the altered degrees."""
    a = two_loop_q_algebra(F5, 2) if kind == "non-homogeneous" else kronecker(F3, 2)
    mul = [[list(row) for row in plane] for plane in a.mul]
    degrees = structure._guessed_grading(a)
    if kind == "non-homogeneous":
        mul[1][2][0] = 1  # x·y gains a vertex term
    elif kind == "not idempotent":
        degrees[2] = 0  # an arrow claimed as a vertex
    elif kind == "not orthogonal":
        mul[0][1][0] = 1  # e_u·e_v = e_u
    elif kind == "not generated":
        degrees[3] = 2  # the second arrow claimed as a path of length 2
    return Algebra(a.field, mul, a.unit, a.kind), degrees


@pytest.mark.parametrize("kind,message", [
    ("non-homogeneous", r"c_\(1,2,0\) is not homogeneous"),
    ("not idempotent", "degree-0 basis element 2 is not idempotent"),
    ("not orthogonal", "degree-0 basis elements 0 and 1 are not orthogonal"),
    ("not generated", "degree 2 is not generated by the arrows"),
])
def test_corrupted_quiver_hand_over_is_caught(kind, message):
    # the graded certificate rejects each corruption, and leaves no trace
    a, degrees = _corrupt_quiver(kind)
    with pytest.raises(InternalInconsistency, match=message):
        structure._graded_radical(a, degrees)
    assert not a._cache.keys() & {"radical", "rad_powers", "certified_candidate"}


def test_corrupted_quiver_hand_over_is_caught_under_python_O():
    import os
    import pathlib
    import subprocess
    import sys

    import fdalg

    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_quiver import _corrupt_quiver; "
            "from fdalg.errors import InternalInconsistency; "
            "from fdalg.structure import _graded_radical\n"
            "try:\n    _graded_radical(*_corrupt_quiver('not generated'))\n"
            "except InternalInconsistency:\n    print('caught')\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fdalg.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(pathlib.Path(__file__).parent)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["caught"]


# -- the stratum pass against the pass that row-reduces every relation ----------


def _reference_pass(q, cap):
    """The stratum pass that makes one dense row for every u·rel·v, the
    monomial relations included, in each degree-n component: (paths,
    index, echelons, bound, basis)."""
    field = q.field
    by_source = {}
    for idx, a in enumerate(q.arrows):
        by_source.setdefault(a.source, []).append(idx)
    paths, index, echelons = [[()]], [{(): 0}], [None]
    basis = [(v, ()) for v in range(len(q.vertices))]
    for n in range(1, cap + 1):
        level = [(i,) for i in range(len(q.arrows))] if n == 1 else [
            p + (a,) for p in paths[-1] for a in by_source.get(q.arrows[p[-1]].target, ())]
        if sum(map(len, paths)) + len(level) > PATH_CAP:
            raise NotAdmissible(f"path count exceeds {PATH_CAP}; presentation not admissible "
                                "within the cap")
        paths.append(level)
        index.append({p: i for i, p in enumerate(level)})
        acc = None
        if level and any(rel.degree <= n for rel in q.relations):
            acc = echelon_for(field, len(level))
            for rel in q.relations:
                for alen in range(0, n - rel.degree + 1):
                    for u in paths[alen]:
                        if u and q.arrows[u[-1]].target != rel.source:
                            continue
                        for v in paths[n - rel.degree - alen]:
                            if v and q.arrows[v[0]].source != rel.target:
                                continue
                            vec = [field.zero()] * len(level)
                            for coeff, body in rel.terms:
                                idx = index[n][u + body + v]
                                vec[idx] = field.add(vec[idx], coeff)
                            acc.insert(vec)
        echelons.append(acc)
        if not level or (acc is not None and acc.rank == len(level)):
            return paths, index, echelons, n, basis
        pivots = set(acc.pivots()) if acc is not None else ()
        basis.extend((q.arrows[p[0]].source, p) for i, p in enumerate(level) if i not in pivots)
    raise NotAdmissible(f"no admissibility bound below cap {cap}")


def _reference_tensor(q, ref):
    """Structure constants on the reference basis: each product path
    reduced through the reference echelons."""
    paths, index, echelons, bound, basis = ref
    field = q.field
    z, one = field.zero(), field.one()
    place = {bp: i for i, bp in enumerate(basis)}
    classes = {}

    def class_vector(src, path):
        n = len(path)
        out = [z] * len(basis)
        if n < bound and echelons[n] is None:
            out[place[(src, path)]] = one
        elif n < bound:
            vec = [z] * len(paths[n])
            vec[index[n][path]] = one
            for local, c in enumerate(echelons[n].reduce(vec)):
                if c:
                    p2 = paths[n][local]
                    out[place[(q.arrows[p2[0]].source, p2)]] = c
        return tuple(out)

    mul = []
    for asrc, apath in basis:
        tgt = q.arrows[apath[-1]].target if apath else asrc
        plane = []
        for bsrc, bpath in basis:
            key = (asrc, apath + bpath)
            if tgt == bsrc and key not in classes:
                classes[key] = class_vector(*key)
            plane.append(classes[key] if tgt == bsrc else (z,) * len(basis))
        mul.append(tuple(plane))
    return tuple(mul)


def _matches_reference(q, cap=quiver.DEFAULT_CAP, max_dim=None):
    """Assert that ``_stratum_pass`` finds the reference's bound, basis and
    pivots (dead paths included), that the tensor on that basis is the
    reference's when its dim is at most ``max_dim``, or that both raise the
    same NotAdmissible; returns whether a bound was found."""
    try:
        ref = _reference_pass(q, cap)
    except NotAdmissible as exc:
        with pytest.raises(NotAdmissible) as got:
            quiver._stratum_pass(q, cap)
        assert str(got.value) == str(exc)
        return False
    paths, index, echelons, bound, basis = ref
    st = quiver._stratum_pass(q, cap)
    assert (st.bound, st.basis, st.paths) == (bound, basis, paths)
    for n in range(1, bound + 1):
        pivots = {index[n][p] for p in st.dead[n]}
        if st.echelons[n] is not None:
            assert not pivots & set(st.echelons[n].pivots()), n
            pivots |= set(st.echelons[n].pivots())
        assert pivots == set(echelons[n].pivots() if echelons[n] is not None else ()), n
    if max_dim is None or len(basis) <= max_dim:
        assert quiver._path_products(q, st).algebra.mul == _reference_tensor(q, ref)
    return True


def _generator_draws(monkeypatch, build):
    """The presentations ``build()`` hands to the stratum pass."""
    import fdalg.corpus

    draws = []
    real = fdalg.corpus._stratum_pass
    with monkeypatch.context() as m:
        m.setattr(fdalg.corpus, "_stratum_pass", lambda q, cap: draws.append(q) or real(q, cap))
        build()
    return draws


def test_stratum_pass_matches_the_reference_on_generator_draws(monkeypatch):
    # every draw of `fdalg fuzz --family quiver` seeds 0..139 at both
    # dimension caps, and of random_local seeds 0..29 over four fields
    from fdalg.corpus import random_local_algebra

    checked = 0
    for max_dim in (24, 40):
        for seed in range(140):
            field = (F2, F3, F5)[seed % 3]
            for q in _generator_draws(
                    monkeypatch, lambda: random_quiver_algebra(field, seed, max_dim=max_dim)):
                checked += _matches_reference(q, max_dim=max_dim)
    for field in (F2, F3, F5, QQ):
        for seed in range(30):
            for q in _generator_draws(monkeypatch, lambda: random_local_algebra(field, seed)):
                checked += _matches_reference(q, max_dim=24)
    assert checked >= 2 * 140 + 4 * 30, checked


def test_stratum_pass_matches_the_reference_on_named_presentations(monkeypatch):
    from conftest import F7

    presentations = []
    real = quiver._stratum_pass
    with monkeypatch.context() as m:
        m.setattr(quiver, "_stratum_pass", lambda q, cap: presentations.append(q) or real(q, cap))
        for field in (F2, F3, F5, QQ):
            for n in range(1, 6):
                kronecker(field, n)
        for q, field in ((2, F5), (3, F5), (2, F7), (3, F7), (2, F3), (2, QQ)):
            two_loop_q_algebra(field, q)
    assert len(presentations) == 26
    two = "vertices: v; arrows: x: v->v, y: v->v; relations: "
    for field in (F3, QQ):
        # a binomial x*y - 0·y*x is the monomial x*y
        presentations.append(parse_quiver(two + "x*y - 0 y*x, x^2, y^2", field))
        # a binomial whose two paths both contain a monomial relation
        presentations.append(parse_quiver(
            two + "x^2, y^2, x*y*x, y*x*y, x*x*y - 2 y*y*x", field))
    # a degree-1 monomial, which the parser does not take
    loops = parse_quiver(two + "y^3", F5)
    x_dies = Relation(((F5.one(), (0,)),), 0, 0, 1)
    presentations.append(quiver.QuiverPresentation(
        loops.vertices, loops.arrows, loops.relations + (x_dies,), F5))
    for q in presentations:
        assert _matches_reference(q), q
    # past PATH_CAP, and with no bound below the cap (with and without dead paths)
    three = "vertices: v; arrows: x: v->v, y: v->v, z: v->v; relations: x^10"
    assert not _matches_reference(parse_quiver(three, F2))
    assert not _matches_reference(parse_quiver("vertices: v; arrows: x: v->v; relations:", QQ))
    assert not _matches_reference(parse_quiver(two + "x^2", F3), cap=6)


@pytest.mark.parametrize("text", [LOOP3, "vertices: v; arrows: x: v->v, y: v->v; "
                                          "relations: x*x, x*y, y*x, y*y"])
def test_monomial_relations_make_no_echelon(monkeypatch, text):
    # a presentation whose relations are all monomials is decided by its
    # dead paths alone
    real = quiver.echelon_for
    for field in (F2, QQ):
        made = []
        monkeypatch.setattr(quiver, "echelon_for", lambda F, w: made.append(w) or real(F, w))
        st = quiver._stratum_pass(parse_quiver(text, field), quiver.DEFAULT_CAP)
        assert made == [], field
        assert st.echelons == [None] * (st.bound + 1)
