import dataclasses

import pytest

from fdalg import structure
from fdalg.algebras import Algebra
from fdalg.corpus import kronecker, random_quiver_algebra, two_loop_q_algebra
from fdalg.errors import InternalInconsistency, NotAdmissible, QuiverSyntaxError, UnsupportedRelations
from fdalg.fields import GF, QQ
from fdalg.invariants import k_n_space
from fdalg.morita import basic_algebra_data, verify_morita_invariance
from fdalg.quiver import admissibility_bound, build_path_algebra, parse_quiver
from fdalg.structure import (
    cartan_matrix,
    ell,
    ext1_diagonal,
    loewy_length,
    radical,
    radical_power,
    semisimple_decomposition,
)
from test_morita import _cartan_canonical
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
    # recomputing the radical without provenance gives the same subspace
    from fdalg.algebras import Algebra, Provenance

    stripped = Algebra(a.field, a.mul, a.unit, Provenance("generic"))
    assert radical(stripped) == ideal


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


# -- what quiver builds hand over ------------------------------------------------


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


def _hand_over_inputs():
    for field in (F2, F3, F5, QQ):
        for name, a in _quiver_families(field):
            yield f"{name}/{field}", a
    fields = (F2, F3, F5, QQ)
    for seed in range(160):
        field = fields[seed % 4]
        yield f"random_quiver({seed})/{field}", random_quiver_algebra(field, seed, max_dim=24)


def _analyses(a):
    ll = loewy_length(a)
    dec = semisimple_decomposition(a)
    return {
        "radical": radical(a),
        "loewy": ll,
        "powers": [radical_power(a, n) for n in range(1, ll + 2)],
        "k_n": [k_n_space(a, n).dim for n in range(1, ll + 1)],
        "ell": ell(a),
        "split": dec.split,
        "components": (sorted(dec.component_dims), sorted(dec.corner_dims)),
        "cartan_ext1": _cartan_canonical(cartan_matrix(a), ext1_diagonal(a)),
        "morita": verify_morita_invariance(a),
    }


def test_quiver_hand_over_matches_generic_copies(monkeypatch):
    # the generic copy carries no grading and no candidate, so every search
    # route runs on it
    def no_search(b, rng):
        raise AssertionError("_primitive_decomposition ran on a quiver build")

    checked = 0
    for name, a in _hand_over_inputs():
        assert a.provenance.degrees is not None, name
        with monkeypatch.context() as mp:
            mp.setattr(structure, "_primitive_decomposition", no_search)
            got = _analyses(a)
            assert basic_algebra_data(a)[0] is a, name
        dec = semisimple_decomposition(a)
        assert (dec.components, dec.component_dims) == _wedderburn_reference(a, dec), name
        generic = Algebra(a.field, a.mul, a.unit)
        assert got == _analyses(generic), name
        assert basic_algebra_data(generic)[0] is generic, name
        checked += 1
    assert checked >= 190, checked


def _corrupt_quiver(kind):
    """A quiver build with its tensor or handed-over grading corrupted, as a
    fresh algebra with the altered tensor and record."""
    a = two_loop_q_algebra(F5, 2) if kind == "non-homogeneous" else kronecker(F3, 2)
    mul = [[list(row) for row in plane] for plane in a.mul]
    degrees = list(a.provenance.degrees)
    if kind == "non-homogeneous":
        mul[1][2][0] = 1  # x·y gains a vertex term
    elif kind == "not idempotent":
        degrees[2] = 0  # an arrow claimed as a vertex
    elif kind == "not orthogonal":
        mul[0][1][0] = 1  # e_u·e_v = e_u
    elif kind == "not generated":
        degrees[3] = 2  # the second arrow claimed as a path of length 2
    return Algebra(a.field, mul, a.unit, dataclasses.replace(a.provenance, degrees=tuple(degrees)))


@pytest.mark.parametrize("kind,message", [
    ("non-homogeneous", r"c_\(1,2,0\) is not homogeneous"),
    ("not idempotent", "degree-0 basis element 2 is not idempotent"),
    ("not orthogonal", "degree-0 basis elements 0 and 1 are not orthogonal"),
    ("not generated", "degree 2 is not generated by the arrows"),
])
def test_corrupted_quiver_hand_over_is_caught(kind, message):
    with pytest.raises(InternalInconsistency, match=message):
        verify_morita_invariance(_corrupt_quiver(kind))


def test_corrupted_quiver_hand_over_is_caught_under_python_O():
    import os
    import pathlib
    import subprocess
    import sys

    import fdalg

    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_quiver import _corrupt_quiver; "
            "from fdalg.errors import InternalInconsistency; "
            "from fdalg.morita import verify_morita_invariance\n"
            "try:\n    verify_morita_invariance(_corrupt_quiver('not generated'))\n"
            "except InternalInconsistency:\n    print('caught')\n")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fdalg.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-O", "-c", code, str(pathlib.Path(__file__).parent)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["caught"]
