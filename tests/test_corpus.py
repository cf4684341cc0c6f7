import hashlib
import random

import pytest

from fdalg import corpus
from fdalg.corpus import (
    GeneratorSpec,
    generate,
    kronecker,
    lower_triangular,
    random_local_algebra,
    random_quiver_algebra,
    truncated_polynomial,
    two_loop_q_algebra,
)
from fdalg.errors import BadParameter, GeneratorFailed
from fdalg.fields import GF, QQ
from fdalg.invariants import codim_series, k_of
from fdalg.quiver import parse_quiver
from fdalg.structure import ell, loewy_length, radical

F2, F3, F5 = GF(2), GF(3), GF(5)


def test_family_cardinalities():
    for n in (1, 4, 8):
        assert truncated_polynomial(QQ, n).dim == n
    for n in (2, 3, 5):
        assert lower_triangular(F3, n).dim == n * (n + 1) // 2
    for n in (1, 3, 5):
        assert kronecker(F2, n).dim == n + 2
    assert two_loop_q_algebra(F5, 2).dim == 4


def test_triangular_invariants():
    t3 = lower_triangular(QQ, 3)
    assert ell(t3) == 3 and k_of(t3) == 3


def test_two_loop_paper_values():
    a = two_loop_q_algebra(F5, 2)
    assert k_of(a) == 3 and loewy_length(a) == 3 and a.dim == 4


def test_a_q_rejects_degenerate_parameters():
    with pytest.raises(BadParameter):
        two_loop_q_algebra(F5, 1)
    with pytest.raises(BadParameter):
        two_loop_q_algebra(QQ, 0)
    with pytest.raises(BadParameter):
        two_loop_q_algebra(F2, 3)  # 3 = 1 in F_2


def test_generate_is_deterministic():
    spec = GeneratorSpec("random_quiver", F3, seed=7)
    a = generate(spec)
    b = generate(spec)
    assert a.mul == b.mul and a.unit == b.unit
    spec2 = GeneratorSpec("random_local", F2, seed=11)
    c = generate(spec2)
    d = generate(spec2)
    assert c.mul == d.mul


def test_random_quiver_validates():
    for seed in range(8):
        a = random_quiver_algebra(F3, seed)
        assert a.validate().ok
        assert a.kind == "quiver"


def test_random_local_properties():
    for seed in range(8):
        a = random_local_algebra(F2, seed)
        assert a.validate().ok
        assert a.kind == "generic"
        assert a.dim <= 12
        # local by construction: radical has codimension one
        assert radical(a).dim == a.dim - 1


def test_random_local_seeded_example():
    a = random_local_algebra(F2, 1, generators=2, trunc=3)
    assert loewy_length(a) <= 3
    assert radical(a).dim == a.dim - 1


def test_rad_square_zero_family():
    for seed in range(6):
        a = random_quiver_algebra(F3, seed, trunc=2)
        from fdalg.structure import radical_power

        assert radical_power(a, 2).dim == 0


def test_hereditary_quiver_bound_tight_at_level_one():
    # no relations on an acyclic quiver: bound at n = 1 equals codim K_1
    from fdalg.invariants import peirce_codim_bound

    a = kronecker(F5, 3)
    assert peirce_codim_bound(a, 1) == codim_series(a).values[0]


def test_generate_family_dispatch():
    spec = GeneratorSpec("a_q", F5, q="2")
    assert generate(spec).dim == 4
    spec2 = GeneratorSpec("s3", F3)
    assert generate(spec2).dim == 6
    spec3 = GeneratorSpec("matrix", QQ, n=3)
    assert generate(spec3).dim == 9
    with pytest.raises(BadParameter):
        generate(GeneratorSpec("nonsense", F2))
    with pytest.raises(BadParameter):
        generate(GeneratorSpec("truncated", F2))  # missing n


def _digest(algebras):
    h = hashlib.sha256()
    for a in algebras:
        h.update(repr((a.dim, a.mul, a.unit)).encode())
    return h.hexdigest()


def test_random_generators_are_pinned():
    # a corpus member is reproduced from its report alone, so a generator's
    # output is a function of (field, seed) that no refactor may change
    assert _digest(random_quiver_algebra(F, s) for F in (F2, F3, F5) for s in range(30)) == (
        "2be02535c74531a4aec721f5a552f7c648e94525daac91f55754296a661c3752")
    assert _digest(random_local_algebra(F, s) for F in (F2, F3) for s in range(20)) == (
        "b7cb76856224329ebdedeabf2975602ca68b704c7b935a179ef56aadae6257ec")


def _dsl(q):
    """The presentation as DSL text, every coefficient written out."""
    arrows = ", ".join(f"{a.name}: {q.vertices[a.source]} -> {q.vertices[a.target]}"
                       for a in q.arrows)
    rels = ", ".join(" + ".join(f"{c} " + "*".join(q.arrows[i].name for i in path)
                                for c, path in rel.terms) for rel in q.relations)
    return f"vertices: {' '.join(q.vertices)}; arrows: {arrows}; relations: {rels}"


def test_generator_presentations_survive_the_parser():
    draws = []
    for F in (F2, F3, F5, QQ):
        for seed in range(30):
            rng = random.Random(seed)
            for _ in range(3):
                try:
                    draws.append(corpus._random_quiver(rng, F, None))
                except GeneratorFailed:
                    pass
                draws.append(corpus._random_local(rng, F, None, None))
    for q in draws:
        assert parse_quiver(_dsl(q), q.field) == q
    # binomials x - c·y with c = 0 mod p keep their zero term
    assert any(c == 0 for q in draws for rel in q.relations for c, _ in rel.terms)


def test_oversize_draw_builds_no_tensor(monkeypatch):
    # seed 0 first draws a quiver whose basis has 34 paths, then one of 4
    passes, products = [], []
    stratum_pass, path_products = corpus._stratum_pass, corpus._path_products
    monkeypatch.setattr(corpus, "_stratum_pass",
                        lambda q, cap: passes.append(q) or stratum_pass(q, cap))
    monkeypatch.setattr(corpus, "_path_products",
                        lambda q, st: products.append(len(st.basis)) or path_products(q, st))
    assert random_quiver_algebra(F5, 0, max_dim=24).dim == 4
    assert len(passes) == 2 and products == [4]


def test_random_generators_reject_short_truncation():
    for trunc in (-1, 0, 1):
        with pytest.raises(BadParameter):
            random_quiver_algebra(F2, 0, trunc=trunc)
        with pytest.raises(BadParameter):
            random_local_algebra(F2, 0, trunc=trunc)
