"""Deterministic generators: the named example families plus seeded random
quiver and local algebras for property testing.

Every generator is a pure function of its spec (including the seed), so any
corpus member can be reproduced from the report alone.

The random generators hand their presentations to the stratum pass
directly, with no DSL text in between, and compare ``max_dim`` with the
pass's basis, so a draw that is too large stops before its products.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .algebras import Algebra, group_algebra_from_cayley, matrix_algebra
from .errors import BadParameter, GeneratorFailed
from .fields import Field
from .quiver import (DEFAULT_CAP, Arrow, QuiverPresentation, Relation, _path_products,
                     _stratum_pass, build_path_algebra, parse_quiver)

MAX_FAMILY_N = 16
MAX_RANDOM_DIM = 24

FAMILIES = ("truncated", "triangular", "kronecker", "a_q", "cyclic_group", "s3",
            "matrix", "random_quiver", "random_local")

# S_3 with elements [id, (12), (13), (23), (123), (132)], composition left-to-right
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 5, 0, 4, 3, 1],
    [3, 4, 5, 0, 1, 2],
    [4, 3, 1, 2, 5, 0],
    [5, 2, 3, 1, 0, 4],
]


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    field: Field
    n: Optional[int] = None
    q: Optional[object] = None   # scalar parameter for a_q
    seed: int = 0
    generators: Optional[int] = None
    trunc: Optional[int] = None


def truncated_polynomial(field: Field, n: int) -> Algebra:
    """F[X]/(X^n) on the monomial basis."""
    if not 1 <= n <= MAX_FAMILY_N:
        raise BadParameter(f"truncated degree out of range: {n}")
    z, o = field.zero(), field.one()
    mul = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i + j < n:
                mul[i][j][i + j] = o
    return Algebra(field, mul, [o] + [z] * (n - 1), _canonical=True)


def lower_triangular(field: Field, n: int) -> Algebra:
    """T_n, basis of matrix units e_ij with i >= j."""
    if not 1 <= n <= MAX_FAMILY_N:
        raise BadParameter(f"triangular size out of range: {n}")
    basis = [(i, j) for i in range(n) for j in range(i + 1)]
    idx = {b: k for k, b in enumerate(basis)}
    d = len(basis)
    z, o = field.zero(), field.one()
    mul = [[[z] * d for _ in range(d)] for _ in range(d)]
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            if j == k:
                mul[a][b][idx[(i, l)]] = o
    unit = [z] * d
    for i in range(n):
        unit[idx[(i, i)]] = o
    return Algebra(field, mul, unit, _canonical=True)


def kronecker(field: Field, n: int) -> Algebra:
    """Path algebra of the n-Kronecker quiver (two vertices, n parallel arrows)."""
    if not 1 <= n <= MAX_FAMILY_N:
        raise BadParameter(f"kronecker arrow count out of range: {n}")
    arrows = ", ".join(f"a{i}: u -> v" for i in range(1, n + 1))
    text = f"vertices: u v; arrows: {arrows}; relations:"
    return build_path_algebra(parse_quiver(text, field)).algebra


def two_loop_q_algebra(field: Field, q) -> Algebra:
    """The four-dimensional local algebra on x, y with x^2 = y^2 = 0, xy = q yx."""
    qv = field.coerce(q)
    if qv == field.zero() or qv == field.one():
        raise BadParameter("parameter q must avoid 0 and 1")
    text = "vertices: v; arrows: x: v->v, y: v->v; relations: x^2, y^2, x*y - q y*x"
    return build_path_algebra(parse_quiver(text, field, {"q": qv})).algebra


def cyclic_group_algebra(field: Field, n: int) -> Algebra:
    if not 1 <= n <= MAX_FAMILY_N:
        raise BadParameter(f"cyclic order out of range: {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_algebra_from_cayley(field, table)


def s3_group_algebra(field: Field) -> Algebra:
    return group_algebra_from_cayley(field, S3_TABLE)


def _relation(field: Field, arrows, p1, p2=None, c=0) -> Relation:
    """The monomial p1, or the binomial p1 - c·p2, with the terms the parser
    gives for that text."""
    terms = ((field.one(), p1),)
    if p2 is not None:
        terms += ((field.neg(field.coerce(c)), p2),)
    return Relation(terms, arrows[p1[0]].source, arrows[p1[-1]].target, len(p1))


def _random_quiver(rng: random.Random, field: Field, trunc: Optional[int]) -> QuiverPresentation:
    nv = rng.randint(1, 3)
    arrows = tuple(Arrow(f"a{i}", rng.randrange(nv), rng.randrange(nv))
                   for i in range(rng.randint(1, 4)))
    n = trunc if trunc is not None else rng.randint(2, 4)
    # relations: all paths of the cutoff length (forces admissibility), plus a
    # few random parallel binomials of smaller homogeneous degree
    paths = {1: [(i,) for i in range(len(arrows))]}
    for ln in range(2, n + 1):
        paths[ln] = [p + (i,) for p in paths[ln - 1]
                     for i, a in enumerate(arrows) if a.source == arrows[p[-1]].target]
        if len(paths[ln]) > 4000:
            raise GeneratorFailed("path blow-up")
    rels = [_relation(field, arrows, p) for p in paths[n]]
    for ln in range(2, n):
        group: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}
        for p in paths[ln]:
            group.setdefault((arrows[p[0]].source, arrows[p[-1]].target), []).append(p)
        for pair_list in group.values():
            if len(pair_list) >= 2 and rng.random() < 0.3:
                p1, p2 = rng.sample(pair_list, 2)
                rels.append(_relation(field, arrows, p1, p2, rng.randint(1, 4)))
    return QuiverPresentation(tuple(f"v{i}" for i in range(nv)), arrows, tuple(rels), field)


def random_quiver_algebra(field: Field, seed: int, trunc: Optional[int] = None,
                          max_dim: int = 40) -> Algebra:
    """Seeded admissible quiver algebra.  Its path-length grading is the
    grading guess, so its radical and radical powers are certified rather
    than computed, and its vertex idempotents are the basis guess, so its
    primitive idempotents and semisimple decomposition are certified rather
    than searched for; it is its own basic corner."""
    if trunc is not None and trunc < 2:
        raise BadParameter(f"truncation length must be at least 2: {trunc}")
    rng = random.Random(seed)
    for _ in range(100):
        try:
            q = _random_quiver(rng, field, trunc)
        except GeneratorFailed:
            continue
        strata = _stratum_pass(q, DEFAULT_CAP)
        if len(strata.basis) <= max_dim:
            return _path_products(q, strata).algebra
    raise GeneratorFailed(f"no admissible quiver of dim <= {max_dim} after 100 draws")


def _random_local(rng: random.Random, field: Field, generators: Optional[int],
                  trunc: Optional[int]) -> QuiverPresentation:
    g = generators if generators is not None else rng.randint(1, 3)
    n = trunc if trunc is not None else rng.randint(2, 4)
    arrows = tuple(Arrow(f"x{i}", 0, 0) for i in range(g))
    words = {1: [(i,) for i in range(g)]}
    for ln in range(2, n + 1):
        words[ln] = [w + (i,) for w in words[ln - 1] for i in range(g)]
    rels = [_relation(field, arrows, w) for w in words[n]]
    for ln in range(2, n):
        rels += [_relation(field, arrows, w) for w in words[ln] if rng.random() < 0.35]
    for ln in range(2, n):
        pool = words[ln]
        if len(pool) >= 2 and rng.random() < 0.5:
            w1, w2 = rng.sample(pool, 2)
            rels.append(_relation(field, arrows, w1, w2, rng.randint(1, 4)))
    return QuiverPresentation(("v",), arrows, tuple(rels), field)


def random_local_algebra(field: Field, seed: int, generators: Optional[int] = None,
                         trunc: Optional[int] = None,
                         max_dim: int = MAX_RANDOM_DIM) -> Algebra:
    """Seeded local algebra: truncated free algebra on loops, extra monomial and
    binomial relations, of kind "generic".  Its relations are homogeneous, so
    ``structure.radical`` certifies its radical from the guessed grading, as
    on a quiver build."""
    if trunc is not None and trunc < 2:
        raise BadParameter(f"truncation length must be at least 2: {trunc}")
    rng = random.Random(seed)
    for _ in range(100):
        q = _random_local(rng, field, generators, trunc)
        strata = _stratum_pass(q, DEFAULT_CAP)
        if len(strata.basis) <= max_dim:
            alg = _path_products(q, strata).algebra
            # the same tensor, reported as kind "generic" rather than "quiver"
            return Algebra(field, alg.mul, alg.unit, _canonical=True)
    raise GeneratorFailed(f"no local algebra of dim <= {max_dim} after 100 draws")


def generate(spec: GeneratorSpec) -> Algebra:
    """Build the named algebra; a pure function of the generator description."""
    fam = spec.family
    if fam == "truncated":
        return truncated_polynomial(spec.field, _need_n(spec))
    if fam == "triangular":
        return lower_triangular(spec.field, _need_n(spec))
    if fam == "kronecker":
        return kronecker(spec.field, _need_n(spec))
    if fam == "a_q":
        if spec.q is None:
            raise BadParameter("family a_q needs --param q=<scalar>")
        return two_loop_q_algebra(spec.field, spec.q)
    if fam == "cyclic_group":
        return cyclic_group_algebra(spec.field, _need_n(spec))
    if fam == "s3":
        return s3_group_algebra(spec.field)
    if fam == "matrix":
        n = _need_n(spec)
        if not 1 <= n <= 8:
            raise BadParameter(f"matrix size out of range: {n}")
        return matrix_algebra(spec.field, n)
    if fam == "random_quiver":
        return random_quiver_algebra(spec.field, spec.seed, spec.trunc)
    if fam == "random_local":
        return random_local_algebra(spec.field, spec.seed, spec.generators, spec.trunc,
                                    max_dim=12)
    raise BadParameter(f"unknown family {fam!r}; choose from {FAMILIES}")


def _need_n(spec: GeneratorSpec) -> int:
    if spec.n is None:
        raise BadParameter(f"family {spec.family!r} needs a size parameter")
    return spec.n
