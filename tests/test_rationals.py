"""Canonical rationals: an int when integral, else a Fraction with denominator > 1."""
import dataclasses
import random
from fractions import Fraction

from fdalg._kernels.pure import QEchelon
from fdalg.algebras import Algebra, Element
from fdalg.cli import build_report
from fdalg.corpus import cyclic_group_algebra, kronecker, lower_triangular, truncated_polynomial
from fdalg.corpus import two_loop_q_algebra
from fdalg.fields import QQ, Field
from fdalg.linalg import Matrix, Subspace
from fdalg.morita import basic_algebra, inflate
from fdalg.oracle import _own_rref_exact


def _scalars(obj, seen, keys):
    """Every scalar reachable from an analysis result.  Algebras are walked
    through their tensor, unit and every ``_cache`` entry (cache keys land
    in ``keys``); an object of a type the walk does not know fails the test,
    so a new kind of cached result cannot slip past it.  ``seen`` maps id to object, so that the
    temporary lists built here stay alive and no id is reused during a walk."""
    if obj is None or isinstance(obj, (bool, str, Field)):
        return
    if type(obj) in (int, Fraction, float):
        yield obj
        return
    if id(obj) in seen:
        return
    seen[id(obj)] = obj
    if isinstance(obj, Algebra):
        keys.update(obj._cache)
        yield from _scalars((obj.mul, obj.unit, list(obj._cache.values())), seen, keys)
    elif isinstance(obj, Element):
        yield from _scalars(obj.coords, seen, keys)
    elif isinstance(obj, QEchelon):
        yield from _scalars(obj.rows(), seen, keys)
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _scalars(x, seen, keys)
    elif isinstance(obj, dict):
        yield from _scalars(list(obj.values()), seen, keys)
    elif isinstance(obj, (Subspace, Matrix)) or dataclasses.is_dataclass(obj):
        # vars() also holds a Subspace's cached pivots and echelon state
        yield from _scalars(list(vars(obj).values()), seen, keys)
    else:
        raise TypeError(f"the sweep does not know {type(obj).__name__}")


def test_q_analyses_hold_canonical_rationals(corpus):
    algebras = [e.algebra for e in corpus if e.algebra.field == QQ]
    for b, mult in ((lower_triangular(QQ, 3), [2, 1, 1]), (kronecker(QQ, 2), [1, 2]),
                    (truncated_polynomial(QQ, 3), [2]), (two_loop_q_algebra(QQ, 2), [3]),
                    (cyclic_group_algebra(QQ, 2), [1, 2])):
        algebras.append(inflate(basic_algebra(b), mult))
    seen, keys = {}, set()
    fractions = 0
    for a in algebras:
        build_report(a)
        for x in _scalars(a, seen, keys):
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1), (a, x)
            fractions += type(x) is Fraction
    # the walk reached every kind of result it is meant to check, and
    # non-integral values did occur
    for key in ("radical", "rad_powers", "center", "commutator", ("k_n", 1),
                ("idempotents", 0), ("basic", 0), "ss_quotient", "nz"):
        assert key in keys, key
    assert fractions > 0


def _random_rows(rng, rows, width, rational):
    def entry():
        if rng.random() < 0.3:
            return 0
        n = rng.randint(-6, 6)
        return Fraction(n, rng.randint(1, 4)) if rational else n

    out = [[entry() for _ in range(width)] for _ in range(rows)]
    # rank-deficient: append combinations of earlier rows
    for _ in range(rng.randint(0, 3)):
        if out:
            c1, c2 = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            r1, r2 = rng.choice(out), rng.choice(out)
            out.append([c1 * x + c2 * y for x, y in zip(r1, r2)])
    return out


def test_q_echelon_matches_fraction_oracle():
    rng = random.Random(2024)
    for trial in range(300):
        width = rng.randint(1, 9)
        rows = _random_rows(rng, rng.randint(0, 9), width, rational=trial % 2 == 1)
        acc = QEchelon(width)
        grew = [acc.insert([QQ.coerce(x) for x in row]) for row in rows]
        expected = _own_rref_exact(rows)
        assert acc.rows() == expected
        assert acc.rank == len(expected) == sum(grew)
        for row in acc.rows():
            assert all(type(x) is int or x.denominator > 1 for x in row), row
        probe = [QQ.coerce(x) for x in _random_rows(rng, 1, width, True)[0]]
        # the remainder is the unique vector of probe + span with zeros at
        # the pivots; a fully reduced basis gives it in one pass
        want = [Fraction(x) for x in probe]
        for row in expected:
            f = want[next(i for i, x in enumerate(row) if x)]
            want = [a - f * b for a, b in zip(want, row)]
        red = acc.reduce(probe)
        assert red == want
        assert all(type(x) is int or x.denominator > 1 for x in red), red


def test_q_echelon_scales_by_the_pivot_inverse():
    acc = QEchelon(2)
    assert acc.insert([2, 3])
    (row,) = acc.rows()
    assert row == [1, Fraction(3, 2)]
    assert [type(x) for x in row] == [int, Fraction]
    acc = QEchelon(2)
    assert acc.insert([Fraction(1, 3), Fraction(2, 3)])
    assert [(type(x), x) for x in acc.rows()[0]] == [(int, 1), (int, 2)]


def test_q_splitting_candidates_are_ints():
    from fdalg.structure import RANDOM_SPLIT_TRIES_Q, _splitting_candidates

    b = cyclic_group_algebra(QQ, 3)
    cands = list(_splitting_candidates(b, random.Random(0)))
    assert len(cands) == 3 + 3 + RANDOM_SPLIT_TRIES_Q
    rng = random.Random(0)
    assert cands[6:] == [tuple(rng.randint(-9, 9) for _ in range(3))
                         for _ in range(RANDOM_SPLIT_TRIES_Q)]
    assert {type(x) for c in cands for x in c} == {int}
