"""Shared fixtures: the named corpus and cached per-algebra analyses.

The corpus is assembled once per session; analyses (radical, series,
idempotents) are cached on the algebra objects themselves, so criteria
that sweep the same corpus do not recompute anything.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import pytest

from fdalg.algebras import Algebra
from fdalg.corpus import (
    cyclic_group_algebra,
    kronecker,
    lower_triangular,
    s3_group_algebra,
    truncated_polynomial,
    two_loop_q_algebra,
)
from fdalg.fields import Field, GF, QQ
from fdalg.algebras import matrix_algebra

F2, F3, F5, F7 = GF(2), GF(3), GF(5), GF(7)
FIELDS_P = (F2, F3, F5)


@dataclass
class CorpusEntry:
    name: str
    algebra: Algebra

    def __repr__(self):
        return self.name


def _named_corpus() -> List[CorpusEntry]:
    entries: List[CorpusEntry] = []

    def add(name, alg):
        entries.append(CorpusEntry(name, alg))

    for field in (F2, F3, F5, QQ):
        for n in range(1, 9):
            add(f"truncated({n})/{field}", truncated_polynomial(field, n))
        for n in (2, 3):
            add(f"triangular({n})/{field}", lower_triangular(field, n))
        for n in range(1, 6):
            add(f"kronecker({n})/{field}", kronecker(field, n))
        for n in (2, 3, 4):
            add(f"matrix({n})/{field}", matrix_algebra(field, n))
        add(f"s3/{field}", s3_group_algebra(field))
    add("triangular(4)/Q", lower_triangular(QQ, 4))
    add("triangular(4)/Fp:3", lower_triangular(F3, 4))
    for field in (F2, F3, F5):
        for n in (2, 3, 4, 5, 6):
            add(f"cyclic({n})/{field}", cyclic_group_algebra(field, n))
    add("cyclic(2)/Q", cyclic_group_algebra(QQ, 2))
    add("cyclic(3)/Q", cyclic_group_algebra(QQ, 3))
    add("s3/Fp:7", s3_group_algebra(F7))
    for q, field in ((2, F5), (3, F5), (2, F7), (3, F7), (2, F3)):
        add(f"a_q(q={q})/{field}", two_loop_q_algebra(field, q))
    add("a_q(q=2)/Q", two_loop_q_algebra(QQ, 2))
    return entries


_CORPUS_CACHE: Optional[List[CorpusEntry]] = None


def named_corpus() -> List[CorpusEntry]:
    global _CORPUS_CACHE
    if _CORPUS_CACHE is None:
        _CORPUS_CACHE = _named_corpus()
    return _CORPUS_CACHE


@pytest.fixture(scope="session")
def corpus() -> List[CorpusEntry]:
    return named_corpus()
