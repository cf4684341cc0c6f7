"""Each output check accepts a real output and rejects a deliberately wrong one.

    python3 -m pytest -q perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads as W  # noqa: E402
from fdalg.fields import GF, QQ  # noqa: E402


def _text(family, n, field, seed=0):
    src = W.Source(family, n, field)
    return src, W._permuted_text(W.build_source(src), random.Random(seed))


def _rejects(check, item, rec, mutate):
    bad = copy.deepcopy(rec)
    mutate(bad)
    return bool(check(item, bad))


def test_commutator_codim_matches_closed_forms():
    for family, n, field in (("truncated", 4, GF(5)), ("matrix", 3, QQ),
                             ("triangular", 3, GF(2)), ("s3", 3, GF(3)),
                             ("s3", 3, QQ), ("cyclic", 4, GF(2)), ("a_q", 2, QQ)):
        _, text = _text(family, n, field)
        dim, p, tensor = checks.parse_text(text)
        assert checks.commutator_codim(dim, tensor, p) == checks.expected_k(family, n)
    assert checks.rank_q([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert checks.rank_mod_p([[1, 2], [2, 4], [0, 1]], 5) == 2


def test_morita_check_rejects_wrong_values():
    src, text = _text("kronecker", 2, GF(3))
    item = W.Item("kronecker(2)/Fp:3 x[2, 1]", src, text, (2, 1))
    rec = W.capture_morita(item, *W.morita_op(item))
    assert checks.check_morita(item, rec) == []
    for mutate in (lambda r: r.update(ok=False),
                   lambda r: r.update(dims=[2, 3]),
                   lambda r: r.update(dims_b=[1, 2]),
                   lambda r: r.update(k_a=3),
                   # each b_j b_i overwritten by b_i b_j, so k changes
                   lambda r: r.update(tensor=r["tensor"] + tuple(
                       (j, i, k, c) for i, j, k, c in r["tensor"]))):
        assert _rejects(checks.check_morita, item, rec, mutate)


def test_invariance_check_rejects_series_without_closed_form():
    # cyclic(2) has k in closed form but no closed-form series: a wrong
    # series with the right k is caught only by comparing with the source
    src, text = _text("cyclic", 2, GF(3))
    item = W.Item("cyclic(2)/Fp:3 x[1, 2]", src, text, (1, 2))
    rec = W.capture_morita(item, *W.morita_op(item))
    assert checks.check_morita(item, rec) == []
    assert _rejects(checks.check_morita, item, rec, lambda r: r.update(dims=[1, 2]))


def test_report_check_rejects_wrong_values():
    src, text = _text("truncated", 3, QQ)
    item = W.Item(src.name, src, text)
    rec = W.capture_report(item, *W.report_op(item))
    assert checks.check_report(item, rec) == []

    def series(r):
        r["report"]["codim_series"] = [1, 3, 3]

    def k(r):
        r["report"]["k"] = 2

    def theorems(r):
        r["report"]["theorems_ok"] = False

    for mutate in (series, k, theorems):
        assert _rejects(checks.check_report, item, rec, mutate)


def test_fuzz_check_rejects_wrong_values():
    item = W.Item("random_quiver(seed=1)", None, field=GF(2), seed=1)
    rec = W.capture_fuzz(item, *W.fuzz_op(item))
    assert 0 < len(rec["radical"]) and 2 ** rec["dim"] <= checks.ORACLE_CAP
    assert checks.check_fuzz(item, rec) == []
    for mutate in (lambda r: r.update(ok=False),
                   lambda r: r.update(k=r["k"] + 1),
                   lambda r: r.update(radical=r["radical"][1:])):
        assert _rejects(checks.check_fuzz, item, rec, mutate)
