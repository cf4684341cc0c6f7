"""Output checks that do not rely on the program's own answers.

Each check returns a list of error strings (empty when the output is right).
They compare against:

* an elimination written here, apart from fdalg: k(A) = d - rank of the
  commutators b_i b_j - b_j b_i, mod p or over ``Fraction``;
* closed forms of the named families (the codimension series, or k alone
  where the series has no closed form);
* Morita invariance, the property the paper proves: an inflation, and any
  relabelling of the basis, has the coset dimensions dim A/K_n of the named
  algebra it came from;
* fdalg.oracle.radical_oracle, an exhaustive radical that shares no code with
  the radical routes, wherever p^dim <= 2^15.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from fdalg.algebras import Algebra
from fdalg.invariants import codim_series
from fdalg.oracle import radical_oracle

from workloads import Source, build_source

ORACLE_CAP = 2 ** 15


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p by plain Gaussian elimination."""
    basis: Dict[int, List[int]] = {}
    for row in rows:
        r = [x % p for x in row]
        for piv, b in basis.items():
            c = r[piv]
            if c:
                r = [(x - c * y) % p for x, y in zip(r, b)]
        lead = next((i for i, x in enumerate(r) if x), None)
        if lead is not None:
            inv = pow(r[lead], p - 2, p)
            basis[lead] = [x * inv % p for x in r]
    return len(basis)


def rank_q(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination in exact fractions."""
    basis: Dict[int, List[Fraction]] = {}
    for row in rows:
        r = [Fraction(x) for x in row]
        for piv, b in basis.items():
            c = r[piv]
            if c:
                r = [x - c * y for x, y in zip(r, b)]
        lead = next((i for i, x in enumerate(r) if x), None)
        if lead is not None:
            basis[lead] = [x / r[lead] for x in r]
    return len(basis)


def dense_tensor(dim: int, tensor: Sequence[Tuple]) -> List[List[List]]:
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, x in tensor:
        c[i][j][k] = x
    return c


def commutator_codim(dim: int, tensor: Sequence[Tuple], p: int) -> int:
    """k(A) = d - rank{b_i b_j - b_j b_i} from sparse structure constants."""
    c = dense_tensor(dim, tensor)
    rows = [[c[i][j][k] - c[j][i][k] for k in range(dim)]
            for i in range(dim) for j in range(i + 1, dim)]
    rows = [r for r in rows if any(r)]
    return dim - (rank_mod_p(rows, p) if p else rank_q(rows))


def parse_text(text: str) -> Tuple[int, int, List[Tuple]]:
    """(dim, p, sparse tensor) of structure-constant text; p = 0 over Q."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    head = dict(tok.split("=", 1) for tok in lines[0][1:])
    dim = int(head["dim"])
    p = 0 if head["field"] == "Q" else int(head["field"][3:])
    tensor = [(int(i), int(j), int(k), Fraction(x))
              for _, i, j, k, x in (ln for ln in lines if ln[0] == "mul")]
    if p:
        tensor = [(i, j, k, x.numerator * pow(x.denominator, -1, p) % p)
                  for i, j, k, x in tensor]
    return dim, p, tensor


def expected_series(family: str, n: int) -> Optional[List[int]]:
    """Closed-form codimension series dim A/K_m, m = 1..Loewy length."""
    if family == "truncated":
        return list(range(1, n + 1))
    if family == "matrix":
        return [1]
    if family == "triangular":
        return [n] * n
    if family == "kronecker":
        return [2, 2]
    if family == "a_q":
        return [1, 3, 3]
    return None


def expected_k(family: str, n: int) -> int:
    """k(A): the series' last value, n for the commutative cyclic group
    algebra of order n, and 3 (conjugacy classes) for the group algebra of S_3."""
    series = expected_series(family, n)
    if series is not None:
        return series[-1]
    if family == "cyclic":
        return n
    if family == "s3":
        return 3
    raise ValueError(f"no closed form for {family!r}")


@lru_cache(maxsize=None)
def source_series(src: Source) -> Tuple[int, ...]:
    """The codimension series of the named algebra itself, in its own basis."""
    return tuple(codim_series(build_source(src)).values)


def _series_errors(name: str, src: Source, series: Sequence[int]) -> List[str]:
    errs = []
    if tuple(series) != source_series(src):
        errs.append(f"{name}: series {list(series)} != {list(source_series(src))} "
                    f"of {src.name}")
    want = expected_series(src.family, src.n)
    if want is not None and list(series) != want:
        errs.append(f"{name}: series {list(series)} != closed form {want}")
    if want is None and series[-1] != expected_k(src.family, src.n):
        errs.append(f"{name}: k = {series[-1]} != closed form "
                    f"{expected_k(src.family, src.n)}")
    return errs


def check_morita(item, rec: Dict) -> List[str]:
    """An inflation: the certificate holds, k agrees with the elimination
    here, and the coset dimensions are those of the source."""
    name, src = item.name, item.source
    errs = []
    if not rec["ok"]:
        errs.append(f"{name}: MoritaReport.ok is false")
    if rec["dims_a"] != rec["dims_b"]:
        errs.append(f"{name}: dims {rec['dims_a']} != basic dims {rec['dims_b']}")
    own = commutator_codim(rec["dim"], rec["tensor"], src.field.characteristic)
    if not own == rec["k_a"] == rec["k_b"] == rec["dims"][-1]:
        errs.append(f"{name}: k = {rec['k_a']}/{rec['k_b']}/{rec['dims'][-1]}, "
                    f"independent elimination gives {own}")
    return errs + _series_errors(name, src, rec["dims"])


def check_report(item, rec: Dict) -> List[str]:
    """build_report on a named algebra or an inflation of one."""
    name, src, rep = item.name, item.source, rec["report"]
    errs = []
    if rep["theorems_ok"] is not True:
        bad = [t["name"] for t in rep["theorems"] if t["status"] == "fail"]
        errs.append(f"{name}: theorems_ok is false ({bad})")
    dim, p, tensor = parse_text(item.text)
    own = commutator_codim(dim, tensor, p)
    if not own == rep["k"] == rep["codim_series"][-1]:
        errs.append(f"{name}: k = {rep['k']}, series {rep['codim_series']}, "
                    f"independent elimination gives {own}")
    return errs + _series_errors(name, src, rep["codim_series"])


def check_fuzz(item, rec: Dict) -> List[str]:
    """A random quiver algebra: the theorem suite passes, k agrees with the
    elimination here, and the radical agrees with the exhaustive oracle."""
    name, p = item.name, item.field.characteristic
    errs = []
    if not rec["ok"]:
        errs.append(f"{name}: theorem suite failed")
    own = commutator_codim(rec["dim"], rec["tensor"], p)
    if own != rec["k"]:
        errs.append(f"{name}: k = {rec['k']}, independent elimination gives {own}")
    if p ** rec["dim"] <= ORACLE_CAP:
        a = Algebra(item.field, dense_tensor(rec["dim"], rec["tensor"]), rec["unit"])
        oracle = radical_oracle(a).basis_vectors()
        mine = list(rec["radical"])
        r = rank_mod_p(mine, p)
        if not r == rank_mod_p(oracle, p) == rank_mod_p(mine + oracle, p):
            errs.append(f"{name}: radical (dim {r}) differs from the oracle's "
                        f"(dim {len(oracle)})")
    return errs


CHECKS = {"morita_fp": check_morita, "report_q": check_report,
          "fuzz_quiver": check_fuzz, "report_bigp": check_report}
