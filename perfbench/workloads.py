"""The four workloads: how their inputs are built from a seed, and the one
operation each of them times.

An operation receives only the generated input (structure-constant text, or a
field and a generator seed) and builds fresh ``Algebra`` objects from it, so
``Algebra._cache`` never carries results from one operation to the next.
After the operation's timer stops, ``capture`` copies out the few values the
output checks need, so no algebra outlives its operation.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from fdalg.algebras import matrix_algebra
from fdalg.cli import build_report
from fdalg.classify import verify_theorem_suite
from fdalg.corpus import (
    cyclic_group_algebra,
    kronecker,
    lower_triangular,
    random_quiver_algebra,
    s3_group_algebra,
    truncated_polynomial,
    two_loop_q_algebra,
)
from fdalg.errors import SplitUndecided
from fdalg.fields import GF, QQ, Field
from fdalg.formats import parse_algebra_text
from fdalg.invariants import k_n_space, k_of
from fdalg.morita import basic_algebra, inflate, verify_morita_invariance
from fdalg.structure import (
    loewy_length,
    peirce_component,
    primitive_idempotents,
    radical,
    semisimple_decomposition,
)

# The smallest prime above 2**31: beyond the exact-float64 gate of
# fdalg._numutil.usable and beyond the compiled kernels' int64 limit.
BIG_P = 2147483659

# Inflation dimension caps, chosen so one round of each workload lasts a few
# seconds on a 2-core machine while still reaching the largest cases a run
# can afford.
MORITA_DIM_CAP = 12
REPORT_Q_DIM_CAP = 9
REPORT_BIGP_DIM_CAP = 11

# fuzz_quiver runs what `fdalg fuzz --family quiver --seed 0 --count 140`
# runs: quiver seed s over F_2, F_3, F_5 in turn (s mod 3).  The generator's
# dimension cap (fdalg fuzz uses 40) keeps a round to a few seconds, so a
# run repeats it at least four times.
FUZZ_SEEDS = 140
FUZZ_PRIMES = (2, 3, 5)
FUZZ_MAX_DIM = 24


# Parameters q of the four-dimensional local algebras a_q (x^2 = y^2 = 0,
# xy = q yx): cheap operations, where fixed per-call overhead dominates.
A_Q_PARAMS = tuple(range(2, 12)) + tuple(range(-1, -11, -1))


@dataclass(frozen=True)
class Source:
    """A named algebra: family, size parameter (q for a_q), field."""

    family: str
    n: int
    field: Field

    @property
    def name(self) -> str:
        return f"{self.family}({self.n})/{self.field}"


@dataclass(frozen=True)
class Item:
    """One operation's input plus what its checks need to know about it."""

    name: str
    source: Optional[Source]
    text: str = ""
    mult: Tuple[int, ...] = ()
    field: Optional[Field] = None
    seed: int = 0


def build_source(src: Source):
    f, n, F = src.family, src.n, src.field
    if f == "truncated":
        return truncated_polynomial(F, n)
    if f == "triangular":
        return lower_triangular(F, n)
    if f == "kronecker":
        return kronecker(F, n)
    if f == "matrix":
        return matrix_algebra(F, n)
    if f == "cyclic":
        return cyclic_group_algebra(F, n)
    if f == "s3":
        return s3_group_algebra(F)
    if f == "a_q":
        return two_loop_q_algebra(F, n)
    raise ValueError(f"unknown family {f!r}")


def named_sources(field: Field) -> List[Source]:
    """The named families of the acceptance sweep, over one field.

    Callers keep only the algebras that split over the field; for a_q the
    parameter is taken once per residue other than 0 and 1.
    """
    char = field.characteristic
    out = [Source("truncated", n, field) for n in range(1, 9)]
    out += [Source("triangular", n, field) for n in (2, 3, 4)]
    out += [Source("kronecker", n, field) for n in range(1, 9)]
    out += [Source("matrix", n, field) for n in (2, 3, 4)]
    out.append(Source("s3", 3, field))
    out += [Source("cyclic", n, field) for n in range(2, 7)]
    seen = {0, 1}
    for q in A_Q_PARAMS:
        r = q % char if char else q
        if r not in seen:
            seen.add(r)
            out.append(Source("a_q", q, field))
    return out


def _is_split(a) -> bool:
    try:
        return semisimple_decomposition(a).split
    except SplitUndecided:
        return False


def _permuted_text(a, rng: random.Random) -> str:
    """Structure-constant text of ``a`` with its basis relabelled at random.

    A relabelling gives an isomorphic algebra with the same sparsity, so the
    seed varies the coordinates the program sees without changing how much
    work it has to do.
    """
    d = a.dim
    perm = list(range(d))
    rng.shuffle(perm)
    fmt = a.field.format_scalar
    unit = [None] * d
    for i, c in enumerate(a.unit):
        unit[perm[i]] = fmt(c)
    lines = [f"algebra dim={d} field={a.field}", "unit: " + " ".join(unit)]
    for i, plane in enumerate(a.mul):
        for j, row in enumerate(plane):
            for k, c in enumerate(row):
                if c:
                    lines.append(f"mul {perm[i]} {perm[j]} {perm[k]} {fmt(c)}")
    return "\n".join(lines) + "\n"


def _peirce_dims(b) -> List[List[int]]:
    """dim e_i B e_j over the primitive idempotents of a basic algebra B; an
    inflation by multiplicities m has dimension sum m_i m_j dim e_i B e_j."""
    idems = primitive_idempotents(b)
    es = [idems.idempotents[r] for r in idems.basic_representatives]
    return [[peirce_component(b, e, f).dim for f in es] for e in es]


def _vectors(ell: int) -> List[Tuple[int, ...]]:
    out = [()]
    for _ in range(ell):
        out = [v + (m,) for v in out for m in (1, 2, 3)]
    return out


def _inflation_items(fields, cap: int, rng: random.Random, inflate_in_op: bool) -> List[Item]:
    """Inputs of dimension <= cap from the split named algebras: inflations
    of their basic algebras by multiplicity vectors in {1,2,3}^l.

    With ``inflate_in_op`` (morita_fp) an item is the basic algebra's text
    plus a vector, and the operation inflates.  Otherwise (the report
    workloads) an item is the text of a named algebra or of an inflation
    built here.
    """
    items: List[Item] = []
    for F in fields:
        for src in named_sources(F):
            a = build_source(src)
            if not _is_split(a):
                continue
            if not inflate_in_op and a.dim <= cap:
                items.append(Item(src.name, src, _permuted_text(a, rng)))
            b = basic_algebra(a)
            if inflate_in_op:
                # the operation inflates the parsed text, whose primitive
                # idempotents may come in another order than b's
                text = _permuted_text(b, rng)
                peirce = _peirce_dims(parse_algebra_text(text))
            else:
                peirce = _peirce_dims(b)
            ell = len(peirce)
            for mult in _vectors(ell):
                if sum(mult[i] * mult[j] * peirce[i][j]
                       for i in range(ell) for j in range(ell)) > cap:
                    continue
                name = f"{src.name} x{list(mult)}"
                if inflate_in_op:
                    items.append(Item(name, src, text, mult))
                else:
                    items.append(Item(name, src, _permuted_text(inflate(b, mult), rng)))
    return items


def morita_items(rng: random.Random) -> List[Item]:
    return _inflation_items([GF(p) for p in (2, 3, 5)], MORITA_DIM_CAP, rng,
                            inflate_in_op=True)


def report_q_items(rng: random.Random) -> List[Item]:
    return _inflation_items([QQ], REPORT_Q_DIM_CAP, rng, inflate_in_op=False)


def report_bigp_items(rng: random.Random) -> List[Item]:
    return _inflation_items([GF(BIG_P)], REPORT_BIGP_DIM_CAP, rng, inflate_in_op=False)


def fuzz_items(rng: random.Random) -> List[Item]:
    """The same list for every workload seed, which only orders it (the
    worker shuffles every list)."""
    fields = [GF(p) for p in FUZZ_PRIMES]
    return [Item(f"random_quiver(seed={s})", None, field=fields[s % len(fields)], seed=s)
            for s in range(FUZZ_SEEDS)]


# -- operations ---------------------------------------------------------------


def morita_op(item: Item):
    a = parse_algebra_text(item.text)
    b = inflate(a, list(item.mult))
    rep = verify_morita_invariance(b)
    dims = [b.dim - k_n_space(b, n).dim for n in range(1, loewy_length(b) + 1)]
    return b, (rep, dims)


def report_op(item: Item):
    a = parse_algebra_text(item.text)
    return a, build_report(a, 0, descriptor=item.name)


def fuzz_op(item: Item):
    a = random_quiver_algebra(item.field, item.seed, max_dim=FUZZ_MAX_DIM)
    return a, verify_theorem_suite(a, item.seed)


# -- what the checks keep -------------------------------------------------------


def sparse_tensor(a) -> Tuple:
    """The nonzero structure constants as (i, j, k, c) with c an int or Fraction."""
    return tuple((i, j, k, c)
                 for i, plane in enumerate(a.mul)
                 for j, row in enumerate(plane)
                 for k, c in enumerate(row) if c)


def capture_morita(item: Item, b, out) -> Dict:
    rep, dims = out
    return {"dim": b.dim, "tensor": sparse_tensor(b), "ok": rep.ok,
            "k_a": rep.k_a, "k_b": rep.k_b, "dims": dims,
            "dims_a": rep.dims_a, "dims_b": rep.dims_b}


def capture_report(item: Item, a, report) -> Dict:
    return {"dim": a.dim, "report": report}


def capture_fuzz(item: Item, a, suite) -> Dict:
    return {"dim": a.dim, "tensor": sparse_tensor(a), "unit": a.unit,
            "ok": suite.ok, "k": k_of(a),
            "radical": tuple(radical(a).basis_vectors())}


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[[random.Random], List[Item]]
    op: Callable
    capture: Callable


WORKLOADS: Dict[str, Workload] = {
    "morita_fp": Workload("morita_fp", morita_items, morita_op, capture_morita),
    "report_q": Workload("report_q", report_q_items, report_op, capture_report),
    "fuzz_quiver": Workload("fuzz_quiver", fuzz_items, fuzz_op, capture_fuzz),
    "report_bigp": Workload("report_bigp", report_bigp_items, report_op, capture_report),
}
