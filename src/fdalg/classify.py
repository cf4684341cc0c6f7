"""Small-algebra classifiers and the per-instance theorem verification suite.

The classifiers decide Morita class from the numeric triple (k, codim K_2,
simple-module count) and then re-certify structurally: the basic algebra must
be local Nakayama with an explicit power basis witnessing the truncated
polynomial ring.  Classification and certificate are independent routes, so a
mismatch is reported as an internal inconsistency, never patched over.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional

from .algebras import Algebra
from .errors import InternalInconsistency, NotLocal, SplitUndecided
from .invariants import (
    acyc_cyc_space,
    codim_k_n,
    codim_series,
    commutator_subspace,
    is_local,
    k_n_space,
    k_of,
    p_power_space,
    peirce_codim_bound,
    rad_in_commutators,
    symmetrizing_form_search,
)
from .linalg import span
from .morita import basic_algebra, verify_morita_invariance
from .structure import (
    cartan_matrix,
    ext1_diagonal,
    loewy_length,
    primitive_idempotents,
    radical,
    radical_power,
    semisimple_decomposition,
)

KIND_GROUND_FIELD = "morita_ground_field"
KIND_DUAL_NUMBERS = "morita_dual_numbers"
KIND_TRUNCATED = "truncated_polynomial"
KIND_OTHER = "other"
KIND_UNAVAILABLE = "unavailable"


@dataclass
class Verdict:
    kind: str
    n: Optional[int] = None
    evidence: Dict[str, object] = dc_field(default_factory=dict)
    witness: Optional[Dict[str, object]] = None
    reason: str = ""

    def __str__(self):
        if self.kind == KIND_TRUNCATED:
            return f"{self.kind}({self.n})"
        return self.kind


def _truncated_witness(a: Algebra, n: int, seed: int) -> Dict[str, object]:
    """Certify basic(A) is F[X]/(X^n): local Nakayama with a power basis."""
    b = basic_algebra(a, seed)
    if b.dim != n:
        raise InternalInconsistency(
            f"classifier inconsistency: basic algebra has dim {b.dim}, expected {n}")
    idems = primitive_idempotents(b, seed)
    if len(idems.idempotents) != 1:
        raise InternalInconsistency("classifier inconsistency: basic algebra is not local")
    j1 = radical(b)
    j2 = radical_power(b, 2)
    if j1.dim - j2.dim > 1:
        raise InternalInconsistency("classifier inconsistency: dim J/J^2 > 1, not Nakayama")
    witness: Dict[str, object] = {"basic_dim": b.dim}
    if n == 1:
        witness["power_basis"] = [list(b.unit)]
        return witness
    x = None
    for v in j1.basis_vectors():
        if not j2.contains(v):
            x = v
            break
    if x is None:
        raise InternalInconsistency("classifier inconsistency: J = J^2 in a local algebra")
    powers = [tuple(b.unit)]
    cur = tuple(b.unit)
    for _ in range(n - 1):
        cur = b.multiply_coords(cur, x)
        powers.append(cur)
    if span(b.field, b.dim, powers).dim != n:
        raise InternalInconsistency("classifier inconsistency: powers of x are dependent")
    if any(b.multiply_coords(cur, x)):
        raise InternalInconsistency("classifier inconsistency: x^n != 0")
    witness["generator"] = list(x)
    witness["power_basis"] = [list(pw) for pw in powers]
    return witness


def classify_truncated(a: Algebra, seed: int = 0) -> Verdict:
    """Morita class among the truncated polynomial rings, from (k, codim K_2, l)."""
    try:
        dec = semisimple_decomposition(a, seed)
    except SplitUndecided as exc:
        return Verdict(KIND_UNAVAILABLE, reason=str(exc))
    if not dec.split:
        return Verdict(KIND_UNAVAILABLE, reason="algebra is not split over its field")
    n_ell = len(dec.components)
    k = k_of(a)
    ck2 = codim_k_n(a, 2)
    evidence = {"k": k, "codim_k2": ck2, "ell": n_ell}
    if n_ell == 1 and ck2 <= 2:
        n = k
        witness = _truncated_witness(a, n, seed)
        if n == 1:
            return Verdict(KIND_GROUND_FIELD, 1, evidence, witness)
        if n == 2:
            return Verdict(KIND_DUAL_NUMBERS, 2, evidence, witness)
        return Verdict(KIND_TRUNCATED, n, evidence, witness)
    return Verdict(KIND_OTHER, None, evidence)


def classify_small(a: Algebra, seed: int = 0) -> Verdict:
    """Ground-field / dual-numbers classification (k = 1, or k = 2 with l = 1)."""
    v = classify_truncated(a, seed)
    if v.kind in (KIND_GROUND_FIELD, KIND_DUAL_NUMBERS, KIND_UNAVAILABLE):
        return v
    return Verdict(KIND_OTHER, None, v.evidence)


# -- local dimension-bound consistency (algebraically closed surrogate) --------


@dataclass
class LocalBoundsReport:
    consistent: bool
    surrogate_field: bool           # finite prime field standing in for closed
    k: int
    dim: int
    rad_top_dim: Optional[int]      # dim J/J^2
    tight_small_case: bool          # k <= 3 with dim exactly 4
    detail: str = ""


def local_dimension_bounds(a: Algebra, seed: int = 0) -> LocalBoundsReport:
    """Consistency of the small-k dimension bounds for local algebras.

    k <= 3 forces dim <= 4; k = 4 forces dim <= 10; k = 5 with dim J/J^2 <= 2
    forces dim <= 12.  A violation signals an implementation bug or a failure
    of the algebraically-closed hypothesis, never a disproof.
    """
    loc = is_local(a, seed)
    if loc is not True:
        raise NotLocal("dimension bounds apply to local algebras only")
    k = k_of(a)
    d = a.dim
    j1 = radical(a)
    j2 = radical_power(a, 2)
    top = j1.dim - j2.dim
    consistent = True
    detail = ""
    if k <= 3 and d > 4:
        consistent = False
        detail = f"k = {k} but dim = {d} > 4"
    elif k == 4 and d > 10:
        consistent = False
        detail = f"k = 4 but dim = {d} > 10"
    elif k == 5 and top <= 2 and d > 12:
        consistent = False
        detail = f"k = 5 with dim J/J^2 = {top} but dim = {d} > 12"
    return LocalBoundsReport(
        consistent=consistent,
        surrogate_field=a.field.is_prime_field,
        k=k,
        dim=d,
        rad_top_dim=top,
        tight_small_case=(k <= 3 and d == 4),
        detail=detail,
    )


# -- theorem suite ---------------------------------------------------------------


@dataclass
class CheckLine:
    name: str
    status: str        # "pass" | "fail" | "skip"
    detail: str

    def __str__(self):
        return f"[{self.status:4}] {self.name}: {self.detail}"


@dataclass
class TheoremReport:
    lines: List[CheckLine]

    @property
    def ok(self) -> bool:
        return not any(line.status == "fail" for line in self.lines)

    def __str__(self):
        return "\n".join(str(line) for line in self.lines)


def _check(lines, name, ok: bool, detail: str):
    lines.append(CheckLine(name, "pass" if ok else "fail", detail))


def _skip(lines, name, why: str):
    lines.append(CheckLine(name, "skip", why))


def verify_theorem_suite(a: Algebra, seed: int = 0) -> TheoremReport:
    """Evaluate every applicable structural identity on one algebra."""
    lines: List[CheckLine] = []
    rep = a.validate()
    _check(lines, "tensor_is_associative_unital", rep.ok,
           "structure constants define a unital associative algebra"
           if rep.ok else (f"associativity failures: {rep.associativity_failures[:3]}, "
                           f"unit failures: {rep.unit_failures[:3]}"))

    series = codim_series(a, seed)
    ll = loewy_length(a)
    k = series.k
    mono = all(x <= y for x, y in zip(series.values, series.values[1:]))
    _check(lines, "codim_series_monotone_stabilizes",
           mono and series.values[-1] == k,
           f"series {series.values} ends at k = {k}")

    try:
        dec = semisimple_decomposition(a, seed)
        split = dec.split
        split_why = "algebra is not split over its field"
    except SplitUndecided as exc:
        split = False
        split_why = f"splitting undecided: {exc}"
    if not split:
        for name in ("series_starts_at_simple_count", "series_level2_ext_identity",
                     "k_between_ext_and_cartan_bounds", "codim_bound_per_level",
                     "bound_equality_downward_closed", "basic_bound_rewrite",
                     "basic_equality_criterion", "p_power_space_is_level1",
                     "radical_square_zero_trace_equality",
                     "k_equals_ell_iff_radical_in_commutators",
                     "split_semisimple_vanishing_radical_cases",
                     "basic_quotient_coset_isomorphisms"):
            _skip(lines, name, split_why)
        return TheoremReport(lines)

    n_ell = len(dec.components)
    ext1 = ext1_diagonal(a, seed)
    cartan = cartan_matrix(a, seed)
    tr_c = sum(cartan[i][i] for i in range(len(cartan)))

    _check(lines, "series_starts_at_simple_count", series.values[0] == n_ell,
           f"codim K_1 = {series.values[0]}, simple count = {n_ell}")
    ck2 = codim_k_n(a, 2)
    _check(lines, "series_level2_ext_identity", ck2 == n_ell + sum(ext1),
           f"codim K_2 = {ck2}, l + sum ext1 = {n_ell} + {sum(ext1)}")
    _check(lines, "k_between_ext_and_cartan_bounds",
           n_ell + sum(ext1) <= k <= tr_c,
           f"{n_ell + sum(ext1)} <= k = {k} <= tr C = {tr_c}")

    bounds = [peirce_codim_bound(a, n, seed) for n in range(1, ll + 1)]
    per_level = [series.values[n - 1] <= bounds[n - 1] for n in range(1, ll + 1)]
    _check(lines, "codim_bound_per_level", all(per_level),
           f"series {series.values} <= bounds {bounds}")
    eq_set = [series.values[n - 1] == bounds[n - 1] for n in range(1, ll + 1)]
    downward = all(eq_set[i] or not any(eq_set[i:]) for i in range(len(eq_set)))
    _check(lines, "bound_equality_downward_closed", downward,
           f"equality pattern {eq_set}")

    idems = primitive_idempotents(a, seed)
    basic = len(idems.idempotents) == len(idems.iso_classes)
    if basic:
        rewrite_ok = True
        crit_ok = True
        kspace = commutator_subspace(a)
        for n in range(1, ll + 1):
            sp = acyc_cyc_space(a, idems, n)
            if sp.codim() != bounds[n - 1]:
                rewrite_ok = False
            containment = all(sp.contains(v) for v in kspace.basis_vectors())
            if containment != eq_set[n - 1]:
                crit_ok = False
        _check(lines, "basic_bound_rewrite", rewrite_ok,
               "bound equals codim of off-diagonal + diagonal-radical span")
        _check(lines, "basic_equality_criterion", crit_ok,
               "equality at level n iff commutators lie in that span")
    else:
        _skip(lines, "basic_bound_rewrite", "algebra is not basic")
        _skip(lines, "basic_equality_criterion", "algebra is not basic")

    if a.field.characteristic > 0:
        tsp = p_power_space(a)
        k1 = k_n_space(a, 1)
        _check(lines, "p_power_space_is_level1", tsp == k1,
               f"dim T = {tsp.dim}, dim K_1 = {k1.dim}")
    else:
        _skip(lines, "p_power_space_is_level1", "characteristic zero")

    if radical_power(a, 2).dim == 0:
        _check(lines, "radical_square_zero_trace_equality", k == tr_c,
               f"k = {k}, tr C = {tr_c}")
    else:
        _skip(lines, "radical_square_zero_trace_equality", "J^2 != 0")

    rik = rad_in_commutators(a)
    _check(lines, "k_equals_ell_iff_radical_in_commutators",
           (k == n_ell) == rik, f"k = {k}, l = {n_ell}, Rad in K: {rik}")

    if k == n_ell:
        sym = symmetrizing_form_search(a, seed)
        special = bool(sym) or a.is_commutative() or len(idems.idempotents) == 1
        if special:
            _check(lines, "split_semisimple_vanishing_radical_cases",
                   radical(a).dim == 0,
                   "k = l on a symmetric/commutative/local algebra forces J = 0")
        else:
            _skip(lines, "split_semisimple_vanishing_radical_cases",
                  "k = l but no symmetric/commutative/local certificate")
    else:
        _skip(lines, "split_semisimple_vanishing_radical_cases", "k != l")

    morita = verify_morita_invariance(a, seed)
    _check(lines, "basic_quotient_coset_isomorphisms", morita.ok,
           f"dims A {morita.dims_a} vs basic {morita.dims_b}, "
           f"tau well-defined {morita.tau_well_defined}, bijective {morita.tau_bijective}")
    return TheoremReport(lines)
