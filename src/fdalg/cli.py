"""Command-line surface: ingest algebras, run analyses, emit reports.

Exit codes: 0 success, 1 invalid input or too large to check, 2 required
hypothesis unavailable (e.g. split-only analysis of a non-split algebra),
3 theorem-check failure, 4 I/O error, 5 internal inconsistency (a
certificate step failed: a bug).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import _kernels
from .algebras import Algebra
from .classify import (
    KIND_UNAVAILABLE,
    classify_truncated,
    local_dimension_bounds,
    verify_theorem_suite,
)
from .corpus import FAMILIES, GeneratorSpec, generate
from .errors import (
    BadParameter,
    FdalgError,
    InternalInconsistency,
    NotFull,
    NotLocal,
    NotSplit,
    SplitUndecided,
)
from .fields import Field
from .formats import FormatError, load_text, write_algebra_text
from .invariants import (
    codim_series,
    peirce_codim_bound,
    rad_in_commutators,
    symmetrizing_form_search,
)
from .morita import basic_algebra_data, inflate, verify_morita_invariance
from .structure import (
    cartan_matrix,
    ext1_diagonal,
    loewy_length,
    radical,
    semisimple_decomposition,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNAVAILABLE = 2
EXIT_THEOREM = 3
EXIT_IO = 4
EXIT_INTERNAL = 5


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(path: Optional[str], text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse_params(items: Optional[List[str]]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for item in items or []:
        if "=" not in item:
            raise BadParameter(f"--param needs name=value, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _load_algebra(args) -> Optional[Algebra]:
    """The input algebra, or None after printing why it is not a valid one."""
    text = _read_input(args.input)
    field = Field.parse(args.field) if getattr(args, "field", None) else None
    params = _parse_params(getattr(args, "param", None))
    a = load_text(text, field, params)
    rep = a.validate()
    if rep.ok:
        return a
    print("invalid algebra:")
    for t in rep.associativity_failures[:10]:
        print(f"  associativity fails at basis triple {t}")
    for i in rep.unit_failures[:10]:
        print(f"  unit fails on basis element {i}")
    return None


def build_report(a: Algebra, seed: int = 0, descriptor: str = "") -> Dict:
    """Every invariant the analysis can certify, as one JSON-able dictionary."""
    F = a.field
    fmt = F.format_scalar
    report: Dict = {
        "input": descriptor,
        "field": str(F),
        "dim": a.dim,
        "provenance": a.kind,
        "backend": _kernels.BACKEND,
        "seeds": {"analysis": seed},
    }
    series = codim_series(a, seed)
    ll = loewy_length(a)
    report["k"] = series.k
    report["k_star"] = a.k_star()
    report["loewy_length"] = ll
    report["codim_series"] = series.values
    report["radical_dim"] = radical(a).dim
    split: Optional[bool]
    try:
        dec = semisimple_decomposition(a, seed)
        split = dec.split
        report["ell"] = len(dec.components)
        report["split"] = split
        if not split:
            report["split_reason"] = "not split over the ground field"
    except SplitUndecided as exc:
        split = None
        report["ell"] = "unavailable"
        report["split"] = None
        report["split_reason"] = str(exc)
    if split:
        report["cartan"] = cartan_matrix(a, seed)
        report["ext1_diag"] = ext1_diagonal(a, seed)
        report["codim_bounds"] = [peirce_codim_bound(a, n, seed)
                                  for n in range(1, ll + 1)]
    else:
        report["cartan"] = None
        report["ext1_diag"] = None
        report["codim_bounds"] = None
    report["rad_in_commutators"] = rad_in_commutators(a)
    sym = symmetrizing_form_search(a, seed)
    report["symmetric"] = {
        "verdict": sym.kind,
        "functional": [fmt(c) for c in sym.functional] if sym.functional else None,
        "reason": sym.reason,
    }
    verdict = classify_truncated(a, seed)
    report["classification"] = {
        "kind": verdict.kind,
        "n": verdict.n,
        "evidence": verdict.evidence,
        "reason": verdict.reason,
    }
    if verdict.witness:
        report["classification"]["witness"] = {
            key: ([[fmt(c) for c in vec] for vec in val]
                  if key == "power_basis" else
                  ([fmt(c) for c in val] if key == "generator" else val))
            for key, val in verdict.witness.items()
        }
    suite = verify_theorem_suite(a, seed)
    report["theorems"] = [
        {"name": line.name, "status": line.status, "detail": line.detail}
        for line in suite.lines
    ]
    report["theorems_ok"] = suite.ok
    return report


def _print_report(report: Dict):
    print(f"input:        {report['input'] or '(stdin)'}")
    print(f"field:        {report['field']}   dim: {report['dim']}   "
          f"provenance: {report['provenance']}")
    print(f"k:            {report['k']}    k*: {report['k_star']}    "
          f"ell: {report['ell']}    split: {report['split']}")
    print(f"codim series: {report['codim_series']}  (n = 1..{report['loewy_length']})")
    if report["codim_bounds"] is not None:
        print(f"codim bounds: {report['codim_bounds']}")
    if report["cartan"] is not None:
        print(f"cartan:       {report['cartan']}   ext1 diag: {report['ext1_diag']}")
    print(f"rad in K:     {report['rad_in_commutators']}")
    sym = report["symmetric"]
    print(f"symmetric:    {sym['verdict']}   ({sym['reason']})")
    cls = report["classification"]
    label = cls["kind"] + (f"({cls['n']})" if cls["n"] else "")
    print(f"class:        {label}   evidence: {cls['evidence']}")
    print("theorem checks:")
    for line in report["theorems"]:
        print(f"  [{line['status']:4}] {line['name']}: {line['detail']}")


def cmd_check(args) -> int:
    a = _load_algebra(args)
    if a is None:
        return EXIT_INVALID
    print(f"ok: dim {a.dim} algebra over {a.field}")
    return EXIT_OK


def cmd_report(args) -> int:
    a = _load_algebra(args)
    if a is None:
        return EXIT_INVALID
    report = build_report(a, args.seed, descriptor=args.input)
    _print_report(report)
    if args.json:
        _write_output(args.json, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if report["theorems_ok"] else EXIT_THEOREM


def cmd_classify(args) -> int:
    a = _load_algebra(args)
    if a is None:
        return EXIT_INVALID
    verdict = classify_truncated(a, args.seed)
    label = verdict.kind + (f"({verdict.n})" if verdict.n else "")
    print(f"verdict:  {label}")
    print(f"evidence: {verdict.evidence}")
    if verdict.witness:
        print(f"witness:  {verdict.witness}")
    if verdict.kind == KIND_UNAVAILABLE:
        print(f"reason:   {verdict.reason}")
        return EXIT_UNAVAILABLE
    return EXIT_OK


def cmd_verify(args) -> int:
    a = _load_algebra(args)
    if a is None:
        return EXIT_INVALID
    suite = verify_theorem_suite(a, args.seed)
    print(suite)
    return EXIT_OK if suite.ok else EXIT_THEOREM


def cmd_generate(args) -> int:
    params = _parse_params(args.param)
    field = Field.parse(args.field)
    spec = GeneratorSpec(
        family=args.family,
        field=field,
        n=args.params[0] if args.params else None,
        q=params.get("q"),
        seed=args.seed,
        generators=args.generators,
        trunc=args.trunc,
    )
    a = generate(spec)
    _write_output(args.output, write_algebra_text(a))
    return EXIT_OK


def cmd_basic(args) -> int:
    a = _load_algebra(args)
    if a is None:
        return EXIT_INVALID
    b, _, _ = basic_algebra_data(a, args.seed)
    rep = verify_morita_invariance(a, args.seed)
    _write_output(args.output, write_algebra_text(b))
    out = sys.stderr if args.output in (None, "-") else sys.stdout
    print(f"basic dim: {rep.basic_dim}   k(A) = {rep.k_a}   k(B) = {rep.k_b}", file=out)
    print(f"coset dims A: {rep.dims_a}", file=out)
    print(f"coset dims B: {rep.dims_b}", file=out)
    print(f"tau well-defined: {rep.tau_well_defined}   bijective: {rep.tau_bijective}   "
          f"levels match: {rep.level_maps_match}   inverses: {rep.sigma_inverse}", file=out)
    return EXIT_OK if rep.ok else EXIT_THEOREM


def cmd_inflate(args) -> int:
    try:
        mult = [int(x) for x in args.mult.split(",") if x.strip()]
    except ValueError:
        raise BadParameter(f"--mult needs comma-separated integers, got {args.mult!r}") from None
    a = _load_algebra(args)
    if a is None:
        return EXIT_INVALID
    b = inflate(a, mult, args.seed)
    _write_output(args.output, write_algebra_text(b))
    return EXIT_OK


def cmd_fuzz(args) -> int:
    from .corpus import random_local_algebra, random_quiver_algebra

    field_cycle = [Field.prime(2), Field.prime(3), Field.prime(5)]
    failures = []
    for i in range(args.count):
        seed = args.seed + i
        field = field_cycle[i % len(field_cycle)]
        if args.family == "local":
            a = random_local_algebra(field, seed)
        else:
            a = random_quiver_algebra(field, seed)
        suite = verify_theorem_suite(a, seed)
        status = "ok" if suite.ok else "FAIL"
        print(f"[{status}] seed={seed} family={args.family} field={field} dim={a.dim}")
        if not suite.ok:
            failures.append(seed)
            for line in suite.lines:
                if line.status == "fail":
                    print(f"    {line}")
    if failures:
        print(f"failing seeds: {failures}")
        return EXIT_THEOREM
    return EXIT_OK


def cmd_bounds(args) -> int:
    a = _load_algebra(args)
    if a is None:
        return EXIT_INVALID
    try:
        rep = local_dimension_bounds(a, args.seed)
    except NotLocal:
        print("algebra is not local; dimension bounds do not apply")
        return EXIT_UNAVAILABLE
    status = "consistent" if rep.consistent else "VIOLATION"
    extra = " (tight small case)" if rep.tight_small_case else ""
    caveat = (" [finite prime field standing in for an algebraically closed one]"
              if rep.surrogate_field else "")
    print(f"{status}: k = {rep.k}, dim = {rep.dim}, dim J/J^2 = {rep.rad_top_dim}"
          f"{extra}{caveat}")
    if not rep.consistent:
        print(f"detail: {rep.detail}")
        return EXIT_THEOREM
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdalg",
        description="Exact commutator-subspace invariants of finite-dimensional algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p, with_field=True):
        p.add_argument("input", help="input file, or - for stdin")
        if with_field:
            p.add_argument("--field", help="field for quiver/Cayley inputs (Fp:p or Q)")
        p.add_argument("--param", action="append",
                       help="bind a named relation parameter, e.g. q=2")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized idempotent search")

    p = sub.add_parser("check", help="parse and validate an algebra")
    add_input(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", help="full invariant report")
    add_input(p)
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("classify", help="Morita classification verdict")
    add_input(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the theorem suite; exit 3 on failure")
    add_input(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="emit a corpus algebra")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("params", nargs="*", type=int, help="family size parameter(s)")
    p.add_argument("--field", default="Q", help="ground field (Fp:p or Q)")
    p.add_argument("--param", action="append", help="scalar parameter, e.g. q=2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--generators", type=int, help="loop count for random_local")
    p.add_argument("--trunc", type=int, help="truncation length for random families")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("basic", help="emit the basic algebra and invariance report")
    add_input(p)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_basic)

    p = sub.add_parser("inflate", help="progenerator inflation of a basic algebra")
    add_input(p)
    p.add_argument("--mult", required=True, help="comma-separated multiplicities")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_inflate)

    p = sub.add_parser("fuzz", help="random algebras through the theorem suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--family", choices=["quiver", "local"], default="quiver")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("bounds", help="small-k dimension bound consistency (local)")
    add_input(p)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotSplit, SplitUndecided) as exc:
        print(f"unavailable: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FormatError, BadParameter, NotFull, FdalgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
