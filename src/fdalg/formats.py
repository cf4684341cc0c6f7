"""Text formats: structure-constant files, Cayley tables, quiver sources.

The structure-constant format is line oriented:

    algebra dim=<d> field=<Fp:p|Q>
    unit: <d scalars>
    mul i j k <scalar>        # one line per nonzero c[i][j][k]

Scalars are integers or a/b fractions.  The header holds each of its two
keys once and no other token, and there is one unit line.  Cayley files
start with a line holding only the group order; quiver files start with a
``vertices:`` section.  ``load_text`` auto-detects the three by their first
meaningful line.
"""
from __future__ import annotations

from typing import Dict, Optional, Tuple

from .algebras import Algebra, group_algebra_from_cayley
from .errors import BadParameter
from .fields import Field
from .quiver import build_path_algebra, parse_quiver


class FormatError(BadParameter):
    pass


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"bad {what}: {token!r}") from None


def write_algebra_text(a: Algebra) -> str:
    F = a.field
    lines = [f"algebra dim={a.dim} field={F}"]
    lines.append("unit: " + " ".join(F.format_scalar(c) for c in a.unit))
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.mul[i][j][k]
                if c:
                    lines.append(f"mul {i} {j} {k} {F.format_scalar(c)}")
    return "\n".join(lines) + "\n"


def parse_algebra_text(text: str) -> Algebra:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("algebra"):
        raise FormatError("missing 'algebra' header line")
    header = lines[0].split()
    dim = None
    field: Optional[Field] = None
    keys = set()
    for tok in header[1:]:
        key, eq, value = tok.partition("=")
        if not eq or key not in ("dim", "field"):
            raise FormatError(f"unknown header token: {tok!r}")
        if key in keys:
            raise FormatError(f"repeated header key: {tok!r}")
        keys.add(key)
        if key == "dim":
            dim = _parse_int(value, "dim")
        else:
            field = Field.parse(value)
    if dim is None or field is None or dim < 1:
        raise FormatError(f"bad header: {lines[0]!r}")
    unit = None
    constants: Dict[Tuple[int, int, int], object] = {}  # the tensor is built after the last line
    for ln in lines[1:]:
        if ln.startswith("unit:"):
            if unit is not None:
                raise FormatError(f"repeated unit line: {ln!r}")
            parts = ln[5:].split()
            if len(parts) != dim:
                raise FormatError(f"unit line needs {dim} scalars")
            unit = [field.parse_scalar(p) for p in parts]
        elif ln.startswith("mul "):
            parts = ln.split()
            if len(parts) != 5:
                raise FormatError(f"bad mul line: {ln!r}")
            i, j, k = (_parse_int(x, "mul index") for x in parts[1:4])
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise FormatError(f"mul indices out of range: {ln!r}")
            if (i, j, k) in constants:
                raise FormatError(f"repeated mul line: {ln!r}")
            constants[(i, j, k)] = field.parse_scalar(parts[4])
        else:
            raise FormatError(f"unrecognized line: {ln!r}")
    if unit is None:
        raise FormatError("missing unit line")
    mul = [[[field.zero()] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), c in constants.items():
        mul[i][j][k] = c
    return Algebra(field, mul, unit, _canonical=True)


def parse_cayley_text(text: str, field: Field) -> Algebra:
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append(ln.split())
    if not rows:
        raise FormatError("empty Cayley file")
    try:
        n = int(rows[0][0])
    except ValueError:
        raise FormatError("Cayley file must start with the group order") from None
    if len(rows[0]) > 1:
        raise FormatError(f"unexpected token after the group order: {rows[0][1]!r}")
    table = []
    flat = [_parse_int(x, "Cayley entry") for row in rows[1:] for x in row]
    if len(flat) != n * n:
        raise FormatError(f"expected {n}x{n} table entries, found {len(flat)}")
    for i in range(n):
        table.append(flat[i * n:(i + 1) * n])
    return group_algebra_from_cayley(field, table)


def detect_format(text: str) -> str:
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        first = ln.split()[0]
        if first == "algebra":
            return "algebra"
        if first in ("vertices:", "vertices"):
            return "quiver"
        try:
            int(first)
            return "cayley"
        except ValueError:
            raise FormatError(f"cannot detect input format from line {ln!r}")
    raise FormatError("empty input")


def load_text(text: str, field: Optional[Field] = None,
              params: Optional[Dict[str, object]] = None) -> Algebra:
    """Auto-detect and parse; Cayley and quiver sources need a field."""
    kind = detect_format(text)
    if kind == "algebra":
        return parse_algebra_text(text)
    if field is None:
        raise FormatError(f"{kind} input needs --field")
    if kind == "cayley":
        return parse_cayley_text(text, field)
    return build_path_algebra(parse_quiver(text, field, params or {})).algebra
