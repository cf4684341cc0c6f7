"""Quiver-with-relations DSL and its compilation to a structure-constant algebra.

Grammar (sections may be separated by newlines or semicolons):

    vertices: u v
    arrows:   a: u -> v, b: v -> v
    relations: b^2, a*b - 2 b*a

Path composition is left-to-right: ``a*b`` means "a, then b".  Relation
coefficients are integers, ``n/m`` fractions, or named parameters bound at
parse time (the CLI binds them with ``--param q=...``).

Relations must combine parallel paths of a single common length >= 2; the
length-graded normal form this module uses is exact precisely for such
homogeneous ideals, and anything else is rejected up front.  A monomial
relation (one term of nonzero coefficient) is not row-reduced: every path
that contains it is 0 in FQ/I, so the build marks such paths dead and
row-reduces only the other relations.

A build hands its algebra only the tensor, the unit and the kind "quiver".
``structure.radical`` recovers the path-length grading and the vertex
idempotents from the structure constants, by its grading guess and its basis
guess, and certifies both as on any other algebra.
"""
from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from .algebras import Algebra, Element
from .errors import NotAdmissible, QuiverSyntaxError, UnsupportedRelations
from .fields import Field
from .linalg import Subspace, coordinate_subspace, echelon_for

DEFAULT_CAP = 32
PATH_CAP = 20000

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<arrowsym>->)|(?P<sym>[:;,*^+\-/])"
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise QuiverSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            tokens.append(Token("sym" if kind == "arrowsym" else kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    return tokens


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Relation:
    """Homogeneous combination of parallel paths: [(coeff, arrow-index tuple)]."""

    terms: Tuple[Tuple[object, Tuple[int, ...]], ...]
    source: int
    target: int
    degree: int


@dataclass(frozen=True)
class QuiverPresentation:
    vertices: Tuple[str, ...]
    arrows: Tuple[Arrow, ...]
    relations: Tuple[Relation, ...]
    field: Field


class _Parser:
    def __init__(self, tokens: List[Token], field: Field, params: Dict[str, object]):
        self.toks = tokens
        self.i = 0
        self.field = field
        self.params = {k: field.coerce(v) for k, v in (params or {}).items()}
        self.vertices: List[str] = []
        self.vindex: Dict[str, int] = {}
        self.arrows: List[Arrow] = []
        self.aindex: Dict[str, int] = {}
        self.relations: List[Relation] = []

    def peek(self) -> Optional[Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else Token("", "", 1, 1)
            raise QuiverSyntaxError("unexpected end of input", last.line, last.col)
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise QuiverSyntaxError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def at_section_start(self) -> bool:
        t = self.peek()
        if t is None or t.kind != "name" or t.text not in ("vertices", "arrows", "relations"):
            return False
        nxt = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None
        return nxt is not None and nxt.text == ":"

    def parse(self) -> QuiverPresentation:
        seen = set()
        while self.peek() is not None:
            if self.peek().text == ";":
                self.next()
                continue
            if not self.at_section_start():
                t = self.peek()
                raise QuiverSyntaxError(f"expected a section keyword, found {t.text!r}", t.line, t.col)
            key = self.next().text
            self.expect(":")
            if key in seen:
                t = self.toks[self.i - 2]
                raise QuiverSyntaxError(f"duplicate section {key!r}", t.line, t.col)
            seen.add(key)
            if key == "vertices":
                self.parse_vertices()
            elif key == "arrows":
                self.parse_arrows()
            else:
                self.parse_relations()
        if not self.vertices:
            raise QuiverSyntaxError("no vertices declared", 1, 1)
        return QuiverPresentation(tuple(self.vertices), tuple(self.arrows),
                                  tuple(self.relations), self.field)

    def parse_vertices(self):
        while True:
            t = self.peek()
            if t is None or t.text == ";" or self.at_section_start():
                break
            if t.text == ",":
                self.next()
                continue
            if t.kind != "name":
                raise QuiverSyntaxError(f"bad vertex name {t.text!r}", t.line, t.col)
            self.next()
            if t.text in self.vindex:
                raise QuiverSyntaxError(f"duplicate vertex {t.text!r}", t.line, t.col)
            self.vindex[t.text] = len(self.vertices)
            self.vertices.append(t.text)

    def _vertex(self, t: Token) -> int:
        if t.text not in self.vindex:
            raise QuiverSyntaxError(f"unknown vertex {t.text!r}", t.line, t.col)
        return self.vindex[t.text]

    def parse_arrows(self):
        while True:
            t = self.peek()
            if t is None or self.at_section_start():
                break
            if t.text in (",", ";"):
                self.next()
                continue
            if t.kind != "name":
                raise QuiverSyntaxError(f"bad arrow name {t.text!r}", t.line, t.col)
            name = self.next()
            self.expect(":")
            src = self._vertex(self.next())
            self.expect("->")
            tgt = self._vertex(self.next())
            if name.text in self.aindex or name.text in self.vindex:
                raise QuiverSyntaxError(f"duplicate name {name.text!r}", name.line, name.col)
            self.aindex[name.text] = len(self.arrows)
            self.arrows.append(Arrow(name.text, src, tgt))

    # -- relation expressions ------------------------------------------

    def parse_relations(self):
        while True:
            t = self.peek()
            if t is None or self.at_section_start():
                break
            if t.text in (",", ";"):
                self.next()
                continue
            self.relations.append(self.parse_relation())

    def parse_relation(self) -> Relation:
        start = self.peek()
        terms = []
        sign = 1
        expect_term = True
        while True:
            t = self.peek()
            if t is None or t.text in (",", ";") or self.at_section_start():
                break
            if t.text in ("+", "-"):
                self.next()
                sign = -1 if t.text == "-" else 1
                expect_term = True
                continue
            if not expect_term:
                raise QuiverSyntaxError(f"expected '+', '-' or ',' before {t.text!r}", t.line, t.col)
            coeff, path = self.parse_term()
            if sign < 0:
                coeff = self.field.neg(coeff)
            terms.append((coeff, path, t))
            sign = 1
            expect_term = False
        if not terms:
            raise QuiverSyntaxError("empty relation", start.line, start.col)
        lengths = {len(p) for (_, p, _) in terms}
        for (_, p, tok) in terms:
            if len(p) < 2:
                raise QuiverSyntaxError("relation path has length < 2 (not admissible)",
                                        tok.line, tok.col)
        if len(lengths) > 1:
            raise UnsupportedRelations(
                f"relation near line {terms[0][2].line} mixes path lengths {sorted(lengths)}; "
                "only length-homogeneous relations are supported")
        srcs = {self.arrows[p[0]].source for (_, p, _) in terms}
        tgts = {self.arrows[p[-1]].target for (_, p, _) in terms}
        if len(srcs) > 1 or len(tgts) > 1:
            tok = terms[0][2]
            raise QuiverSyntaxError("relation combines non-parallel paths", tok.line, tok.col)
        return Relation(tuple((c, p) for (c, p, _) in terms),
                        srcs.pop(), tgts.pop(), lengths.pop())

    def parse_term(self):
        """One summand: optional coefficient, then a composable path."""
        t = self.peek()
        coeff = self.field.one()
        have_coeff = False
        if t.kind == "int":
            coeff = self._parse_number()
            have_coeff = True
        elif t.kind == "name" and t.text not in self.aindex:
            if t.text in self.params:
                self.next()
                coeff = self.params[t.text]
                have_coeff = True
            else:
                raise QuiverSyntaxError(f"unknown arrow or parameter {t.text!r}", t.line, t.col)
        if have_coeff and self.peek() is not None and self.peek().text == "*":
            nxt = self.toks[self.i + 1] if self.i + 1 < len(self.toks) else None
            if nxt is not None and nxt.kind == "name":
                self.next()  # allow explicit 'coeff * path'
        path = self.parse_path()
        return coeff, path

    def _parse_number(self):
        t = self.next()
        num = int(t.text)
        if self.peek() is not None and self.peek().text == "/":
            self.next()
            den = self.next()
            if den.kind != "int":
                raise QuiverSyntaxError("expected denominator", den.line, den.col)
            return self.field.parse_scalar(f"{num}/{den.text}")
        return self.field.coerce(num)

    def parse_path(self) -> Tuple[int, ...]:
        atoms = [self.parse_atom()]
        while self.peek() is not None and self.peek().text == "*":
            self.next()
            atoms.append(self.parse_atom())
        path: List[int] = []
        for seg in atoms:
            path.extend(seg)
        for a, b in zip(path, path[1:]):
            if self.arrows[a].target != self.arrows[b].source:
                t = self.toks[self.i - 1]
                raise QuiverSyntaxError(
                    f"path is not composable: {self.arrows[a].name} ends at "
                    f"{self.vertices[self.arrows[a].target]} but {self.arrows[b].name} "
                    f"starts at {self.vertices[self.arrows[b].source]}", t.line, t.col)
        return tuple(path)

    def parse_atom(self) -> List[int]:
        t = self.next()
        if t.kind != "name" or t.text not in self.aindex:
            raise QuiverSyntaxError(f"unknown arrow {t.text!r}", t.line, t.col)
        idx = self.aindex[t.text]
        if self.peek() is not None and self.peek().text == "^":
            self.next()
            e = self.next()
            if e.kind != "int":
                raise QuiverSyntaxError("expected integer exponent", e.line, e.col)
            n = int(e.text)
            if n < 1:
                raise QuiverSyntaxError("exponent must be >= 1", e.line, e.col)
            if n > 1 and self.arrows[idx].source != self.arrows[idx].target:
                raise QuiverSyntaxError(f"'^' requires a loop, {t.text!r} is not one",
                                        t.line, t.col)
            return [idx] * n
        return [idx]


def parse_quiver(text: str, field: Field, params: Optional[Dict[str, object]] = None
                 ) -> QuiverPresentation:
    return _Parser(_tokenize(text), field, params or {}).parse()


# -- the stratum pass and the graded normal form ------------------------------


def _ideal_echelon(q: QuiverPresentation, relations, strata, dead, n: int, index_n: Dict):
    """RREF accumulator for the degree-n rows of the non-monomial
    ``relations``, with their entries at dead paths dropped, or None when
    every such row is zero.  Stops once the live paths are all pivots."""
    field = q.field
    width = len(strata[n])
    dead_n = dead[n]
    live = width - len(dead_n)
    acc = None
    zero = field.zero()
    for rel in relations:
        g = rel.degree
        if g > n:
            continue
        for alen in range(0, n - g + 1):
            blen = n - g - alen
            dead_u, dead_v = dead[alen], dead[blen]
            for u in strata[alen]:
                if u in dead_u or (u and q.arrows[u[-1]].target != rel.source):
                    continue
                for v in strata[blen]:
                    if v in dead_v or (v and q.arrows[v[0]].source != rel.target):
                        continue
                    vec = [zero] * width
                    for coeff, body in rel.terms:
                        path = u + body + v
                        if path not in dead_n:
                            idx = index_n[path]
                            vec[idx] = field.add(vec[idx], coeff)
                    if not any(vec):
                        continue
                    if acc is None:
                        acc = echelon_for(field, width)
                    if acc.insert(vec) and acc.rank == live:
                        return acc
    return acc


class _Strata(NamedTuple):
    """What ``_stratum_pass`` found: ``paths[n]`` holds the length-n paths
    and ``index[n]`` their places, for n <= bound; ``dead[n]`` holds the
    length-n paths that contain a monomial relation, which are 0 in the
    quotient; ``echelons[n]`` is the RREF of the rows the other relations
    make in degree n, zero at every dead path, or None when there is no
    such nonzero row; ``basis`` holds the surviving (source, path) pairs,
    the vertices first, then the paths that are neither dead nor pivots, by
    length."""

    paths: List[List[Tuple[int, ...]]]
    index: List[Dict[Tuple[int, ...], int]]
    dead: List[Set[Tuple[int, ...]]]
    echelons: List[Optional[object]]
    bound: int
    basis: List[Tuple[int, Tuple[int, ...]]]


def _stratum_pass(q: QuiverPresentation, cap: int) -> _Strata:
    """One pass over the path strata, out to the admissibility bound N.

    Paths are extended one length at a time and each new stratum is
    indexed once.  A relation with exactly one term of nonzero coefficient
    is monomial: its path, and every path that contains it, is 0 in FQ/I,
    so a length-n path is dead when it is a monomial relation or its prefix
    or suffix of length n - 1 is dead.  Only the other relations are
    row-reduced, with their entries at dead paths dropped, and only where
    one has degree <= n.  The unit vectors of the dead paths are zero at
    every pivot of those rows and the rows are zero at every dead path, so
    the RREF of the whole degree-n ideal component is the dead unit vectors
    together with these rows.  For homogeneous relations membership is
    graded, so it is decided by rank in each stratum, and once a stratum is
    covered (dead paths plus rank fill it) or empty, so is every longer
    one: that length is N.  The paths of each shorter stratum that are
    neither dead nor pivots join the basis.  Every path is still counted:
    raises NotAdmissible past ``cap`` or past PATH_CAP paths in all.
    """
    field = q.field
    zero = field.zero()
    monomials: Dict[int, Set[Tuple[int, ...]]] = {}
    others = []
    for rel in q.relations:
        bodies = [body for c, body in rel.terms if field.add(zero, c)]
        if len(bodies) == 1:
            monomials.setdefault(rel.degree, set()).add(bodies[0])
        elif bodies:
            others.append(rel)
    by_source: Dict[int, List[int]] = {}
    for idx, a in enumerate(q.arrows):
        by_source.setdefault(a.source, []).append(idx)
    paths: List[List[Tuple[int, ...]]] = [[()]]
    index: List[Dict[Tuple[int, ...], int]] = [{(): 0}]
    dead: List[Set[Tuple[int, ...]]] = [set()]
    echelons: List[Optional[object]] = [None]
    basis = [(v, ()) for v in range(len(q.vertices))]
    for n in range(1, cap + 1):
        if n == 1:
            level = [(i,) for i in range(len(q.arrows))]
        else:
            level = [p + (a,) for p in paths[-1]
                     for a in by_source.get(q.arrows[p[-1]].target, ())]
        if sum(map(len, paths)) + len(level) > PATH_CAP:
            raise NotAdmissible(f"path count exceeds {PATH_CAP}; presentation not admissible "
                                "within the cap")
        paths.append(level)
        index.append({p: i for i, p in enumerate(level)})
        mono, prev = monomials.get(n, ()), dead[-1]
        dead_n = ({p for p in level if p in mono or p[:-1] in prev or p[1:] in prev}
                  if mono or prev else set())
        dead.append(dead_n)
        acc = None
        if len(dead_n) < len(level) and any(rel.degree <= n for rel in others):
            acc = _ideal_echelon(q, others, paths, dead, n, index[n])
        echelons.append(acc)
        if len(dead_n) + (acc.rank if acc is not None else 0) == len(level):
            return _Strata(paths, index, dead, echelons, n, basis)
        pivots = set(acc.pivots()) if acc is not None else ()
        basis.extend((q.arrows[p[0]].source, p) for i, p in enumerate(level)
                     if i not in pivots and p not in dead_n)
    raise NotAdmissible(f"no admissibility bound below cap {cap}")


def admissibility_bound(q: QuiverPresentation, cap: int = DEFAULT_CAP) -> int:
    """Least N with every length-N path inside the relation ideal, found by
    the stratum pass (``_stratum_pass``); raises NotAdmissible if no
    N <= cap works."""
    return _stratum_pass(q, cap).bound


@dataclass
class PathBasis:
    """Surviving residue paths indexed by global basis position."""

    labels: List[str]
    lengths: List[int]
    sources: List[int]
    targets: List[int]
    paths: List[Tuple[int, ...]]


@dataclass
class PathAlgebraResult:
    algebra: Algebra
    vertex_idempotents: List[Element]
    arrow_ideal: Subspace
    path_basis: PathBasis
    bound: int


def _path_label(q: QuiverPresentation, path: Tuple[int, ...], src: int) -> str:
    if not path:
        return f"e_{q.vertices[src]}"
    return "*".join(q.arrows[i].name for i in path)


def build_path_algebra(q: QuiverPresentation, cap: int = DEFAULT_CAP) -> PathAlgebraResult:
    """Compile FQ/I into structure constants on the surviving-path basis.

    One stratum pass (``_stratum_pass``) enumerates the paths out to the
    admissibility bound N, marks the paths that contain a monomial relation
    dead, row-reduces the other relations once in each degree and keeps the
    paths of each length that are neither dead nor pivots as the quotient
    basis; the products (``_path_products``) send a dead path to 0 and
    reduce every other through the same echelons.
    Since the bound N certifies that length-N paths die in the ideal, any
    product of total length >= N is zero.

    ``structure.radical`` guesses the grading by path length from the
    structure constants, certifies it and reads Rad A = A_{>=1} and
    J^n = A_{>=n} off it.  The vertex idempotents are the basis vectors on
    the support of the unit, so it takes them as its basis guess, each its
    own iso class; the primitive idempotents, the semisimple decomposition,
    the Cartan matrix and the Ext^1 diagonal follow vertex order.

    FQ/I is basic, so its basic corner is the algebra itself.
    """
    return _path_products(q, _stratum_pass(q, cap))


def _path_products(q: QuiverPresentation, st: _Strata) -> PathAlgebraResult:
    """The structure constants on the basis of a finished stratum pass."""
    field = q.field
    basis_paths = st.basis
    dim = len(basis_paths)
    global_index = {bp: i for i, bp in enumerate(basis_paths)}
    z, one = field.zero(), field.one()
    zero_row = (z,) * dim

    @functools.lru_cache(maxsize=None)
    def class_vector(src: int, path: Tuple[int, ...]):
        """Coordinates of a path's residue class in the global basis."""
        n = len(path)
        if n >= st.bound or path in st.dead[n]:
            return zero_row
        out = [z] * dim
        acc = st.echelons[n]
        if acc is None:
            out[global_index[(src, path)]] = one
            return out
        paths_n = st.paths[n]
        vec = [z] * len(paths_n)
        vec[st.index[n][path]] = one
        for local, c in enumerate(acc.reduce(vec)):
            if c:
                p2 = paths_n[local]
                out[global_index[(q.arrows[p2[0]].source, p2)]] = c
        return out

    mul = [[zero_row] * dim for _ in range(dim)]
    for a, (asrc, apath) in enumerate(basis_paths):
        a_tgt = q.arrows[apath[-1]].target if apath else asrc
        for b, (bsrc, bpath) in enumerate(basis_paths):
            if a_tgt == bsrc:
                mul[a][b] = class_vector(asrc, apath + bpath)

    nv = len(q.vertices)
    unit = [one] * nv + [z] * (dim - nv)
    alg = Algebra(field, mul, unit, "quiver", _canonical=True)
    pb = PathBasis(
        labels=[_path_label(q, p, s) for (s, p) in basis_paths],
        lengths=[len(p) for (_, p) in basis_paths],
        sources=[s for (s, _) in basis_paths],
        targets=[q.arrows[p[-1]].target if p else s for (s, p) in basis_paths],
        paths=[p for (_, p) in basis_paths],
    )
    return PathAlgebraResult(alg, [alg.basis_element(v) for v in range(nv)],
                             coordinate_subspace(field, dim, range(nv, dim)), pb, st.bound)
