"""Line-oriented text formats for algebras, modules, and layered modules.

All three formats are plain text, diffable, and canonical: serializing a
loaded canonical file reproduces it byte for byte.  Matrices are row-major
decimal integers, reduced mod p on load (unreduced entries are accepted on
input for human authoring).  Relation lines list arrow names in the
composition order used throughout: the rightmost arrow acts first.

    smonkit-algebra v1          smonkit-module v1        smonkit-layered v1
    prime 2                     algebra A.alg            base A.alg
    vertices 3                  dims 1 1 0               quiver
    arrow a 3 2                 matrix a                 vertices 2
    arrow b 2 1                 0                        arrow q 2 1
    relation b a                matrix b                 endquiver
                                1                        branch 1
                                                         ...

A layered file carries its factor quiver inline (``quiver``/``endquiver``),
one ``branch i`` block per factor vertex (a module over the base algebra),
and one ``hom <arrow>`` block per factor arrow with a matrix per base
vertex.  Matrix blocks have exactly target-dimension rows, omitted
entirely when either dimension is zero.
"""

from __future__ import annotations

import numpy as np

from .bqa import Algebra, Hom, Module, check_module
from .exactla import FpMatrix, validate_prime
from .layered import LayeredModule, TensorContext
from .quiver import Arrow, MonomialIdeal, Quiver, make_path

ALGEBRA_HEADER = "smonkit-algebra v1"
MODULE_HEADER = "smonkit-module v1"
LAYERED_HEADER = "smonkit-layered v1"


class ParseError(ValueError):
    """A malformed input file; carries the offending 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class _Lines:
    """Cursor over meaningful lines (comments and blank lines skipped)."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, str]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            self.rows.append((no, s))
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.rows)

    def peek(self) -> tuple[int, str]:
        if self.done():
            raise ParseError(self.rows[-1][0] + 1 if self.rows else 1, "unexpected end of file")
        return self.rows[self.pos]

    def next(self) -> tuple[int, str]:
        row = self.peek()
        self.pos += 1
        return row

    def expect(self, keyword: str) -> list[str]:
        no, line = self.next()
        parts = line.split()
        if parts[0] != keyword:
            raise ParseError(no, f"expected '{keyword}', found '{parts[0]}'")
        return parts[1:]

    def expect_int(self, keyword: str, what: str) -> tuple[int, int]:
        """The line number and the value of a '<keyword> <int>' line."""
        toks = self.expect(keyword)
        no = self.rows[self.pos - 1][0]
        if not toks:
            raise ParseError(no, f"{what} is missing")
        return no, _int(no, toks[0], what)

    def expect_dims(self, n: int) -> tuple[int, ...]:
        """The dimension vector of a 'dims' line with n entries, none negative."""
        toks = self.expect("dims")
        no = self.rows[self.pos - 1][0]
        if len(toks) != n:
            raise ParseError(no, f"expected {n} dimensions")
        dims = tuple(_int(no, t, "dimension") for t in toks)
        if min(dims, default=0) < 0:
            raise ParseError(no, "dimensions must not be negative")
        return dims


def _int(no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"{what}: '{token}' is not an integer") from None


def _quiver_line(no: int, parts: list[str], arrows: list[Arrow], relations: list[list[str]]) -> bool:
    """Read an 'arrow' or 'relation' line into the lists; False for any other keyword."""
    if parts[0] == "arrow":
        if len(parts) != 4:
            raise ParseError(no, "arrow line is 'arrow <name> <source> <target>'")
        arrows.append(Arrow(parts[1], _int(no, parts[2], "source"), _int(no, parts[3], "target")))
    elif parts[0] == "relation":
        if len(parts) < 3:
            raise ParseError(no, "relation needs at least two arrow names")
        relations.append(parts[1:])
    else:
        return False
    return True


# -- algebra files --------------------------------------------------------------


def parse_algebra(text: str, prime_override: int | None = None, acyclic: bool = False) -> Algebra:
    """Parse an algebra file; ``acyclic`` requests the normalized labeling."""
    lines = _Lines(text)
    no, header = lines.next()
    if header != ALGEBRA_HEADER:
        raise ParseError(no, f"expected header '{ALGEBRA_HEADER}'")
    toks = lines.expect("prime")
    no = lines.rows[lines.pos - 1][0]
    if len(toks) != 1:
        raise ParseError(no, "prime line needs one value")
    p = prime_override if prime_override is not None else _int(no, toks[0], "prime")
    try:
        validate_prime(p)
    except ValueError as exc:
        raise ParseError(no, str(exc)) from None
    no, n = lines.expect_int("vertices", "vertex count")
    arrows: list[Arrow] = []
    relations: list[list[str]] = []
    while not lines.done():
        no, line = lines.next()
        parts = line.split()
        if not _quiver_line(no, parts, arrows, relations):
            raise ParseError(no, f"unexpected '{parts[0]}' in algebra file")
    try:
        quiver = Quiver(n, arrows, acyclic=acyclic)
        gens = [make_path(quiver, tuple(reversed(names))) for names in relations]
        return Algebra(quiver, MonomialIdeal(quiver, gens), p)
    except (ValueError, KeyError) as exc:  # invalid quiver/ideal data reported as a parse failure
        raise ParseError(no, str(exc)) from exc


def serialize_algebra(algebra: Algebra) -> str:
    out = [ALGEBRA_HEADER, f"prime {algebra.p}", f"vertices {algebra.quiver.n}"]
    for a in algebra.quiver.arrows:
        out.append(f"arrow {a.name} {a.source} {a.target}")
    for g in algebra.ideal.generators:
        out.append("relation " + " ".join(reversed(g.arrows)))
    return "\n".join(out) + "\n"


# -- module files ----------------------------------------------------------------


def _parse_matrix_rows(lines: _Lines, rows: int, cols: int, p: int, what: str) -> FpMatrix:
    if rows == 0 or cols == 0:
        return FpMatrix.zeros(p, rows, cols)
    data = np.zeros((rows, cols), dtype=np.int64)
    for r in range(rows):
        no, line = lines.next()
        toks = line.split()
        if len(toks) != cols:
            raise ParseError(no, f"{what}: expected {cols} entries, found {len(toks)}")
        data[r] = [_int(no, t, what) for t in toks]
    return FpMatrix(p, data)


def parse_module(text: str, algebra: Algebra) -> tuple[Module, str, list[str]]:
    """Parse a module file against a loaded algebra.

    Returns (module, algebra ref, violations): syntax and shape problems
    raise ParseError, while violated relations are reported in the third
    component so callers can distinguish malformed files from invalid
    modules.
    """
    lines = _Lines(text)
    no, header = lines.next()
    if header != MODULE_HEADER:
        raise ParseError(no, f"expected header '{MODULE_HEADER}'")
    ref = " ".join(lines.expect("algebra"))
    dims = lines.expect_dims(algebra.quiver.n)
    mats: dict[str, FpMatrix] = {}
    for a in algebra.quiver.arrows:
        toks = lines.expect("matrix")
        no = lines.rows[lines.pos - 1][0]
        if toks != [a.name]:
            raise ParseError(no, f"expected 'matrix {a.name}' (arrows in declaration order)")
        mats[a.name] = _parse_matrix_rows(
            lines, dims[a.target - 1], dims[a.source - 1], algebra.p, f"matrix {a.name}"
        )
    if not lines.done():
        no, line = lines.next()
        raise ParseError(no, f"unexpected trailing content '{line}'")
    module = Module(algebra, dims, mats)
    bad = [f"relation {g} violated" for g in check_module(module)]
    return module, ref, bad


def _matrix_lines(mat: FpMatrix) -> list[str]:
    if mat.rows == 0 or mat.cols == 0:
        return []
    return [" ".join(str(int(e)) for e in row) for row in mat.data]


def serialize_module(module: Module, algebra_ref: str) -> str:
    out = [MODULE_HEADER, f"algebra {algebra_ref}", "dims " + " ".join(map(str, module.dims))]
    for a in module.algebra.quiver.arrows:
        out.append(f"matrix {a.name}")
        out.extend(_matrix_lines(module.mats[a.name]))
    return "\n".join(out) + "\n"


# -- layered files ----------------------------------------------------------------


def parse_layered(
    text: str, base: Algebra, context: TensorContext | None = None
) -> tuple[LayeredModule, str, list[str]]:
    """Parse a layered file against a loaded base algebra.

    The inline factor quiver is normalized to the standard labeling; the
    file's branch/vertex numbers are mapped through the relabeling, so
    files written against a compliant labeling load verbatim.  Returns
    (module, base ref, violations); syntax problems raise ParseError.
    When ``context`` is given the quiver block must match its factor and
    the module is built inside that context.
    """
    lines = _Lines(text)
    no, header = lines.next()
    if header != LAYERED_HEADER:
        raise ParseError(no, f"expected header '{LAYERED_HEADER}'")
    ref = " ".join(lines.expect("base"))
    no, kw = lines.next()
    if kw != "quiver":
        raise ParseError(no, "expected 'quiver'")
    no, qn = lines.expect_int("vertices", "vertex count")
    arrows: list[Arrow] = []
    relations: list[list[str]] = []
    while True:
        no, line = lines.next()
        parts = line.split()
        if parts[0] == "endquiver":
            break
        if not _quiver_line(no, parts, arrows, relations):
            raise ParseError(no, f"unexpected '{parts[0]}' in quiver block")
    try:
        quiver = Quiver(qn, arrows, acyclic=True)
        gens = [make_path(quiver, tuple(reversed(names))) for names in relations]
        if context is not None:
            if context.factor.quiver != quiver or set(context.factor.ideal.generators) != set(gens):
                raise ValueError("quiver block does not match the supplied context")
            ctx = context
            factor = context.factor
        else:
            factor = Algebra(quiver, MonomialIdeal(quiver, gens), base.p)
            ctx = TensorContext(base, factor)
    except (ValueError, KeyError) as exc:
        raise ParseError(no, str(exc)) from exc
    relabel = quiver.vertex_relabeling
    branches: dict[int, Module] = {}
    for _ in range(qn):
        no, file_vertex = lines.expect_int("branch", "branch vertex")
        if file_vertex not in relabel:
            raise ParseError(no, f"branch vertex {file_vertex} outside 1..{qn}")
        i = relabel[file_vertex]
        if i in branches:
            raise ParseError(no, f"duplicate branch {file_vertex}")
        dims = lines.expect_dims(base.quiver.n)
        mats: dict[str, FpMatrix] = {}
        for a in base.quiver.arrows:
            toks = lines.expect("matrix")
            no2 = lines.rows[lines.pos - 1][0]
            if toks != [a.name]:
                raise ParseError(no2, f"expected 'matrix {a.name}'")
            mats[a.name] = _parse_matrix_rows(
                lines, dims[a.target - 1], dims[a.source - 1], base.p, f"matrix {a.name}"
            )
        branches[i] = Module(base, dims, mats)
    arrow_maps: dict[str, Hom] = {}
    for _ in range(len(arrows)):
        toks = lines.expect("hom")
        no = lines.rows[lines.pos - 1][0]
        if len(toks) != 1:
            raise ParseError(no, "hom block is 'hom <arrow>'")
        name = toks[0]
        try:
            arr = factor.quiver.arrow(name)
        except KeyError:
            raise ParseError(no, f"unknown factor arrow '{name}'") from None
        if name in arrow_maps:
            raise ParseError(no, f"duplicate hom block {name}")
        src, tgt = branches[arr.source], branches[arr.target]
        parts = []
        for v in base.quiver.vertices:
            toks = lines.expect("vertex")
            no2 = lines.rows[lines.pos - 1][0]
            if toks != [str(v)]:
                raise ParseError(no2, f"expected 'vertex {v}' (base vertices in order)")
            parts.append(
                _parse_matrix_rows(lines, tgt.dim(v), src.dim(v), base.p, f"hom {name} vertex {v}")
            )
        arrow_maps[name] = Hom(src, tgt, tuple(parts), check=False)
    if not lines.done():
        no, line = lines.next()
        raise ParseError(no, f"unexpected trailing content '{line}'")
    x = LayeredModule(ctx, tuple(branches[i] for i in factor.quiver.vertices), arrow_maps, check=False)
    return x, ref, x.violations()


def serialize_layered(x: LayeredModule, base_ref: str) -> str:
    ctx = x.context
    out = [LAYERED_HEADER, f"base {base_ref}", "quiver", f"vertices {ctx.factor.quiver.n}"]
    for a in ctx.factor.quiver.arrows:
        out.append(f"arrow {a.name} {a.source} {a.target}")
    for g in ctx.factor.ideal.generators:
        out.append("relation " + " ".join(reversed(g.arrows)))
    out.append("endquiver")
    for i in ctx.factor.quiver.vertices:
        b = x.branch(i)
        out.append(f"branch {i}")
        out.append("dims " + " ".join(map(str, b.dims)))
        for a in ctx.base.quiver.arrows:
            out.append(f"matrix {a.name}")
            out.extend(_matrix_lines(b.mats[a.name]))
    for a in ctx.factor.quiver.arrows:
        out.append(f"hom {a.name}")
        for v in ctx.base.quiver.vertices:
            out.append(f"vertex {v}")
            out.extend(_matrix_lines(x.arrow_maps[a.name].mat(v)))
    return "\n".join(out) + "\n"
