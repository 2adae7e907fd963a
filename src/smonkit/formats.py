"""Line-oriented text formats for algebras, modules, and layered modules.

All three formats are plain text, diffable, and canonical: serializing a
loaded canonical file reproduces it byte for byte.  Matrices are row-major
decimal integers, reduced mod p on load as Python integers, so unreduced
entries of any size are accepted on input for human authoring.  Relation
lines list arrow names in the composition order used throughout: the
rightmost arrow acts first.  A quiver has at most ``MAX_VERTICES``
vertices; a larger count is rejected before the quiver is built, since
each vertex costs memory before any arrow is read.  A module block (a
module file or a layered branch) has total dimension at most ``MAX_DIM``,
checked before any matrix is read, since the engine's matrices are dense.
An algebra with more than ``quiver.MAX_PATHS`` nonzero paths is rejected.

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
``parse_file`` reads a file of any kind, named by its header line.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bqa import Algebra, Hom, Module, check_module
from .exactla import FpMatrix, validate_prime
from .layered import LayeredModule, TensorContext
from .quiver import Arrow, MonomialIdeal, Quiver, make_path

__all__ = [
    "MAX_VERTICES",
    "MAX_DIM",
    "ALGEBRA_HEADER",
    "MODULE_HEADER",
    "LAYERED_HEADER",
    "ParseError",
    "parse_file",
    "parse_algebra",
    "parse_module",
    "parse_layered",
    "serialize_algebra",
    "serialize_module",
    "serialize_layered",
]

ALGEBRA_HEADER = "smonkit-algebra v1"
MODULE_HEADER = "smonkit-module v1"
LAYERED_HEADER = "smonkit-layered v1"
MAX_VERTICES = 10_000
MAX_DIM = 1_000  # total dimension of one module block


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

    @property
    def last(self) -> int:
        """The line number of the line read last."""
        return self.rows[self.pos - 1][0]

    def next(self) -> tuple[int, str]:
        if self.done():
            raise ParseError(self.rows[-1][0] + 1 if self.rows else 1, "unexpected end of file")
        self.pos += 1
        return self.rows[self.pos - 1]

    def expect(self, keyword: str) -> list[str]:
        no, line = self.next()
        parts = line.split()
        if parts[0] != keyword:
            raise ParseError(no, f"expected '{keyword}', found '{parts[0]}'")
        return parts[1:]

    def expect_int(self, keyword: str, what: str) -> tuple[int, int]:
        """The line number and the value of a '<keyword> <int>' line."""
        toks = self.expect(keyword)
        if not toks:
            raise ParseError(self.last, f"{what} is missing")
        return self.last, _int(self.last, toks[0], what)


def _int(no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(no, f"{what}: '{token}' is not an integer") from None


def _read(
    text: str,
    algebra_at: Callable[[str], Algebra] | None,
    prime_override: int | None = None,
    acyclic: bool = False,
    context: TensorContext | None = None,
    header: str | None = None,
) -> tuple[Algebra | Module, str | None]:
    """The object in a file and the algebra reference it names; a file of
    any kind unless ``header`` names the one expected."""
    lines = _Lines(text)
    no, first = lines.next()
    if header is not None and first != header:
        raise ParseError(no, f"expected header '{header}'")
    ref = None
    if first == ALGEBRA_HEADER:
        obj = _read_algebra(lines, prime_override, acyclic)
    elif first == MODULE_HEADER:
        ref = " ".join(lines.expect("algebra"))
        obj = _read_module(lines, algebra_at(ref), " (arrows in declaration order)")
    elif first == LAYERED_HEADER:
        ref = " ".join(lines.expect("base"))
        obj = _read_layered(lines, algebra_at(ref), context)
    else:
        raise ParseError(no, f"unrecognized header '{first}'")
    if not lines.done():
        no, line = lines.next()
        raise ParseError(no, f"unexpected trailing content '{line}'")
    return obj, ref


def parse_file(
    text: str,
    algebra_at: Callable[[str], Algebra],
    prime_override: int | None = None,
    context: TensorContext | None = None,
) -> tuple[Algebra | Module, str | None]:
    """The algebra, module or layered module in a file of any kind, and the
    algebra reference it names (None for an algebra file).

    ``algebra_at`` loads the algebra a module or layered file names, when
    the file names it; a layered file is read inside ``context`` when one
    is given.  Relations are not checked: see ``bqa.check_module``.
    """
    return _read(text, algebra_at, prime_override, context=context)


# -- blocks ----------------------------------------------------------------------


def _read_bound_quiver(lines: _Lines, acyclic: bool, end: str | None, where: str) -> MonomialIdeal:
    """The 'vertices' line, then the 'arrow' and 'relation' lines up to the
    line ``end`` (the end of the file when None), as an ideal over their quiver."""
    no, n = lines.expect_int("vertices", "vertex count")
    if n > MAX_VERTICES:
        raise ParseError(no, f"vertex count {n} exceeds {MAX_VERTICES}")
    arrows: list[Arrow] = []
    relations: list[list[str]] = []
    while end is not None or not lines.done():
        no, line = lines.next()
        parts = line.split()
        if parts[0] == end:
            break
        if parts[0] == "arrow":
            if len(parts) != 4:
                raise ParseError(no, "arrow line is 'arrow <name> <source> <target>'")
            arrows.append(Arrow(parts[1], _int(no, parts[2], "source"), _int(no, parts[3], "target")))
        elif parts[0] == "relation":
            if len(parts) < 3:
                raise ParseError(no, "relation needs at least two arrow names")
            relations.append(parts[1:])
        else:
            raise ParseError(no, f"unexpected '{parts[0]}' in {where}")
    try:
        quiver = Quiver(n, arrows, acyclic=acyclic)
        return MonomialIdeal(quiver, [make_path(quiver, tuple(reversed(names))) for names in relations])
    except (ValueError, KeyError) as exc:  # invalid quiver/ideal data reported as a parse failure
        raise ParseError(lines.last, str(exc)) from exc


def _quiver_lines(algebra: Algebra) -> list[str]:
    out = [f"vertices {algebra.quiver.n}"]
    out += [f"arrow {a.name} {a.source} {a.target}" for a in algebra.quiver.arrows]
    out += ["relation " + " ".join(reversed(g.arrows)) for g in algebra.ideal.generators]
    return out


def _read_matrix(lines: _Lines, rows: int, cols: int, p: int, what: str) -> FpMatrix:
    if rows == 0 or cols == 0:
        return FpMatrix.zeros(p, rows, cols)
    data = []
    for _ in range(rows):
        no, line = lines.next()
        toks = line.split()
        if len(toks) != cols:
            raise ParseError(no, f"{what}: expected {cols} entries, found {len(toks)}")
        data.append([_int(no, t, what) % p for t in toks])
    return FpMatrix(p, np.array(data, dtype=np.int64))


def _matrix_lines(mat: FpMatrix) -> list[str]:
    if mat.rows == 0 or mat.cols == 0:
        return []
    return [" ".join(str(int(e)) for e in row) for row in mat.data]


def _read_module(lines: _Lines, algebra: Algebra, order_hint: str = "") -> Module:
    """A 'dims' line, no entry negative, and one 'matrix' block per arrow, in declaration order."""
    toks = lines.expect("dims")
    if len(toks) != algebra.quiver.n:
        raise ParseError(lines.last, f"expected {algebra.quiver.n} dimensions")
    dims = tuple(_int(lines.last, t, "dimension") for t in toks)
    if min(dims, default=0) < 0:
        raise ParseError(lines.last, "dimensions must not be negative")
    if sum(dims) > MAX_DIM:
        raise ParseError(lines.last, f"total dimension {sum(dims)} exceeds {MAX_DIM}")
    mats: dict[str, FpMatrix] = {}
    for a in algebra.quiver.arrows:
        if lines.expect("matrix") != [a.name]:
            raise ParseError(lines.last, f"expected 'matrix {a.name}'{order_hint}")
        mats[a.name] = _read_matrix(lines, dims[a.target - 1], dims[a.source - 1], algebra.p, f"matrix {a.name}")
    return Module(algebra, dims, mats)


def _module_lines(module: Module) -> list[str]:
    out = ["dims " + " ".join(map(str, module.dims))]
    for a in module.algebra.quiver.arrows:
        out.append(f"matrix {a.name}")
        out.extend(_matrix_lines(module.mats[a.name]))
    return out


# -- algebra files --------------------------------------------------------------


def _read_algebra(lines: _Lines, prime_override: int | None, acyclic: bool) -> Algebra:
    toks = lines.expect("prime")
    no = lines.last
    if len(toks) != 1:
        raise ParseError(no, "prime line needs one value")
    p = prime_override if prime_override is not None else _int(no, toks[0], "prime")
    try:
        validate_prime(p)
    except ValueError as exc:
        raise ParseError(no, str(exc)) from None
    ideal = _read_bound_quiver(lines, acyclic, None, "algebra file")
    try:
        return Algebra(ideal.quiver, ideal, p)
    except ValueError as exc:  # an ideal that is not admissible
        raise ParseError(lines.last, str(exc)) from exc


def parse_algebra(text: str, prime_override: int | None = None, acyclic: bool = False) -> Algebra:
    """Parse an algebra file; ``acyclic`` requests the normalized labeling."""
    return _read(text, None, prime_override, acyclic, header=ALGEBRA_HEADER)[0]


def serialize_algebra(algebra: Algebra) -> str:
    return "\n".join([ALGEBRA_HEADER, f"prime {algebra.p}"] + _quiver_lines(algebra)) + "\n"


# -- module files ----------------------------------------------------------------


def parse_module(text: str, algebra: Algebra) -> tuple[Module, str, list[str]]:
    """Parse a module file against a loaded algebra.

    Returns (module, algebra ref, violations): syntax and shape problems
    raise ParseError, while violated relations are reported in the third
    component so callers can distinguish malformed files from invalid
    modules.
    """
    module, ref = _read(text, lambda _: algebra, header=MODULE_HEADER)
    return module, ref, check_module(module)


def serialize_module(module: Module, algebra_ref: str) -> str:
    return "\n".join([MODULE_HEADER, f"algebra {algebra_ref}"] + _module_lines(module)) + "\n"


# -- layered files ----------------------------------------------------------------


def _read_layered(lines: _Lines, base: Algebra, context: TensorContext | None) -> LayeredModule:
    no, kw = lines.next()
    if kw != "quiver":
        raise ParseError(no, "expected 'quiver'")
    ideal = _read_bound_quiver(lines, True, "endquiver", "quiver block")
    if context is None:
        try:
            context = TensorContext(base, Algebra(ideal.quiver, ideal, base.p))
        except ValueError as exc:  # an ideal that is not admissible
            raise ParseError(lines.last, str(exc)) from exc
    elif context.factor.ideal != ideal:
        raise ParseError(lines.last, "quiver block does not match the supplied context")
    relabel = ideal.quiver.vertex_relabeling
    branches: dict[int, Module] = {}
    for _ in range(ideal.quiver.n):
        no, file_vertex = lines.expect_int("branch", "branch vertex")
        if file_vertex not in relabel:
            raise ParseError(no, f"branch vertex {file_vertex} outside 1..{ideal.quiver.n}")
        i = relabel[file_vertex]
        if i in branches:
            raise ParseError(no, f"duplicate branch {file_vertex}")
        branches[i] = _read_module(lines, base)
    factor = context.factor.quiver
    arrow_maps: dict[str, Hom] = {}
    for _ in range(len(factor.arrows)):
        toks = lines.expect("hom")
        no = lines.last
        if len(toks) != 1:
            raise ParseError(no, "hom block is 'hom <arrow>'")
        name = toks[0]
        try:
            arr = factor.arrow(name)
        except KeyError:
            raise ParseError(no, f"unknown factor arrow '{name}'") from None
        if name in arrow_maps:
            raise ParseError(no, f"duplicate hom block {name}")
        src, tgt = branches[arr.source], branches[arr.target]
        parts = []
        for v in base.quiver.vertices:
            if lines.expect("vertex") != [str(v)]:
                raise ParseError(lines.last, f"expected 'vertex {v}' (base vertices in order)")
            parts.append(_read_matrix(lines, tgt.dim(v), src.dim(v), base.p, f"hom {name} vertex {v}"))
        arrow_maps[name] = Hom(src, tgt, tuple(parts), check=False)
    return LayeredModule(context, tuple(branches[i] for i in factor.vertices), arrow_maps, check=False)


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
    x, ref = _read(text, lambda _: base, context=context, header=LAYERED_HEADER)
    return x, ref, check_module(x)


def serialize_layered(x: LayeredModule, base_ref: str) -> str:
    ctx = x.context
    out = [LAYERED_HEADER, f"base {base_ref}", "quiver"] + _quiver_lines(ctx.factor) + ["endquiver"]
    for i in ctx.factor.quiver.vertices:
        out.append(f"branch {i}")
        out.extend(_module_lines(x.branch(i)))
    for a in ctx.factor.quiver.arrows:
        out.append(f"hom {a.name}")
        for v in ctx.base.quiver.vertices:
            out.append(f"vertex {v}")
            out.extend(_matrix_lines(x.arrow_maps[a.name].mat(v)))
    return "\n".join(out) + "\n"
