"""Layered representations: modules over A (x) kQ/I read in layers.

A module over the tensor algebra of a base algebra A with a bound acyclic
quiver (Q, I) is a representation of (Q, I) valued in A-modules: one
A-module per Q-vertex (a branch) plus one A-hom per Q-arrow killing the
ideal generators.  ``TensorContext`` presents the tensor algebra to the
homological engine in ``bqa`` (its relations are not monomial, but the
engine never reads relations), so covers, resolutions, Ext, the transpose and
the certificates of layered modules are the engine's own; the branches
and arrow maps are views of the engine's points and arrows.  A factor
path acting at a base vertex is an engine word (``at_vertex``), a hom of
layered modules is an engine hom read at points, and the cocycle system of
extensions is the engine's Hom system per arrow plus the factor relations.

This module adds what only the layered reading has: branch cokernels,
tensor constructions, separated monic membership with pluggable
coefficient classes (epic membership is monic membership of the dual
over the opposite context), source-vertex triangular splitting with the
semi-Gorenstein-projective triple conditions, the Ext adjunction
identities, extensions, and random layered modules.  Each
adjunction identity is checked in every degree at once: one Ext sweep
through the top degree for each of its two sides.  Both triple conditions
on the connecting map phi are read off one chain map over phi.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bqa
from .bqa import Algebra, Certificate, Hom, Module
from .exactla import FpMatrix, PrimeMismatch, Subspace, null_space, column_space
from .quiver import Arrow, MonomialIdeal, Path, Quiver, make_path

__all__ = [
    "NotSource",
    "TensorContext",
    "LayeredModule",
    "ClassPredicate",
    "CheckResult",
    "Triple",
    "tensor",
    "branch_cokernel",
    "check_separated_monic",
    "check_separated_epic",
    "adjunction_check",
    "split_at_source",
    "assemble",
    "triple_conditions",
    "extension_space",
    "extension_module",
    "random_layered",
]


class NotSource(ValueError):
    """The chosen vertex is not a source of the factor quiver."""


def _at_branch(arrow_name: str, i: int) -> tuple:
    """The engine arrow of a base arrow acting in branch i."""
    return ("A", arrow_name, i)


def _at_vertex(arrow_name: str, v: int) -> tuple:
    """The engine arrow of a factor arrow acting at base vertex v."""
    return ("Q", arrow_name, v)


class TensorContext(bqa.Presentation):
    """The tensor algebra of a base algebra A and a factor algebra kQ/I.

    The factor algebra must sit over an acyclic quiver and share the base
    algebra's prime.  As a presentation, its points are the pairs
    (factor vertex i, base vertex v), numbered i-major; its arrows are
    each base arrow in every branch and each factor arrow at every base
    vertex.  A hom of layered modules is an engine hom read at the points
    (i, v).  The basis of P(i, v) at (j, w) is the pairs (factor path
    i -> j, base path v -> w), factor path major; a pair's word runs its
    factor path at base vertex v, then its base path in branch j.
    """

    EXT_REASON = "layered ext^{i}(X, algebra) = {dim}"
    STAR_EXT_REASON = "star side: layered ext^{i}(X, algebra) = {dim}"
    EVALUATION_REASON = "layered evaluation map is not bijective"

    def __init__(self, base: Algebra, factor: Algebra):
        if base.p != factor.p:
            raise PrimeMismatch(f"base prime {base.p} != factor prime {factor.p}")
        if not factor.quiver.is_acyclic():
            raise ValueError("the tensor factor quiver must be acyclic")
        self.base = base
        self.factor = factor
        super().__init__(base.p)
        self._pair_of: dict[Path, tuple[Path, Path]] = {}
        self._layers: dict[int, tuple] = {}

    @cached_property
    def quiver(self) -> Quiver:
        """The engine's quiver, built on first use."""
        base, factor = self.base, self.factor
        arrows = [
            Arrow(_at_branch(a.name, i), self.point(i, a.source), self.point(i, a.target))
            for i in factor.quiver.vertices
            for a in base.quiver.arrows
        ] + [
            Arrow(_at_vertex(b.name, v), self.point(b.source, v), self.point(b.target, v))
            for b in factor.quiver.arrows
            for v in base.quiver.vertices
        ]
        return Quiver(base.quiver.n * factor.quiver.n, arrows)

    def point(self, i: int, v: int) -> int:
        """The engine point of factor vertex i and base vertex v."""
        return (i - 1) * self.base.quiver.n + v

    @property
    def ideal(self) -> tuple:
        """The base and factor relations, which with the commutativity squares present
        the algebra.  The engine never reads them; perfbench's certificate keys do."""
        return (self.base.ideal, self.factor.ideal)

    def word_bases(self) -> dict[tuple[int, int], list[Path]]:
        between: dict[tuple[int, int], list[Path]] = {}
        for fp in self.factor.paths:
            for bp in self.base.paths:
                word = self._word(fp, bp)
                self._pair_of[word] = (fp, bp)
                between.setdefault((word.source, word.target), []).append(word)
        return between

    def _word(self, fp: Path, bp: Path) -> Path:
        word = tuple(_at_vertex(b, bp.source) for b in fp.arrows)
        word += tuple(_at_branch(a, fp.target) for a in bp.arrows)
        return Path(self.point(fp.source, bp.source), self.point(fp.target, bp.target), word)

    def at_vertex(self, q: Path, v: int) -> Path:
        """The engine word of factor path q acting at base vertex v."""
        return self._word(q, self.base.quiver.trivial_path(v))

    def extend(self, path: Path, arrow: Arrow) -> Path | None:
        fp, bp = self._pair_of[path]
        kind, name, _ = arrow.name
        alg, old = (self.base, bp) if kind == "A" else (self.factor, fp)
        new = alg.extend(old, alg.quiver.arrow(name))
        if new is None:
            return None
        return self._word(fp, new) if kind == "A" else self._word(new, bp)

    def reversal(self, path: Path) -> Path:
        fp, bp = self._pair_of[path]
        return self.opposite()._word(self.factor.reversal(fp), self.base.reversal(bp))

    def module(self, dims: tuple[int, ...], mats: dict) -> "LayeredModule":
        return LayeredModule.from_points(self, dims, mats)

    def opposite(self) -> "TensorContext":
        if self._opposite is None:
            opp = TensorContext(self.base.opposite(), self.factor.opposite())
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    def __repr__(self) -> str:
        return f"TensorContext(base dim {self.base.dim}, factor dim {self.factor.dim}, p={self.p})"


class LayeredModule(Module):
    """A representation of the factor quiver valued in base-algebra modules.

    As an engine module it has a space per point (i, v) and a matrix per
    arrow; ``branch(i)`` and ``arrow_maps`` read the same data in layers.
    They are kept from the constructor, or built on first use for a
    module the engine made.
    """

    __slots__ = ("_branches", "_arrow_maps")

    def __init__(
        self,
        context: TensorContext,
        branches: tuple[Module, ...],
        arrow_maps: dict[str, Hom],
        check: bool = True,
    ):
        q = context.factor.quiver
        if len(branches) != q.n:
            raise ValueError(f"{len(branches)} branches for {q.n} factor vertices")
        for b in branches:
            if b.algebra is not context.base:
                raise bqa.AlgebraMismatch("branch module over the wrong base algebra")
        for a in q.arrows:
            h = arrow_maps.get(a.name)
            if h is None:
                raise ValueError(f"missing arrow map {a.name}")
            if h.source is not branches[a.source - 1] and h.source != branches[a.source - 1]:
                raise ValueError(f"arrow map {a.name} has the wrong source branch")
            if h.target is not branches[a.target - 1] and h.target != branches[a.target - 1]:
                raise ValueError(f"arrow map {a.name} has the wrong target branch")
        # the branches and arrow maps were checked when they were built, so
        # the engine's reading of them needs no further shape checks
        self.algebra = context
        self.dims = tuple(d for b in branches for d in b.dims)
        self.mats = {
            _at_branch(a.name, i): b.mats[a.name]
            for i, b in enumerate(branches, start=1)
            for a in context.base.quiver.arrows
        }
        for a in q.arrows:
            for v in context.base.quiver.vertices:
                self.mats[_at_vertex(a.name, v)] = arrow_maps[a.name].mat(v)
        self._path_cache = {}
        self._branches = tuple(branches)
        self._arrow_maps = dict(arrow_maps)
        if check:
            bad = self.violations()
            if bad:
                raise ValueError("invalid layered module: " + "; ".join(bad))

    @classmethod
    def from_points(cls, context: TensorContext, dims: tuple[int, ...], mats: dict) -> "LayeredModule":
        """The layered module with the given spaces and matrices at the engine's points and arrows."""
        x = cls.__new__(cls)
        Module.__init__(x, context, dims, mats)
        x._branches = None
        x._arrow_maps = None
        return x

    @property
    def context(self) -> TensorContext:
        return self.algebra

    @property
    def branches(self) -> tuple[Module, ...]:
        if self._branches is None:
            ctx = self.algebra
            n = ctx.base.quiver.n
            self._branches = tuple(
                Module(
                    ctx.base,
                    self.dims[(i - 1) * n : i * n],
                    {a.name: self.mats[_at_branch(a.name, i)] for a in ctx.base.quiver.arrows},
                )
                for i in ctx.factor.quiver.vertices
            )
        return self._branches

    @property
    def arrow_maps(self) -> dict[str, Hom]:
        if self._arrow_maps is None:
            ctx = self.algebra
            self._arrow_maps = {
                a.name: Hom(
                    self.branch(a.source),
                    self.branch(a.target),
                    tuple(self.mats[_at_vertex(a.name, v)] for v in ctx.base.quiver.vertices),
                    check=False,
                )
                for a in ctx.factor.quiver.arrows
            }
        return self._arrow_maps

    def branch(self, i: int) -> Module:
        return self.branches[i - 1]

    def factor_action(self, q: Path, v: int) -> FpMatrix:
        """The action of factor path q at base vertex v: branch s(q) -> branch e(q)."""
        return self.path_matrix(self.context.at_vertex(q, v))

    def violations(self) -> list[str]:
        """Branch relation failures, non-natural arrow maps, surviving generators."""
        out = []
        for i in self.context.factor.quiver.vertices:
            for g in bqa.check_module(self.branch(i)):
                out.append(f"branch {i}: relation {g} violated")
        for a in self.context.factor.quiver.arrows:
            if not self.arrow_maps[a.name].is_natural():
                out.append(f"arrow {a.name}: map is not a base-module homomorphism")
        for g in self.context.factor.ideal.generators:
            if not all(self.factor_action(g, v).is_zero() for v in self.context.base.quiver.vertices):
                out.append(f"factor relation {g} does not vanish")
        return out

    def __repr__(self) -> str:
        return f"LayeredModule(dims={tuple(b.dims for b in self.branches)})"


# The engine's constructions under the names benchmark code calls on
# layered modules.
layered_hom_dim = bqa.hom_dim
layered_ext_dims = bqa.ext_dims


# -- branch functors ----------------------------------------------------------


def _incoming_total_map(x: LayeredModule, i: int) -> Hom:
    """The combined map (+) over arrows into i of X_{s(a)} -> X_i."""
    ctx = x.context
    arrows = ctx.factor.quiver.arrows_into(i)
    source = bqa._block_sum(ctx.base, [x.branch(a.source) for a in arrows])
    mats = tuple(
        FpMatrix.hstack(ctx.p, x.branch(i).dim(v), [x.arrow_maps[a.name].mat(v) for a in arrows])
        for v in ctx.base.quiver.vertices
    )
    return Hom(source, x.branch(i), mats)


def branch_cokernel(x: LayeredModule, i: int) -> bqa.CokernelPair:
    """Cokernel of the total incoming map at a factor vertex (the branch
    itself at a source vertex)."""
    return bqa.cokernel(_incoming_total_map(x, i))


# -- tensor constructions -----------------------------------------------------


def tensor(ctx: TensorContext, m: Module, u: Module) -> LayeredModule:
    """The layered module m (x) u for m over the base and u over the factor.

    Branch i is u.dim(i) copies of m; factor arrows act through u's
    matrices, base arrows diagonally through m's.
    """
    if m.algebra is not ctx.base:
        raise bqa.AlgebraMismatch("first tensor factor must live over the base algebra")
    if u.algebra is not ctx.factor:
        raise bqa.AlgebraMismatch("second tensor factor must live over the factor algebra")
    p = ctx.p
    branches = []
    for i in ctx.factor.quiver.vertices:
        eye = np.eye(u.dim(i), dtype=np.int64)
        dims = tuple(u.dim(i) * m.dim(v) for v in ctx.base.quiver.vertices)
        mats = {a.name: FpMatrix._of(p, _kron(eye, m.mats[a.name].data)) for a in ctx.base.quiver.arrows}
        branches.append(Module(ctx.base, dims, mats))
    maps = {}
    for a in ctx.factor.quiver.arrows:
        parts = tuple(
            FpMatrix._of(p, _kron(u.mats[a.name].data, np.eye(m.dim(v), dtype=np.int64)))
            for v in ctx.base.quiver.vertices
        )
        maps[a.name] = Hom(branches[a.source - 1], branches[a.target - 1], parts, check=False)
    return LayeredModule(ctx, tuple(branches), maps, check=False)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of two matrices, one of them 0/1, so its
    entries stay reduced: entry (i*b.rows + j, k*b.cols + l) is a[i, k] b[j, l]."""
    (r, s), (t, w) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(r * t, s * w)


# -- coefficient classes and membership checks --------------------------------


@dataclass(frozen=True)
class ClassPredicate:
    """A named membership test for base-algebra modules.

    Kinds: ALL, PROJ, INJ, GPROJ (bounded GP certificate), SEMI_GP
    (bounded Ext-vanishing against the algebra), PERP_OF (bounded
    Ext-vanishing against a fixed list of modules).
    """

    kind: str
    bound: int = 0
    targets: tuple[Module, ...] = ()

    KINDS = ("ALL", "PROJ", "INJ", "GPROJ", "SEMI_GP", "PERP_OF")

    @classmethod
    def all_modules(cls) -> "ClassPredicate":
        return cls("ALL")

    def accepts(self, m: Module) -> bool:
        if self.kind == "ALL":
            return True
        if self.kind == "PROJ":
            return bqa.pd_up_to(m, 0) == 0
        if self.kind == "INJ":
            return bqa.pd_up_to(bqa.dual_module(m), 0) == 0
        if self.kind == "GPROJ":
            return bqa.gp_cert(m, self.bound).certified
        if self.kind == "SEMI_GP":
            return bqa.semi_gp_cert(m, self.bound).certified
        if self.kind == "PERP_OF":
            return all(
                not any(bqa.ext_dims(m, t, self.bound)[1:]) for t in self.targets
            )
        raise ValueError(f"unknown predicate kind {self.kind}")

    def describe(self) -> str:
        if self.kind in ("ALL", "PROJ", "INJ"):
            return self.kind
        if self.kind == "PERP_OF":
            return f"PERP_OF({len(self.targets)} modules, N={self.bound})"
        return f"{self.kind}({self.bound})"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a separated monic/epic membership test."""

    passed: bool
    condition: str = ""  # m1|m2|m3 / e1|e2|e3 on failure
    location: str = ""
    detail: str = ""

    def render(self) -> str:
        if self.passed:
            return "PASS"
        return f"FAIL({self.condition} at {self.location}: {self.detail})"


def check_separated_monic(x: LayeredModule, pred: ClassPredicate) -> CheckResult:
    """Membership in the separated monic class over the predicate's coefficients.

    Checks, in order: incoming images sum directly at each vertex; each
    arrow's kernel equals the span of the images of the paths its
    postcomposition kills; each branch cokernel is accepted by the
    predicate.  The first failure is reported with its location.
    """
    return _separated_monic(x, pred, pred.accepts)


def check_separated_epic(x: LayeredModule, pred: ClassPredicate) -> CheckResult:
    """Membership in the separated epic class: x is separated epic exactly
    when its dual D(x), over the opposite context, is separated monic, and
    the dual of D(x)'s branch cokernel at i is x's outgoing kernel at i.
    Failures are named e1-e3; their details describe D(x).
    """
    res = _separated_monic(bqa.dual_module(x), pred, lambda c: pred.accepts(bqa.dual_module(c)))
    return res if res.passed else replace(res, condition="e" + res.condition[1:])


def _separated_monic(x: LayeredModule, pred: ClassPredicate, accepts) -> CheckResult:
    """``check_separated_monic`` with the branch cokernels tested by ``accepts``."""
    ctx = x.context
    for i in ctx.factor.quiver.vertices:
        arrows = ctx.factor.quiver.arrows_into(i)
        if len(arrows) < 2:
            continue
        total = _incoming_total_map(x, i)
        for v in ctx.base.quiver.vertices:
            got = total.mat(v).rank()
            want = sum(x.arrow_maps[a.name].mat(v).rank() for a in arrows)
            if got != want:
                return CheckResult(
                    False,
                    "m1",
                    f"vertex {i}, base vertex {v}",
                    f"sum of incoming images has dim {got} < {want}",
                )
    for a in ctx.factor.quiver.arrows:
        killers = [
            q for q in ctx.factor.paths
            if q.length and q.target == a.source and ctx.factor.extend(q, a) is None
        ]
        for v in ctx.base.quiver.vertices:
            ker = null_space(x.arrow_maps[a.name].mat(v))
            parts = [Subspace.zero(ctx.p, x.branch(a.source).dim(v))]
            for q in killers:
                parts.append(column_space(x.factor_action(q, v)))
            span = Subspace.sum_of(parts)
            if ker != span:
                return CheckResult(
                    False,
                    "m2",
                    f"arrow {a.name}, base vertex {v}",
                    f"kernel dim {ker.dim} vs killed-path image dim {span.dim}",
                )
    if pred.kind != "ALL":
        for i in ctx.factor.quiver.vertices:
            coker = branch_cokernel(x, i).module
            if not accepts(coker):
                return CheckResult(
                    False,
                    "m3",
                    f"vertex {i}",
                    f"branch cokernel of dims {coker.dims} rejected by {pred.describe()}",
                )
    return CheckResult(True)


# -- the two adjunction identities ----------------------------------------------


@dataclass(frozen=True)
class AdjunctionReport:
    """Per-degree dimension lists for the two Ext adjunction identities.

    The branch side runs through kmax; the cokernel side runs through kmax
    when x is separated monic and stops at degree 0 otherwise."""

    smon: bool
    coker_side: tuple[list[int], list[int]]  # ext_A(Coker_i x, m) vs layered ext(x, m(x)S(i))
    branch_side: tuple[list[int], list[int]]  # layered ext(m(x)P(i), x) vs ext_A(m, x_i)


def adjunction_check(x: LayeredModule, m: Module, i: int, kmax: int) -> AdjunctionReport:
    """Evaluate both adjunction identities at branch vertex i in every degree
    through kmax, one Ext sweep for each side of each identity.

    The cokernel-side identity at degrees >= 1 holds for separated monic x
    only, so for any other x it is evaluated at degree 0, where it is plain
    adjointness; the branch-side identity needs no monicity.
    """
    ctx = x.context
    if m.algebra is not ctx.base:
        raise bqa.AlgebraMismatch("coefficient module must live over the base algebra")
    smon = check_separated_monic(x, ClassPredicate.all_modules()).passed
    kc = kmax if smon else 0
    coker = branch_cokernel(x, i).module
    s_i, p_i = tensor(ctx, m, ctx.factor.simple(i)), tensor(ctx, m, ctx.factor.projective(i))
    return AdjunctionReport(
        smon,
        (bqa.ext_dims(coker, m, kc), bqa.ext_dims(x, s_i, kc)),
        (bqa.ext_dims(p_i, x, kmax), bqa.ext_dims(m, x.branch(i), kmax)),
    )


# -- triangular splitting at a source vertex -------------------------------------


@dataclass
class Triple:
    """A layered module split along a source vertex of the factor quiver.

    ``x_part`` lives over the reduced context (source vertex deleted),
    ``y_part`` over the base algebra, and ``phi`` maps the bimodule layer
    (radical paths out of the source, tensored with y) into x_part.
    """

    full_context: TensorContext
    source_vertex: int
    reduced: TensorContext
    relabel: dict[int, int]
    x_part: LayeredModule
    y_part: Module
    rad_paths: list[Path]
    phi: Hom

    def block(self, q: Path, v: int) -> FpMatrix:
        """The block of phi at base vertex v through which the radical path
        q acts: y_v -> (x_part at the end of q)_v."""
        j = self.relabel[q.target]
        pos = [r for r in self.rad_paths if self.relabel[r.target] == j].index(q)
        width = self.y_part.dim(v)
        return FpMatrix(self.full_context.p, self.phi.mat(self.reduced.point(j, v)).data[:, pos * width : (pos + 1) * width])


def _by_target(paths: list[Path], relabel: dict[int, int], reduced: TensorContext) -> dict[int, list[Path]]:
    """The radical paths out of the source, grouped by the reduced vertex they end at."""
    return {j: [q for q in paths if relabel[q.target] == j] for j in reduced.factor.quiver.vertices}


def _source_layer(ctx: TensorContext, n: int) -> tuple[TensorContext, dict[int, int], list[Path], Module]:
    """The reduced context (source n deleted), the relabelling of the kept
    factor vertices, the radical paths out of n in basis order, and the
    radical of P(n) over the reduced factor, kept on the context."""
    if n in ctx._layers:
        return ctx._layers[n]
    quiver, relabel = ctx.factor.quiver.delete_vertex(n)
    gens = [make_path(quiver, g.arrows) for g in ctx.factor.ideal.generators if g.source != n]
    factor = Algebra(quiver, MonomialIdeal(quiver, gens), ctx.p)
    reduced = TensorContext(ctx.base, factor)
    paths = sorted(q for q in ctx.factor.paths if q.source == n and q.length >= 1)
    rad_module = bqa.path_span_module(factor, _by_target(paths, relabel, reduced))
    ctx._layers[n] = (reduced, relabel, paths, rad_module)
    return ctx._layers[n]


def split_at_source(x: LayeredModule, n: int) -> Triple:
    """Split a layered module along a source vertex of the factor quiver."""
    ctx = x.context
    if n not in ctx.factor.quiver.source_vertices():
        raise NotSource(f"vertex {n} is not a source of the factor quiver")
    reduced, relabel, rad_paths, rad_module = _source_layer(ctx, n)
    inverse = {new: old for old, new in relabel.items()}
    branches = tuple(x.branch(inverse[j]) for j in reduced.factor.quiver.vertices)
    maps = {}
    for a in reduced.factor.quiver.arrows:
        maps[a.name] = x.arrow_maps[a.name]
    x_part = LayeredModule(reduced, branches, maps, check=False)
    y = x.branch(n)
    phi_source = tensor(reduced, y, rad_module)
    by_vertex = _by_target(rad_paths, relabel, reduced)
    mats = tuple(
        FpMatrix.hstack(ctx.p, x_part.branch(j).dim(v), [x.factor_action(q, v) for q in by_vertex[j]])
        for j in reduced.factor.quiver.vertices
        for v in ctx.base.quiver.vertices
    )
    phi = Hom(phi_source, x_part, mats)
    return Triple(ctx, n, reduced, relabel, x_part, y, rad_paths, phi)


def assemble(t: Triple) -> LayeredModule:
    """Rebuild the layered module a triple came from (round-trip exact)."""
    ctx = t.full_context
    n = t.source_vertex
    branches: list[Module] = []
    for old in ctx.factor.quiver.vertices:
        branches.append(t.y_part if old == n else t.x_part.branch(t.relabel[old]))
    maps: dict[str, Hom] = {}
    for a in ctx.factor.quiver.arrows:
        if a.source != n:
            maps[a.name] = t.x_part.arrow_maps[a.name]
            continue
        q = Path(a.source, a.target, (a.name,))
        mats = tuple(t.block(q, v) for v in ctx.base.quiver.vertices)
        maps[a.name] = Hom(t.y_part, t.x_part.branch(t.relabel[a.target]), mats, check=False)
    return LayeredModule(ctx, tuple(branches), maps, check=False)


# -- the triple conditions for semi-Gorenstein-projectivity ----------------------


@dataclass(frozen=True)
class TripleReport:
    """Outcome of the three triple conditions against the direct certificate."""

    phi_star_epi: bool
    ext_iso_failure: int | None  # first degree where Ext(phi, B) is not bijective
    y_perp: Certificate
    predicted_semi_gp: bool
    direct: Certificate
    bound: int

    @property
    def agree(self) -> bool:
        return self.predicted_semi_gp == self.direct.certified

    def render(self) -> str:
        bits = [
            f"phi* epi: {self.phi_star_epi}",
            "ext iso: " + ("ok" if self.ext_iso_failure is None else f"fails at {self.ext_iso_failure}"),
            f"y in perp: {self.y_perp.render()}",
            f"predicted: {self.predicted_semi_gp}",
            f"direct: {self.direct.render()}",
            f"agree: {self.agree}",
        ]
        return "; ".join(bits)


def _phi_conditions(t: Triple, bound: int) -> tuple[bool, int | None]:
    """Whether phi* = Hom(phi, algebra) is onto, and the first degree in
    1..bound where Ext^i(phi, algebra) is not bijective (None if none).

    A chain map f over phi between minimal resolutions induces, in degree
    k, a map from Z/B of Hom(P_k(target), algebra) to Z'/B' of
    Hom(P_k(source), algebra) of rank dim(f_k*(Z) + B') - dim B'; degree 0
    is phi*.  f is extended only up to degrees where both sides are nonzero.
    """
    reg = t.reduced.regular_module()
    p = t.reduced.p
    res_my = bqa.resolve(t.phi.source, bound + 1)
    res_x = bqa.resolve(t.x_part, bound + 1)
    _, dx = bqa.hom_complex(res_x, reg, bound)
    _, dmy = bqa.hom_complex(res_my, reg, bound)
    chain: list[Hom] = []
    phi_epi = True
    for k in range(bound + 1):
        z_x, z_my = null_space(FpMatrix(p, dx[k])), null_space(FpMatrix(p, dmy[k]))
        b_x = column_space(FpMatrix(p, dx[k - 1])) if k else Subspace.zero(p, z_x.ambient)
        b_my = column_space(FpMatrix(p, dmy[k - 1])) if k else Subspace.zero(p, z_my.ambient)
        h_x, h_my = z_x.dim - b_x.dim, z_my.dim - b_my.dim
        if k and h_x != h_my:
            return phi_epi, k
        rank = 0
        if h_x and h_my:
            for i in range(len(chain), k + 1):
                if i == 0:
                    chain.append(res_my.formal(0).lift(res_x.augmentation, t.phi @ res_my.augmentation))
                else:
                    chain.append(res_my.formal(i).lift(res_x.diff(i - 1), chain[-1] @ res_my.diff(i - 1)))
            fmat = bqa.precompose_matrix(res_my.formal(k), res_x.formal(k), res_my.formal(k).images(chain[k]), reg)
            moved = (z_x.basis.data @ fmat.T) % p
            rank = Subspace.from_spanning(p, z_my.ambient, np.concatenate([moved, b_my.basis.data])).dim - b_my.dim
        if k == 0:
            phi_epi = rank == h_my
        elif rank != h_x:
            return phi_epi, k
    return phi_epi, None


def triple_conditions(t: Triple, bound: int) -> TripleReport:
    """Evaluate the three triple conditions and compare them with the
    direct layered semi-Gorenstein-projective certificate of the
    assembled module."""
    phi_epi, ext_fail = _phi_conditions(t, bound)
    y_perp = bqa.semi_gp_cert(t.y_part, bound)
    predicted = phi_epi and ext_fail is None and y_perp.certified
    direct = bqa.semi_gp_cert(assemble(t), bound)
    return TripleReport(phi_epi, ext_fail, y_perp, predicted, direct, bound)


# -- extensions and random layered modules ---------------------------------------


def extension_space(sub: LayeredModule, quo: LayeredModule) -> Subspace:
    """Cocycles for extensions of ``quo`` by ``sub``.

    A cocycle lists each c_a, a base-module hom quo_{s(a)} -> sub_{e(a)},
    in the engine's blocked Hom layout, arrow by arrow; every member
    produces arrow maps [[sub_a, c_a], [0, quo_a]] satisfying all ideal
    relations.
    """
    ctx = sub.context
    p = ctx.p
    arrows = ctx.factor.quiver.arrows
    verts = ctx.base.quiver.vertices
    sizes = [sub.branch(a.target).dim(v) * quo.branch(a.source).dim(v) for a in arrows for v in verts]
    offs = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    total = int(offs[-1])
    first = {a.name: k * len(verts) for k, a in enumerate(arrows)}

    def col(name: str, v: int) -> int:
        return int(offs[first[name] + v - 1])

    blocks = []
    # each c_a must be a base-module hom
    for a in arrows:
        nat = bqa._naturality_rows(quo.branch(a.source), sub.branch(a.target))
        block = np.zeros((nat.shape[0], total), dtype=np.int64)
        block[:, col(a.name, 1) : col(a.name, 1) + nat.shape[1]] = nat
        blocks.append(block)
    # the twisted action must keep killing the ideal generators
    for g in ctx.factor.ideal.generators:
        word = g.arrows
        for v in verts:
            rows = sub.branch(g.target).dim(v) * quo.branch(g.source).dim(v)
            block = np.zeros((rows, total), dtype=np.int64)
            for t, name in enumerate(word):
                a = ctx.factor.quiver.arrow(name)
                prefix = quo.factor_action(Path(g.source, a.source, word[:t]), v).data
                suffix = sub.factor_action(Path(a.target, g.target, word[t + 1 :]), v).data
                term = np.kron(suffix, prefix.T)
                block[:, col(name, v) : col(name, v) + term.shape[1]] += term
            blocks.append(block)
    rows = np.concatenate(blocks, axis=0) % p if blocks else np.zeros((0, total), dtype=np.int64)
    return null_space(FpMatrix(p, rows))


def extension_module(sub: LayeredModule, quo: LayeredModule, cocycle: np.ndarray) -> LayeredModule:
    """The extension with arrow maps [[sub_a, c_a], [0, quo_a]] from a cocycle vector."""
    ctx = sub.context
    branches = tuple(
        bqa._block_sum(ctx.base, [sub.branch(i), quo.branch(i)]) for i in ctx.factor.quiver.vertices
    )
    off = 0
    maps = {}
    for a in ctx.factor.quiver.arrows:
        mats = []
        for v in ctx.base.quiver.vertices:
            top_left = sub.arrow_maps[a.name].mat(v).data
            bottom_right = quo.arrow_maps[a.name].mat(v).data
            r, c = top_left.shape[0], bottom_right.shape[1]
            twist = cocycle[off : off + r * c].reshape(r, c)
            off += r * c
            zero = np.zeros((bottom_right.shape[0], top_left.shape[1]), dtype=np.int64)
            mats.append(FpMatrix(ctx.p, np.block([[top_left, twist], [zero, bottom_right]])))
        maps[a.name] = Hom(branches[a.source - 1], branches[a.target - 1], tuple(mats), check=False)
    return LayeredModule(ctx, branches, maps)


def random_layered(ctx: TensorContext, budget: int, seed: int) -> LayeredModule:
    """A random quotient of a random sum of tensor generators by a
    subrepresentation generated by random radical vectors."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    count = 1 + int(rng.integers(0, budget))
    pairs = sorted(
        (int(rng.integers(1, ctx.base.quiver.n + 1)), int(rng.integers(1, ctx.factor.quiver.n + 1)))
        for _ in range(count)
    )
    formal = ctx.formal_projective(ctx.point(i, v) for v, i in pairs)
    proj, rads = formal.module, formal.radical
    seeds: list[tuple[int, np.ndarray]] = []
    for _ in range(int(rng.integers(0, budget))):
        i = int(rng.integers(1, ctx.factor.quiver.n + 1))
        v = int(rng.integers(1, ctx.base.quiver.n + 1))
        rad = rads[ctx.point(i, v) - 1]
        if rad.dim == 0:
            continue
        coeffs = rng.integers(0, ctx.p, size=rad.dim)
        seeds.append((ctx.point(i, v), (coeffs @ rad.basis.data) % ctx.p))
    if not seeds:
        return proj
    sub = bqa.submodule_generated(proj, seeds)
    return bqa.cokernel(sub.inclusion).module
