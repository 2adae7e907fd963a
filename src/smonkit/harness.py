"""Named verification suites over concrete desk-scale instances.

Each suite turns one of the structural identities of the layered engine
into a reproducible sampled experiment: the Kunneth-style Ext product
formula, the two adjunction identities, the separated-monic/perpendicular
equivalence, the layered Gorenstein-projective criterion, projective
dimension additivity, the triangular triple conditions, and the
weak-Gorenstein transfer.  The Nakayama machinery enumerates all
indecomposables of a Nakayama algebra and certifies its Gorenstein core.

Determinism contract: every instance draws from an RNG stream derived
from (seed, instance index), so reports are byte-identical across reruns
and independent of execution order.

Open question: is there a non-torsionless semi-Gorenstein-projective
module over a monomial algebra?  None is known, so no suite plants one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import bqa, formats, layered
from .bqa import Algebra, Module
from .layered import ClassPredicate, LayeredModule, TensorContext, tensor
from .quiver import Arrow, MonomialIdeal, Quiver, make_path

__all__ = [
    "NotNakayama",
    "BadContext",
    "SuiteConfig",
    "SuiteReport",
    "InstanceRecord",
    "NakayamaAlgebra",
    "SUITE_NAMES",
    "algebra_loop_nilpotent",
    "algebra_three_chain",
    "algebra_line",
    "algebra_trivial",
    "nakayama_17_18_18",
    "standard_context",
    "run_suite",
    "suite_ce",
    "suite_adjunction",
    "suite_smon_perp",
    "suite_lz3",
    "suite_pd_additivity",
    "suite_triangular",
    "suite_weakly_gorenstein",
    "suite_nakayama",
    "as_nakayama",
    "enumerate_indecomposables",
    "uniserial",
    "core_summary",
    "evidence_non_gorenstein",
    "submodule_pair",
    "radical_power_inclusion",
]


class NotNakayama(ValueError):
    """The algebra's quiver is not a single cycle or a single line."""


class NoSuchInstance(ValueError):
    """``only_instance`` names no instance of the suite."""


class BadContext(ValueError):
    """A suite has nothing to run over: no algebra (nakayama), no context,
    or a base or factor algebra with no vertices."""


# -- stock algebras and contexts --------------------------------------------------


def algebra_trivial(p: int = 2) -> Algebra:
    """The ground field as a one-vertex algebra."""
    q = Quiver(1, [])
    return Algebra(q, MonomialIdeal(q, []), p)


def algebra_loop_nilpotent(n: int = 2, p: int = 2) -> Algebra:
    """One loop x with x^n = 0 (self-injective Nakayama for any n >= 2)."""
    q = Quiver(1, [Arrow("x", 1, 1)])
    return Algebra(q, MonomialIdeal(q, [make_path(q, ("x",) * n)]), p)


def algebra_three_chain(p: int = 2) -> Algebra:
    """The chain 3 -> 2 -> 1 with the length-two composite killed."""
    q = Quiver(3, [Arrow("a", 3, 2), Arrow("b", 2, 1)], acyclic=True)
    return Algebra(q, MonomialIdeal(q, [make_path(q, ("a", "b"))]), p)


def algebra_line(n: int = 2, p: int = 2) -> Algebra:
    """The linear quiver n -> n-1 -> ... -> 1 with no relations."""
    q = Quiver(n, [Arrow(f"a{k}", k + 1, k) for k in range(1, n)], acyclic=True)
    return Algebra(q, MonomialIdeal(q, []), p)


def nakayama_17_18_18(p: int = 2) -> Algebra:
    """The cyclic Nakayama algebra with Kupisch series (17, 18, 18).

    Cycle 1 -> 2 -> 3 -> 1 through arrows a, b, c; relations kill the
    length-17 path out of vertex 1 and the length-18 path out of vertex 2.
    """
    q = Quiver(3, [Arrow("a", 1, 2), Arrow("b", 2, 3), Arrow("c", 3, 1)])
    cycle = ("a", "b", "c")
    word1 = (cycle * 6)[:17]  # starts at vertex 1, length 17
    word2 = (("b", "c", "a") * 6)[:18]  # starts at vertex 2, length 18
    ideal = MonomialIdeal(q, [make_path(q, word1), make_path(q, word2)])
    return Algebra(q, ideal, p)


_STANDARD_BASES = {
    "kx2": algebra_loop_nilpotent,
    "chain3": algebra_three_chain,
}
_STANDARD_FACTORS = {
    "a2": algebra_line,
    "chain3": algebra_three_chain,
}


def standard_context(base: str, factor: str, p: int = 2) -> TensorContext:
    """Stock contexts for the suites, by short names (kx2|chain3, a2|chain3)."""
    return TensorContext(_STANDARD_BASES[base](p=p), _STANDARD_FACTORS[factor](p=p))


# -- configs and reports ------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Deterministic suite parameters; identical configs give identical reports."""

    context: TensorContext | None = None
    algebra: Algebra | None = None  # for the nakayama suite
    bound: int = 8
    samples: int = 100
    seed: int = 0
    budget: int = 3
    only_instance: int | None = None
    context_label: str = ""

    def echo(self) -> str:
        parts = [f"bound={self.bound}", f"samples={self.samples}", f"seed={self.seed}"]
        if self.context is not None:
            parts.append(
                f"context=({self.context_label or 'custom'} base-dim {self.context.base.dim}"
                f" factor-dim {self.context.factor.dim} p {self.context.p})"
            )
        if self.algebra is not None:
            parts.append(f"algebra=(dim {self.algebra.dim} p {self.algebra.p})")
        if self.only_instance is not None:
            parts.append(f"only-instance={self.only_instance}")
        return " ".join(parts)


@dataclass(frozen=True)
class InstanceRecord:
    index: int
    passed: bool
    note: str
    witness: str = ""

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "FAIL"


@dataclass
class SuiteReport:
    suite: str
    config: str
    records: list[InstanceRecord] = field(default_factory=list)
    extra: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passes(self) -> int:
        return sum(1 for r in self.records if r.passed)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def first_counterexample(self) -> InstanceRecord | None:
        for r in self.records:
            if not r.passed:
                return r
        return None

    def to_text(self, include_timing: bool = True) -> str:
        out = [
            f"suite: {self.suite}",
            f"config: {self.config}",
            f"instances: {len(self.records)} pass: {self.passes} fail: {self.failures}",
        ]
        out.extend(self.extra)
        first = self.first_counterexample()
        if first is None:
            out.append("first-counterexample: none")
        else:
            out.append(f"first-counterexample: instance {first.index}: {first.note}")
            if first.witness:
                out.append("witness:")
                out.extend("  " + line for line in first.witness.splitlines())
        if include_timing:
            out.append(f"wall-time: {self.wall_time:.3f}s")
        return "\n".join(out) + "\n"

    def to_records(self) -> str:
        out = []
        for r in self.records:
            ref = r.witness.splitlines()[0] if r.witness else "-"
            out.append(f"{self.suite} {r.index} {r.verdict} {r.note} | {ref}")
        return "\n".join(out) + "\n"


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _run_instances(suite: str, cfg: SuiteConfig, worker) -> list[InstanceRecord]:
    """One record per instance from ``worker(idx, rng) -> (passed, note, sample)``.

    A failing record's witness is the replay hint, followed by the sample
    when it is a layered module.
    """
    indices = (
        [cfg.only_instance]
        if cfg.only_instance is not None
        else list(range(cfg.samples))
    )
    records = []
    for idx in indices:
        passed, note, sample = worker(idx, _instance_rng(cfg.seed, idx))
        witness = ""
        if not passed:
            witness = _replay_hint(suite, cfg, idx)
            if isinstance(sample, LayeredModule):
                witness += "\n" + _witness_layered(sample)
        records.append(InstanceRecord(idx, passed, note, witness))
    return records


def _sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


# -- sampling -----------------------------------------------------------------------


def sample_base_module(ctx: TensorContext, rng: np.random.Generator, budget: int) -> Module:
    return bqa.random_module(ctx.base, budget, _sub_seed(rng))


def sample_factor_module(ctx: TensorContext, rng: np.random.Generator, budget: int) -> Module:
    return bqa.random_module(ctx.factor, budget, _sub_seed(rng))


def _planted_positive(ctx: TensorContext, rng: np.random.Generator, budget: int) -> LayeredModule:
    """x = m (x) P(i), or an extension of y = m2 (x) P(j) by x: the pushout
    of a random f: K -> x along K -> P_0, where K is the kernel of y's
    projective cover P_0 -> y.  Falls back to x when Hom(K, x) = 0."""
    m = sample_base_module(ctx, rng, budget)
    i = int(rng.integers(1, ctx.factor.quiver.n + 1))
    x = tensor(ctx, m, ctx.factor.projective(i))
    if rng.random() < 0.5:
        m2 = sample_base_module(ctx, rng, budget)
        j = int(rng.integers(1, ctx.factor.quiver.n + 1))
        y = tensor(ctx, m2, ctx.factor.projective(j))
        k = bqa.kernel(bqa.projective_cover(y).epi)
        homs = bqa.hom_space(k.module, x)
        if homs.dim:
            coeffs = rng.integers(0, ctx.p, size=homs.dim)
            f = homs.from_vector((coeffs @ homs.space.basis.data) % ctx.p)
            return bqa.pushout(f, k.inclusion).module
    return x


def _planted_negative(ctx: TensorContext, rng: np.random.Generator, budget: int) -> LayeredModule | None:
    """m (x) S(i) at a vertex with an outgoing arrow (fails the kernel
    condition for nonzero m); None when the factor has no such vertex."""
    candidates = [
        i for i in ctx.factor.quiver.vertices if ctx.factor.quiver.arrows_out_of(i)
    ]
    if not candidates:
        return None
    for _ in range(8):
        m = sample_base_module(ctx, rng, budget)
        if not m.is_zero():
            i = candidates[int(rng.integers(0, len(candidates)))]
            return tensor(ctx, m, ctx.factor.simple(i))
    return None


def sample_layered_mixed(
    ctx: TensorContext, rng: np.random.Generator, budget: int
) -> tuple[LayeredModule, str]:
    """The 50/25/25 mix of random quotients, planted positives, planted negatives."""
    roll = rng.random()
    if roll < 0.25:
        x = _planted_positive(ctx, rng, budget)
        return x, "planted-positive"
    if roll < 0.5:
        x = _planted_negative(ctx, rng, budget)
        if x is not None:
            return x, "planted-negative"
    return bqa.random_module(ctx, budget, _sub_seed(rng)), "random-quotient"


def _witness_layered(x: LayeredModule) -> str:
    return formats.serialize_layered(x, "<context base>")


def _replay_hint(suite: str, cfg: SuiteConfig, idx: int) -> str:
    return f"replay: smonkit suite {suite} --bound {cfg.bound} --samples {cfg.samples} --seed {cfg.seed} --only-instance {idx} <context files>"


# -- the suites ---------------------------------------------------------------------


def suite_ce(cfg: SuiteConfig) -> SuiteReport:
    """Sampled tensor-product Ext identity: the dimension of every Ext group
    of a pair of tensor modules equals the convolution of the factor Ext
    dimensions, through degree 3."""
    ctx = cfg.context

    def worker(idx, rng):
        left = sample_base_module(ctx, rng, cfg.budget)
        right = sample_base_module(ctx, rng, cfg.budget)
        up = sample_factor_module(ctx, rng, cfg.budget)
        vp = sample_factor_module(ctx, rng, cfg.budget)
        lhs = bqa.ext_dims(tensor(ctx, left, up), tensor(ctx, right, vp), 3)
        base_ext = bqa.ext_dims(left, right, 3)
        factor_ext = bqa.ext_dims(up, vp, 3)
        rhs = [sum(base_ext[p] * factor_ext[m - p] for p in range(m + 1)) for m in range(4)]
        note = f"dims L{left.dims} M{right.dims} U{up.dims} V{vp.dims} lhs={lhs} rhs={rhs}"
        return lhs == rhs, note, None

    return SuiteReport("ce", cfg.echo(), _run_instances("ce", cfg, worker))


def suite_adjunction(cfg: SuiteConfig) -> SuiteReport:
    """Both adjunction identities as dimension equalities through degree 3;
    the cokernel-side identity is asserted at positive degrees only for
    separated monic samples."""
    ctx = cfg.context

    def worker(idx, rng):
        x, kind = sample_layered_mixed(ctx, rng, cfg.budget)
        m = sample_base_module(ctx, rng, cfg.budget)
        i = int(rng.integers(1, ctx.factor.quiver.n + 1))
        rep = layered.adjunction_check(x, m, i, 3)
        for k in range(4):
            for name, (lhs, rhs) in (("branch", rep.branch_side), ("cokernel", rep.coker_side)):
                if k < len(lhs) and lhs[k] != rhs[k]:
                    return False, f"{kind}: {name} identity fails at k={k}: {(lhs[k], rhs[k])}", x
        return True, f"{kind}: identities agree (smon={rep.smon}, kmax={len(rep.coker_side[0]) - 1})", x

    return SuiteReport("adjunction", cfg.echo(), _run_instances("adjunction", cfg, worker))


def _cogenerator_tensor(ctx: TensorContext) -> LayeredModule:
    """The dual regular base module tensored with the whole factor algebra."""
    da = bqa.dual_module(ctx.base.opposite().regular_module())
    return tensor(ctx, da, ctx.factor.regular_module())


def suite_smon_perp(cfg: SuiteConfig) -> SuiteReport:
    """Separated monicity versus bounded Ext-vanishing against the dual
    regular tensor module, with one doubling escalation on mismatch."""
    ctx = cfg.context
    cog = _cogenerator_tensor(ctx)
    all_pred = ClassPredicate.all_modules()

    def vanish(x: LayeredModule, bound: int) -> bool:
        return not any(bqa.ext_dims(x, cog, bound)[1:])

    def worker(idx, rng):
        x, kind = sample_layered_mixed(ctx, rng, cfg.budget)
        smon = layered.check_separated_monic(x, all_pred).passed
        perp = vanish(x, cfg.bound)
        if smon == perp:
            return True, f"{kind}: smon={smon} perp(N={cfg.bound})={perp}", x
        if not smon and perp:
            # a short certificate window can miss the refuting degree; escalate
            perp2 = vanish(x, 2 * cfg.bound)
            if not perp2:
                return True, f"{kind}: smon=False perp resolved at N={2 * cfg.bound}", x
            return False, f"{kind}: smon=False but perp holds at N={cfg.bound} and {2 * cfg.bound}", x
        return False, f"{kind}: smon=True but ext against the cogenerator is nonzero at N={cfg.bound}", x

    return SuiteReport("smon-perp", cfg.echo(), _run_instances("smon-perp", cfg, worker))


def suite_lz3(cfg: SuiteConfig) -> SuiteReport:
    """The layered Gorenstein-projective certificate against separated
    monicity plus branchwise cokernel certificates, with N-escalation."""
    ctx = cfg.context
    all_pred = ClassPredicate.all_modules()

    def split_side(x: LayeredModule, bound: int) -> bool:
        if not layered.check_separated_monic(x, all_pred).passed:
            return False
        for i in ctx.factor.quiver.vertices:
            coker = layered.branch_cokernel(x, i).module
            if not bqa.gp_cert(coker, bound).certified:
                return False
        return True

    def worker(idx, rng):
        x, kind = sample_layered_mixed(ctx, rng, cfg.budget)
        direct = bqa.gp_cert(x, cfg.bound).certified
        viasplit = split_side(x, cfg.bound)
        if direct == viasplit:
            return True, f"{kind}: layered-gp={direct} smon+branch-gp={viasplit}", x
        direct2 = bqa.gp_cert(x, 2 * cfg.bound).certified
        via2 = split_side(x, 2 * cfg.bound)
        if direct2 == via2:
            return True, f"{kind}: agreement restored at N={2 * cfg.bound}", x
        return (
            False,
            f"{kind}: certificates disagree at N={cfg.bound} and N={2 * cfg.bound}"
            f" (direct={direct2}, split={via2})",
            x,
        )

    return SuiteReport("lz3", cfg.echo(), _run_instances("lz3", cfg, worker))


def suite_pd_additivity(cfg: SuiteConfig) -> SuiteReport:
    """Projective dimension of a tensor module equals the sum of the factor
    dimensions, on pairs with both factors of dimension at most 5."""
    ctx = cfg.context

    def worker(idx, rng):
        m = sample_base_module(ctx, rng, cfg.budget)
        pdm = bqa.pd_up_to(m, 5)
        if pdm is None:
            m = ctx.base.projective(1 + int(rng.integers(0, ctx.base.quiver.n)))
            pdm = 0
        u = sample_factor_module(ctx, rng, cfg.budget)
        pdu = bqa.pd_up_to(u, 5)
        if pdu is None:
            u = ctx.factor.projective(1 + int(rng.integers(0, ctx.factor.quiver.n)))
            pdu = 0
        if m.is_zero() or u.is_zero():
            return True, "zero factor skipped (pd of 0 is conventional)", None
        got = bqa.pd_up_to(tensor(ctx, m, u), pdm + pdu + 1)
        return got == pdm + pdu, f"pd(m)={pdm} pd(u)={pdu} pd(tensor)={got}", None

    return SuiteReport("pd-add", cfg.echo(), _run_instances("pd-add", cfg, worker))


def suite_triangular(cfg: SuiteConfig) -> SuiteReport:
    """Triple conditions versus the direct layered certificate on split
    samples; when the base looks weakly Gorenstein on the sample, the
    sharpened monomorphism consequences are asserted as well."""
    ctx = cfg.context
    split_vertex = max(ctx.factor.quiver.source_vertices())
    # per sample: the y-part's star certificate, None when the y-part is not semi-gp
    y_stars: list[bqa.Certificate | None] = []

    def worker(idx, rng):
        x, kind = sample_layered_mixed(ctx, rng, cfg.budget)
        t = layered.split_at_source(x, split_vertex)
        rep = layered.triple_conditions(t, cfg.bound)
        y_star = bqa.star_cert(t.y_part, cfg.bound) if rep.y_perp.certified else None
        y_stars.append(y_star)
        if not rep.agree:
            rep2 = layered.triple_conditions(t, 2 * cfg.bound)
            if not rep2.agree:
                return False, f"{kind}: {rep2.render()} (after escalation from N={cfg.bound})", x
            return True, f"{kind}: agreement restored at N={2 * cfg.bound}", x
        extra = ""
        if rep.direct.certified:
            mono = t.phi.is_injective()
            coker = bqa.cokernel(t.phi).module
            coker_ok = bqa.gp_cert(coker, cfg.bound).certified
            y_ok = y_star is not None and y_star.certified
            if not (mono and coker_ok and y_ok):
                return (
                    False,
                    f"{kind}: semi-gp triple without the sharpened shape "
                    f"(mono={mono}, coker-gp={coker_ok}, y-gp={y_ok})",
                    x,
                )
            extra = " sharpened-shape-ok"
        return True, f"{kind}: {rep.render()}{extra}", x

    records = _run_instances("triangular", cfg, worker)
    report = SuiteReport("triangular", cfg.echo(), records)
    stars = [star for star in y_stars if star is not None]
    lwg_like = all(star.certified for star in stars)
    report.extra.append(
        f"base-sample: {len(y_stars)} y-parts, {len(stars)} semi-gp, weakly-gorenstein-like={lwg_like}"
    )
    return report


def suite_weakly_gorenstein(cfg: SuiteConfig) -> SuiteReport:
    """Two-sided transfer check: on both the base and the layered side,
    every sampled semi-Gorenstein-projective module must pass the full
    Gorenstein-projective certificate; the two sides must agree."""
    ctx = cfg.context

    def worker(idx, rng):
        if idx % 2 == 0:
            m = sample_base_module(ctx, rng, cfg.budget)
            side, about = "base side", f" dims {m.dims}"
        else:
            m, kind = sample_layered_mixed(ctx, rng, cfg.budget)
            side, about = f"layered side ({kind})", ""
        semi = bqa.semi_gp_cert(m, cfg.bound)
        if not semi.certified:
            return True, f"{side}:{about} not semi-gp ({semi.render()})", m
        if bqa.star_cert(m, cfg.bound).certified:
            return True, f"{side}:{about} semi-gp and gp", m
        if not bqa.semi_gp_cert(m, 2 * cfg.bound).certified:
            return True, f"{side}: refuted as semi-gp at N={2 * cfg.bound}", m
        full2 = bqa.star_cert(m, 2 * cfg.bound)
        if full2.certified:
            return True, f"{side}: certified at N={2 * cfg.bound}", m
        return False, f"{side}: semi-gp but not gp at N={2 * cfg.bound} ({full2.render()})", m

    records = _run_instances("weakly-gorenstein", cfg, worker)
    report = SuiteReport("weakly-gorenstein", cfg.echo(), records)
    base_viol = any(not r.passed and r.note.startswith("base side") for r in records)
    lay_viol = any(not r.passed and r.note.startswith("layered side") for r in records)
    report.extra.append(
        f"agreement: base-side-violations={base_viol} layered-side-violations={lay_viol} "
        f"sides-agree={base_viol == lay_viol}"
    )
    return report


# -- Nakayama machinery ---------------------------------------------------------------


@dataclass(frozen=True)
class NakayamaAlgebra:
    algebra: Algebra
    kupisch: tuple[int, ...]
    cyclic: bool


def as_nakayama(algebra: Algebra) -> NakayamaAlgebra:
    """Wrap an algebra whose quiver is a single cycle or a single line."""
    q = algebra.quiver
    out_deg = {v: len(q.arrows_out_of(v)) for v in q.vertices}
    in_deg = {v: len(q.arrows_into(v)) for v in q.vertices}
    if any(d > 1 for d in out_deg.values()) or any(d > 1 for d in in_deg.values()):
        raise NotNakayama("a vertex has two arrows in the same direction")
    cyclic = not q.is_acyclic()
    if cyclic:
        if any(d != 1 for d in out_deg.values()) or any(d != 1 for d in in_deg.values()):
            raise NotNakayama("cyclic case needs one arrow in and out of every vertex")
    else:
        if sum(1 for d in out_deg.values() if d == 0) != 1 or len(q.arrows) != q.n - 1:
            raise NotNakayama("acyclic case must be a single line")
    seen: set[int] = set()
    stack = [1]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        for a in q.arrows:
            if a.source == v:
                stack.append(a.target)
            if a.target == v:
                stack.append(a.source)
    if len(seen) != q.n:
        raise NotNakayama("quiver is not connected")
    kupisch = tuple(len([p for p in algebra.paths if p.source == v]) for v in q.vertices)
    return NakayamaAlgebra(algebra, kupisch, cyclic)


def uniserial(algebra: Algebra, v: int, length: int) -> Module:
    """The length-``length`` quotient of the indecomposable projective at v."""
    paths = sorted(q for q in algebra.paths if q.source == v and q.length < length)
    by_vertex = {w: [q for q in paths if q.target == w] for w in algebra.quiver.vertices}
    return bqa.path_span_module(algebra, by_vertex)


def enumerate_indecomposables(nak: NakayamaAlgebra) -> list[tuple[int, int, Module]]:
    """All indecomposables as (vertex, length, module), by vertex then length."""
    out = []
    for v in nak.algebra.quiver.vertices:
        for ell in range(1, nak.kupisch[v - 1] + 1):
            out.append((v, ell, uniserial(nak.algebra, v, ell)))
    return out


@dataclass
class CoreReport:
    total: int
    nonprojective_gp: list[tuple[int, int]]  # (vertex, length)
    core_size: int
    orbit_lines: list[str]
    distinguishable: bool


def core_summary(
    nak: NakayamaAlgebra, indecs: list[tuple[int, int, Module]], certs: list[bqa.Certificate]
) -> CoreReport:
    """The core report from each indecomposable's gp certificate."""
    fingerprints = set()
    distinguishable = True
    for v, ell, m in indecs:
        fp = (m.dims, tuple(m.mats[a.name].rank() for a in nak.algebra.quiver.arrows))
        if fp in fingerprints:
            distinguishable = False
        fingerprints.add(fp)
    nonproj = []
    orbit_lines = []
    for (v, ell, m), cert in zip(indecs, certs):
        if ell == nak.kupisch[v - 1] or not cert.certified:
            continue  # the projective itself, or not gp
        nonproj.append((v, ell))
        res = bqa.resolve(m, _ORBIT_LIMIT)
        orbit_lines.append(f"gp (vertex {v}, length {ell}): {_syzygy_orbit_note(res)}")
        # a certified module's syzygy stays indecomposable (uniserial): its cover is one projective
        cover = res.formal(1)
        if cover is not None and len(cover.vertices) != 1:
            orbit_lines.append(f"  warning: syzygy of (v{v}, l{ell}) is not uniserial")
    cover_vertices = sorted({v for v, _ in nonproj})
    core_size = len(nonproj) + len(cover_vertices)
    return CoreReport(len(indecs), nonproj, core_size, orbit_lines, distinguishable)


_ORBIT_LIMIT = 24


def _syzygy_orbit_note(res: bqa.Resolution) -> str:
    """The syzygy orbit read off a minimal resolution: its exact loop
    Omega^j = Omega^i, its finite length, or neither within its length."""
    steps = len(res.formals)
    if res.loop_start is not None:
        return f"syzygy orbit closes: omega^{steps} iso to omega^{res.loop_start}"
    if res.closed:
        return f"syzygy orbit terminates (projective dimension {steps - 1})"
    return f"syzygy orbit open after {steps - 1} steps"


def evidence_non_gorenstein(algebra: Algebra, bound: int) -> tuple[int | None, int | None]:
    """Bounded self-injective dimensions: pd of the dual regular module on
    both sides; None means the bound was exceeded (evidence, not proof)."""
    left = bqa.pd_up_to(bqa.dual_module(algebra.regular_module()), bound)
    right = bqa.pd_up_to(bqa.dual_module(algebra.opposite().regular_module()), bound)
    return left, right


def _render_pd(value: int | None, bound: int) -> str:
    return f"FINITE({value})" if value is not None else f"EXCEEDS({bound})"


def suite_nakayama(cfg: SuiteConfig) -> SuiteReport:
    """Full enumeration, per-indecomposable certificates, core summary, and
    the non-Gorenstein / weakly-Gorenstein evidence for a Nakayama algebra."""
    nak = as_nakayama(cfg.algebra)
    indecs = enumerate_indecomposables(nak)
    only = cfg.only_instance
    if only is not None and not 0 <= only < len(indecs):
        raise NoSuchInstance(
            f"only-instance {only} is not an instance: the algebra has "
            f"{len(indecs)} indecomposables, numbered from 0"
        )
    semis = [bqa.semi_gp_cert(m, cfg.bound) for _, _, m in indecs]
    fulls = [
        semi if semi.refuted else bqa.star_cert(m, cfg.bound)
        for (_, _, m), semi in zip(indecs, semis)
    ]
    core = core_summary(nak, indecs, fulls)
    records = []
    for idx, ((v, ell, m), semi, full) in enumerate(zip(indecs, semis, fulls)):
        if only is not None and idx != only:
            continue
        is_proj = ell == nak.kupisch[v - 1]
        note = (
            f"vertex {v} length {ell}{' (projective)' if is_proj else ''}: "
            f"semi={semi.render()} gp={full.render()}"
        )
        if semi.certified and not full.certified:
            note += " [semi-gp without gp: weakly-Gorenstein transfer violated]"
            records.append(InstanceRecord(idx, False, note, _replay_hint("nakayama", cfg, idx)))
        else:
            records.append(InstanceRecord(idx, True, note))
    ev_bound = min(cfg.bound, 30)
    left, right = evidence_non_gorenstein(cfg.algebra, ev_bound)
    report = SuiteReport("nakayama", cfg.echo(), records)
    report.extra.append(f"kupisch: {nak.kupisch} indecomposables: {core.total}")
    report.extra.append(
        "nonprojective-gp: "
        + str(len(core.nonprojective_gp))
        + " "
        + str(sorted(core.nonprojective_gp))
    )
    report.extra.append(f"core-size: {core.core_size}")
    report.extra.append(f"pairwise-distinguishable: {core.distinguishable}")
    report.extra.append(
        f"injective-dimension-evidence: left {_render_pd(left, ev_bound)} right {_render_pd(right, ev_bound)}"
    )
    report.extra.extend(core.orbit_lines)
    return report


def submodule_pair(ctx: TensorContext, inclusion: "bqa.Hom") -> LayeredModule:
    """A layered module over an A_2 factor encoding a submodule inclusion:
    the big module at the sink branch, the submodule at the source."""
    if ctx.factor.quiver.n != 2 or len(ctx.factor.quiver.arrows) != 1:
        raise ValueError("submodule pairs need an A_2 factor")
    arrow = ctx.factor.quiver.arrows[0]
    return LayeredModule(ctx, (inclusion.target, inclusion.source), {arrow.name: inclusion})


def radical_power_inclusion(m: Module, k: int) -> "bqa.Hom":
    """The inclusion of the k-th radical power submodule."""
    incl = bqa.identity_hom(m)
    current = m
    for _ in range(k):
        current, step = bqa.radical(current)
        incl = incl @ step
    return incl


_SUITES = {
    "ce": suite_ce,
    "adjunction": suite_adjunction,
    "smon-perp": suite_smon_perp,
    "lz3": suite_lz3,
    "pd-add": suite_pd_additivity,
    "triangular": suite_triangular,
    "weakly-gorenstein": suite_weakly_gorenstein,
    "nakayama": suite_nakayama,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: SuiteConfig) -> SuiteReport:
    """Run a named suite; the report's wall time covers the whole run."""
    if name not in _SUITES:
        raise KeyError(f"unknown suite '{name}' (choose from {', '.join(SUITE_NAMES)})")
    if name == "nakayama":
        if cfg.algebra is None:
            raise BadContext("the nakayama suite needs an algebra")
    elif cfg.context is None:
        raise BadContext(f"suite {name} needs a context")
    elif not (cfg.context.base.quiver.n and cfg.context.factor.quiver.n):
        role = "factor" if cfg.context.base.quiver.n else "base"
        raise BadContext(f"suite {name} needs a {role} algebra with at least one vertex")
    start = time.monotonic()
    report = _SUITES[name](cfg)
    report.wall_time = time.monotonic() - start
    return report
