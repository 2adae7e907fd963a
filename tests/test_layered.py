"""Layered representations: membership checks, functors, homological algebra.

Expected values come from two independent routes wherever possible: the
tensor-product Ext convolution on one side and the layered resolution on
the other, or hand computations over the chain algebra frozen here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smonkit import bqa, harness, layered
from smonkit.bqa import ShapeMismatch
from smonkit.exactla import FpMatrix, Subspace, column_space, null_space, solve_many
from smonkit.layered import (
    CheckResult,
    ClassPredicate,
    LayeredModule,
    NotSource,
    adjunction_check,
    assemble,
    branch_cokernel,
    check_separated_epic,
    check_separated_monic,
    layered_ext_dims,
    layered_hom_dim,
    split_at_source,
    tensor,
    triple_conditions,
)
from lift_oracle import lift_through_epi
from sepi_oracle import check_separated_epic as epic_oracle
from star_oracle import evaluation_map, star_module

ALL = ClassPredicate.all_modules()


def _zero_hom(source, target):
    p = source.algebra.p
    mats = tuple(FpMatrix.zeros(p, target.dim(v), source.dim(v)) for v in source.algebra.quiver.vertices)
    return bqa.Hom(source, target, mats, check=False)


def _layered_hom(source, target, parts, check=True):
    """The engine hom of layered modules with the parts' matrices at the
    points (i, v), one base-module hom per branch."""
    return bqa.Hom(source, target, tuple(m for part in parts for m in part.mats), check)


def _direct_sum(mods):
    """A direct sum of base modules with its inclusions and projections,
    built from identity blocks."""
    alg = mods[0].algebra
    dims = tuple(sum(m.dim(v) for m in mods) for v in alg.quiver.vertices)
    mats = {a.name: FpMatrix.block_diag(alg.p, [m.mats[a.name] for m in mods]) for a in alg.quiver.arrows}
    total = bqa.Module(alg, dims, mats)
    incls, projs = [], []
    for k, m in enumerate(mods):
        blocks = []
        for v in alg.quiver.vertices:
            before = sum(x.dim(v) for x in mods[:k])
            block = np.zeros((dims[v - 1], m.dim(v)), dtype=np.int64)
            block[before : before + m.dim(v)] = np.eye(m.dim(v), dtype=np.int64)
            blocks.append(FpMatrix(alg.p, block))
        incls.append(bqa.Hom(m, total, tuple(blocks)))
        projs.append(bqa.Hom(total, m, tuple(FpMatrix(alg.p, b.data.T) for b in blocks)))
    return total, incls, projs


# -- validation -----------------------------------------------------------------


def test_tensor_modules_validate(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    x = tensor(ctx, ctx.base.projective(1), ctx.factor.projective(3))
    assert x.violations() == []


def test_violations_reported(ctx_k_chain3):
    ctx = ctx_k_chain3
    one = ctx.base.projective(1)
    ident = bqa.identity_hom(one)
    # both arrow maps the identity: the killed composite survives
    x = LayeredModule(
        ctx, (one, one, one), {"a": ident, "b": ident}, check=False
    )
    bad = x.violations()
    assert any("b*a" in v for v in bad)
    with pytest.raises(ValueError):
        LayeredModule(ctx, (one, one, one), {"a": ident, "b": ident})


def test_naturality_violation_reported(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    p = ctx.base.projective(1)
    from smonkit.bqa import Hom
    from smonkit.exactla import FpMatrix

    bad_map = Hom(p, p, (FpMatrix(2, [[0, 1], [0, 0]]),), check=False)
    assert not bad_map.is_natural()
    x = LayeredModule(
        ctx,
        (p, p, ctx.base.zero_module()),
        {
            "a": _zero_hom(ctx.base.zero_module(), p),
            "b": bad_map,
        },
        check=False,
    )
    assert any("not a base-module homomorphism" in v for v in x.violations())


# -- branch functors ----------------------------------------------------------------


def test_branch_cokernel_of_tensor_projective(ctx_dual_chain3):
    # Coker_j(m (x) P(i)) is m at j = i and zero elsewhere
    ctx = ctx_dual_chain3
    m = bqa.random_module(ctx.base, 3, 2)
    for i in ctx.factor.quiver.vertices:
        x = tensor(ctx, m, ctx.factor.projective(i))
        for j in ctx.factor.quiver.vertices:
            coker = branch_cokernel(x, j).module
            assert coker.dims == (m.dims if j == i else ctx.base.zero_module().dims)


def branch_kernel(x, i):
    """Kernel of the total incoming map at a factor vertex (zero at sources)."""
    return bqa.kernel(layered._incoming_total_map(x, i))


def test_branch_cokernel_at_source_is_branch(ctx_k_chain3):
    ctx = ctx_k_chain3
    x = tensor(ctx, ctx.base.projective(1), ctx.factor.projective(3))
    assert branch_cokernel(x, 3).module.dims == x.branch(3).dims
    assert branch_kernel(x, 3).module.is_zero()


def test_branch_kernel_of_injective_arrow(ctx_k_chain3):
    ctx = ctx_k_chain3
    x = tensor(ctx, ctx.base.projective(1), ctx.factor.projective(3))
    assert branch_kernel(x, 2).module.is_zero()


# -- tensor ---------------------------------------------------------------------------


def test_tensor_with_simple_concentrated(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    m = ctx.base.projective(1)
    x = tensor(ctx, m, ctx.factor.simple(2))
    assert x.branch(2).dims == m.dims
    assert x.branch(1).is_zero() and x.branch(3).is_zero()
    assert all(h.is_zero() for h in x.arrow_maps.values())


def test_tensor_with_projective_structure(ctx_k_chain3):
    ctx = ctx_k_chain3
    m = ctx.base.projective(1)
    x = tensor(ctx, m, ctx.factor.projective(3))
    assert x.arrow_maps["a"].is_bijective()
    assert x.arrow_maps["b"].is_zero()


def test_tensor_dimension_product(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    m = bqa.random_module(ctx.base, 3, 4)
    u = bqa.random_module(ctx.factor, 3, 5)
    x = tensor(ctx, m, u)
    assert x.total_dim == m.total_dim * u.total_dim


def _kron_tensor(ctx, m, u):
    """m (x) u from the Kronecker definition: I (x) m_a in every branch and
    u_b (x) I at every base vertex."""
    p = ctx.p
    branches = []
    for i in ctx.factor.quiver.vertices:
        dims = tuple(u.dim(i) * m.dim(v) for v in ctx.base.quiver.vertices)
        mats = {a.name: FpMatrix.identity(p, u.dim(i)).kron(m.mats[a.name]) for a in ctx.base.quiver.arrows}
        branches.append(bqa.Module(ctx.base, dims, mats))
    maps = {
        b.name: bqa.Hom(
            branches[b.source - 1],
            branches[b.target - 1],
            tuple(u.mats[b.name].kron(FpMatrix.identity(p, m.dim(v))) for v in ctx.base.quiver.vertices),
        )
        for b in ctx.factor.quiver.arrows
    }
    return LayeredModule(ctx, tuple(branches), maps)


def _tensor_contexts(p, wide_factors):
    yield from (harness.standard_context(b, f, p=p) for b, f in (("kx2", "chain3"), ("chain3", "a2")))
    base = harness.algebra_loop_nilpotent(2, p=p)
    yield from (layered.TensorContext(base, build(p)) for build in wide_factors.values())


@pytest.mark.parametrize("p", [2, 3])
def test_tensor_matches_the_kronecker_definition(p, wide_factors):
    rng = np.random.default_rng(30 + p)
    empty = 0
    for ctx in _tensor_contexts(p, wide_factors):
        ms = [harness.sample_base_module(ctx, rng, 3) for _ in range(5)] + [ctx.base.zero_module()]
        us = [harness.sample_factor_module(ctx, rng, 3) for _ in range(5)] + [ctx.factor.zero_module()]
        us += [ctx.factor.simple(i) for i in ctx.factor.quiver.vertices]
        for m in ms:
            for u in us:
                got, want = tensor(ctx, m, u), _kron_tensor(ctx, m, u)
                assert got == want
                for mat in got.mats.values():
                    assert mat.p == p and mat.data.dtype == np.int64
                empty += got.is_zero()
    assert empty > 0


def test_tensor_does_not_call_np_kron(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.kron called while building a tensor module")

    monkeypatch.setattr(np, "kron", refuse)
    rng = np.random.default_rng(11)
    for base, factor in (("kx2", "chain3"), ("chain3", "a2")):
        ctx = harness.standard_context(base, factor)
        for m in [harness.sample_base_module(ctx, rng, 3) for _ in range(4)] + [ctx.base.regular_module()]:
            for i in ctx.factor.quiver.vertices:
                assert tensor(ctx, m, ctx.factor.projective(i)).total_dim == m.total_dim * ctx.factor.projective(i).total_dim
                assert tensor(ctx, m, ctx.factor.simple(i)).branch(i) == m
            assert tensor(ctx, m, ctx.factor.regular_module()).violations() == []
        assert bqa.random_module(ctx, 3, 5).violations() == []


# -- separated monic / epic ------------------------------------------------------------


def test_smon_examples(ctx_k_chain3):
    ctx = ctx_k_chain3
    k = ctx.base.projective(1)
    assert check_separated_monic(tensor(ctx, k, ctx.factor.projective(3)), ALL).passed
    res = check_separated_monic(tensor(ctx, k, ctx.factor.simple(2)), ALL)
    assert not res.passed and res.condition == "m2" and "b" in res.location
    for i in ctx.factor.quiver.vertices:
        assert check_separated_monic(tensor(ctx, k, ctx.factor.projective(i)), ALL).passed


def test_sepi_examples(ctx_k_chain3):
    ctx = ctx_k_chain3
    k = ctx.base.projective(1)
    s2 = tensor(ctx, k, ctx.factor.simple(2))
    res = check_separated_epic(s2, ALL)
    assert not res.passed and res.condition in ("e1", "e2")
    inj = bqa.dual_module(tensor(ctx, k, ctx.factor.projective(3)))
    # duality: the dual of a separated monic module is separated epic
    assert check_separated_epic(inj, ALL).passed


@pytest.mark.parametrize("p", [2, 3])
def test_sepi_matches_the_epic_oracle(p, wide_factors):
    # the engine checks D(x) for separated monicity over the opposite
    # context; the oracle checks e1-e3 on x itself
    rng = np.random.default_rng(40 + p)
    seen = set()
    for ctx in _tensor_contexts(p, wide_factors):
        base = ctx.base
        preds = [ClassPredicate(kind, 4) for kind in ("ALL", "PROJ", "INJ", "GPROJ", "SEMI_GP")]
        preds.append(ClassPredicate("PERP_OF", 4, (base.regular_module(), base.simple(base.quiver.n))))
        assert {pred.kind for pred in preds} == set(ClassPredicate.KINDS)
        xs = [harness.sample_layered_mixed(ctx, rng, 3)[0] for _ in range(8)]
        xs += [bqa.dual_module(harness.sample_layered_mixed(ctx.opposite(), rng, 3)[0]) for _ in range(8)]
        for x in xs:
            assert x.context is ctx
            for pred in preds:
                got, want = check_separated_epic(x, pred), epic_oracle(x, pred)
                assert (got.passed, got.condition, got.location) == (want.passed, want.condition, want.location)
                seen.add(got.condition)
    assert seen == {"", "e1", "e2", "e3"}


def test_smon_with_class_predicates(ctx_chain3_a2):
    ctx = ctx_chain3_a2
    # branch cokernels of m (x) P(i) are m or 0; pick m projective vs not
    proj_x = tensor(ctx, ctx.base.projective(2), ctx.factor.projective(2))
    assert check_separated_monic(proj_x, ClassPredicate("PROJ")).passed
    s3_x = tensor(ctx, ctx.base.simple(3), ctx.factor.projective(2))
    res = check_separated_monic(s3_x, ClassPredicate("GPROJ", 6))
    assert not res.passed and res.condition == "m3"
    perp = ClassPredicate("PERP_OF", 6, (ctx.base.regular_module(),))
    assert check_separated_monic(s3_x, perp).passed is False
    assert check_separated_monic(proj_x, ClassPredicate("SEMI_GP", 6)).passed


# -- layered homological algebra ---------------------------------------------------------


def test_layered_cover_of_tensor_simple(ctx_dual_chain3):
    # the cover of m (x) S(i) is (cover of m) (x) P(i)
    ctx = ctx_dual_chain3
    m = ctx.base.simple(1)
    x = tensor(ctx, m, ctx.factor.simple(3))
    cover = bqa.projective_cover(x)
    assert cover.formal.vertices == (ctx.point(3, 1),)


def test_layered_ext_planted(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    x = tensor(ctx, ctx.base.simple(1), ctx.factor.simple(3))
    assert layered_ext_dims(x, x, 1)[1] == 1


def test_layered_ext_of_projective_vanishes(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    x = tensor(ctx, ctx.base.projective(1), ctx.factor.projective(2))
    for seed in range(3):
        y = bqa.random_module(ctx, 3, seed)
        assert layered_ext_dims(x, y, 3)[1:] == [0, 0, 0]


def test_layered_hom_dim_matches_ext_zero(ctx_k_chain3):
    ctx = ctx_k_chain3
    for sa, sb in ((0, 1), (2, 3)):
        x = bqa.random_module(ctx, 3, sa)
        y = bqa.random_module(ctx, 3, sb)
        assert layered_ext_dims(x, y, 0)[0] == layered_hom_dim(x, y)


def test_cartan_eilenberg_convolution(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    for seeds in ((1, 2, 3, 4), (5, 6, 7, 8)):
        left = bqa.random_module(ctx.base, 2, seeds[0])
        right = bqa.random_module(ctx.base, 2, seeds[1])
        up = bqa.random_module(ctx.factor, 2, seeds[2])
        down = bqa.random_module(ctx.factor, 2, seeds[3])
        lhs = layered_ext_dims(tensor(ctx, left, up), tensor(ctx, right, down), 3)
        be = bqa.ext_dims(left, right, 3)
        fe = bqa.ext_dims(up, down, 3)
        assert lhs == [sum(be[p] * fe[m - p] for p in range(m + 1)) for m in range(4)]


def test_pd_additivity_planted(ctx_chain3_a2):
    # pd(S(3)) = 2 over the chain; tensoring with a factor projective keeps it
    ctx = ctx_chain3_a2
    x = tensor(ctx, ctx.base.simple(3), ctx.factor.projective(2))
    assert bqa.pd_up_to(x, 6) == 2
    y = tensor(ctx, ctx.base.projective(2), ctx.factor.simple(2))
    assert bqa.pd_up_to(ctx.factor.simple(2), 3) == 1
    assert bqa.pd_up_to(y, 6) == 1


def test_layered_resolution_minimality(ctx_dual_chain3):
    from smonkit.exactla import column_space

    ctx = ctx_dual_chain3
    x = bqa.random_module(ctx, 3, 11)
    res = bqa.resolve(x, 3)
    for d in map(res.diff, range(len(res.diffs))):
        rads = bqa.radical_subspaces(d.target)
        for i in ctx.factor.quiver.vertices:
            for v in ctx.base.quiver.vertices:
                image = column_space(d.mat(ctx.point(i, v)))
                assert image.intersect(rads[ctx.point(i, v) - 1]) == image


# -- adjunction ---------------------------------------------------------------------------


def test_adjunction_identities_on_smon(ctx_k_chain3):
    ctx = ctx_k_chain3
    k = ctx.base.projective(1)
    x = tensor(ctx, k, ctx.factor.projective(3))
    rep = adjunction_check(x, k, 3, 0)
    assert rep.smon and rep.coker_side == ([1], [1])
    assert rep.branch_side[0] == rep.branch_side[1]


def test_adjunction_branch_identity_tensor(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    m = ctx.base.simple(1)
    x = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(2))
    rep = adjunction_check(x, m, 2, 2)
    assert rep.branch_side[0] == rep.branch_side[1]
    assert rep.branch_side[1] == [bqa.ext_dims(m, x.branch(2), k)[k] for k in range(3)]


def test_adjunction_requires_smon_at_positive_degree(ctx_k_chain3):
    # the cokernel side stops at degree 0 for a non-monic x
    ctx = ctx_k_chain3
    k = ctx.base.projective(1)
    s2 = tensor(ctx, k, ctx.factor.simple(2))
    rep = adjunction_check(s2, k, 2, 1)
    assert not rep.smon
    lhs, rhs = rep.coker_side  # degree zero never needs monicity
    assert len(lhs) == len(rhs) == 1 and lhs == rhs
    assert len(rep.branch_side[0]) == len(rep.branch_side[1]) == 2


def test_adjunction_check_matches_per_degree_reference():
    # each side is one Ext sweep; the reference reads one degree per sweep
    seen_smon = set()
    for base, factor in (("kx2", "chain3"), ("chain3", "a2")):
        ctx = harness.standard_context(base, factor)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            x, _ = harness.sample_layered_mixed(ctx, rng, 3)
            m = harness.sample_base_module(ctx, rng, 3)
            i = int(rng.integers(1, ctx.factor.quiver.n + 1))
            rep = adjunction_check(x, m, i, 3)
            smon = check_separated_monic(x, ALL).passed
            seen_smon.add(smon)
            coker = branch_cokernel(x, i).module
            s_i = tensor(ctx, m, ctx.factor.simple(i))
            p_i = tensor(ctx, m, ctx.factor.projective(i))
            ck = range(4 if smon else 1)
            assert rep.smon == smon
            assert rep.coker_side == (
                [bqa.ext_dims(coker, m, k)[k] for k in ck],
                [bqa.ext_dims(x, s_i, k)[k] for k in ck],
            )
            assert rep.branch_side == (
                [bqa.ext_dims(p_i, x, k)[k] for k in range(4)],
                [bqa.ext_dims(m, x.branch(i), k)[k] for k in range(4)],
            )
    assert seen_smon == {True, False}


# -- duality ---------------------------------------------------------------------------------


def test_dual_layered_involutive_dims(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    x = bqa.random_module(ctx, 3, 21)
    assert bqa.dual_module(bqa.dual_module(x)).dims == x.dims
    assert bqa.dual_module(ctx.zero_module()).is_zero()


def test_dual_of_tensor_projective_is_injective_like(ctx_k_chain3):
    ctx = ctx_k_chain3
    x = tensor(ctx, ctx.base.projective(1), ctx.factor.projective(3))
    d = bqa.dual_module(x)
    opp_inj = bqa.dual_module(ctx.factor.projective(3))
    for i in ctx.factor.quiver.vertices:
        assert d.branch(i).total_dim == opp_inj.dim(i)


# -- layered star and certificates --------------------------------------------------------------


def test_layered_gp_certificates(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    proj = tensor(ctx, ctx.base.projective(1), ctx.factor.projective(3))
    assert bqa.gp_cert(proj, 6).certified
    # base simple is GP over the dual numbers, so S (x) P(i) stays certified
    sx = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(2))
    assert bqa.gp_cert(sx, 6).certified
    neg = tensor(ctx, ctx.base.simple(1), ctx.factor.simple(2))
    assert bqa.semi_gp_cert(neg, 6).refuted
    assert bqa.gp_cert(neg, 6).refuted


def test_layered_gp_agrees_with_split_criterion(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    for seed in range(6):
        x = bqa.random_module(ctx, 3, 100 + seed)
        direct = bqa.gp_cert(x, 6).certified
        split = check_separated_monic(x, ALL).passed and all(
            bqa.gp_cert(branch_cokernel(x, i).module, 6).certified
            for i in ctx.factor.quiver.vertices
        )
        assert direct == split


# -- triangular splitting -------------------------------------------------------------------------


def test_split_of_tensor_projective_a2(ctx_chain3_a2):
    # over an A_2 factor, m (x) P(2) splits into [m; m] with identity map
    ctx = ctx_chain3_a2
    m = ctx.base.projective(2)
    t = split_at_source(tensor(ctx, m, ctx.factor.projective(2)), 2)
    assert t.y_part.dims == m.dims
    assert t.x_part.branch(1).dims == m.dims
    assert [str(q) for q in t.rad_paths] == ["a1"]
    assert t.phi.is_bijective()  # the reduced factor has the one vertex 1


def test_split_of_tensor_simple(ctx_chain3_a2):
    ctx = ctx_chain3_a2
    m = ctx.base.simple(1)
    t = split_at_source(tensor(ctx, m, ctx.factor.simple(2)), 2)
    assert t.y_part.dims == m.dims
    assert t.x_part.branch(1).is_zero()
    assert t.phi.is_zero()


def test_split_roundtrip_random(ctx_chain3_a2, ctx_dual_chain3):
    for ctx, n in ((ctx_chain3_a2, 2), (ctx_dual_chain3, 3)):
        for seed in range(8):
            x = bqa.random_module(ctx, 3, 300 + seed)
            assert assemble(split_at_source(x, n)) == x


def test_split_reuses_the_reduced_context():
    ctx = harness.standard_context("chain3", "a2")
    t1 = split_at_source(bqa.random_module(ctx, 3, 1), 2)
    t2 = split_at_source(bqa.random_module(ctx, 3, 2), 2)
    assert t1.reduced is t2.reduced


def test_split_rejects_non_source(ctx_chain3_a2):
    x = bqa.random_module(ctx_chain3_a2, 2, 0)
    with pytest.raises(NotSource):
        split_at_source(x, 1)


def test_triple_conditions_planted(ctx_chain3_a2):
    ctx = ctx_chain3_a2
    # projective layered module: all conditions hold
    t = split_at_source(tensor(ctx, ctx.base.projective(2), ctx.factor.projective(2)), 2)
    rep = triple_conditions(t, 4)
    assert rep.phi_star_epi and rep.ext_iso_failure is None
    assert rep.y_perp.certified and rep.predicted_semi_gp and rep.direct.certified
    # y-part = S(3) fails membership and the assembled module is refuted
    zero = ctx.base.zero_module()
    bad = LayeredModule(
        ctx,
        (zero, ctx.base.simple(3)),
        {"a1": _zero_hom(ctx.base.simple(3), zero)},
    )
    rep2 = triple_conditions(split_at_source(bad, 2), 4)
    assert not rep2.y_perp.certified
    assert rep2.ext_iso_failure == 2  # Ext^2(S(3), A) is the first nonzero group
    assert not rep2.predicted_semi_gp and rep2.direct.refuted and rep2.agree


# -- extensions -----------------------------------------------------------------------------------


def _pushout_extension(x, y, rng):
    """The extension 0 -> x -> E -> y -> 0 pushed out from the kernel K of
    y's projective cover P_0 -> y along a random f in Hom(K, x), with its
    two maps, whose naturality is checked here; None when Hom(K, x) = 0."""
    p, verts = x.algebra.p, x.algebra.quiver.vertices
    cover = bqa.projective_cover(y)
    k = bqa.kernel(cover.epi)
    homs = bqa.hom_space(k.module, x)
    if not homs.dim:
        return None
    f = homs.from_vector((rng.integers(0, p, size=homs.dim) @ homs.space.basis.data) % p)
    e = bqa.pushout(f, k.inclusion)
    incl = bqa.Hom(x, e.module, tuple(FpMatrix(p, e.projection.mat(v).data[:, : x.dim(v)]) for v in verts))
    # E -> y is (0, epi): x (+) P_0 -> y, which kills the image of K, read through the sections
    onto = [FpMatrix.hstack(p, y.dim(v), [FpMatrix.zeros(p, y.dim(v), x.dim(v)), cover.epi.mat(v)]) for v in verts]
    proj = bqa.Hom(e.module, y, tuple(o @ sec for o, sec in zip(onto, e.sections)))
    return e.module, incl, proj


def test_extension_closure_of_smon(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    rng = np.random.default_rng(17)
    x = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(3))
    y = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(2))
    for _ in range(4):
        e, _, _ = _pushout_extension(x, y, rng)
        assert e.violations() == []
        assert check_separated_monic(e, ALL).passed
        # the exactness bookkeeping: branch cokernels form exact sequences,
        # so dims add up branchwise
        for i in ctx.factor.quiver.vertices:
            assert (
                branch_cokernel(e, i).module.total_dim
                == branch_cokernel(x, i).module.total_dim
                + branch_cokernel(y, i).module.total_dim
            )


@pytest.mark.parametrize("base, factor", [("kx2", "chain3"), ("chain3", "a2")])
def test_planted_pushouts_are_smon_and_some_do_not_split(base, factor):
    """Pairs drawn as the planted positives draw them, x = m (x) P(i) and
    y = m2 (x) P(j): every pushout extension is separated monic, and some
    are not x (+) y, which shows as dim End(E) != dim End(x (+) y)."""
    ctx = harness.standard_context(base, factor)
    rng = np.random.default_rng(29)
    n = ctx.factor.quiver.n
    built = nonsplit = 0
    # about one pair in thirty gives a non-split pushout over chain3/a2
    for _ in range(200):
        x = tensor(ctx, harness.sample_base_module(ctx, rng, 3), ctx.factor.projective(int(rng.integers(1, n + 1))))
        y = tensor(ctx, harness.sample_base_module(ctx, rng, 3), ctx.factor.projective(int(rng.integers(1, n + 1))))
        ext = _pushout_extension(x, y, rng)
        if ext is None:
            continue
        e = ext[0]
        assert e.violations() == [] and check_separated_monic(e, ALL).passed
        built += 1
        nonsplit += layered_hom_dim(e, e) != sum(layered_hom_dim(a, b) for a in (x, y) for b in (x, y))
    assert built and nonsplit


def test_random_layered_properties(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    assert bqa.random_module(ctx, 3, 42) == bqa.random_module(ctx, 3, 42)
    for seed in range(5):
        assert bqa.random_module(ctx, 3, seed).violations() == []


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_smon_iff_perp_sampled(ctx_dual_chain3, seed):
    ctx = ctx_dual_chain3
    da = bqa.dual_module(ctx.base.opposite().regular_module())
    cog = tensor(ctx, da, ctx.factor.regular_module())
    x = bqa.random_module(ctx, 3, seed)
    smon = check_separated_monic(x, ALL).passed
    perp = not any(layered_ext_dims(x, cog, 8)[1:])
    assert smon == perp


# -- parallel arrows: the direct-sum conditions have real content here --------------


@pytest.fixture()
def kronecker_ctx():
    from smonkit import harness
    from smonkit.quiver import Arrow, MonomialIdeal, Quiver

    kron = Quiver(2, [Arrow("u", 2, 1), Arrow("v", 2, 1)], acyclic=True)
    factor = bqa.Algebra(kron, MonomialIdeal(kron, []), 2)
    return layered.TensorContext(harness.algebra_trivial(), factor)


def test_m1_fails_when_images_collide(kronecker_ctx):
    from smonkit.bqa import Hom
    from smonkit.exactla import FpMatrix

    ctx = kronecker_ctx
    one = ctx.base.projective(1)
    ident = Hom(one, one, (FpMatrix(2, [[1]]),))
    bad = LayeredModule(ctx, (one, one), {"u": ident, "v": ident})
    res = check_separated_monic(bad, ALL)
    assert not res.passed and res.condition == "m1"
    # and the dual fails the epic direct-sum condition
    assert not check_separated_epic(bqa.dual_module(bad), ALL).passed


def test_m1_passes_with_independent_images(kronecker_ctx):
    from smonkit.bqa import Hom
    from smonkit.exactla import FpMatrix

    ctx = kronecker_ctx
    one = ctx.base.projective(1)
    two = _direct_sum([one, one])[0]
    e1 = Hom(one, two, (FpMatrix(2, [[1], [0]]),))
    e2 = Hom(one, two, (FpMatrix(2, [[0], [1]]),))
    good = LayeredModule(ctx, (two, one), {"u": e1, "v": e2})
    assert check_separated_monic(good, ALL).passed


def test_layered_star_is_valid(ctx_dual_chain3):
    for seed in (0, 5):
        x = bqa.random_module(ctx_dual_chain3, 3, seed)
        assert star_module(x).violations() == []


def test_layered_transpose_is_valid():
    for p in (2, 3):
        ctx = harness.standard_context("kx2", "chain3", p=p)
        rng = np.random.default_rng(11)
        trs = [bqa.transpose(harness.sample_layered_mixed(ctx, rng, 3)[0]) for _ in range(4)]
        assert all(tr.algebra is ctx.opposite() and tr.violations() == [] for tr in trs)
        assert sum(not tr.is_zero() for tr in trs) >= 2


def test_extension_is_short_exact(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    subm = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(3))
    quom = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(2))
    e, incl, proj = _pushout_extension(subm, quom, np.random.default_rng(3))
    assert incl.is_injective() and proj.is_surjective()
    assert (proj @ incl).is_zero()
    assert bqa.kernel(proj).module.total_dim == subm.total_dim


def test_hom_from_layered_regular_is_underlying_space(ctx_dual_chain3):
    ctx = ctx_dual_chain3
    reg = ctx.regular_module()
    for seed in range(3):
        x = bqa.random_module(ctx, 3, seed)
        assert layered_hom_dim(reg, x) == x.total_dim
    assert evaluation_map(reg).is_bijective()
    assert star_module(reg).total_dim == reg.total_dim


# -- the engine's readings against multiplied-out references ---------------------------------


def _sampled_contexts(p):
    """Both stock contexts over F_p, each with six sampled layered modules."""
    rng = np.random.default_rng(90 + p)
    for base, factor in (("kx2", "chain3"), ("chain3", "a2")):
        ctx = harness.standard_context(base, factor, p=p)
        yield ctx, [harness.sample_layered_mixed(ctx, rng, 3)[0] for _ in range(6)]


def _summed_incoming(x, i):
    """The incoming total map at i as the sum over arrows a of X_a after the
    projection onto summand s(a)."""
    arrows = x.context.factor.quiver.arrows_into(i)
    if not arrows:
        return _zero_hom(x.context.base.zero_module(), x.branch(i))
    total, _, projs = _direct_sum([x.branch(a.source) for a in arrows])
    out = _zero_hom(total, x.branch(i))
    for proj, a in zip(projs, arrows):
        out = out + x.arrow_maps[a.name] @ proj
    return out


def _summed_m1(x):
    """The first m1 failure read off sums of column spaces, or None."""
    ctx = x.context
    for i in ctx.factor.quiver.vertices:
        arrows = ctx.factor.quiver.arrows_into(i)
        if len(arrows) < 2:
            continue
        for v in ctx.base.quiver.vertices:
            spaces = [column_space(x.arrow_maps[a.name].mat(v)) for a in arrows]
            got, want = Subspace.sum_of(spaces).dim, sum(s.dim for s in spaces)
            if got != want:
                return CheckResult(
                    False, "m1", f"vertex {i}, base vertex {v}", f"sum of incoming images has dim {got} < {want}"
                )
    return None


@pytest.mark.parametrize("p", [2, 3])
def test_total_maps_match_direct_sums(p, wide_factors):
    # only factors with two arrows into a vertex (kron2, branch4) reach m1
    # and total maps of more than one arrow
    rng = np.random.default_rng(70 + p)
    base = harness.algebra_loop_nilpotent(2, p=p)
    m1_seen = set()
    for name, build in wide_factors.items():
        factor = build(p)
        ctx = layered.TensorContext(base, factor)
        xs = [harness.sample_layered_mixed(ctx, rng, 3)[0] for _ in range(8)]
        # tensors with random factor modules: these also break m1
        xs += [
            tensor(ctx, harness.sample_base_module(ctx, rng, 3), harness.sample_factor_module(ctx, rng, 3))
            for _ in range(6)
        ]
        if name == "kron2":
            # a fixed m1 negative: S(1) (x) U with u = v, so the two incoming images meet
            one = FpMatrix(p, [[1]])
            xs.append(tensor(ctx, base.simple(1), factor.module((1, 1), {"u": one, "v": one})))
        for x in xs:
            for i in ctx.factor.quiver.vertices:
                assert layered._incoming_total_map(x, i) == _summed_incoming(x, i)
            got, want = check_separated_monic(x, ALL), _summed_m1(x)
            if want is None:
                assert got.condition != "m1"
            else:
                assert got == want
            m1_seen.add(want is None)
    assert m1_seen == {True, False}


def _composite(x, start, word, v):
    """A factor word's action at base vertex v, multiplied out from the arrow maps."""
    mat = np.eye(x.branch(start).dim(v), dtype=np.int64)
    for name in word:
        mat = (x.arrow_maps[name].mat(v).data @ mat) % x.context.p
    return mat


@pytest.mark.parametrize("p", [2, 3])
def test_factor_action_matches_composed_arrow_maps(p):
    for ctx, xs in _sampled_contexts(p):
        paths = list(ctx.factor.paths) + list(ctx.factor.ideal.generators)
        for x in xs:
            for q in paths:
                for v in ctx.base.quiver.vertices:
                    got = x.factor_action(q, v)
                    assert got.p == p
                    assert np.array_equal(got.data, _composite(x, q.source, q.arrows, v))


@pytest.mark.parametrize("p", [2, 3])
def test_layered_hom_checks_the_factor_arrows(p):
    moved = 0
    for ctx, xs in _sampled_contexts(p):
        for x in xs:
            ident = tuple(bqa.identity_hom(b) for b in x.branches)
            assert _layered_hom(x, x, ident, check=True).is_natural()
            arrow = next((a for a in ctx.factor.quiver.arrows if not x.arrow_maps[a.name].is_zero()), None)
            if arrow is None:
                continue
            moved += 1
            for c in range(p):
                if c == 1:
                    continue
                # c times the identity on one branch is a base-module hom, but
                # it does not commute with the nonzero map of the arrow into it
                parts = list(ident)
                target = x.branch(arrow.target)
                parts[arrow.target - 1] = bqa.Hom(
                    target, target, tuple(FpMatrix(p, c * np.eye(d, dtype=np.int64)) for d in target.dims)
                )
                with pytest.raises(ShapeMismatch):
                    _layered_hom(x, x, parts, check=True)
                assert not _layered_hom(x, x, parts, check=False).is_natural()
    assert moved > 0


# -- the phi-conditions of the triple test against a reference ------------------------


def _reduce_mod(b, vec):
    """The canonical representative of vec modulo the echelon subspace b."""
    v = np.mod(np.asarray(vec, dtype=np.int64), b.p)
    return (v - v[list(b.pivots)] @ b.basis.data) % b.p if b.dim else v


def _reference_quotient(z, b):
    """Z / B for B inside Z: the reduced spanning space and a coordinate map."""
    rows = np.array([_reduce_mod(b, row) for row in z.basis.data], dtype=np.int64).reshape(z.dim, z.ambient)
    reduced = Subspace.from_spanning(z.p, z.ambient, rows)
    return reduced, lambda vec: reduced.coords(_reduce_mod(b, vec))


def _reference_chain_map(phi, res_src, res_tgt, length):
    """A chain map over phi, each step lifted through the image of the
    target's differential; None once either resolution has stopped."""
    maps = []
    for i in range(length + 1):
        sf, tf = res_src.formal(i), res_tgt.formal(i)
        if sf is None or sf.is_zero or tf is None or tf.is_zero or (i and maps[-1] is None):
            maps.append(None)
        elif i == 0:
            maps.append(lift_through_epi(res_tgt.augmentation, phi @ res_src.augmentation))
        else:
            rhs = maps[-1] @ res_src.diff(i - 1)
            d = res_tgt.diff(i - 1)
            img, incl = bqa.kernel(bqa.cokernel(d).projection)
            alg, verts = d.source.algebra, d.source.algebra.quiver.vertices
            core = bqa.Hom(d.source, img, tuple(FpMatrix(alg.p, solve_many(incl.mat(v), d.mat(v).data)) for v in verts))
            u = bqa.Hom(rhs.source, img, tuple(FpMatrix(alg.p, solve_many(incl.mat(v), rhs.mat(v).data)) for v in verts))
            maps.append(lift_through_epi(core, u))
    return maps


def _reference_phi_conditions(t, bound):
    """(phi* onto, first degree where Ext(phi, algebra) is not bijective):
    phi* from the Hom spaces of both ends against the algebra, Ext(phi, -)
    from a chain map built for every degree and quotient coordinates."""
    reg = t.reduced.regular_module()
    p = t.reduced.p
    src, tgt = bqa.hom_space(t.phi.source, reg), bqa.hom_space(t.phi.target, reg)
    pulled = np.array([src.coords(g @ t.phi) for g in tgt.homs()], dtype=np.int64).reshape(tgt.dim, src.dim)
    phi_epi = src.dim == 0 or FpMatrix(p, pulled).rank() == src.dim
    res_my, res_x = bqa.resolve(t.phi.source, bound + 1), bqa.resolve(t.x_part, bound + 1)
    chain = _reference_chain_map(t.phi, res_my, res_x, bound + 1)
    _, dx = bqa.hom_complex(res_x, reg, bound)
    _, dmy = bqa.hom_complex(res_my, reg, bound)
    for k in range(1, bound + 1):
        h_x, _ = _reference_quotient(null_space(FpMatrix(p, dx[k])), column_space(FpMatrix(p, dx[k - 1])))
        h_my, coords = _reference_quotient(null_space(FpMatrix(p, dmy[k])), column_space(FpMatrix(p, dmy[k - 1])))
        if h_x.dim != h_my.dim:
            return phi_epi, k
        if h_x.dim == 0:
            continue
        fmat = bqa.precompose_matrix(res_my.formal(k), res_x.formal(k), res_my.formal(k).images(chain[k]), reg)
        induced = np.array([coords((fmat @ rep) % p) for rep in h_x.basis.data], dtype=np.int64)
        if FpMatrix(p, induced).rank() != h_x.dim:
            return phi_epi, k
    return phi_epi, None


def _simple_pair_triples(p):
    """(S(v), S(v)) over chain3/a2 split at the source, with the arrow
    acting as zero and as the identity."""
    ctx = harness.standard_context("chain3", "a2", p=p)
    for v in ctx.base.quiver.vertices:
        s = ctx.base.simple(v)
        for arrow_map in (_zero_hom(s, s), bqa.identity_hom(s)):
            yield split_at_source(LayeredModule(ctx, (s, s), {"a1": arrow_map}), 2)


@pytest.mark.parametrize("p", [2, 3])
def test_phi_conditions_match_reference(p):
    triples = list(_simple_pair_triples(p))
    for ctx, xs in _sampled_contexts(p):
        n = max(ctx.factor.quiver.source_vertices())
        triples += [split_at_source(x, n) for x in xs]
    seen = set()
    for t in triples:
        rep = triple_conditions(t, 4)
        got = (rep.phi_star_epi, rep.ext_iso_failure)
        assert got == _reference_phi_conditions(t, 4)
        seen.add(got)
    # both answers of phi*, and Ext(phi, -) bijective, failing in degree 1 and in degree 2
    assert {epi for epi, _ in seen} == {True, False}
    assert {fail for _, fail in seen} == {None, 1, 2}


@pytest.mark.parametrize("p", [2, 3])
def test_phi_condition_lifts_compose_back(p, monkeypatch):
    made = []
    lift = bqa.FormalProjective.lift

    def recording(formal, epi, g):
        u = lift(formal, epi, g)
        made.append((epi, g, u))
        return u

    monkeypatch.setattr(bqa.FormalProjective, "lift", recording)
    for ctx, xs in _sampled_contexts(p):
        n = max(ctx.factor.quiver.source_vertices())
        for x in xs:
            triple_conditions(split_at_source(x, n), 4)
    for t in _simple_pair_triples(p):
        triple_conditions(t, 4)
    assert len(made) > 10
    for epi, g, u in made:
        assert u.source is g.source and u.target is epi.source
        assert u.is_natural()
        assert epi @ u == g


@pytest.mark.parametrize("v, fails_at", [(2, 1), (3, 2)])
def test_ext_iso_needs_the_induced_map_not_just_dimensions(ctx_chain3_a2, v, fails_at):
    # x = (S(v), S(v)) over the arrow 2 -> 1: phi is the arrow map, and both
    # ends of phi are S(v), so every Ext group has the same dimension on
    # both sides and only the rank of the induced map can tell them apart
    ctx = ctx_chain3_a2
    s = ctx.base.simple(v)
    for arrow_map, want in ((_zero_hom(s, s), fails_at), (bqa.identity_hom(s), None)):
        t = split_at_source(LayeredModule(ctx, (s, s), {"a1": arrow_map}), 2)
        assert triple_conditions(t, 4).ext_iso_failure == want
