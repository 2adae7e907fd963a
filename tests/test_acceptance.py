"""Acceptance criteria, one test per criterion.

Every criterion prints one line (ACCEPTANCE <n>: PASS/FAIL ...) and
asserts exact values at the stated bounds plus its wall-clock budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from smonkit import bqa, harness, layered
from smonkit.exactla import FpMatrix, Subspace
from smonkit.harness import SuiteConfig, run_suite
from smonkit.layered import ClassPredicate, tensor

ALL = ClassPredicate.all_modules()


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def nak():
    return harness.nakayama_17_18_18()


@pytest.fixture(scope="module")
def contexts():
    return (
        harness.standard_context("kx2", "chain3"),
        harness.standard_context("chain3", "a2"),
        harness.standard_context("kx2", "a2"),
        harness.standard_context("chain3", "chain3"),
    )


def test_criterion_1_nakayama_reproduction(nak):
    start = time.monotonic()
    cfg = SuiteConfig(algebra=nak, bound=60)
    report = run_suite("nakayama", cfg)
    elapsed = time.monotonic() - start
    wrapped = harness.as_nakayama(nak)
    indecs = harness.enumerate_indecomposables(wrapped)
    core = harness.core_summary(wrapped, indecs, [bqa.gp_cert(m, 60) for _, _, m in indecs])
    loop6 = harness.algebra_loop_nilpotent(6)
    loop6_count = len(harness.enumerate_indecomposables(harness.as_nakayama(loop6)))
    ok = (
        wrapped.kupisch == (17, 18, 18)
        and core.total == 53
        and core.nonprojective_gp == [(2, 3), (2, 6), (2, 9), (2, 12), (2, 15)]
        and core.core_size == 6
        and core.core_size == loop6_count
        and core.distinguishable
        and report.ok
        and elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"53 indecomposables, 5 nonprojective gp at lengths (3,6,9,12,15) of P(2), "
        f"core 6 = indecomposable count of the length-6 loop algebra ({elapsed:.1f}s < 60s)",
    )


def test_criterion_2_weakly_gorenstein_evidence(nak):
    start = time.monotonic()
    wrapped = harness.as_nakayama(nak)
    violations = []
    for v, ell, m in harness.enumerate_indecomposables(wrapped):
        if bqa.semi_gp_cert(m, 60).certified and not bqa.gp_cert(m, 60).certified:
            violations.append((v, ell))
    left, right = harness.evidence_non_gorenstein(nak, 30)
    elapsed = time.monotonic() - start
    ok = not violations and (left is None or right is None) and elapsed < 120.0
    _report(
        2,
        ok,
        f"all 53 indecomposables: semi-gp at 60 implies gp at 60 (violations={violations}); "
        f"injective dimension evidence EXCEEDS(30) on a side: left={left} right={right} "
        f"({elapsed:.1f}s < 120s)",
    )


def test_criterion_3_cartan_eilenberg(contexts):
    start = time.monotonic()
    reports = []
    for label, ctx in (("kx2/chain3", contexts[0]), ("chain3/a2", contexts[1])):
        cfg = SuiteConfig(context=ctx, bound=8, samples=50, seed=101, context_label=label)
        reports.append(run_suite("ce", cfg))
    # planted instance: Ext^1 of S (x) S(3) against itself over kx2/chain3 is 1
    ctx = contexts[0]
    x = tensor(ctx, ctx.base.simple(1), ctx.factor.simple(3))
    planted = layered.layered_ext_dims(x, x, 1)[1]
    elapsed = time.monotonic() - start
    total = sum(len(r.records) for r in reports)
    ok = all(r.ok for r in reports) and total >= 100 and planted == 1 and elapsed < 60.0
    _report(
        3,
        ok,
        f"{total} sampled quadruples over two contexts, zero violations; "
        f"planted Ext^1 = {planted} ({elapsed:.1f}s < 60s)",
    )


def test_criterion_4_adjunction(contexts):
    start = time.monotonic()
    reports = []
    for label, ctx in (("kx2/chain3", contexts[0]), ("chain3/a2", contexts[1])):
        cfg = SuiteConfig(context=ctx, bound=8, samples=50, seed=202, context_label=label)
        reports.append(run_suite("adjunction", cfg))
    elapsed = time.monotonic() - start
    total = sum(len(r.records) for r in reports)
    ok = all(r.ok for r in reports) and total >= 100 and elapsed < 60.0
    _report(4, ok, f"{total} instances, both identities exact ({elapsed:.1f}s < 60s)")


def test_criterion_5_smon_perp(contexts):
    start = time.monotonic()
    reports = []
    for label, ctx in (("kx2/chain3", contexts[0]), ("kx2/a2", contexts[2])):
        cfg = SuiteConfig(context=ctx, bound=8, samples=50, seed=303, context_label=label)
        reports.append(run_suite("smon-perp", cfg))
    # the planted fixture set, classified on both sides explicitly
    ctx = contexts[0]
    da = bqa.dual_module(ctx.base.opposite().regular_module())
    cog = tensor(ctx, da, ctx.factor.regular_module())

    def perp(x):
        return not any(layered.layered_ext_dims(x, cog, 8)[1:])

    fixtures_ok = True
    for i in ctx.factor.quiver.vertices:
        pos = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(i))
        fixtures_ok &= layered.check_separated_monic(pos, ALL).passed and perp(pos)
    neg = tensor(ctx, ctx.base.simple(1), ctx.factor.simple(2))
    fixtures_ok &= (not layered.check_separated_monic(neg, ALL).passed) and (not perp(neg))
    # the extension of S(1) (x) P(2) by S(1) (x) P(3) pushed out along the
    # generator of Hom(K, S(1) (x) P(3)), K the kernel of the cover
    y = tensor(ctx, ctx.base.simple(1), ctx.factor.projective(2))
    k = bqa.kernel(bqa.projective_cover(y).epi)
    (f,) = bqa.hom_space(k.module, tensor(ctx, ctx.base.simple(1), ctx.factor.projective(3))).homs()
    ext = bqa.pushout(f, k.inclusion).module
    fixtures_ok &= layered.check_separated_monic(ext, ALL).passed and perp(ext)
    elapsed = time.monotonic() - start
    total = sum(len(r.records) for r in reports)
    ok = all(r.ok for r in reports) and total >= 100 and fixtures_ok and elapsed < 120.0
    _report(
        5,
        ok,
        f"{total} samples with zero misclassifications at N=8 (escalation 16); "
        f"planted fixtures classified correctly on both sides ({elapsed:.1f}s < 120s)",
    )


def test_criterion_6_gproj_criterion(contexts):
    start = time.monotonic()
    reports = []
    for label, ctx in (("kx2/chain3", contexts[0]), ("chain3/a2", contexts[1])):
        cfg = SuiteConfig(context=ctx, bound=8, samples=50, seed=404, context_label=label)
        reports.append(run_suite("lz3", cfg))
    # fixtures: layered projective, gp-certified tensor, planted negative
    ctx = contexts[0]
    fixtures_ok = True
    for x, expect in (
        (tensor(ctx, ctx.base.projective(1), ctx.factor.projective(2)), True),
        (tensor(ctx, ctx.base.simple(1), ctx.factor.projective(3)), True),
        (tensor(ctx, ctx.base.simple(1), ctx.factor.simple(2)), False),
    ):
        direct = bqa.gp_cert(x, 8).certified
        split = layered.check_separated_monic(x, ALL).passed and all(
            bqa.gp_cert(layered.branch_cokernel(x, i).module, 8).certified
            for i in ctx.factor.quiver.vertices
        )
        fixtures_ok &= direct == split == expect
    elapsed = time.monotonic() - start
    total = sum(len(r.records) for r in reports)
    ok = all(r.ok for r in reports) and total >= 100 and fixtures_ok and elapsed < 120.0
    _report(
        6,
        ok,
        f"layered gp certificate agrees with smon + branchwise gp on {total} samples "
        f"and the fixture set ({elapsed:.1f}s < 120s)",
    )


def test_criterion_7_pd_additivity(contexts):
    start = time.monotonic()
    reports = []
    for label, ctx in (("kx2/chain3", contexts[0]), ("chain3/chain3", contexts[3])):
        cfg = SuiteConfig(context=ctx, bound=8, samples=50, seed=505, context_label=label)
        reports.append(run_suite("pd-add", cfg))
    ctx = contexts[1]  # chain3 base, a2 factor
    planted = bqa.pd_up_to(
        tensor(ctx, ctx.base.simple(3), ctx.factor.projective(2)), 6
    )
    elapsed = time.monotonic() - start
    total = sum(len(r.records) for r in reports)
    ok = all(r.ok for r in reports) and total >= 100 and planted == 2 and elapsed < 60.0
    _report(
        7,
        ok,
        f"layered pd equals the sum on {total} pairs; planted pd(S(3) tensor P) = {planted} "
        f"({elapsed:.1f}s < 60s)",
    )


def test_criterion_8_triangular_split(contexts):
    from smonkit import formats

    start = time.monotonic()
    round_trips = 0
    for ctx, n in ((contexts[1], 2), (contexts[0], 3)):
        for seed in range(50):
            x = bqa.random_module(ctx, 3, 9000 + seed)
            back = layered.assemble(layered.split_at_source(x, n))
            assert formats.serialize_layered(back, "a") == formats.serialize_layered(x, "a")
            round_trips += 1
    cfg = SuiteConfig(context=contexts[1], bound=8, samples=40, seed=606, context_label="chain3/a2")
    report = run_suite("triangular", cfg)
    elapsed = time.monotonic() - start
    ok = round_trips == 100 and report.ok and elapsed < 60.0
    _report(
        8,
        ok,
        f"{round_trips} byte-exact split round-trips; triple conditions agree with the "
        f"direct certificate on all fixtures ({elapsed:.1f}s < 60s)",
    )


def test_criterion_9_determinism(contexts):
    cfg = SuiteConfig(context=contexts[0], bound=8, samples=25, seed=777, context_label="kx2/chain3")
    runs = [run_suite("smon-perp", cfg) for _ in range(2)]
    texts = {r.to_text(include_timing=False) for r in runs}
    records = {r.to_records() for r in runs}
    nak_cfg = SuiteConfig(algebra=harness.nakayama_17_18_18(), bound=8)
    nak_runs = [run_suite("nakayama", nak_cfg) for _ in range(2)]
    ok = (
        len(texts) == 1
        and len(records) == 1
        and nak_runs[0].to_text(include_timing=False) == nak_runs[1].to_text(include_timing=False)
    )
    _report(9, ok, "reruns with identical configs emit byte-identical reports (timing excluded)")


def test_criterion_10_substrate_properties():
    start = time.monotonic()
    rng = np.random.default_rng(31337)
    cases = 1000
    failures = []
    for k in range(cases):
        p = (2, 3, 5)[k % 3]
        n = 1 + int(rng.integers(0, 5))
        a = FpMatrix(p, rng.integers(0, p, size=(int(rng.integers(0, 5)), n)))
        if a.rank() != a.T.rank():
            failures.append(("rank-duality", k))
        u = Subspace.from_spanning(p, n, rng.integers(0, p, size=(int(rng.integers(0, 4)), n)))
        w = Subspace.from_spanning(p, n, rng.integers(0, p, size=(int(rng.integers(0, 4)), n)))
        if u.dim + w.dim != Subspace.sum_of([u, w]).dim + u.intersect(w).dim:
            failures.append(("grassmann", k))
        perm = rng.permutation(u.basis.rows) if u.dim else []
        scale = 1 + int(rng.integers(0, p - 1))
        shuffled = (u.basis.data[list(perm)] * scale) % p if u.dim else u.basis.data
        if Subspace.from_spanning(p, n, shuffled) != u:
            failures.append(("canonicity", k))
        b = FpMatrix(p, rng.integers(0, p, size=(int(rng.integers(0, 4)), int(rng.integers(1, 4)))))
        if a.kron(b).rank() != a.rank() * b.rank():
            failures.append(("kron-rank", k))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    _report(
        10,
        ok,
        f"{cases} randomized cases each for rank duality, Grassmann, canonicity, "
        f"kron rank multiplicativity; failures={failures[:3]} ({elapsed:.1f}s < 10s)",
    )
