"""Suites, Nakayama machinery, and report determinism."""

import pytest

from smonkit import bqa, harness, layered
from smonkit.harness import (
    BadContext,
    NotNakayama,
    SuiteConfig,
    as_nakayama,
    enumerate_indecomposables,
    core_summary,
    evidence_non_gorenstein,
    nakayama_17_18_18,
    run_suite,
    submodule_pair,
    uniserial,
)
from smonkit.quiver import MonomialIdeal, Quiver


@pytest.fixture(scope="module")
def big_nakayama():
    return nakayama_17_18_18()


def _core_report(nak, bound):
    """The core report over every indecomposable's gp certificate."""
    indecs = enumerate_indecomposables(nak)
    return core_summary(nak, indecs, [bqa.gp_cert(m, bound) for _, _, m in indecs])


def small_cfg(ctx, **kw):
    defaults = dict(context=ctx, bound=4, samples=8, seed=13, context_label="test")
    defaults.update(kw)
    return SuiteConfig(**defaults)


# -- suite smoke + determinism ---------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["ce", "adjunction", "smon-perp", "lz3", "pd-add", "triangular", "weakly-gorenstein"],
)
def test_random_suites_pass_everywhere(name, ctx_dual_chain3, ctx_chain3_a2):
    for ctx in (ctx_dual_chain3, ctx_chain3_a2):
        report = run_suite(name, small_cfg(ctx))
        assert report.ok, report.first_counterexample().note


def test_reports_deterministic(ctx_dual_chain3):
    a = run_suite("lz3", small_cfg(ctx_dual_chain3))
    b = run_suite("lz3", small_cfg(ctx_dual_chain3))
    assert a.to_text(include_timing=False) == b.to_text(include_timing=False)
    assert a.to_records() == b.to_records()


def test_only_instance_replays_one(ctx_dual_chain3):
    full = run_suite("ce", small_cfg(ctx_dual_chain3))
    one = run_suite("ce", small_cfg(ctx_dual_chain3, only_instance=5))
    assert len(one.records) == 1
    assert one.records[0].note == full.records[5].note


@pytest.mark.parametrize("base,factor", [("kx2", "chain3"), ("chain3", "a2")])
def test_replay_on_a_warm_context_matches_a_fresh_one(base, factor):
    # after all seven suites the warm context's certificate tables hold every
    # certificate they asked for; a replay that reads them must not differ
    warm = harness.standard_context(base, factor)
    full = {name: run_suite(name, small_cfg(warm)) for name in harness.SUITE_NAMES if name != "nakayama"}
    for name in ("lz3", "triangular", "weakly-gorenstein"):
        for idx in range(small_cfg(warm).samples):
            again = run_suite(name, small_cfg(warm, only_instance=idx)).records
            fresh = run_suite(name, small_cfg(harness.standard_context(base, factor), only_instance=idx)).records
            assert again == fresh == [full[name].records[idx]], (name, idx)


def test_unknown_suite_rejected(ctx_dual_chain3):
    with pytest.raises(KeyError):
        run_suite("bogus", small_cfg(ctx_dual_chain3))


def test_suites_reject_a_context_they_cannot_run_over(chain3, a2):
    none = Quiver(0, [], acyclic=True)
    empty = bqa.Algebra(none, MonomialIdeal(none, []), 2)
    bad = {
        "no context": SuiteConfig(samples=2),
        "empty base": small_cfg(layered.TensorContext(empty, a2), samples=2),
        "empty factor": small_cfg(layered.TensorContext(chain3, empty), samples=2),
    }
    for name in harness.SUITE_NAMES:
        if name == "nakayama":
            continue
        for cfg in bad.values():
            with pytest.raises(BadContext, match=f"suite {name} needs"):
                run_suite(name, cfg)
    with pytest.raises(BadContext, match="needs an algebra"):
        run_suite("nakayama", SuiteConfig(context=layered.TensorContext(chain3, a2)))


# -- Nakayama machinery ------------------------------------------------------------


def test_as_nakayama_shapes(dual_numbers, a2, chain3):
    assert as_nakayama(dual_numbers).kupisch == (2,)
    assert as_nakayama(a2).kupisch == (1, 2)
    nak3 = as_nakayama(chain3)
    assert nak3.kupisch == (1, 2, 2) and not nak3.cyclic
    kron = harness.Quiver(2, [harness.Arrow("u", 2, 1), harness.Arrow("v", 2, 1)])
    from smonkit.quiver import MonomialIdeal

    wild = bqa.Algebra(kron, MonomialIdeal(kron, []), 2)
    with pytest.raises(NotNakayama):
        as_nakayama(wild)


def test_big_nakayama_kupisch(big_nakayama):
    assert as_nakayama(big_nakayama).kupisch == (17, 18, 18)


def test_uniserial_structure(big_nakayama):
    u = uniserial(big_nakayama, 2, 3)
    assert u.total_dim == 3
    assert bqa.top(u).module.total_dim == 1
    assert bqa.check_module(u) == []


def test_enumerate_counts(dual_numbers, a2):
    assert len(enumerate_indecomposables(as_nakayama(dual_numbers))) == 2
    mods = enumerate_indecomposables(as_nakayama(a2))
    assert len(mods) == 3
    loop6 = harness.algebra_loop_nilpotent(6)
    assert len(enumerate_indecomposables(as_nakayama(loop6))) == 6


def test_enumerated_pairwise_distinguishable(big_nakayama):
    nak = as_nakayama(big_nakayama)
    mods = enumerate_indecomposables(nak)
    seen = set()
    for v, ell, m in mods:
        fp = (m.dims, tuple(m.mats[a.name].rank() for a in big_nakayama.quiver.arrows))
        assert fp not in seen
        seen.add(fp)


def test_core_of_self_injective_is_everything(dual_numbers):
    nak = as_nakayama(dual_numbers)
    core = _core_report(nak, 10)
    assert core.nonprojective_gp == [(1, 1)]
    assert core.core_size == 2


def test_core_of_hereditary_is_empty(a2):
    core = _core_report(as_nakayama(a2), 10)
    assert core.nonprojective_gp == [] and core.core_size == 0


def test_evidence_self_injective_and_hereditary(dual_numbers, a2):
    assert evidence_non_gorenstein(dual_numbers, 10) == (0, 0)
    left, right = evidence_non_gorenstein(a2, 10)
    assert left is not None and left <= 1
    assert right is not None and right <= 1


def test_syzygy_of_indecomposable_stays_uniserial(big_nakayama):
    nak = as_nakayama(big_nakayama)
    for v, ell, m in enumerate_indecomposables(nak)[:12]:
        syz = bqa.syzygy(m)
        assert syz.is_zero() or bqa.top(syz).module.total_dim == 1


def test_submodule_pairs_certify_gp(big_nakayama):
    # pairs (core submodule inside a core module) over an A_2 factor stay
    # Gorenstein-projective: the sampled face of the infinite-type claim.
    # Core submodules of a core uniserial are its radical powers in steps
    # of three (lengths stay divisible by three on both sides).
    ctx = layered.TensorContext(big_nakayama, harness.algebra_line(2))
    core_module = uniserial(big_nakayama, 2, 9)
    for k in (0, 3, 6):
        incl = harness.radical_power_inclusion(core_module, k)
        pair = submodule_pair(ctx, incl)
        assert pair.violations() == []
        assert layered.check_separated_monic(pair, layered.ClassPredicate.all_modules()).passed
        assert bqa.gp_cert(pair, 8).certified
    # a pair whose quotient leaves the core is not Gorenstein-projective
    off = submodule_pair(ctx, harness.radical_power_inclusion(core_module, 1))
    assert not bqa.gp_cert(off, 8).certified


def test_nakayama_suite_small(dual_numbers):
    cfg = SuiteConfig(algebra=dual_numbers, bound=6)
    report = run_suite("nakayama", cfg)
    assert report.ok
    text = report.to_text(include_timing=False)
    assert "kupisch: (2,)" in text and "core-size: 2" in text


def test_nakayama_core_orbits_read_the_certificates_resolutions(monkeypatch):
    # the semi-gp certificates resolve every module to bound + 1, past its loop,
    # so the core summary's orbit notes resolve nothing again
    covers, inside = [], []
    cover, summary = bqa.projective_cover, harness.core_summary
    monkeypatch.setattr(bqa, "projective_cover", lambda m: covers.append(m) or cover(m))

    def counted(*args):
        before = len(covers)
        out = summary(*args)
        inside.append(len(covers) - before)
        return out

    monkeypatch.setattr(harness, "core_summary", counted)
    report = run_suite("nakayama", SuiteConfig(algebra=harness.nakayama_17_18_18(), bound=60))
    assert report.ok and covers and inside == [0]


def test_nakayama_suite_only_instance(dual_numbers):
    full = run_suite("nakayama", SuiteConfig(algebra=dual_numbers, bound=6))
    one = run_suite("nakayama", SuiteConfig(algebra=dual_numbers, bound=6, only_instance=1))
    assert [r.index for r in one.records] == [1]
    assert one.records[0] == full.records[1]
    # the summary lines are the whole algebra's, as in the full run
    assert one.extra == full.extra
    with pytest.raises(harness.NoSuchInstance):
        run_suite("nakayama", SuiteConfig(algebra=dual_numbers, bound=6, only_instance=2))


def test_nakayama_failures_carry_replay_hint(dual_numbers, monkeypatch):
    # the stock algebras never violate the transfer, so break the star half to see a failure
    monkeypatch.setattr(bqa, "star_cert", lambda m, bound: bqa.Certificate("REFUTED", bound, "forced"))
    report = run_suite("nakayama", SuiteConfig(algebra=dual_numbers, bound=6, seed=5))
    failed = [r for r in report.records if not r.passed]
    assert failed
    for r in failed:
        assert r.witness == (
            f"replay: smonkit suite nakayama --bound 6 --samples 100 --seed 5 "
            f"--only-instance {r.index} <context files>"
        )
    assert report.to_records().count("| replay: smonkit suite nakayama") == len(failed)


def test_failure_witnesses_add_only_layered_samples(ctx_dual_chain3, monkeypatch):
    # break the star half so that semi-gp samples fail on both sides: a
    # layered sample follows the replay hint in the witness, a base one does not
    monkeypatch.setattr(bqa, "star_cert", lambda m, bound: bqa.Certificate("REFUTED", bound, "forced"))
    report = run_suite("weakly-gorenstein", small_cfg(ctx_dual_chain3, samples=12))
    sides = set()
    for r in report.records:
        if r.passed:
            assert r.witness == ""
            continue
        hint, _, sample = r.witness.partition("\n")
        assert hint == (
            f"replay: smonkit suite weakly-gorenstein --bound 4 --samples 12 --seed 13 "
            f"--only-instance {r.index} <context files>"
        )
        on_layered_side = r.note.startswith("layered side")
        assert sample.startswith("smonkit-layered v1") if on_layered_side else sample == ""
        sides.add(on_layered_side)
    assert sides == {True, False}


def test_witnesses_replayable(ctx_dual_chain3):
    # force a failing record through a planted inconsistency: not possible
    # via the public suites (they pass), so check the record format instead
    report = run_suite("smon-perp", small_cfg(ctx_dual_chain3))
    lines = report.to_records().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("smon-perp ") for line in lines)


def test_suites_over_parallel_arrow_factor(dual_numbers, wide_factors):
    ctx = layered.TensorContext(dual_numbers, wide_factors["kron2"](2))
    for name in ("smon-perp", "lz3", "triangular"):
        cfg = SuiteConfig(context=ctx, bound=4, samples=6, seed=2, context_label="kx2/kron2")
        report = run_suite(name, cfg)
        assert report.ok, report.first_counterexample().note


def test_nakayama_core_characteristic_independent():
    # the same core reproduces over a different prime
    nak = harness.nakayama_17_18_18(p=3)
    core = _core_report(as_nakayama(nak), 24)
    assert core.nonprojective_gp == [(2, 3), (2, 6), (2, 9), (2, 12), (2, 15)]
    assert core.core_size == 6


def test_suites_over_branching_factor(dual_numbers, wide_factors):
    # two arrows into the sink from different sources plus a relation:
    # the direct-sum condition mixes distinct source branches here
    ctx = layered.TensorContext(dual_numbers, wide_factors["branch4"](2))
    for name in ("smon-perp", "lz3", "adjunction"):
        cfg = SuiteConfig(context=ctx, bound=4, samples=6, seed=23, context_label="kx2/branch4")
        report = run_suite(name, cfg)
        assert report.ok, report.first_counterexample().note


def test_core_pair_over_headline_tensor_algebra(big_nakayama):
    # the worked tensor algebra: big Nakayama base with an A_2 factor; a
    # core-submodule pair is certified Gorenstein-projective in layers
    ctx = layered.TensorContext(big_nakayama, harness.algebra_line(2))
    core = uniserial(big_nakayama, 2, 12)
    pair = submodule_pair(ctx, harness.radical_power_inclusion(core, 6))
    assert bqa.gp_cert(pair, 8).certified
