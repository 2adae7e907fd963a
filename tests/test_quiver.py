"""Path combinatorics of bound quivers."""

import pytest
from hypothesis import given, settings, strategies as st

from smonkit import harness
from smonkit.bqa import Algebra
from smonkit.quiver import (
    Arrow,
    Cyclic,
    MonomialIdeal,
    NotAdmissible,
    Path,
    Quiver,
    UnknownArrow,
    make_path,
    nonzero_paths,
    opposite_bound_quiver,
)


@pytest.fixture()
def chain():
    q = Quiver(3, [Arrow("a", 3, 2), Arrow("b", 2, 1)], acyclic=True)
    return q, MonomialIdeal(q, [make_path(q, ("a", "b"))])


@pytest.fixture()
def loop():
    q = Quiver(1, [Arrow("x", 1, 1)])
    return q, MonomialIdeal(q, [make_path(q, ("x", "x"))])


def test_nonzero_paths_chain(chain):
    q, ideal = chain
    # hand enumeration: three trivial paths, the two arrows, composite killed
    got = [str(p) for p in nonzero_paths(q, ideal)]
    assert got == ["e1", "e2", "e3", "a", "b"]


def test_nonzero_paths_loop(loop):
    q, ideal = loop
    assert [str(p) for p in nonzero_paths(q, ideal)] == ["e1", "x"]


def test_nonzero_paths_arrowless():
    q = Quiver(4, [])
    ideal = MonomialIdeal(q, [])
    assert len(nonzero_paths(q, ideal)) == 4


# The paths an arrow kills, as separated monicity (m2) reads them off the
# factor algebra's basis and separated epicity (e2) off the opposite's.


def _killed_by_following(alg, a):
    """Nonzero paths q of length >= 1 into s(a) with a*q zero."""
    return [q for q in alg.paths if q.length and q.target == a.source and alg.extend(q, a) is None]


def _killed_by_preceding(alg, a):
    """Nonzero paths q of length >= 1 out of e(a) with q*a zero: the
    reversals of the paths that a kills by following over the opposite
    algebra, which is how separated epicity reads them through the dual."""
    opp = alg.opposite()
    return sorted(opp.reversal(q) for q in _killed_by_following(opp, opp.quiver.arrow(a.name)))


def test_annihilated_by(chain, loop):
    alg = Algebra(*chain, 2)
    assert [str(p) for p in _killed_by_following(alg, alg.quiver.arrow("b"))] == ["a"]
    assert _killed_by_following(alg, alg.quiver.arrow("a")) == []
    dual = Algebra(*loop, 2)
    assert [str(p) for p in _killed_by_following(dual, dual.quiver.arrow("x"))] == ["x"]


def test_annihilating(chain, loop):
    alg = Algebra(*chain, 2)
    assert [str(p) for p in _killed_by_preceding(alg, alg.quiver.arrow("a"))] == ["b"]
    assert _killed_by_preceding(alg, alg.quiver.arrow("b")) == []
    dual = Algebra(*loop, 2)
    assert [str(p) for p in _killed_by_preceding(dual, dual.quiver.arrow("x"))] == ["x"]


def test_definition_recheck(wide_factors):
    # the lists equal a brute-force reading of the definition through
    # ideal membership, in the same order, on every factor the suites use
    builders = [*harness._STANDARD_FACTORS.values(), *wide_factors.values()]
    factors = [build(p=2) for build in builders]
    for alg in factors:
        ideal = alg.ideal
        for a in alg.quiver.arrows:
            after = [
                q for q in nonzero_paths(alg.quiver, ideal)
                if q.length >= 1 and q.target == a.source
                and ideal.contains(Path(q.source, a.target, q.arrows + (a.name,)))
            ]
            before = [
                q for q in nonzero_paths(alg.quiver, ideal)
                if q.length >= 1 and q.source == a.target
                and ideal.contains(Path(a.source, q.target, (a.name,) + q.arrows))
            ]
            assert _killed_by_following(alg, a) == after
            assert _killed_by_preceding(alg, a) == before
    assert any(_killed_by_following(alg, a) for alg in factors for a in alg.quiver.arrows)


def test_unknown_arrow(chain):
    q, _ = chain
    with pytest.raises(UnknownArrow):
        q.arrow("zz")
    with pytest.raises(UnknownArrow):
        make_path(q, ("a", "zz"))


def test_nonzero_paths_closed_under_subpaths(chain):
    q, ideal = chain
    paths = nonzero_paths(q, ideal)
    keys = {(p.source, p.arrows) for p in paths}
    for p in paths:
        for start in range(p.length):
            for stop in range(start, p.length + 1):
                sub = p.arrows[start:stop]
                if not sub:
                    continue
                src = q.arrow(sub[0]).source
                assert (src, sub) in keys


def test_opposite_roundtrip(chain):
    q, ideal = chain
    oq, oi = opposite_bound_quiver(q, ideal)
    assert [(a.name, a.source, a.target) for a in oq.arrows] == [("a", 2, 3), ("b", 1, 2)]
    assert [g.arrows for g in oi.generators] == [("b", "a")]
    back_q, back_i = opposite_bound_quiver(oq, oi)
    assert back_q == q and back_i.generators == ideal.generators


def test_opposite_arrowless():
    q = Quiver(2, [])
    oq, _ = opposite_bound_quiver(q, MonomialIdeal(q, []))
    assert oq == q


def test_sources_and_topological_order(chain):
    q, _ = chain
    assert q.source_vertices() == [3]
    # acyclic labels are a topological order: every arrow goes down
    assert all(a.source > a.target for a in q.arrows)
    a2 = Quiver(2, [Arrow("a", 2, 1)], acyclic=True)
    assert a2.source_vertices() == [2]
    two_lines = Quiver(4, [Arrow("a", 2, 1), Arrow("b", 4, 3)], acyclic=True)
    assert two_lines.source_vertices() == [2, 4]


def test_cyclic_rejected_where_acyclic_required():
    with pytest.raises(Cyclic):
        Quiver(2, [Arrow("a", 1, 2), Arrow("b", 2, 1)], acyclic=True)
    cyc = Quiver(2, [Arrow("a", 1, 2), Arrow("b", 2, 1)])
    with pytest.raises(Cyclic):
        cyc.source_vertices()


def test_acyclic_constructor_relabels():
    q = Quiver(2, [Arrow("a", 1, 2)], acyclic=True)  # arrow goes up: relabeled
    assert q.vertex_relabeling == {1: 2, 2: 1}
    a = q.arrows[0]
    assert (a.source, a.target) == (2, 1)


def test_admissibility_cap_on_cyclic():
    q = Quiver(1, [Arrow("x", 1, 1)])
    free = MonomialIdeal(q, [])  # the free loop algebra is infinite-dimensional
    with pytest.raises(NotAdmissible, match="x"):
        nonzero_paths(q, free)
    # two loops killing only x*x: every word without x*x survives
    two = Quiver(1, [Arrow("x", 1, 1), Arrow("y", 1, 1)])
    with pytest.raises(NotAdmissible):
        nonzero_paths(two, MonomialIdeal(two, [make_path(two, ("x", "x"))]))
    # a long relation: the search stops at y^6, long before the words
    # avoiding x^6 of length w + 5 = 37 could be listed
    with pytest.raises(NotAdmissible, match=r"y\*y\*y\*y\*y\*y "):
        nonzero_paths(two, MonomialIdeal(two, [make_path(two, ("x",) * 6)]))


# With at most three arrows and generators of length at most three, windows
# have m <= 2 arrows and there are w <= 9 of them, so an admissible ideal
# leaves no nonzero path of length w + m <= 11, while an infinite-dimensional
# kQ/I has nonzero paths of every length.
DEPTH = 11


def _brute_force_paths(quiver, gens, depth):
    """Composable arrow words with no generator as a contiguous run, by
    depth-first search up to ``depth`` arrows, stopping at the first word of
    that length; returns (words found, whether one reached ``depth``)."""
    found = [()]
    stack = [(a.name,) for a in quiver.arrows]
    while stack:
        word = stack.pop()
        if any(word[i : i + len(g)] == g for g in gens for i in range(len(word) - len(g) + 1)):
            continue
        found.append(word)
        if len(word) == depth:
            return found, True
        end = quiver.arrow(word[-1]).target
        stack.extend(word + (a.name,) for a in quiver.arrows_out_of(end))
    return found, False


@st.composite
def bound_quivers(draw):
    n = draw(st.integers(1, 2))
    ends = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), min_size=1, max_size=3))
    q = Quiver(n, [Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(ends)])
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        word = [draw(st.sampled_from(q.arrows))]
        for _ in range(draw(st.integers(1, 2))):
            outs = q.arrows_out_of(word[-1].target)
            if not outs:
                break
            word.append(draw(st.sampled_from(outs)))
        if len(word) >= 2:
            gens.append(make_path(q, [a.name for a in word]))
    return q, MonomialIdeal(q, gens)


@settings(max_examples=80, deadline=None)
@given(bound_quivers())
def test_admissibility_matches_brute_force(bq):
    q, ideal = bq
    words, unbounded = _brute_force_paths(q, [g.arrows for g in ideal.generators], DEPTH)
    if unbounded:
        with pytest.raises(NotAdmissible):
            nonzero_paths(q, ideal)
    else:
        got = nonzero_paths(q, ideal)
        assert sorted(p.arrows for p in got if p.arrows) == sorted(w for w in words if w)


def test_generators_must_be_long():
    q = Quiver(2, [Arrow("a", 2, 1)])
    with pytest.raises(ValueError):
        MonomialIdeal(q, [make_path(q, ("a",))])


def test_make_path_validates_composability(chain):
    q, _ = chain
    with pytest.raises(ValueError):
        make_path(q, ("b", "a"))  # b ends at 1, a starts at 3
    p = make_path(q, ("a", "b"))
    assert (p.source, p.target, p.arrows) == (3, 1, ("a", "b"))


def test_path_ordering_is_length_then_names():
    q = Quiver(2, [Arrow("a", 2, 1), Arrow("b", 2, 1)])
    pa, pb = make_path(q, ("a",)), make_path(q, ("b",))
    assert sorted([pb, pa]) == [pa, pb]
    assert q.trivial_path(1) < pa
