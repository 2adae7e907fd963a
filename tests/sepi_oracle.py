"""Separated epic membership read off x itself: an oracle for
``layered.check_separated_epic``, which checks the dual of x instead.

In order: the paired map out of each vertex with two or more arrows has
image of dimension the sum of the arrows' ranks (e1); each arrow's image
equals the meet of the kernels of the paths that kill it by
precomposition, so an arrow with no killers must be onto (e2); each
outgoing kernel is accepted by the predicate (e3).  The killers come from
ideal membership.  None of this goes through a dual module or the
opposite context.
"""

from smonkit import bqa
from smonkit.exactla import FpMatrix, Subspace, column_space, null_space
from smonkit.layered import CheckResult
from smonkit.quiver import Path


def outgoing_total_map(x, i):
    """The paired map X_i -> (+) over arrows out of i of X_{e(a)}."""
    ctx = x.context
    arrows = ctx.factor.quiver.arrows_out_of(i)
    target = bqa._block_sum(ctx.base, [x.branch(a.target) for a in arrows])
    mats = tuple(
        FpMatrix.vstack(ctx.p, x.branch(i).dim(v), [x.arrow_maps[a.name].mat(v) for a in arrows])
        for v in ctx.base.quiver.vertices
    )
    return bqa.Hom(x.branch(i), target, mats)


def outgoing_kernel(x, i):
    """The meet of the kernels of the maps leaving i (the whole branch at a sink)."""
    return bqa.kernel(outgoing_total_map(x, i)).module


def killers(alg, a):
    """Nonzero paths q of length >= 1 out of e(a) with q*a in the ideal."""
    return [
        q for q in alg.paths
        if q.length and q.source == a.target
        and alg.ideal.contains(Path(a.source, q.target, (a.name,) + q.arrows))
    ]


def check_separated_epic(x, pred):
    ctx = x.context
    for i in ctx.factor.quiver.vertices:
        arrows = ctx.factor.quiver.arrows_out_of(i)
        if len(arrows) < 2:
            continue
        total = outgoing_total_map(x, i)
        for v in ctx.base.quiver.vertices:
            got = total.mat(v).rank()
            want = sum(x.arrow_maps[a.name].mat(v).rank() for a in arrows)
            if got != want:
                return CheckResult(
                    False, "e1", f"vertex {i}, base vertex {v}", f"image of the paired map has dim {got} < {want}"
                )
    for a in ctx.factor.quiver.arrows:
        qs = killers(ctx.factor, a)
        for v in ctx.base.quiver.vertices:
            im = column_space(x.arrow_maps[a.name].mat(v))
            meet = Subspace.full(ctx.p, x.branch(a.target).dim(v))
            for q in qs:
                meet = meet.intersect(null_space(x.factor_action(q, v)))
            if im != meet:
                return CheckResult(
                    False,
                    "e2",
                    f"arrow {a.name}, base vertex {v}",
                    f"image dim {im.dim} vs killing-path kernel dim {meet.dim}",
                )
    if pred.kind != "ALL":
        for i in ctx.factor.quiver.vertices:
            ker = outgoing_kernel(x, i)
            if not pred.accepts(ker):
                return CheckResult(
                    False, "e3", f"vertex {i}", f"outgoing kernel of dims {ker.dims} rejected by {pred.describe()}"
                )
    return CheckResult(True)
