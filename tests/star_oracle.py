"""The Hom(-, algebra) star, the evaluation map and the star certificate
built from solved Hom spaces: an oracle for ``bqa.star_cert``.

M* = Hom(M, A) is solved vertex by vertex as Hom(M, P(v)), and right
multiplication by an arrow gives it its structure over the opposite
algebra; M** is built the same way from M*.  The evaluation map M -> M**
sends m to (f -> f(m)), read one basis vector at a time.  None of this
goes through the transpose or a projective presentation.
"""

import numpy as np

from smonkit import bqa
from smonkit.exactla import FpMatrix


def right_multiplication(alg, a):
    """Right multiplication by the arrow a as a map P(e(a)) -> P(s(a)):
    the generator goes to the word a."""
    target = alg.projective(a.source)
    image = np.zeros(target.dim(a.target), dtype=np.int64)
    image[alg.path_index(a.source, a.target, alg.extend(alg.quiver.trivial_path(a.source), a))] = 1
    return alg.formal_projective((a.target,)).hom_to(target, image)


def star_with_bases(m):
    """M* over the opposite algebra, with the solved Hom(M, P(v)) by vertex."""
    alg = m.algebra
    bases = {v: bqa.hom_space(m, alg.projective(v)) for v in alg.quiver.vertices}
    dims = tuple(bases[v].dim for v in alg.quiver.vertices)
    mats = {}
    for a in alg.quiver.arrows:
        rho = right_multiplication(alg, a)
        cols = np.zeros((dims[a.source - 1], dims[a.target - 1]), dtype=np.int64)
        for j, g in enumerate(bases[a.target].homs()):
            cols[:, j] = bases[a.source].coords(rho @ g)
        mats[a.name] = FpMatrix(alg.p, cols)
    return alg.opposite().module(dims, mats), bases


def star_module(m):
    return star_with_bases(m)[0]


def evaluation_map(m):
    """The canonical map m -> m**."""
    alg = m.algebra
    opp = alg.opposite()
    star1, bases1 = star_with_bases(m)
    star2, bases2 = star_with_bases(star1)
    mats = []
    for v in alg.quiver.vertices:
        ev = np.zeros((star2.dim(v), m.dim(v)), dtype=np.int64)
        opp_proj = opp.projective(v)
        for k in range(m.dim(v)):
            blocks = []
            for w in alg.quiver.vertices:
                block = np.zeros((opp_proj.dim(w), star1.dim(w)), dtype=np.int64)
                fiber = alg.paths_between(w, v)
                for j, g in enumerate(bases1[w].homs()):
                    val = g.mat(v).data[:, k]
                    for idx, q in enumerate(fiber):
                        block[opp.path_index(v, w, alg.reversal(q)), j] = val[idx]
                blocks.append(block.reshape(-1))
            ev[:, k] = bases2[v].space.coords(np.concatenate(blocks) % alg.p)
        mats.append(FpMatrix(alg.p, ev))
    return bqa.Hom(m, star2, tuple(mats))


def star_cert(m, bound):
    """Ext^i(M*, A-op) = 0 for 1 <= i <= bound, then a bijective evaluation map."""
    alg = m.algebra
    star1 = star_module(m)
    dims = bqa.ext_dims(star1, star1.algebra.regular_module(), bound)
    i = next((i for i in range(1, bound + 1) if dims[i]), None)
    if i is not None:
        return bqa.Certificate("REFUTED", bound, alg.STAR_EXT_REASON.format(i=i, dim=dims[i]), i)
    if not evaluation_map(m).is_bijective():
        return bqa.Certificate("REFUTED", bound, alg.EVALUATION_REASON)
    return bqa.Certificate("CERTIFIED_UP_TO", bound)
