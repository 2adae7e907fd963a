"""Lifting a hom through another by one linear system: an oracle for
``bqa.FormalProjective.lift``.

The unknown hom u: src -> mid is solved for all at once from the
naturality equations of u together with the composition constraint
epi . u = g, written with Kronecker products.  None of this reads the
generators of a projective source.
"""

import numpy as np

from smonkit import bqa
from smonkit.exactla import FpMatrix, Subspace, solve
from hom_oracle import HomBasis


def lift_through_epi(epi, g):
    """Some hom u with epi . u = g; exists whenever g's source is projective
    and epi's image contains g's image (epi need not be onto)."""
    src, mid = g.source, epi.source
    alg = src.algebra
    p = alg.p
    nat = bqa._naturality_rows(src, mid)
    sizes = [mid.dim(v) * src.dim(v) for v in alg.quiver.vertices]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offs[-1])
    blocks, rhs = [nat], [np.zeros(nat.shape[0], dtype=np.int64)]
    for v in alg.quiver.vertices:
        rows = g.target.dim(v) * src.dim(v)
        if rows == 0:
            continue
        block = np.zeros((rows, total), dtype=np.int64)
        block[:, offs[v - 1] : offs[v]] = np.kron(epi.mat(v).data, np.eye(src.dim(v), dtype=np.int64))
        blocks.append(block)
        rhs.append(g.mat(v).data.reshape(-1))
    sol = solve(FpMatrix(p, np.concatenate(blocks, axis=0)), np.concatenate(rhs))
    if sol is None:
        raise ValueError("map does not lift through the epimorphism")
    return HomBasis(src, mid, Subspace.full(p, total)).from_vector(sol)
