"""Hom spaces solved from the naturality equations: an oracle for the Hom
complex.

The engine reads Hom(M, N) as H^0, and the extension classes of N by M as
the 1-cocycles, of Hom(resolution of M, N).  Here Hom(M, N) is instead the
kernel of one linear system in the entries of the vertex matrices
(``bqa._naturality_rows``), with a canonical echelon basis, so the tests
can compare the two and name homs by coordinates.  None of this goes
through a projective cover or resolution.
"""

import numpy as np

from smonkit import bqa
from smonkit.exactla import FpMatrix, null_space


def _vec(h):
    return np.concatenate([m.data.reshape(-1) for m in h.mats]) if h.mats else np.zeros(0, dtype=np.int64)


class HomBasis:
    """Canonical echelon basis of Hom(source, target).

    Homs are flattened to row-major vectors blocked by vertex; the basis
    subspace is a reduced echelon form, so coordinates of any member hom
    are read off pivot positions.
    """

    def __init__(self, source, target, space):
        self.source = source
        self.target = target
        self.space = space
        self._homs = None

    @property
    def dim(self):
        return self.space.dim

    def from_vector(self, vec):
        """The hom whose flattened entries are ``vec``, an int64 vector already reduced mod p."""
        mats = []
        off = 0
        p = self.source.algebra.p
        for v in self.source.algebra.quiver.vertices:
            r, c = self.target.dim(v), self.source.dim(v)
            mats.append(FpMatrix._of(p, vec[off : off + r * c].reshape(r, c)))
            off += r * c
        return bqa.Hom(self.source, self.target, tuple(mats), check=False)

    def homs(self):
        if self._homs is None:
            self._homs = [self.from_vector(row) for row in self.space.basis.data]
        return self._homs

    def coords(self, h):
        return self.space.coords(_vec(h))


def hom_space(m, n):
    """Basis of all homomorphisms m -> n, solved from the naturality equations."""
    return HomBasis(m, n, null_space(FpMatrix(m.algebra.p, bqa._naturality_rows(m, n))))
