"""The homological engine: modules over a presented algebra.

Every algebra reaches the engine through a ``Presentation``: the prime, a
quiver whose vertices are the points and whose arrows act on modules,
and, for each point x, the basis of its indecomposable projective P(x)
as arrow words, with the arrow action on those words and their reversal
in the opposite algebra.  ``Algebra`` presents a monomial bound quiver
algebra kQ/I by its nonzero paths; ``layered.TensorContext`` presents a
tensor algebra A (x) kQ/I by pairs of paths.  The relations are never
read: kernels, cokernels, Hom spaces, radicals and submodule closure do
not depend on them, and projectives are built from the basis words.

A module assigns a vector space over F_p to each point and a matrix to
each arrow; a hom is a point-indexed family of matrices intertwining the
arrow actions, one ``Hom`` type over every presentation.  The module
factory ``Presentation.module`` builds the module objects of the
presentation's kind.  On top of the abelian-category plumbing (kernels,
cokernels, block sums of modules) the engine provides radicals and tops,
minimal projective covers, syzygies and resolutions, Ext dimensions from
Hom complexes, vector-space duality, the Auslander-Bridger transpose,
and bounded semi-Gorenstein-projective /
Gorenstein-projective certificates, each computed once per algebra object
and module content.

Modules and homs are immutable; every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .exactla import FpMatrix, Subspace, null_space, column_space, rows_array, solve_many, validate_prime
from .quiver import (
    Arrow,
    MonomialIdeal,
    Path,
    Quiver,
    nonzero_paths,
    opposite_bound_quiver,
)

__all__ = [
    "AlgebraMismatch",
    "ShapeMismatch",
    "Presentation",
    "Algebra",
    "Module",
    "Hom",
    "HomBasis",
    "Certificate",
    "hom_space",
    "kernel",
    "cokernel",
    "pushout",
    "check_module",
    "path_span_module",
    "radical",
    "top",
    "projective_cover",
    "syzygy",
    "resolve",
    "hom_complex",
    "ext_dims",
    "pd_up_to",
    "dual_module",
    "transpose",
    "semi_gp_cert",
    "star_cert",
    "gp_cert",
    "submodule_generated",
    "random_module",
]


class AlgebraMismatch(ValueError):
    """Modules over different algebras were combined."""


class ShapeMismatch(ValueError):
    """Matrix shapes inconsistent with the declared dimension vector."""


class Presentation:
    """An algebra as the engine sees it.

    A subclass supplies ``p`` (passed to ``__init__``), ``quiver``,
    ``word_bases`` (per pair of points (x, y), the basis of e_y P(x) as
    arrow words in a fixed order, asked for once, on first use),
    ``extend``, ``reversal`` and ``opposite``.  Projectives,
    simples, injectives and the regular module are derived here, and
    built once, as are the sums of projectives
    (``formal_projective``).  Tables keep, for as long as the algebra
    object lives, each certificate (``_certs``) by its kind, the module's
    exact content and the bound, each minimal resolution (``_resolutions``)
    by the module's exact content, and, on a tensor context, one reduced
    context per source vertex.
    ``module`` builds the module objects of the subclass's kind; a hom
    between them is a plain ``Hom``.
    """

    # how certificate reasons name Ext against the algebra, from a module
    # and from its star, and the evaluation map
    EXT_REASON = "ext^{i}(M, A) = {dim}"
    STAR_EXT_REASON = "ext^{i}(M*, A-op) = {dim}"
    EVALUATION_REASON = "evaluation map is not bijective"

    quiver: Quiver

    def __init__(self, p: int):
        self.p = validate_prime(p)
        self._between: dict[tuple[int, int], list[Path]] | None = None
        self._fiber_index: dict[tuple[int, int], dict[Path, int]] = {}
        self._projectives: dict[int, Module] = {}
        self._simples: dict[int, Module] = {}
        self._injectives: dict[int, Module] = {}
        self._certs: dict[tuple, Certificate] = {}
        self._formals: dict[tuple[int, ...], FormalProjective] = {}
        self._resolutions: dict[tuple, Resolution] = {}
        self._opposite = None

    # -- the presentation ----------------------------------------------------

    def word_bases(self) -> dict[tuple[int, int], list[Path]]:
        """The basis of e_y P(x) for every pair of points (x, y) it is nonzero at."""
        raise NotImplementedError

    def _index_bases(self) -> None:
        self._between = self.word_bases()
        self._fiber_index = {
            key: {q: i for i, q in enumerate(paths)} for key, paths in self._between.items()
        }

    def paths_between(self, v: int, w: int) -> list[Path]:
        """The basis of e_w P(v): arrow words from v to w."""
        if self._between is None:
            self._index_bases()
        return self._between.get((v, w), [])

    def path_index(self, v: int, w: int, path: Path) -> int:
        if self._between is None:
            self._index_bases()
        return self._fiber_index[(v, w)][path]

    def extend(self, path: Path, arrow: Arrow) -> Path | None:
        """The basis word of ``path`` followed by ``arrow``; None when it is zero."""
        raise NotImplementedError

    def reversal(self, path: Path) -> Path:
        """The same basis element read backwards, as a word of ``opposite()``."""
        raise NotImplementedError

    def opposite(self) -> "Presentation":
        raise NotImplementedError

    def module(self, dims: tuple[int, ...], mats: dict) -> "Module":
        return Module(self, dims, mats)

    # -- distinguished modules ----------------------------------------------

    def simple(self, v: int) -> "Module":
        if v not in self._simples:
            dims = tuple(1 if w == v else 0 for w in self.quiver.vertices)
            mats = {
                a.name: FpMatrix.zeros(self.p, dims[a.target - 1], dims[a.source - 1])
                for a in self.quiver.arrows
            }
            self._simples[v] = self.module(dims, mats)
        return self._simples[v]

    def projective(self, v: int) -> "Module":
        """P(v), basis the words from v; an arrow maps a word to its extension."""
        if v not in self._projectives:
            dims = tuple(len(self.paths_between(v, w)) for w in self.quiver.vertices)
            mats = {}
            for a in self.quiver.arrows:
                mat = np.zeros((dims[a.target - 1], dims[a.source - 1]), dtype=np.int64)
                for col, q in enumerate(self.paths_between(v, a.source)):
                    longer = self.extend(q, a)
                    if longer is not None:
                        mat[self.path_index(v, a.target, longer), col] = 1
                mats[a.name] = FpMatrix._of(self.p, mat)
            self._projectives[v] = self.module(dims, mats)
        return self._projectives[v]

    def injective(self, v: int) -> "Module":
        if v not in self._injectives:
            self._injectives[v] = dual_module(self.opposite().projective(v))
        return self._injectives[v]

    def regular_module(self) -> "Module":
        """The algebra as a left module over itself."""
        return self.formal_projective(self.quiver.vertices).module

    def formal_projective(self, vertices) -> "FormalProjective":
        """The sum of the projectives at ``vertices``, built once per tuple."""
        key = tuple(int(v) for v in vertices)
        if key not in self._formals:
            self._formals[key] = FormalProjective(self, key)
        return self._formals[key]

    def zero_module(self) -> "Module":
        dims = tuple(0 for _ in self.quiver.vertices)
        mats = {a.name: FpMatrix.zeros(self.p, 0, 0) for a in self.quiver.arrows}
        return self.module(dims, mats)


class Algebra(Presentation):
    """A monomial bound quiver algebra kQ/I over F_p.

    Its basis is the set of nonzero paths, computed once; a path times an
    arrow is zero exactly when it ends in an ideal generator.
    """

    def __init__(self, quiver: Quiver, ideal: MonomialIdeal, p: int):
        if ideal.quiver != quiver:
            raise ValueError("ideal was built over a different quiver")
        self.quiver = quiver
        self.ideal = ideal
        self.paths = nonzero_paths(quiver, ideal)  # NotAdmissible on failure
        self.dim = len(self.paths)
        super().__init__(p)

    def word_bases(self) -> dict[tuple[int, int], list[Path]]:
        between: dict[tuple[int, int], list[Path]] = {}
        for path in self.paths:
            between.setdefault((path.source, path.target), []).append(path)
        return between

    def extend(self, path: Path, arrow: Arrow) -> Path | None:
        seq = path.arrows + (arrow.name,)
        if self.ideal.kills_extension(seq):
            return None
        return Path(path.source, arrow.target, seq)

    def reversal(self, path: Path) -> Path:
        return Path(path.target, path.source, tuple(reversed(path.arrows)))

    def opposite(self) -> "Algebra":
        if self._opposite is None:
            oq, oi = opposite_bound_quiver(self.quiver, self.ideal)
            opp = Algebra(oq, oi, self.p)
            opp._opposite = self
            self._opposite = opp
        return self._opposite

    def __repr__(self) -> str:
        return f"Algebra(p={self.p}, dim={self.dim}, {self.quiver!r})"


class Module:
    """A finite-dimensional left module: a space per point, a matrix per arrow."""

    __slots__ = ("algebra", "dims", "mats", "_path_cache")

    def __init__(self, algebra: Algebra, dims: tuple[int, ...], mats: dict[str, FpMatrix]):
        if len(dims) != algebra.quiver.n:
            raise ShapeMismatch(f"dimension vector of length {len(dims)} for {algebra.quiver.n} vertices")
        for a in algebra.quiver.arrows:
            mat = mats.get(a.name)
            if mat is None:
                raise ShapeMismatch(f"missing matrix for arrow {a.name}")
            want = (dims[a.target - 1], dims[a.source - 1])
            if mat.shape != want:
                raise ShapeMismatch(f"arrow {a.name}: matrix shape {mat.shape}, expected {want}")
            if mat.p != algebra.p:
                raise ShapeMismatch(f"arrow {a.name}: prime {mat.p} != {algebra.p}")
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        self.mats = dict(mats)
        self._path_cache: dict[Path, FpMatrix] = {}

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_matrix(self, path: Path) -> FpMatrix:
        """Action of a path as a matrix fiber(s(path)) -> fiber(e(path))."""
        cached = self._path_cache.get(path)
        if cached is not None:
            return cached
        if path.is_trivial:
            mat = FpMatrix.identity(self.algebra.p, self.dim(path.source))
        else:
            last = self.algebra.quiver.arrow(path.arrows[-1])
            parent = Path(path.source, last.source, path.arrows[:-1])
            mat = self.mats[last.name] @ self.path_matrix(parent)
        self._path_cache[path] = mat
        return mat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Module):
            return NotImplemented
        return self is other or (
            self.algebra is other.algebra
            and self.dims == other.dims
            and all(self.mats[k] == other.mats[k] for k in self.mats)
        )

    def __repr__(self) -> str:
        return f"Module(dims={self.dims})"


def check_module(m: Module) -> list[str]:
    """Evaluate every ideal generator on the module; list the violated ones."""
    out = []
    for g in m.algebra.ideal.generators:
        if not m.path_matrix(g).is_zero():
            out.append(str(g))
    return out


def path_span_module(algebra: Algebra, by_vertex: dict[int, list[Path]]) -> Module:
    """The module with basis ``by_vertex[w]`` at each vertex w, in the listed
    order, where an arrow a sends a listed path q to q*a if q*a is listed
    too (compared by arrows) and to zero otherwise."""
    index = {w: {q.arrows: k for k, q in enumerate(qs)} for w, qs in by_vertex.items()}
    dims = tuple(len(by_vertex[w]) for w in algebra.quiver.vertices)
    mats = {}
    for a in algebra.quiver.arrows:
        mat = np.zeros((dims[a.target - 1], dims[a.source - 1]), dtype=np.int64)
        for col, q in enumerate(by_vertex[a.source]):
            row = index[a.target].get(q.arrows + (a.name,))
            if row is not None:
                mat[row, col] = 1
        mats[a.name] = FpMatrix(algebra.p, mat)
    return Module(algebra, dims, mats)


class Hom:
    """A module homomorphism: one matrix per vertex, natural in every arrow."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Module, target: Module, mats: tuple[FpMatrix, ...], check: bool = True):
        if source.algebra is not target.algebra:
            raise AlgebraMismatch("hom between modules over different algebras")
        if len(mats) != source.algebra.quiver.n:
            raise ShapeMismatch(f"{len(mats)} matrices for {source.algebra.quiver.n} vertices")
        for v in source.algebra.quiver.vertices:
            want = (target.dim(v), source.dim(v))
            if mats[v - 1].shape != want:
                raise ShapeMismatch(f"vertex {v}: matrix shape {mats[v - 1].shape}, expected {want}")
            if mats[v - 1].p != source.algebra.p:
                raise ShapeMismatch(f"vertex {v}: prime {mats[v - 1].p} != {source.algebra.p}")
        self.source = source
        self.target = target
        self.mats = tuple(mats)
        if check and not self.is_natural():
            raise ShapeMismatch("matrices do not commute with the arrow actions")

    def mat(self, v: int) -> FpMatrix:
        return self.mats[v - 1]

    def is_natural(self) -> bool:
        p = self.source.algebra.p
        for a in self.source.algebra.quiver.arrows:
            lhs = self.target.mats[a.name].data @ self.mat(a.source).data
            if ((lhs - self.mat(a.target).data @ self.source.mats[a.name].data) % p).any():
                return False
        return True

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def is_injective(self) -> bool:
        return all(m.rank() == m.cols for m in self.mats)

    def is_surjective(self) -> bool:
        return all(m.rank() == m.rows for m in self.mats)

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def __matmul__(self, other: "Hom") -> "Hom":
        if other.target != self.source:
            raise ShapeMismatch("homs do not compose: middle modules differ")
        mats = tuple(self.mats[i] @ other.mats[i] for i in range(len(self.mats)))
        return Hom(other.source, self.target, mats, check=False)

    def __add__(self, other: "Hom") -> "Hom":
        if other.source != self.source or other.target != self.target:
            raise ShapeMismatch("homs with different endpoints")
        mats = tuple(a + b for a, b in zip(self.mats, other.mats))
        return Hom(self.source, self.target, mats, check=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hom):
            return NotImplemented
        return self.source == other.source and self.target == other.target and self.mats == other.mats

    def __repr__(self) -> str:
        return f"Hom({self.source!r} -> {self.target!r})"


def identity_hom(m: Module) -> Hom:
    return Hom(m, m, tuple(FpMatrix.identity(m.algebra.p, d) for d in m.dims), check=False)


# -- the Hom functor as a linear system ------------------------------------


def _vec(h: Hom) -> np.ndarray:
    return np.concatenate([m.data.reshape(-1) for m in h.mats]) if h.mats else np.zeros(0, dtype=np.int64)


class HomBasis:
    """Canonical echelon basis of Hom(source, target).

    Homs are flattened to row-major vectors blocked by vertex; the basis
    subspace is a reduced echelon form, so coordinates of any member hom
    are read off pivot positions.
    """

    def __init__(self, source: Module, target: Module, space: Subspace):
        self.source = source
        self.target = target
        self.space = space
        self._homs: list[Hom] | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def from_vector(self, vec: np.ndarray) -> Hom:
        """The hom whose flattened entries are ``vec``, an int64 vector already reduced mod p."""
        mats = []
        off = 0
        p = self.source.algebra.p
        for v in self.source.algebra.quiver.vertices:
            r, c = self.target.dim(v), self.source.dim(v)
            mats.append(FpMatrix._of(p, vec[off : off + r * c].reshape(r, c)))
            off += r * c
        return Hom(self.source, self.target, tuple(mats), check=False)

    def homs(self) -> list[Hom]:
        if self._homs is None:
            self._homs = [self.from_vector(row) for row in self.space.basis.data]
        return self._homs

    def coords(self, h: Hom) -> np.ndarray:
        return self.space.coords(_vec(h))


def _naturality_rows(m: Module, n: Module) -> np.ndarray:
    """Constraint matrix whose kernel is Hom(m, n) in the blocked vec layout."""
    alg = m.algebra
    p = alg.p
    sizes = [n.dim(v) * m.dim(v) for v in alg.quiver.vertices]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offs[-1])
    blocks = []
    for a in alg.quiver.arrows:
        s, e = a.source, a.target
        ms, ne = m.dim(s), n.dim(e)
        if ne * ms == 0:
            continue
        block = np.zeros((ne * ms, total), dtype=np.int64)
        # row (i, j) is entry (i, j) of N_a f_s - f_e M_a; += and -= keep a loop (s = e) right
        i, j = np.arange(ne)[:, None, None], np.arange(ms)[None, :, None]
        k, l = np.arange(n.dim(s))[None, None, :], np.arange(m.dim(e))[None, None, :]
        block[i * ms + j, offs[s - 1] + k * ms + j] += n.mats[a.name].data[:, None, :]
        block[i * ms + j, offs[e - 1] + i * m.dim(e) + l] -= m.mats[a.name].data.T[None, :, :]
        blocks.append(block)
    if not blocks:
        return np.zeros((0, total), dtype=np.int64)
    return np.concatenate(blocks, axis=0) % p


def hom_space(m: Module, n: Module) -> HomBasis:
    """Basis of all homomorphisms m -> n, solved from the naturality equations."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    rows = _naturality_rows(m, n)
    return HomBasis(m, n, null_space(FpMatrix(m.algebra.p, rows)))


def hom_dim(m: Module, n: Module) -> int:
    return hom_space(m, n).dim


# -- kernels, cokernels, sums ------------------------------------------------


class KernelPair(NamedTuple):
    module: Module
    inclusion: Hom


class CokernelPair(NamedTuple):
    module: Module
    projection: Hom
    sections: tuple[FpMatrix, ...]


def _submodule_from_subspaces(m: Module, spaces: list[Subspace]) -> KernelPair:
    """Realize vertexwise subspaces closed under the arrow action as a module."""
    alg = m.algebra
    dims = tuple(s.dim for s in spaces)
    incls = [FpMatrix._of(alg.p, s.basis.data.T) for s in spaces]
    mats = {}
    for a in alg.quiver.arrows:
        moved = (m.mats[a.name] @ incls[a.source - 1]).data
        mats[a.name] = FpMatrix._of(alg.p, _coords_cols(spaces[a.target - 1], moved))
    sub = alg.module(dims, mats)
    # naturality of incl is M_a incl_s = incl_t coords_a, which _coords_cols checked per arrow
    return KernelPair(sub, Hom(sub, m, tuple(incls), check=False))


def _coords_cols(space: Subspace, cols: np.ndarray) -> np.ndarray:
    """Coordinates of many member columns in an echelon basis at once."""
    sel = cols[list(space.pivots), :] if space.dim else np.zeros((0, cols.shape[1]), dtype=np.int64)
    recon = (space.basis.data.T @ sel) % space.p
    if ((recon - cols) % space.p).any():
        raise ValueError("columns are not inside the subspace")
    return sel


def kernel(f: Hom) -> KernelPair:
    spaces = [null_space(f.mat(v)) for v in f.source.algebra.quiver.vertices]
    return _submodule_from_subspaces(f.source, spaces)


def cokernel(f: Hom) -> CokernelPair:
    alg = f.source.algebra
    projs, secs, dims = [], [], []
    for v in alg.quiver.vertices:
        im = column_space(f.mat(v))
        proj, sec = im.quotient_maps()
        projs.append(proj)
        secs.append(sec)
        dims.append(f.target.dim(v) - im.dim)
    mats = {}
    for a in alg.quiver.arrows:
        mats[a.name] = projs[a.target - 1] @ f.target.mats[a.name] @ secs[a.source - 1]
    coker = alg.module(tuple(dims), mats)
    return CokernelPair(coker, Hom(f.target, coker, tuple(projs)), tuple(secs))


def _block_sum(alg: Presentation, mods: list[Module]) -> Module:
    """The module whose arrow matrices are the block diagonals of the summands'."""
    dims = tuple(sum(m.dim(v) for m in mods) for v in alg.quiver.vertices)
    mats = {
        a.name: FpMatrix.block_diag(alg.p, [m.mats[a.name] for m in mods])
        for a in alg.quiver.arrows
    }
    return alg.module(dims, mats)


def pushout(f: Hom, g: Hom) -> CokernelPair:
    """The pushout of f: K -> X and g: K -> P, the cokernel of (f, -g): K -> X (+) P.

    With g the inclusion of the kernel of a projective cover P -> Y, the
    cokernel is the extension of Y by X that f represents; the projection
    restricted to X is the inclusion X -> E.
    """
    if f.source != g.source:
        raise ShapeMismatch("pushout of homs with different sources")
    alg, p = f.source.algebra, f.source.algebra.p
    mats = tuple(
        FpMatrix._of(p, np.concatenate([f.mat(v).data, -g.mat(v).data % p])) for v in alg.quiver.vertices
    )
    return cokernel(Hom(f.source, _block_sum(alg, [f.target, g.target]), mats, check=False))


# -- radical, top, covers, resolutions ---------------------------------------


def radical_subspaces(m: Module) -> list[Subspace]:
    """At each vertex, the sum of the images of the incoming arrow matrices."""
    alg = m.algebra
    out = []
    for v in alg.quiver.vertices:
        cols = [np.zeros((0, m.dim(v)), dtype=np.int64)]
        cols += [m.mats[a.name].data.T for a in alg.quiver.arrows_into(v)]
        out.append(Subspace.from_spanning(alg.p, m.dim(v), np.concatenate(cols, axis=0)))
    return out


def radical(m: Module) -> KernelPair:
    return _submodule_from_subspaces(m, radical_subspaces(m))


def top(m: Module) -> CokernelPair:
    return cokernel(radical(m).inclusion)


class FormalProjective:
    """A direct sum of indecomposable projectives, kept as a list of points.

    The realized module's fiber at w is ordered by (copy index, basis
    word), words in the presentation's order; the copy's generator sits
    at its trivial word.  This layout is what makes Hom(-, N) complexes
    cheap: a hom out of the sum is just its generator images (``images``).
    """

    def __init__(self, algebra: Presentation, vertices: tuple[int, ...]):
        self.algebra = algebra
        self.vertices = tuple(int(v) for v in vertices)
        self._fibers: list[list[tuple[int, Path]]] = [
            [(t, q) for t, v in enumerate(self.vertices) for q in algebra.paths_between(v, w)]
            for w in algebra.quiver.vertices
        ]
        self._gens = [self.fiber(v).index((t, algebra.quiver.trivial_path(v))) for t, v in enumerate(self.vertices)]

    @property
    def is_zero(self) -> bool:
        return not self.vertices

    def fiber(self, w: int) -> list[tuple[int, Path]]:
        return self._fibers[w - 1]

    def images(self, h: Hom) -> np.ndarray:
        """The generator images of a hom out of this sum, copy after copy."""
        cols = [h.mat(v).data[:, i] for v, i in zip(self.vertices, self._gens)]
        return np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)

    def hom_to(self, target: Module, images: np.ndarray) -> Hom:
        """The hom to ``target`` sending the generators to ``images``."""
        p = self.algebra.p
        gens = np.split(images, np.cumsum([target.dim(v) for v in self.vertices])[:-1])
        mats = []
        for w in self.algebra.quiver.vertices:
            mat = np.zeros((target.dim(w), len(self.fiber(w))), dtype=np.int64)
            for col, (t, q) in enumerate(self.fiber(w)):
                mat[:, col] = target.path_matrix(q).data @ gens[t] % p
            mats.append(FpMatrix._of(p, mat))
        return Hom(self.module, target, tuple(mats), check=False)

    def lift(self, epi: Hom, g: Hom) -> Hom:
        """Some hom u out of this sum with epi . u = g, for g out of this sum.

        epi need not be onto, only contain g's image: the generators'
        images under g are solved for through epi, one system per run of
        copies at a vertex.  Raises ValueError when one does not lift.
        """
        images, sols, start = self.images(g), [], 0
        for v, run in groupby(self.vertices):
            copies, d = len(list(run)), g.target.dim(v)
            x = solve_many(epi.mat(v), images[start : start + copies * d].reshape(copies, d).T)
            if x is None:
                raise ValueError("map does not lift through the epimorphism")
            sols.append(x.T.reshape(-1))
            start += copies * d
        return self.hom_to(epi.source, np.concatenate(sols) if sols else np.zeros(0, dtype=np.int64))

    @cached_property
    def module(self) -> Module:
        """The block diagonal of the copies' projectives, in copy-major order."""
        copies = [self.algebra.projective(v) for v in self.vertices]
        return copies[0] if len(copies) == 1 else _block_sum(self.algebra, copies)

    @cached_property
    def radical(self) -> list[Subspace]:
        """``radical_subspaces(self.module)`` read off the basis: at each
        vertex, the span of the nontrivial words."""
        p, out = self.algebra.p, []
        for w in self.algebra.quiver.vertices:
            fiber = self.fiber(w)
            rows = [c for c, (_, q) in enumerate(fiber) if not q.is_trivial]
            out.append(Subspace(p, len(fiber), FpMatrix._of(p, np.eye(len(fiber), dtype=np.int64)[rows]), tuple(rows)))
        return out


@dataclass(frozen=True)
class Cover:
    formal: FormalProjective
    epi: Hom


def projective_cover(m: Module) -> Cover:
    """Minimal projective cover."""
    alg = m.algebra
    # the top at v lifts to the basis vectors off the radical's pivot columns
    lifts = [
        (v, c)
        for v, rad in zip(alg.quiver.vertices, radical_subspaces(m))
        for c in range(m.dim(v))
        if c not in rad.pivots
    ]
    formal = alg.formal_projective(v for v, _ in lifts)
    proj = formal.module
    mats = []
    for w in alg.quiver.vertices:
        mat = np.zeros((m.dim(w), proj.dim(w)), dtype=np.int64)
        for col, (t, q) in enumerate(formal.fiber(w)):
            mat[:, col] = m.path_matrix(q).data[:, lifts[t][1]]
        mats.append(FpMatrix._of(alg.p, mat))
    epi = Hom(proj, m, tuple(mats))
    for v in alg.quiver.vertices:
        if epi.mat(v).rank() != m.dim(v):
            raise RuntimeError("projective cover failed to surject (engine invariant)")
    return Cover(formal, epi)


def syzygy(m: Module) -> Module:
    return kernel(projective_cover(m).epi).module


@dataclass(slots=True)
class Resolution:
    """A minimal projective resolution ... -> P_1 -> P_0 -> M -> 0 up to a length.

    ``formals[i]`` is P_i and ``diffs[i]`` the generator images of the
    differential P_{i+1} -> P_i, ``cover`` those of P_0 -> M; ``diff`` and
    ``augmentation`` build the homs when asked.  ``closed``: it ended
    within its length.  When ``loop_start`` = i is set, the syzygy Omega^j,
    j = len(formals), equals Omega^i entry for entry; covers, kernels and
    differentials are functions of module content, so the resolution never
    ends and repeats with period L = j - i: P_{k+L} = P_k and diffs[k+L] =
    diffs[k] for k >= i.  Only the prefix is stored (j differentials, the
    last one P_j = P_i -> P_{j-1}); ``formal`` and ``diff`` fold later
    indices into the loop.
    """

    module: Module | None  # None in the algebra's table
    formals: list[FormalProjective]
    diffs: list[np.ndarray]
    cover: np.ndarray
    loop_start: int | None = None
    closed: bool = False

    def _fold(self, i: int, stored: int) -> int | None:
        if i < stored:
            return i
        if self.loop_start is None:
            return None
        return self.loop_start + (i - self.loop_start) % (len(self.formals) - self.loop_start)

    def formal(self, i: int) -> FormalProjective | None:
        """P_i; None once a finite or truncated resolution has stopped."""
        k = self._fold(i, len(self.formals))
        return None if k is None else self.formals[k]

    def diff(self, i: int) -> Hom | None:
        """The differential P_{i+1} -> P_i; None once the resolution has stopped."""
        k = self._fold(i, len(self.diffs))
        return None if k is None else self.formal(k + 1).hom_to(self.formals[k].module, self.diffs[k])

    @property
    def augmentation(self) -> Hom:
        return self.formals[0].hom_to(self.module, self.cover)


def _content(m: Module) -> tuple:
    """A module's exact content: its dims and its arrow matrices in arrow
    order, their entries in [0, p) packed one byte each when p allows."""
    dtype = np.uint8 if m.algebra.p <= 256 else np.int64
    return m.dims, b"".join(m.mats[a.name].data.astype(dtype).tobytes() for a in m.algebra.quiver.arrows)


def resolve(m: Module, length: int) -> Resolution:
    """Minimal projective resolution out to P_length.

    Every syzygy covered so far, M itself included, is kept by content.
    The first kernel equal to one of them, Omega^j = Omega^i with i < j,
    closes the loop: the resolution stops there with ``loop_start`` = i
    and repeats from P_i on.  Kept per algebra object and module content; a
    shorter request reads it cut, so a loop closed beyond its length stays hidden.
    """
    table = m.algebra._resolutions
    key = _content(m)
    res = table.get(key)
    if res is None or not res.closed and len(res.diffs) < length:
        res = table[key] = _minimal_resolution(m, key, length)
    whole = res.closed and len(res.formals) <= length
    loop_start = res.loop_start if whole else None
    return Resolution(m, res.formals[: length + 1], res.diffs[:length], res.cover, loop_start, whole)


def _minimal_resolution(m: Module, key: tuple, length: int) -> Resolution:
    cover = projective_cover(m)
    formals = [cover.formal]
    diffs: list[np.ndarray] = []
    seen = {key: (0, cover)}  # syzygy content -> (degree, its cover)
    loop_start = None
    current = cover
    for step in range(1, length + 1):
        ker, incl = kernel(current.epi)
        if ker.is_zero():
            break
        key = _content(ker)
        if key in seen:
            loop_start, current = seen[key]
            diffs.append(current.formal.images(incl @ current.epi))
            break
        current = projective_cover(ker)
        seen[key] = (step, current)
        formals.append(current.formal)
        diffs.append(current.formal.images(incl @ current.epi))
    # it closed, finite or in a loop, exactly when it stopped short of P_length
    return Resolution(None, formals, diffs, cover.formal.images(cover.epi), loop_start, len(formals) <= length)


def precompose_matrix(high: FormalProjective, low: FormalProjective, images: np.ndarray, n: Module) -> np.ndarray:
    """Matrix of (- o d): Hom(low, n) -> Hom(high, n) for d: high -> low,
    given as its generator images ``high.images(d)``.

    Uses Hom(P(v), n) = n_v: a hom out of a formal projective is its tuple
    of generator images, and precomposition acts through path actions on n.
    """
    p = n.algebra.p
    col_offs = np.concatenate([[0], np.cumsum([n.dim(v) for v in low.vertices], dtype=np.int64)])
    row_offs = np.concatenate([[0], np.cumsum([n.dim(v) for v in high.vertices], dtype=np.int64)])
    delta = np.zeros((int(row_offs[-1]), int(col_offs[-1])), dtype=np.int64)
    gens = np.split(images, np.cumsum([len(low.fiber(v)) for v in high.vertices])[:-1])
    for s, (gen_vertex, col) in enumerate(zip(high.vertices, gens)):
        for pos, (t, q) in enumerate(low.fiber(gen_vertex)):
            c = int(col[pos])
            if c == 0:
                continue
            act = n.path_matrix(q).data
            delta[row_offs[s] : row_offs[s + 1], col_offs[t] : col_offs[t + 1]] = (
                delta[row_offs[s] : row_offs[s + 1], col_offs[t] : col_offs[t + 1]] + c * act
            ) % p
    return delta


def hom_complex(res: Resolution, n: Module, kmax: int) -> tuple[list[int], list[np.ndarray]]:
    """Dimensions of Hom(P_i, n) for i <= kmax + 1 and the differentials
    Hom(P_i, n) -> Hom(P_{i+1}, n) for i <= kmax.

    Over a periodic resolution the degrees that fold onto one stored
    differential share one matrix, built once.
    """
    cdims = []
    for i in range(kmax + 2):
        f = res.formal(i)
        cdims.append(0 if f is None else sum(n.dim(v) for v in f.vertices))
    built: dict[int, np.ndarray] = {}  # by index of the stored differential
    deltas = []
    for i in range(kmax + 1):
        if not (cdims[i] and cdims[i + 1]):
            deltas.append(np.zeros((cdims[i + 1], cdims[i]), dtype=np.int64))
            continue
        k = res._fold(i, len(res.diffs))
        if k not in built:
            built[k] = precompose_matrix(res.formal(i + 1), res.formal(i), res.diffs[k], n)
        deltas.append(built[k])
    return cdims, deltas


def ext_dims(m: Module, n: Module, kmax: int) -> list[int]:
    """dim Ext^k(m, n) for k = 0..kmax, from one Hom complex; each distinct
    differential of the complex is ranked once."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("Ext between modules over different algebras")
    cdims, deltas = hom_complex(resolve(m, kmax + 1), n, kmax)
    distinct = {id(d): d for d in deltas}  # hom_complex shares repeated matrices
    rank_of = {key: FpMatrix(n.algebra.p, d).rank() if d.size else 0 for key, d in distinct.items()}
    ranks = [rank_of[id(d)] for d in deltas]
    out = []
    for k in range(kmax + 1):
        below = ranks[k - 1] if k else 0
        out.append(cdims[k] - ranks[k] - below)
    return out


def pd_up_to(m: Module, bound: int) -> int | None:
    """Projective dimension if <= bound, else None (meaning MORE_THAN(bound)).

    A resolution that closes a loop never ends, so its pd is None whatever
    the bound."""
    res = resolve(m, bound + 1)
    if res.loop_start is not None:
        return None
    for k in range(bound + 1):
        f = res.formal(k + 1)
        if f is None or f.is_zero:
            return k
    return None


# -- duality and the transpose -------------------------------------------------


def dual_module(m: Module) -> Module:
    """Vector-space dual, as a module over the opposite algebra."""
    opp = m.algebra.opposite()
    mats = {a.name: m.mats[a.name].T for a in m.algebra.quiver.arrows}
    return opp.module(m.dims, mats)


def transpose(m: Module) -> Module:
    """The Auslander-Bridger transpose Tr m = coker(P_0* -> P_1*) over the
    opposite algebra, from m's minimal presentation P_1 -> P_0 -> m.

    P(v)* = Hom(P(v), algebra) is the opposite's P(v), and the dual
    differential sends the generator of copy t of P_0* to the words of the
    presentation's differential that start there, each reversed, in their
    copies of P_1*.  Tr of a projective is zero.
    """
    alg = m.algebra
    opp = alg.opposite()
    res = resolve(m, 1)
    high, low = res.formal(1), res.formals[0]
    if high is None:
        return opp.zero_module()
    dual_high, dual_low = opp.formal_projective(high.vertices), opp.formal_projective(low.vertices)
    slots = [{entry: k for k, entry in enumerate(dual_high.fiber(v))} for v in low.vertices]
    images = [np.zeros(len(dual_high.fiber(v)), dtype=np.int64) for v in low.vertices]
    gens = np.split(res.diffs[0], np.cumsum([len(low.fiber(u)) for u in high.vertices])[:-1])
    for s, col in enumerate(gens):
        for (t, q), c in zip(low.fiber(high.vertices[s]), col):
            images[t][slots[t][(s, alg.reversal(q))]] = c
    return cokernel(dual_low.hom_to(dual_high.module, np.concatenate(images))).module


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Bounded-evidence verdict for an unbounded vanishing statement."""

    kind: str  # "CERTIFIED_UP_TO" | "REFUTED" | "UNKNOWN"
    bound: int
    reason: str = ""
    degree: int | None = None

    @property
    def certified(self) -> bool:
        return self.kind == "CERTIFIED_UP_TO"

    @property
    def refuted(self) -> bool:
        return self.kind == "REFUTED"

    def render(self) -> str:
        if self.certified:
            return f"CERTIFIED_UP_TO({self.bound})"
        if self.refuted:
            return f"REFUTED({self.reason})"
        return f"UNKNOWN({self.reason})"


def semi_gp_cert(m: Module, bound: int) -> Certificate:
    """Vanishing of Ext^i(m, algebra) for 1 <= i <= bound.

    A nonzero group refutes definitively, at the first nonzero degree;
    otherwise the verdict is certified up to the bound.  Computed once per
    algebra object, module content and bound; a repeat request reads the
    algebra's table.
    """
    key = ("ext", _content(m), bound)
    table = m.algebra._certs
    if key not in table:
        dims = ext_dims(m, m.algebra.regular_module(), bound)
        i = next((i for i in range(1, bound + 1) if dims[i]), None)
        table[key] = (
            Certificate("CERTIFIED_UP_TO", bound)
            if i is None
            else Certificate("REFUTED", bound, m.algebra.EXT_REASON.format(i=i, dim=dims[i]), i)
        )
    return table[key]


def star_cert(m: Module, bound: int) -> Certificate:
    """The star half of ``gp_cert``: Ext^i(m*, opposite algebra) = 0 for
    1 <= i <= bound and a bijective evaluation map m -> m**.

    Both are read off one Ext sweep of the transpose against the opposite
    algebra (Auslander-Bridger): Ext^i(m*, -) = Ext^{i+2}(Tr m, -) for
    i >= 1, and the evaluation map has kernel Ext^1(Tr m, -) and cokernel
    Ext^2(Tr m, -).  The first nonzero degree k >= 3 refutes the star Ext
    at i = k - 2; otherwise a nonzero degree 1 or 2 refutes the evaluation
    map.  It equals ``gp_cert`` for a module whose ``semi_gp_cert`` holds.
    Computed once per algebra object, module content and bound; a repeat
    request reads the algebra's table.
    """
    key = ("star", _content(m), bound)
    table = m.algebra._certs
    if key not in table:
        alg = m.algebra
        dims = ext_dims(transpose(m), alg.opposite().regular_module(), bound + 2)
        k = next((k for k in range(3, bound + 3) if dims[k]), None)
        if k is not None:
            cert = Certificate("REFUTED", bound, alg.STAR_EXT_REASON.format(i=k - 2, dim=dims[k]), k - 2)
        elif dims[1] or dims[2]:
            cert = Certificate("REFUTED", bound, alg.EVALUATION_REASON)
        else:
            cert = Certificate("CERTIFIED_UP_TO", bound)
        table[key] = cert
    return table[key]


def gp_cert(m: Module, bound: int) -> Certificate:
    """Bounded totally-reflexive test for Gorenstein-projectivity.

    Checks Ext vanishing against the algebra on both sides of the star
    plus bijectivity of the evaluation map; each failed part refutes
    definitively, joint success certifies up to the bound.
    """
    first = semi_gp_cert(m, bound)
    return first if first.refuted else star_cert(m, bound)


# -- sampling ---------------------------------------------------------------


def submodule_generated(m: Module, seeds: list[tuple[int, np.ndarray]]) -> KernelPair:
    """Smallest submodule containing the given vectors (vertex, coordinates)."""
    alg = m.algebra
    spans: list[list[np.ndarray]] = [[] for _ in alg.quiver.vertices]
    for v, vec in seeds:
        spans[v - 1].append(np.mod(np.asarray(vec, dtype=np.int64), alg.p))
    spaces = [
        Subspace.from_spanning(alg.p, m.dim(v), rows_array(spans[v - 1], m.dim(v)))
        for v in alg.quiver.vertices
    ]
    changed = True
    while changed:
        changed = False
        for a in alg.quiver.arrows:
            src, tgt = spaces[a.source - 1], spaces[a.target - 1]
            if src.dim == 0:
                continue
            moved = (m.mats[a.name].data @ src.basis.data.T).T
            bigger = Subspace.sum_of([tgt, Subspace.from_spanning(alg.p, m.dim(a.target), moved)])
            if bigger.dim != tgt.dim:
                spaces[a.target - 1] = bigger
                changed = True
    return _submodule_from_subspaces(m, spaces)


def random_module(algebra: Presentation, budget: int, seed: int) -> Module:
    """A random quotient of a random sum of projectives by a submodule
    generated by random radical elements; deterministic in the seed.

    Any presentation serves: over a ``TensorContext`` the result is a
    layered module, its projectives drawn by point."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    n = algebra.quiver.n
    count = 1 + int(rng.integers(0, budget))
    verts = sorted(int(rng.integers(1, n + 1)) for _ in range(count))
    formal = algebra.formal_projective(verts)
    proj, rads = formal.module, formal.radical
    gens: list[tuple[int, np.ndarray]] = []
    for _ in range(int(rng.integers(0, budget))):
        v = int(rng.integers(1, n + 1))
        rad = rads[v - 1]
        if rad.dim == 0:
            continue
        coeffs = rng.integers(0, algebra.p, size=rad.dim)
        gens.append((v, (coeffs @ rad.basis.data) % algebra.p))
    if not gens:
        return proj
    sub = submodule_generated(proj, gens)
    return cokernel(sub.inclusion).module

