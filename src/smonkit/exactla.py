"""Exact dense linear algebra over a prime field.

Everything downstream (bound quiver modules, layered representations,
homological certificates) reduces to the primitives here: reduced row
echelon forms, kernels and column spaces, canonical subspaces, linear
solves, and Kronecker products, all over F_p in plain integer arithmetic.

Subspaces are stored as reduced-row-echelon bases, so two subspaces are
equal exactly when their basis matrices are equal.  All values are
immutable after construction and every operation is a pure function of
its inputs.

Every elimination is ``_rref``.  Most matrices are tiny, so per-call cost
dominates: an empty one returns at once, one of at most ``SMALL_RREF_CELLS``
cells is reduced on Python lists, larger ones by a numpy row loop; both
give the same result.  ``null_space`` eliminates the column-reversed matrix
once: each free column's kernel vector ends at that column, so flipped back
they are already the reduced echelon kernel basis.

``FpMatrix(p, data)`` validates: it checks that p is prime, converts the
data to a 2-D int64 array and reduces it mod p.  Parsers and every
user-facing entry point build matrices this way.  ``FpMatrix._of(p, arr)``
only wraps and freezes; it relies on arr being a 2-D int64 array with
entries already in [0, p) and on p having been validated before.  The
engine's own results (products and sums after one ``% p``, echelon forms,
stacks, transposes) meet that invariant by construction and use it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AmbientMismatch",
    "PrimeMismatch",
    "FpMatrix",
    "Subspace",
    "null_space",
    "column_space",
    "solve",
    "solve_many",
]


class AmbientMismatch(ValueError):
    """Subspaces of different ambient dimensions were combined."""


class PrimeMismatch(ValueError):
    """Matrices over different primes were combined."""


_CHECKED_PRIMES: set[int] = {2, 3, 5, 7}


MAX_PRIME = 1 << 20  # keeps every dot product safely inside int64


def validate_prime(p: int) -> int:
    p = int(p)
    if p in _CHECKED_PRIMES:
        return p
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_PRIME}")
    if p < 2 or (p % 2 == 0 and p > 2) or (p % 3 == 0 and p > 3):
        raise ValueError(f"modulus {p} is not prime")
    d = 5
    while d * d <= p:
        if p % d == 0 or p % (d + 2) == 0:
            raise ValueError(f"modulus {p} is not prime")
        d += 6
    _CHECKED_PRIMES.add(p)
    return p


SMALL_RREF_CELLS = 256  # at most this many cells: plain Python beats numpy's per-call cost


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of an int64 array mod p; returns (rref, pivot cols)."""
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return np.zeros((rows, cols), dtype=np.int64), ()
    if rows * cols <= SMALL_RREF_CELLS:
        return _rref_small(a, p)
    m = np.mod(a, p).astype(np.int64, copy=True)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            m[hit] = (m[hit] - np.outer(col[hit], m[r])) % p
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def _rref_small(a: np.ndarray, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """``_rref`` on the rows as Python lists, for matrices where numpy's call overhead dominates."""
    rows, cols = a.shape
    m = [[x % p for x in row] for row in a.tolist()]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        row = m[piv]
        m[piv] = m[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row = [x * inv % p for x in row]
        m[r] = row
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], row)]
        pivots.append(c)
        r += 1
    return np.array(m, dtype=np.int64), tuple(pivots)


class FpMatrix:
    """An immutable r x c matrix over F_p, entries reduced into [0, p)."""

    __slots__ = ("p", "data")

    def __init__(self, p: int, data) -> None:
        self.p = validate_prime(p)
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        arr = np.mod(arr, self.p)
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def _of(cls, p: int, arr: np.ndarray) -> "FpMatrix":
        """Wrap a 2-D int64 array already in [0, p) for a validated p, without checks."""
        m = object.__new__(cls)
        m.p = p
        arr.setflags(write=False)
        m.data = arr
        return m

    # -- construction -------------------------------------------------

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls._of(validate_prime(p), np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls._of(validate_prime(p), np.eye(n, dtype=np.int64))

    @classmethod
    def hstack(cls, p: int, rows: int, blocks: list["FpMatrix"]) -> "FpMatrix":
        for b in blocks:
            if b.rows != rows:
                raise ValueError("hstack blocks must share the row count")
            if b.p != p:
                raise PrimeMismatch(f"prime {b.p} != {p}")
        if not blocks:
            return cls.zeros(p, rows, 0)
        return cls._of(p, np.concatenate([b.data for b in blocks], axis=1))

    @classmethod
    def vstack(cls, p: int, cols: int, blocks: list["FpMatrix"]) -> "FpMatrix":
        for b in blocks:
            if b.cols != cols:
                raise ValueError("vstack blocks must share the column count")
            if b.p != p:
                raise PrimeMismatch(f"prime {b.p} != {p}")
        if not blocks:
            return cls.zeros(p, 0, cols)
        return cls._of(p, np.concatenate([b.data for b in blocks], axis=0))

    @classmethod
    def block_diag(cls, p: int, blocks: list["FpMatrix"]) -> "FpMatrix":
        rows = sum(b.rows for b in blocks)
        cols = sum(b.cols for b in blocks)
        out = np.zeros((rows, cols), dtype=np.int64)
        r = c = 0
        for b in blocks:
            if b.p != p:
                raise PrimeMismatch(f"prime {b.p} != {p}")
            out[r : r + b.rows, c : c + b.cols] = b.data
            r += b.rows
            c += b.cols
        return cls._of(validate_prime(p), out)

    # -- shape --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def T(self) -> "FpMatrix":
        return FpMatrix._of(self.p, self.data.T)

    def is_zero(self) -> bool:
        return not self.data.any()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other: "FpMatrix") -> None:
        if not isinstance(other, FpMatrix):
            raise TypeError(f"expected FpMatrix, got {type(other).__name__}")
        if other.p != self.p:
            raise PrimeMismatch(f"prime {other.p} != {self.p}")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._coerce(other)
        return FpMatrix._of(self.p, (self.data + other.data) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._coerce(other)
        return FpMatrix._of(self.p, (self.data - other.data) % self.p)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix(self.p, -self.data)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._coerce(other)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        return FpMatrix._of(self.p, (self.data @ other.data) % self.p)

    def kron(self, other: "FpMatrix") -> "FpMatrix":
        """Kronecker product; row (i, j) of the result is i*other.rows + j."""
        self._coerce(other)
        return FpMatrix._of(self.p, np.kron(self.data, other.data) % self.p)

    # -- echelon ------------------------------------------------------

    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        m, piv = _rref(self.data, self.p)
        return FpMatrix._of(self.p, m), piv

    def rank(self) -> int:
        return len(_rref(self.data, self.p)[1])

    # -- equality -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.data.tolist()!r})"


class Subspace:
    """A subspace of F_p^n, stored as a reduced-row-echelon basis.

    The representation is canonical: two subspaces are equal iff their
    basis matrices are equal entrywise.
    """

    __slots__ = ("p", "ambient", "basis", "pivots")

    def __init__(self, p: int, ambient: int, basis: FpMatrix, pivots: tuple[int, ...]):
        self.p = p
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_spanning(cls, p: int, ambient: int, rows) -> "Subspace":
        """Subspace spanned by the rows of ``rows`` (array-like or FpMatrix)."""
        if ambient == 0:
            return cls.zero(p, 0)
        if isinstance(rows, FpMatrix):
            if rows.p != p:
                raise PrimeMismatch(f"prime {rows.p} != {p}")
            arr = rows.data
        else:
            arr = np.asarray(rows, dtype=np.int64)
            if arr.size == 0:
                arr = arr.reshape(0, ambient)
        if arr.shape[1] != ambient:
            raise AmbientMismatch(f"rows of width {arr.shape[1]} in ambient {ambient}")
        red, piv = _rref(arr, p)
        return cls(p, ambient, FpMatrix._of(validate_prime(p), red[: len(piv)]), piv)

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, FpMatrix.zeros(p, 0, ambient), ())

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, FpMatrix.identity(p, ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.p == other.p and self.ambient == other.ambient and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"

    # -- coordinates ----------------------------------------------------

    def coords(self, vec) -> np.ndarray:
        """Coordinates of a member vector in the echelon basis (raises if outside)."""
        v = np.mod(np.asarray(vec, dtype=np.int64), self.p)
        c = v[list(self.pivots)]
        if ((c @ self.basis.data - v) % self.p).any():
            raise ValueError("vector is not in the subspace")
        return c

    # -- lattice operations --------------------------------------------

    @classmethod
    def sum_of(cls, parts: list["Subspace"]) -> "Subspace":
        if not parts:
            raise ValueError("sum_of needs at least one subspace")
        p, n = parts[0].p, parts[0].ambient
        for s in parts[1:]:
            if s.ambient != n:
                raise AmbientMismatch(f"{s.ambient} != {n}")
            if s.p != p:
                raise PrimeMismatch(f"{s.p} != {p}")
        if n == 0:
            return cls.zero(p, 0)
        stacked = np.concatenate([s.basis.data for s in parts], axis=0)
        return cls.from_spanning(p, n, stacked.reshape(-1, n))

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise AmbientMismatch(f"{other.ambient} != {self.ambient}")
        if other.p != self.p:
            raise PrimeMismatch(f"{other.p} != {self.p}")
        a, b = self.basis.data, other.basis.data
        # lam @ a = mu @ b  <=>  (lam, mu) in the null space of [a^T | -b^T]
        paired = np.concatenate([a.T, (-b.T) % self.p], axis=1)
        ker = null_space(FpMatrix(self.p, paired))
        lam = ker.basis.data[:, : a.shape[0]]
        return Subspace.from_spanning(self.p, self.ambient, (lam @ a) % self.p)

    # -- quotients ------------------------------------------------------

    def quotient_maps(self) -> tuple[FpMatrix, FpMatrix]:
        """Projection/section pair for F_p^ambient -> F_p^ambient / self.

        Returns (proj, sec) with proj of shape (q, ambient), sec of shape
        (ambient, q), q = ambient - dim, proj @ sec = identity, and
        ker(proj) = self.  Coordinates are the non-pivot positions of the
        reduced representative.
        """
        n, d, p = self.ambient, self.dim, self.p
        pivset = set(self.pivots)
        nonpiv = [c for c in range(n) if c not in pivset]
        sel = np.zeros((n, d), dtype=np.int64)
        for j, c in enumerate(self.pivots):
            sel[c, j] = 1
        reducer = (np.eye(n, dtype=np.int64) - sel @ self.basis.data) % p
        proj = FpMatrix._of(p, reducer[:, nonpiv].T)
        sec = np.zeros((n, n - d), dtype=np.int64)
        for j, c in enumerate(nonpiv):
            sec[c, j] = 1
        return proj, FpMatrix._of(p, sec)


def rows_array(rows: list, ambient: int) -> np.ndarray:
    """Stack row vectors into an (n, ambient) int64 array (empty-safe)."""
    if not rows:
        return np.zeros((0, ambient), dtype=np.int64)
    return np.array(rows, dtype=np.int64).reshape(len(rows), ambient)


def null_space(m: FpMatrix) -> Subspace:
    """Kernel {x : m x = 0} as a canonical subspace of F_p^cols, from one
    elimination of the column-reversed matrix (see the module docstring)."""
    p, cols = m.p, m.cols
    if not m.data.any():
        return Subspace.full(p, cols)
    red, pivots = _rref(m.data[:, ::-1], p)
    pivset = set(pivots)
    top = red[: len(pivots)].tolist()
    basis, lead = [], []
    for f in range(cols - 1, -1, -1):
        if f not in pivset:
            vec = [0] * cols
            vec[cols - 1 - f] = 1
            for row, c in zip(top, pivots):
                vec[cols - 1 - c] = -row[f] % p
            basis.append(vec)
            lead.append(cols - 1 - f)
    return Subspace(p, cols, FpMatrix._of(p, rows_array(basis, cols)), tuple(lead))


def column_space(m: FpMatrix) -> Subspace:
    """Column space as a canonical subspace of F_p^rows."""
    return Subspace.from_spanning(m.p, m.rows, m.data.T)


def solve(m: FpMatrix, b) -> np.ndarray | None:
    """Some x with m @ x = b, or None when the system is inconsistent."""
    vec = np.mod(np.asarray(b, dtype=np.int64), m.p)
    if vec.shape != (m.rows,):
        raise ValueError(f"rhs of shape {vec.shape} for {m.rows} rows")
    out = solve_many(m, vec.reshape(-1, 1))
    return None if out is None else out[:, 0]


def solve_many(m: FpMatrix, rhs) -> np.ndarray | None:
    """Solve m @ X = rhs columnwise; None if any column is inconsistent."""
    b = np.mod(np.asarray(rhs, dtype=np.int64), m.p)
    if b.ndim != 2 or b.shape[0] != m.rows:
        raise ValueError(f"rhs of shape {b.shape} for {m.rows} rows")
    aug = np.concatenate([m.data, b], axis=1)
    red, pivots = _rref(aug, m.p)
    x = np.zeros((m.cols, b.shape[1]), dtype=np.int64)
    for j, pc in enumerate(pivots):
        if pc >= m.cols:
            return None
        x[pc] = red[j, m.cols :]
    return x
