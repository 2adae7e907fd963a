"""Exact linear algebra substrate: frozen examples plus randomized laws."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smonkit import exactla
from smonkit.exactla import (
    SMALL_RREF_CELLS,
    AmbientMismatch,
    FpMatrix,
    PrimeMismatch,
    Subspace,
    _rref,
    _rref_small,
    column_space,
    null_space,
    solve,
)


def fp(p, rows):
    return FpMatrix(p, np.array(rows, dtype=np.int64).reshape(len(rows), -1) if rows else np.zeros((0, 0)))


def _contains(space, vec):
    """Membership of one vector: adding it leaves the canonical subspace unchanged."""
    return Subspace.sum_of([space, Subspace.from_spanning(space.p, space.ambient, [vec])]) == space


# -- rref ------------------------------------------------------------------


def test_rref_duplicate_rows_f2():
    m = FpMatrix(2, [[1, 1], [1, 1]])
    red, piv = m.rref()
    assert red == FpMatrix(2, [[1, 1], [0, 0]])
    assert len(piv) == 1


def test_rref_identity_fixed_point():
    m = FpMatrix(5, np.eye(4, dtype=np.int64))
    red, piv = m.rref()
    assert red == m and len(piv) == 4


def test_rank_f3_by_determinant_oracle():
    # oracle: 2x2 determinant mod 3 is 1*1 - 2*2 = -3 = 0, and the matrix is
    # nonzero, so the rank is exactly 1
    a, b, c, d = 1, 2, 2, 1
    det = (a * d - b * c) % 3
    assert det == 0
    m = FpMatrix(3, [[a, b], [c, d]])
    assert m.rank() == 1


def test_rref_idempotent():
    m = FpMatrix(3, [[1, 2, 0], [2, 1, 1]])
    red, _ = m.rref()
    again, _ = red.rref()
    assert red == again


def _is_reduced_echelon(red, pivots, p):
    rows, cols = red.shape
    assert list(pivots) == sorted(set(pivots)) and all(0 <= c < cols for c in pivots)
    assert ((red >= 0) & (red < p)).all()
    assert not red[len(pivots) :].any()
    for j, c in enumerate(pivots):
        assert not red[j, :c].any() and red[j, c] == 1
        assert red[:, c].sum() == 1


_ELIMINATION_SHAPES = [
    (0, 0), (0, 5), (5, 0), (1, 1), (1, 7), (7, 1), (3, 4), (6, 6),
    (15, 17), (17, 15), (16, 16), (1, 256), (257, 1), (1, 257), (12, 22),
]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_small_and_numpy_elimination_agree(monkeypatch, p):
    # 255, 256 and 257 cells sit on both sides of the switch
    assert {15 * 17, 16 * 16, 257} == {SMALL_RREF_CELLS - 1, SMALL_RREF_CELLS, SMALL_RREF_CELLS + 1}
    rng = np.random.default_rng(p)
    cases = []
    for rows, cols in _ELIMINATION_SHAPES:
        full = rng.integers(-3 * p, 3 * p, size=(rows, cols))  # unreduced and negative
        sparse = full * (rng.random((rows, cols)) < 0.2)
        dependent = np.concatenate([sparse[: rows // 2], sparse[: rows - rows // 2] * 2], axis=0)
        cases += [full, sparse, dependent.reshape(rows, cols)]
    monkeypatch.setattr(exactla, "SMALL_RREF_CELLS", 0)  # force the numpy loop
    for a in cases:
        big, big_piv = _rref(a, p)
        # _rref returns before either path on a matrix with no rows or columns
        small, small_piv = _rref_small(a, p) if a.size else (np.zeros(a.shape, dtype=np.int64), ())
        assert small.dtype == np.int64 and small.shape == a.shape
        assert small_piv == big_piv and np.array_equal(small, big)
        _is_reduced_echelon(small, small_piv, p)


def _two_elimination_kernel(m):
    """The kernel as before the one-elimination rewrite: rref, then span the free vectors."""
    red, pivots = _rref(m.data, m.p)
    free = [c for c in range(m.cols) if c not in pivots]
    rows = np.zeros((len(free), m.cols), dtype=np.int64)
    for i, f in enumerate(free):
        rows[i, f] = 1
        for j, pc in enumerate(pivots):
            rows[i, pc] = (-red[j, f]) % m.p
    return Subspace.from_spanning(m.p, m.cols, rows)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_null_space_matches_two_elimination_reference(p):
    rng = np.random.default_rng(10 + p)
    for rows, cols in _ELIMINATION_SHAPES + [(30, 40), (40, 30)]:
        for density in (1.0, 0.3, 0.05):
            a = rng.integers(-p, 2 * p, size=(rows, cols)) * (rng.random((rows, cols)) < density)
            m = FpMatrix(p, a)
            k = null_space(m)
            assert k == _two_elimination_kernel(m)
            assert k.basis.shape == (k.dim, cols) and k.ambient == cols
            _is_reduced_echelon(k.basis.data, k.pivots, p)
            assert not ((m.data @ k.basis.data.T) % p).any()
            assert k.dim + m.rank() == cols


# -- kernels and images -------------------------------------------------------


def _enumerate_kernel(m: FpMatrix):
    """Brute-force kernel by enumerating all vectors (oracle)."""
    vecs = []
    for coords in itertools.product(range(m.p), repeat=m.cols):
        v = np.array(coords, dtype=np.int64)
        if not ((m.data @ v) % m.p).any():
            vecs.append(v)
    return vecs


def test_kernel_zero_matrix_full_space():
    k = null_space(FpMatrix.zeros(2, 2, 2))
    assert k.dim == 2 and k == Subspace.full(2, 2)


def test_kernel_identity_zero():
    assert null_space(FpMatrix.identity(2, 3)).dim == 0


def test_kernel_single_row_f2_by_enumeration():
    m = FpMatrix(2, [[1, 1]])
    oracle = _enumerate_kernel(m)
    assert len(oracle) == 2  # zero and (1, 1)
    k = null_space(m)
    assert k.dim == 1
    assert _contains(k, [1, 1])


def test_image_identity_and_zero():
    assert column_space(FpMatrix.identity(3, 2)) == Subspace.full(3, 2)
    assert column_space(FpMatrix.zeros(3, 2, 2)).dim == 0


def test_image_single_column():
    im = column_space(FpMatrix(2, [[1], [1]]))
    assert im.dim == 1 and _contains(im, [1, 1])


# -- subspace lattice ---------------------------------------------------------


def test_sum_and_intersection_of_axes():
    u = Subspace.from_spanning(2, 2, [[1, 0]])
    w = Subspace.from_spanning(2, 2, [[0, 1]])
    assert Subspace.sum_of([u, w]) == Subspace.full(2, 2)
    assert u.intersect(w).dim == 0


def test_sum_idempotent():
    u = Subspace.from_spanning(3, 3, [[1, 2, 0], [0, 0, 1]])
    assert Subspace.sum_of([u, u]) == u


def test_intersection_by_enumeration_oracle():
    u = Subspace.from_spanning(2, 2, [[1, 1]])
    w = Subspace.from_spanning(2, 2, [[1, 0]])
    both = [
        v
        for v in itertools.product(range(2), repeat=2)
        if _contains(u, list(v)) and _contains(w, list(v))
    ]
    assert both == [(0, 0)]
    assert u.intersect(w).dim == 0


def test_ambient_mismatch():
    u = Subspace.from_spanning(2, 2, [[1, 0]])
    w = Subspace.from_spanning(2, 3, [[1, 0, 0]])
    with pytest.raises(AmbientMismatch):
        Subspace.sum_of([u, w])
    with pytest.raises(AmbientMismatch):
        u.intersect(w)


# -- solving --------------------------------------------------------------------


def test_solve_identity():
    x = solve(FpMatrix.identity(5, 3), [1, 2, 3])
    assert list(x) == [1, 2, 3]


def test_solve_inconsistent():
    assert solve(FpMatrix.zeros(2, 2, 2), [1, 0]) is None


def test_solve_underdetermined_any_valid():
    m = FpMatrix(2, [[1, 1]])
    x = solve(m, [1])
    assert ((m.data @ x) % 2 == [1]).all()


# -- kron --------------------------------------------------------------------------


def test_kron_identity_blocks():
    m = FpMatrix(2, [[1, 1], [0, 1]])
    out = FpMatrix.identity(2, 2).kron(m)
    assert out == FpMatrix.block_diag(2, [m, m])


def test_kron_with_scalar_identity():
    m = FpMatrix(3, [[1, 2], [0, 1]])
    assert m.kron(FpMatrix.identity(3, 1)) == m


def test_kron_rank_multiplicative_fixed():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = FpMatrix(2, rng.integers(0, 2, size=(3, 3)))
        b = FpMatrix(2, rng.integers(0, 2, size=(3, 3)))
        assert a.kron(b).rank() == a.rank() * b.rank()


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        FpMatrix.identity(2, 2) @ FpMatrix.identity(3, 2)
    with pytest.raises(PrimeMismatch):
        FpMatrix.identity(2, 2).kron(FpMatrix.identity(5, 1))


def test_empty_matrices_compose():
    a = FpMatrix.zeros(2, 0, 3)
    b = FpMatrix.zeros(2, 3, 0)
    assert (a @ b).shape == (0, 0)
    assert (b @ a).shape == (3, 3)
    assert null_space(a).dim == 3


def test_bad_prime_rejected():
    with pytest.raises(ValueError):
        FpMatrix(4, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(1, [[0]])


# -- randomized laws (hypothesis) ---------------------------------------------------


primes = st.sampled_from([2, 3, 5])
dims = st.integers(min_value=0, max_value=4)


@st.composite
def matrices(draw, p=None):
    prime = p if p is not None else draw(primes)
    r, c = draw(dims), draw(dims)
    data = draw(
        st.lists(
            st.lists(st.integers(0, prime - 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return FpMatrix(prime, np.array(data, dtype=np.int64).reshape(r, c))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_transpose_invariant(m):
    assert m.rank() == m.T.rank()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert null_space(m).dim + m.rank() == m.cols


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grassmann_identity(data):
    p = data.draw(primes)
    n = data.draw(st.integers(1, 4))
    rows = st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=0, max_size=4)
    u = Subspace.from_spanning(p, n, np.array(data.draw(rows), dtype=np.int64).reshape(-1, n))
    w = Subspace.from_spanning(p, n, np.array(data.draw(rows), dtype=np.int64).reshape(-1, n))
    total = Subspace.sum_of([u, w])
    meet = u.intersect(w)
    assert u.dim + w.dim == total.dim + meet.dim


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_is_shuffle_invariant(data):
    p = data.draw(primes)
    n = data.draw(st.integers(1, 4))
    rows = data.draw(
        st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=1, max_size=4)
    )
    perm = data.draw(st.permutations(range(len(rows))))
    scale = data.draw(st.integers(1, p - 1))
    shuffled = [[(scale * e) % p for e in rows[i]] for i in perm]
    a = Subspace.from_spanning(p, n, np.array(rows, dtype=np.int64))
    b = Subspace.from_spanning(p, n, np.array(shuffled, dtype=np.int64))
    assert a == b


@settings(max_examples=40, deadline=None)
@given(matrices(p=2), matrices(p=2))
def test_kron_rank_multiplicative(a, b):
    assert a.kron(b).rank() == a.rank() * b.rank()


@settings(max_examples=40, deadline=None)
@given(matrices(p=3), matrices(p=3), matrices(p=3))
def test_kron_associative(a, b, c):
    assert a.kron(b).kron(c) == a.kron(b.kron(c))


def test_large_prime_rejected():
    from smonkit.exactla import MAX_PRIME

    with pytest.raises(ValueError):
        FpMatrix(2**31 - 1, [[1]])  # prime, but past the overflow-safe bound
    big_ok = 1048573  # largest prime under the bound
    assert big_ok < MAX_PRIME
    m = FpMatrix(big_ok, [[big_ok - 1, 1], [1, 1]])
    assert (m @ m).data[0, 0] == ((big_ok - 1) ** 2 + 1) % big_ok
