"""Exact mod-p linear algebra: hand-checked cases plus brute-force oracles."""

import itertools
import random

import numpy as np
import pytest

from ftors import linalg as la


def arr(m):
    """A matrix as a numpy array of its shape, for the numpy oracles."""
    return np.array(m, dtype=np.int64).reshape(m.shape)


def mat(a, p):
    """A numpy array as a matrix over F_p."""
    return la.matrix(a, p, np.shape(a)[1])


def same(a, b):
    return np.array_equal(arr(a), arr(b))


def aslist(m):
    return [list(row) for row in m]


def is_matrix(m, shape, p):
    """m is a Matrix of the shape, with Python int entries in [0, p)."""
    return (isinstance(m, la.Matrix) and m.shape == shape
            and all(type(x) is int and 0 <= x < p for row in m for x in row))


def test_check_prime_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 100, 32768, 65535, 1 << 31):
        with pytest.raises(ValueError):
            la.check_prime(bad)
    for good in (2, 3, 5, 7, 11, 32749, 65537, (1 << 31) - 1):
        la.check_prime(good)


def test_matrix_reduces_mod_p():
    a = la.matrix([[7, -1], [5, 12]], 5)
    assert aslist(a) == [[2, 4], [0, 2]]
    assert is_matrix(a, (2, 2), 5)
    assert is_matrix(la.matrix(np.array([[7, -1], [5, 12]]), 5), (2, 2), 5)
    assert la.matrix([], 5, 3).shape == (0, 3)
    assert la.matrix([[], []], 5).shape == (2, 0)
    with pytest.raises(ValueError):
        la.matrix([[1, 2], [3]], 5)


def test_rref_hand_case_mod5():
    a = la.matrix([[2, 4, 1], [1, 2, 0]], 5)
    r, rk, pivots = la.rref(a, 5)
    # row one scales by 3 = inv(2); row two then clears its tail
    assert rk == 2
    assert pivots == [0, 2]
    assert aslist(r) == [[1, 2, 0], [0, 0, 1]]
    # dependent rows mod 5: (2,4,1) is twice (1,2,3)
    r2, rk2, piv2 = la.rref(la.matrix([[2, 4, 1], [1, 2, 3]], 5), 5)
    assert rk2 == 1 and piv2 == [0]
    assert aslist(r2) == [[1, 2, 3], [0, 0, 0]]


def _rref_reference(a, p):
    """The numpy Gauss-Jordan loop rref used to run, one pivot at a time."""
    r = np.asarray(a, dtype=np.int64) % p
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        r[row] = (r[row] * la.inv_scalar(r[row, col], p)) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other] = (r[other] - np.outer(r[other, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, len(pivots), pivots


RREF_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 6), (6, 1), (4, 4), (9, 3), (3, 9),
               (12, 20), (72, 72)]


@pytest.mark.parametrize("p", [2, 3, 5, 32749])
def test_rref_matches_numpy_reference(p):
    """Every shape and fill, with entries negative or at least p before they
    are reduced into a Matrix, gives the reference's echelon matrix, rank and
    pivots, as a Matrix."""
    rng = np.random.default_rng(p)
    for rows, cols in RREF_SHAPES:
        for fill in (0.0, 0.15, 0.5, 1.0):
            a = rng.integers(-2 * p, 3 * p, size=(rows, cols))
            a = a * (rng.random((rows, cols)) < fill)
            got, want = la.rref(mat(a, p), p), _rref_reference(a, p)
            assert is_matrix(got[0], (rows, cols), p)
            assert np.array_equal(arr(got[0]), want[0])
            assert got[1:] == want[1:]
    # rank-deficient: stacked copies and combinations of a few rows
    for rows, cols in ((8, 5), (5, 8), (72, 72)):
        a = rng.integers(0, 4, size=(rows, 3)) @ rng.integers(-p, 2 * p, size=(3, cols))
        got, want = la.rref(mat(a, p), p), _rref_reference(a, p)
        assert np.array_equal(arr(got[0]), want[0]) and got[1:] == want[1:]


HELPER_SHAPES = [0, 1, 2, 3, 5]


@pytest.mark.parametrize("p", [2, 3, 5, 65537])
def test_matmul_transpose_and_stacking_match_numpy(p):
    """Products, transposes and stacks of random matrices of every shape
    made of sides 0, 1, 2, 3 and 5 equal numpy's, shape included, so 0 x n
    and n x 0 keep their shapes."""
    rng = random.Random(p)

    def draw(rows, cols):
        m = la.random_matrix(rows, cols, p, rng)
        assert is_matrix(m, (rows, cols), p)
        return m

    for m, k, n in itertools.product(HELPER_SHAPES, repeat=3):
        a, b = draw(m, k), draw(k, n)
        got = la.matmul(a, b, p)
        assert is_matrix(got, (m, n), p)
        assert np.array_equal(arr(got), (arr(a).astype(object) @ arr(b).astype(object)) % p)
        assert is_matrix(la.transpose(a), (k, m), p) and np.array_equal(arr(la.transpose(a)), arr(a).T)
        c = draw(m, n)
        got = la.hstack([a, c])
        assert is_matrix(got, (m, k + n), p) and np.array_equal(arr(got), np.hstack([arr(a), arr(c)]))
        d = draw(n, k)
        got = la.vstack([a, d, a])
        assert is_matrix(got, (2 * m + n, k), p)
        assert np.array_equal(arr(got), np.vstack([arr(a), arr(d), arr(a)]))
        e = draw(n, n)
        got = la.vstack([la.hstack([a, c]), la.hstack([d, e])])
        assert is_matrix(got, (m + n, k + n), p)
        assert np.array_equal(arr(got), np.block([[arr(a), arr(c)], [arr(d), arr(e)]]))
    for n in HELPER_SHAPES:
        assert is_matrix(la.zeros(n, 3), (n, 3), p) and is_matrix(la.zeros(3, n), (3, n), p)
        assert not np.any(arr(la.zeros(n, 3)))
        assert is_matrix(la.identity(n), (n, n), p)
        assert np.array_equal(arr(la.identity(n)), np.eye(n, dtype=np.int64))


def test_rref_is_idempotent():
    rng = random.Random(7)
    for p in (2, 5):
        for _ in range(25):
            a = la.random_matrix(4, 5, p, rng)
            r, rk, piv = la.rref(a, p)
            r2, rk2, piv2 = la.rref(r, p)
            assert same(r, r2)
            assert (rk, piv) == (rk2, piv2)


def test_rank_matches_row_count_of_rref():
    a = la.matrix([[1, 2], [2, 4], [0, 1]], 5)
    assert la.rank(a, 5) == 2
    assert la.rank(la.zeros(2, 2), 5) == 0
    assert la.rank(la.identity(3), 2) == 3


def test_kernel_basis_annihilates_and_has_right_size():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(30):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 6)
            a = la.random_matrix(rows, cols, p, rng)
            k = la.kernel_basis(a, p)
            assert k.shape[0] == cols
            # rank-nullity
            assert k.shape[1] == cols - la.rank(a, p)
            if k.shape[1]:
                assert np.all(arr(la.matmul(a, k, p)) == 0)
                assert la.rank(k, p) == k.shape[1]


def test_solve_exhaustive_mod2():
    """Compare against trying every candidate vector over F_2."""
    cells = list(itertools.product((0, 1), repeat=6))
    for flat in cells:
        a = np.array(flat, dtype=np.int64).reshape(2, 3)
        for b_flat in itertools.product((0, 1), repeat=2):
            b = np.array(b_flat, dtype=np.int64).reshape(2, 1)
            solvable = any(
                np.array_equal(a @ np.array(x).reshape(3, 1) % 2, b)
                for x in itertools.product((0, 1), repeat=3))
            got = la.solve(mat(a, 2), mat(b, 2), 2)
            if solvable:
                assert got is not None
                assert np.array_equal(arr(la.matmul(mat(a, 2), got, 2)), b)
            else:
                assert got is None


def test_solve_random_consistent_systems_mod5():
    rng = random.Random(23)
    for _ in range(40):
        a = la.random_matrix(4, 3, 5, rng)
        x = la.random_matrix(3, 2, 5, rng)
        b = la.matmul(a, x, 5)
        got = la.solve(a, b, 5)
        assert got is not None
        assert same(la.matmul(a, got, 5), b)


def _solve_cases(rng):
    """Consistent systems b = a x, and inconsistent ones whose last row of a
    is zero while b's is not."""
    for p in (2, 5):
        for _ in range(30):
            rows, cols, rhs = (rng.randrange(5) for _ in range(3))
            a = la.random_matrix(rows, cols, p, rng)
            b = la.matmul(a, la.random_matrix(cols, rhs, p, rng), p)
            yield a, b, p, True
            a = la.vstack([a, la.zeros(1, cols)])
            b = la.random_matrix(rows + 1, rhs + 1, p, rng)
            b = la.from_rows(b[:-1] + ((1,) + b[-1][1:],), rhs + 1)
            yield a, b, p, False


def test_solve_takes_one_elimination(monkeypatch):
    """solve reads its answer off one elimination of [a | b], so it makes
    one rref call, and it returns None exactly on the inconsistent systems."""
    calls = []
    rref = la.rref

    def counting(a, p):
        calls.append(a.shape)
        return rref(a, p)

    outcomes = set()
    for a, b, p, consistent in _solve_cases(random.Random(29)):
        monkeypatch.setattr(la, "rref", counting)
        calls.clear()
        x = la.solve(a, b, p)
        monkeypatch.undo()
        assert len(calls) == 1
        assert (x is not None) == consistent
        if consistent:
            assert isinstance(x, la.Matrix) and x.shape == (a.shape[1], b.shape[1])
            assert same(la.matmul(a, x, p), b)
        outcomes.add(consistent)
    assert outcomes == {True, False}


def test_column_space_basis_spans_columns():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    c = la.column_space_basis(la.matrix(a, 5), 5)
    assert c.shape == (3, 2)
    # every original column solves against the basis
    for j in range(3):
        col = np.array(a, dtype=np.int64)[:, j:j + 1] % 5
        assert la.solve(c, mat(col, 5), 5) is not None


def test_complement_indices_complete_a_basis():
    basis = np.array([[1, 0], [0, 1], [0, 0]], dtype=np.int64)
    extra = la.complement_indices(mat(basis, 5), 5)
    assert extra == [2]
    full = np.hstack([basis, np.eye(3, dtype=np.int64)[:, extra]])
    assert la.rank(mat(full, 5), 5) == 3


def test_is_invertible_matches_rank():
    rng = random.Random(5)
    for _ in range(30):
        a = la.random_matrix(3, 3, 5, rng)
        assert la.is_invertible(a, 5) == (la.rank(a, 5) == 3)
    assert not la.is_invertible(la.zeros(2, 2), 5)
    assert la.is_invertible(la.identity(4), 2)


def test_inv_scalar():
    for p in (2, 3, 5, 7):
        for x in range(1, p):
            assert la.inv_scalar(x, p) * x % p == 1


def test_random_matrix_draws_row_major_from_randrange():
    rng, replay = random.Random(3), random.Random(3)
    a = la.random_matrix(2, 3, 7, rng)
    assert is_matrix(a, (2, 3), 7)
    assert aslist(a) == [[replay.randrange(7) for _ in range(3)] for _ in range(2)]
    assert rng.getstate() == replay.getstate()
    assert la.random_matrix(0, 4, 7, rng).shape == (0, 4)
    assert la.random_matrix(4, 0, 7, rng).shape == (4, 0)
    assert rng.getstate() == replay.getstate()
