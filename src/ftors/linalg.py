"""Exact linear algebra over a prime field F_p.

Matrices at the interface are numpy int64 arrays with entries reduced into
[0, p).  The modulus is passed explicitly everywhere.  Row reduction runs
on Python int lists in _eliminate, the one Gauss-Jordan elimination of the
package: every routine here is built on it, and modules.hom_basis feeds it
its intertwiner system directly, row by row.  The matrices met in practice
are so small (most have no side longer than 4) that numpy's per-call
overhead would outweigh the arithmetic.  matmul stays in
numpy, so p must still be a prime below 2**15: products of entries, summed
over any inner dimension we meet in practice, then stay far inside the int64
range.  No floats are ever involved.
"""

from __future__ import annotations

import random
from functools import cache

import numpy as np

MAX_PRIME = 1 << 15


@cache
def check_prime(p: int) -> None:
    """Reject moduli that are out of range or composite.

    Memoized: every constructed representation checks its modulus."""
    if not 1 < p < MAX_PRIME:
        raise ValueError(f"modulus {p} out of range (need a prime below 2^15)")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime")
        d += 1


def fparray(a, p: int) -> np.ndarray:
    return np.asarray(a, dtype=np.int64) % p


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    return (a @ b) % p


def inv_scalar(x: int, p: int) -> int:
    return pow(int(x) % p, p - 2, p)


def _eliminate(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan elimination in place on rows of ints already in [0, p).

    Returns the pivot columns; rows[i] then belongs to pivots[i] and the rows
    past the rank are zero.  Each row operation touches only the nonzero
    entries of the pivot row.
    """
    nrows = len(rows)
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == nrows:
            break
        for i in range(row, nrows):
            if rows[i][col]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[row]
        rows[row] = prow
        c = prow[col]
        if c != 1:
            c = inv_scalar(c, p)
            prow[col:] = [x * c % p for x in prow[col:]]
        support = [(k, prow[k]) for k in range(col, ncols) if prow[k]]
        for j, other in enumerate(rows):
            c = other[col]
            if c and j != row:
                for k, x in support:
                    other[k] = (other[k] - c * x) % p
        pivots.append(col)
    return pivots


def rref(a, p: int):
    """Reduced row echelon form.

    Returns (r, rank, pivots) where r is the echelon matrix, an int64 array of
    the input's shape, rank the number of pivots and pivots the list of pivot
    column indices.  The result is a canonical representative of the row
    space, so every routine built on it (kernels, column bases, solutions) is
    deterministic.  The input is reduced mod p once; _eliminate then runs on
    its rows as lists.
    """
    r = fparray(a, p)
    nrows, ncols = r.shape
    if not nrows or not ncols:
        return r, 0, []
    rows = r.tolist()
    pivots = _eliminate(rows, ncols, p)
    return np.array(rows, dtype=np.int64), len(pivots), pivots


def rank(a, p: int) -> int:
    return rref(a, p)[1]


def grow_rank(echelon: list[list[int]], vectors: list[list[int]], p: int) -> int:
    """Reduce new rows into a reduced echelon basis, in place; return its rank.

    echelon holds the reduced echelon rows kept so far and vectors the new
    rows, all lists of ints in [0, p) of one length; afterwards echelon is
    the reduced echelon basis of the span of both.
    """
    echelon.extend(vectors)
    del echelon[len(_eliminate(echelon, len(echelon[0]), p)):]
    return len(echelon)


def _kernel(rows, pivots, ncols: int, p: int) -> np.ndarray:
    """Null space basis of the first ncols columns of a reduced echelon form.

    rows are the echelon rows as lists and pivots the pivot columns below
    ncols, so rows[i] belongs to pivots[i]; column j of the result is the
    solution with free unknown free[j] set to 1 and the other free ones 0.
    """
    free = [c for c in range(ncols) if c not in pivots]
    k = [None] * ncols
    for j, f in enumerate(free):
        k[f] = [0] * len(free)
        k[f][j] = 1
    for row, c in zip(rows, pivots):
        k[c] = [-row[f] % p for f in free]
    return np.array(k, dtype=np.int64).reshape(ncols, len(free))


def kernel_basis(a, p: int) -> np.ndarray:
    """Columns form the canonical (echelon-derived) basis of the null space."""
    r, _, pivots = rref(a, p)
    return _kernel(r.tolist(), pivots, r.shape[1], p)


def column_space_basis(a, p: int) -> np.ndarray:
    """Canonical basis of the column space, one basis vector per column."""
    r, rk, _ = rref(np.asarray(a, dtype=np.int64).T, p)
    return r[:rk].T.copy()


def solve(a, b, p: int):
    """Solve a @ x = b exactly.

    b may be a vector or a matrix of stacked right-hand sides.  Returns
    (particular, kernel) where particular is None when the system is
    inconsistent; kernel columns span the homogeneous solution space.  One
    elimination of [a | b] gives both: its left block is the reduced echelon
    form of a.
    """
    a = np.asarray(a, dtype=np.int64)
    b2 = np.asarray(b, dtype=np.int64)
    vec = b2.ndim == 1
    if vec:
        b2 = b2.reshape(-1, 1)
    if a.shape[0] != b2.shape[0]:
        raise ValueError("incompatible shapes in solve")
    ncols = a.shape[1]
    r, rk, pivots = rref(np.concatenate((a, b2), axis=1), p)
    rows = r.tolist()
    head = [c for c in pivots if c < ncols]
    kernel = _kernel(rows, head, ncols, p)
    if len(head) < rk:
        return None, kernel
    x = [[0] * b2.shape[1] for _ in range(ncols)]
    for row, c in zip(rows, pivots):
        x[c] = row[ncols:]
    x = np.array(x, dtype=np.int64).reshape(ncols, b2.shape[1])
    if vec:
        x = x[:, 0]
    return x, kernel


def complement_indices(basis, p: int) -> list[int]:
    """Indices of standard basis vectors completing independent columns."""
    d, k = np.shape(basis)
    aug = np.hstack([basis, identity(d)])
    _, _, pivots = rref(aug, p)
    head = [c for c in pivots if c < k]
    if len(head) != k:
        raise ValueError("basis columns are not independent")
    return [c - k for c in pivots if c >= k]


def is_invertible(a, p: int) -> bool:
    rows, cols = np.shape(a)
    return rows == cols and rank(a, p) == rows


def random_matrix(rows: int, cols: int, p: int, rng: random.Random) -> np.ndarray:
    """Uniform random matrix drawn row by row; the generator is passed in, never global."""
    check_prime(p)
    return np.array([rng.randrange(p) for _ in range(rows * cols)], np.int64).reshape(rows, cols)

