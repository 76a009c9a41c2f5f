"""Exact linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced into [0, p).  The modulus
is passed explicitly everywhere; p must be a prime below 2**15 so that products
of entries, summed over any inner dimension we meet in practice, stay far
inside the int64 range.  No floats are ever involved.
"""

from __future__ import annotations

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


def rref(a, p: int):
    """Reduced row echelon form.

    Returns (r, rank, pivots) where r is the echelon matrix, rank the number
    of pivots and pivots the list of pivot column indices.  The result is a
    canonical representative of the row space, so every routine built on it
    (kernels, column bases, solutions) is deterministic.
    """
    r = fparray(a, p).copy()
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
        r[row] = (r[row] * inv_scalar(r[row, col], p)) % p
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other] = (r[other] - np.outer(r[other, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, len(pivots), pivots


def rank(a, p: int) -> int:
    return rref(a, p)[1]


def kernel_basis(a, p: int) -> np.ndarray:
    """Columns form the canonical (echelon-derived) basis of the null space."""
    a = fparray(a, p)
    ncols = a.shape[1]
    r, _, pivots = rref(a, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    k = zeros(ncols, len(free))
    for j, f in enumerate(free):
        k[f, j] = 1
        for i, pc in enumerate(pivots):
            k[pc, j] = (-int(r[i, f])) % p
    return k


def column_space_basis(a, p: int) -> np.ndarray:
    """Canonical basis of the column space, one basis vector per column."""
    r, rk, _ = rref(fparray(a, p).T, p)
    return r[:rk].T.copy()


def solve(a, b, p: int):
    """Solve a @ x = b exactly.

    b may be a vector or a matrix of stacked right-hand sides.  Returns
    (particular, kernel) where particular is None when the system is
    inconsistent; kernel columns span the homogeneous solution space.
    """
    a = fparray(a, p)
    vec = np.ndim(b) == 1
    b2 = fparray(b, p).reshape(-1, 1) if vec else fparray(b, p)
    if a.shape[0] != b2.shape[0]:
        raise ValueError("incompatible shapes in solve")
    ncols = a.shape[1]
    aug = np.hstack([a, b2])
    r, _, pivots = rref(aug, p)
    if any(c >= ncols for c in pivots):
        return None, kernel_basis(a, p)
    x = zeros(ncols, b2.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols:]
    if vec:
        x = x[:, 0]
    return x, kernel_basis(a, p)


def coords_in_basis(basis, vecs, p: int) -> np.ndarray:
    """Coordinates of the columns of vecs in the given independent columns."""
    x, _ = solve(basis, vecs, p)
    if x is None:
        raise ValueError("vectors do not lie in the span of the basis")
    return x


def complement_indices(basis, p: int) -> list[int]:
    """Indices of standard basis vectors completing independent columns."""
    basis = fparray(basis, p)
    d, k = basis.shape
    aug = np.hstack([basis, identity(d)])
    _, _, pivots = rref(aug, p)
    head = [c for c in pivots if c < k]
    if len(head) != k:
        raise ValueError("basis columns are not independent")
    return [c - k for c in pivots if c >= k]


def is_invertible(a, p: int) -> bool:
    a = fparray(a, p)
    return a.shape[0] == a.shape[1] and rank(a, p) == a.shape[0]


def random_matrix(rows: int, cols: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random matrix; the generator is always passed in, never global."""
    check_prime(p)
    return rng.integers(0, p, size=(rows, cols), dtype=np.int64)

