"""Exact linear algebra over a prime field F_p.

A matrix is a Matrix: a row-major tuple of rows, each a tuple of Python ints
in [0, p).  Its column count is read off its first row, and a matrix with no
rows records it, so 0 x n and n x 0 keep their shapes.  The modulus is
passed explicitly everywhere.  _eliminate, run on list copies of the rows,
is the one Gauss-Jordan elimination of the package: every routine here is
built on it, and modules.hom_basis feeds it its intertwiner system directly.
Python ints never overflow, so the modulus is bounded only by the trial
division of check_prime: below 2^31 that is at most 46341 divisions, once
per modulus.  No floats are ever involved.
"""

from __future__ import annotations

import random
from functools import cache
from operator import mul


class Matrix(tuple):
    """An F_p matrix: a tuple of rows, each a tuple of ints in [0, p)."""

    cols = 0    # the column count of a matrix with no rows

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), (len(self[0]) if self else self.cols)


@cache
def check_prime(p: int) -> None:
    """Reject moduli that are out of range or composite.

    Memoized: every constructed representation checks its modulus."""
    if not 1 < p < 1 << 31:
        raise ValueError(f"modulus {p} out of range (need a prime below 2^31)")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime")
        d += 1


def from_rows(rows, cols: int) -> Matrix:
    """The Matrix of rows already reduced mod p; cols is read only if there are none."""
    m = Matrix(rows)
    if not m:
        m.cols = cols
    return m


def matrix(rows, p: int, cols: int = 0) -> Matrix:
    """The Matrix of rows of any integers, reduced mod p; cols as in from_rows."""
    m = from_rows((tuple(int(x) % p for x in row) for row in rows), cols)
    if any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows have different lengths")
    return m


@cache       # a Matrix is never changed, so one per shape serves every caller
def zeros(rows: int, cols: int) -> Matrix:
    return from_rows(((0,) * cols,) * rows, cols)


def identity(n: int) -> Matrix:
    return Matrix(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    if a and a[0]:
        return Matrix(zip(*a))
    return from_rows(((),) * a.shape[1], len(a))


def matmul(a: Matrix, b: Matrix, p: int) -> Matrix:
    cols = transpose(b)
    return from_rows([tuple(sum(map(mul, row, col)) % p for col in cols) for row in a], len(cols))


def hstack(blocks) -> Matrix:
    """The blocks side by side; they all have the same number of rows."""
    rows = [sum(parts, ()) for parts in zip(*blocks)]
    return Matrix(rows) if rows else zeros(0, sum(b.shape[1] for b in blocks))


def vstack(blocks) -> Matrix:
    """The blocks one above the other; they all have the same number of columns."""
    return from_rows([row for b in blocks for row in b], blocks[0].shape[1])


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


def rref(a: Matrix, p: int):
    """Reduced row echelon form.

    Returns (r, rank, pivots) where r is the echelon matrix, of the input's
    shape, rank the number of pivots and pivots the list of pivot column
    indices.  The result is a canonical representative of the row space, so
    every routine built on it (kernels, column bases, solutions) is
    deterministic.
    """
    ncols = a.shape[1]
    rows = [list(row) for row in a]
    pivots = _eliminate(rows, ncols, p)
    return from_rows(map(tuple, rows), ncols), len(pivots), pivots


def rank(a: Matrix, p: int) -> int:
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


def _null_vectors(rows, pivots, ncols: int, p: int) -> list[tuple[int, ...]]:
    """Null space basis of the first ncols columns of a reduced echelon form.

    rows are the echelon rows and pivots the pivot columns below ncols, so
    rows[i] belongs to pivots[i]; vector j is the solution with the j-th
    free unknown set to 1 and the other free ones 0.
    """
    out = []
    for f in range(ncols):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(rows, pivots):
                v[c] = -row[f] % p
            out.append(tuple(v))
    return out


def kernel_basis(a: Matrix, p: int) -> Matrix:
    """Columns form the canonical (echelon-derived) basis of the null space."""
    r, _, pivots = rref(a, p)
    return transpose(from_rows(_null_vectors(r, pivots, a.shape[1], p), a.shape[1]))


def column_space_basis(a: Matrix, p: int) -> Matrix:
    """Canonical basis of the column space, one basis vector per column."""
    r, rk, _ = rref(transpose(a), p)
    return transpose(from_rows(r[:rk], len(a)))


def solve(a: Matrix, b: Matrix, p: int):
    """Solve a @ x = b exactly for a Matrix b of stacked right-hand sides.

    Returns one particular solution, free unknowns set to zero, read off one
    elimination of [a | b]; None when the system is inconsistent.
    """
    if len(a) != len(b):
        raise ValueError("incompatible shapes in solve")
    ncols, nrhs = a.shape[1], b.shape[1]
    r, _, pivots = rref(hstack([a, b]), p)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [(0,) * nrhs] * ncols
    for row, c in zip(r, pivots):
        x[c] = row[ncols:]
    return from_rows(x, nrhs)


def complement_indices(basis: Matrix, p: int) -> list[int]:
    """Indices of standard basis vectors completing independent columns."""
    d, k = basis.shape
    _, _, pivots = rref(hstack([basis, identity(d)]), p)
    head = [c for c in pivots if c < k]
    if len(head) != k:
        raise ValueError("basis columns are not independent")
    return [c - k for c in pivots if c >= k]


def is_invertible(a: Matrix, p: int) -> bool:
    rows, cols = a.shape
    return rows == cols and rank(a, p) == rows


def random_matrix(rows: int, cols: int, p: int, rng: random.Random) -> Matrix:
    """Uniform random matrix drawn row by row; the generator is passed in, never global."""
    check_prime(p)
    return from_rows([tuple(rng.randrange(p) for _ in range(cols)) for _ in range(rows)], cols)
