"""Dimension-vector arithmetic attached to a quiver.

Everything here is exact integer work on the Euler form: the bilinear form
itself, the Coxeter transform that tracks the translate on dimension vectors,
the simple reflections, the positive roots of finite type (the simple roots
closed under height-raising reflections, each checked to have Tits form 1),
and the radical/defect data of tame type.  No representations are built in
this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd

import numpy as np

from .quiver import (
    QuiverError,
    ValuedQuiver,
    classify_type,
    gauss_jordan,
    projective_dimvec,
    radical_vector,
    require,
)

DimVector = tuple[int, ...]


@cache
def euler_matrix(q: ValuedQuiver) -> np.ndarray:
    """E with E[i][i] = 1 and E[i][j] = -sum of first valuation components."""
    e = np.eye(q.n, dtype=np.int64)
    for ar in q.arrows:
        e[ar.source, ar.target] -= ar.a
    e.setflags(write=False)
    return e


def euler_form(q: ValuedQuiver, x, y) -> int:
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != (q.n,) or y.shape != (q.n,):
        raise ValueError("dimension vector length does not match the quiver")
    return int(x @ euler_matrix(q) @ y)


def quadratic_form(q: ValuedQuiver, x) -> int:
    return euler_form(q, x, x)


def _int_inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse of an integer matrix that is unimodular over Z."""
    n = m.shape[0]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows, pivots = gauss_jordan([[Fraction(int(x)) for x in m[i]] + eye[i] for i in range(n)])
    right = [x for row in rows for x in row[n:]]
    if pivots != list(range(n)) or any(x.denominator != 1 for x in right):
        raise ValueError("matrix is not unimodular over the integers")
    return np.array([int(x) for x in right], dtype=np.int64).reshape(n, n)


@cache
def coxeter_matrix(q: ValuedQuiver) -> np.ndarray:
    """Phi with <y, Phi x> = -<x, y>; dim tau M = Phi (dim M) off projectives."""
    e = euler_matrix(q)
    phi = (-_int_inverse(np.array(e)) @ e.T).astype(np.int64)
    phi.setflags(write=False)
    return phi


@cache
def coxeter_inverse(q: ValuedQuiver) -> np.ndarray:
    inv = _int_inverse(np.array(coxeter_matrix(q)))
    inv.setflags(write=False)
    return inv


def coxeter_transform(q: ValuedQuiver, x, inverse: bool = False) -> DimVector:
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (q.n,):
        raise ValueError("dimension vector length does not match the quiver")
    m = coxeter_inverse(q) if inverse else coxeter_matrix(q)
    return tuple(int(v) for v in m @ x)


def reflection_transform(q: ValuedQuiver, x, v: int) -> DimVector:
    """Simple reflection s_v of a dimension vector in the symmetrized form."""
    c = np.zeros((q.n,), dtype=np.int64)
    for ar in q.arrows:
        if ar.source == v:
            c[ar.target] += ar.a
        if ar.target == v:
            c[ar.source] += ar.a
    x = np.asarray(x, dtype=np.int64).copy()
    x[v] = -x[v] + int(c @ x)
    return tuple(int(t) for t in x)


def positive_roots(q: ValuedQuiver) -> list[DimVector]:
    """All positive roots of a representation-finite quiver.

    The simple roots closed under the simple reflections that raise the
    height (Bernstein-Gelfand-Ponomarev): s_v x = x - (x, e_v) e_v in the
    symmetrized form, taken whenever (x, e_v) < 0.  Every positive root
    other than a simple one is reached this way from a root of smaller
    height, so no coordinate bound is needed; every generated vector must
    have Tits form 1.
    """
    t = classify_type(q)
    if not t.representation_finite:
        raise QuiverError("positive roots are enumerated for Dynkin quivers only")
    if not q.is_path_algebra():
        raise QuiverError("root enumeration supports path algebras only")
    roots = [tuple(int(v == i) for i in range(q.n)) for v in range(q.n)]
    for x in roots:     # the list grows while it is read
        for v in range(q.n):
            y = reflection_transform(q, x, v)
            if y[v] > x[v] and y not in roots:
                form = quadratic_form(q, y)
                require(form == 1, f"reflected vector {y} has Tits form {form}, not 1")
                roots.append(y)
    return sorted(roots, key=lambda r: (sum(r), r))


@cache
def defect_linear_form(q: ValuedQuiver) -> tuple[int, ...]:
    """Normalized defect functional <delta, -> of a tame quiver.

    Scaled to a primitive integer form; the sign convention makes the defect
    of every projective non-positive (and negative somewhere), which is
    checked against path-count dimension vectors.
    """
    delta = np.asarray(radical_vector(q), dtype=np.int64)
    form = delta @ euler_matrix(q)
    g = 0
    for x in form:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise QuiverError("degenerate defect form")
    form = form // g
    proj = [int(form @ np.asarray(projective_dimvec(q, i), dtype=np.int64)) for i in range(q.n)]
    if q.is_path_algebra():
        require(all(d <= 0 for d in proj) and any(d < 0 for d in proj),
                "defect sign convention violated on projectives")
    return tuple(int(x) for x in form)


def defect(q: ValuedQuiver, x) -> int:
    form = np.asarray(defect_linear_form(q), dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (q.n,):
        raise ValueError("dimension vector length does not match the quiver")
    return int(form @ x)
