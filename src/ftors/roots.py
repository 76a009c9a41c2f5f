"""Dimension-vector arithmetic attached to a quiver.

Everything here is exact integer work on the Euler form: the bilinear form
itself, the Coxeter transform that tracks the translate on dimension vectors,
the simple reflections, the positive roots of finite type and the real
roots below a bound (the simple roots closed under height-raising
reflections, each checked to have Tits form 1), and the radical/defect
data of tame type.  No representations are built in this module.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from operator import mul

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
IntMatrix = tuple[tuple[int, ...], ...]


def _dot(x, y) -> int:
    return sum(map(mul, x, y))


def _vector(q: ValuedQuiver, x) -> DimVector:
    x = tuple(int(v) for v in x)
    if len(x) != q.n:
        raise ValueError("dimension vector length does not match the quiver")
    return x


def _apply(m: IntMatrix, x) -> DimVector:
    return tuple(_dot(row, x) for row in m)


@cache
def euler_matrix(q: ValuedQuiver) -> IntMatrix:
    """E with E[i][i] = 1 and E[i][j] = -sum of first valuation components."""
    e = [[int(i == j) for j in range(q.n)] for i in range(q.n)]
    for ar in q.arrows:
        e[ar.source][ar.target] -= ar.a
    return tuple(map(tuple, e))


def euler_form(q: ValuedQuiver, x, y) -> int:
    x, y = _vector(q, x), _vector(q, y)
    return _dot(x, _apply(euler_matrix(q), y))


def quadratic_form(q: ValuedQuiver, x) -> int:
    return euler_form(q, x, x)


def _int_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of an integer matrix that is unimodular over Z."""
    n = len(m)
    rows, pivots = gauss_jordan([[*row, *(int(i == j) for j in range(n))]
                                 for i, row in enumerate(m)])
    if pivots != list(range(n)) or any(x % row[k] for k, row in enumerate(rows)
                                       for x in row[n:]):
        raise ValueError("matrix is not unimodular over the integers")
    return tuple(tuple(x // row[k] for x in row[n:]) for k, row in enumerate(rows))


@cache
def coxeter_matrix(q: ValuedQuiver) -> IntMatrix:
    """Phi with <y, Phi x> = -<x, y>; dim tau M = Phi (dim M) off projectives."""
    e = euler_matrix(q)
    return tuple(tuple(-_dot(row, col) for col in e) for row in _int_inverse(e))


def coxeter_transform(q: ValuedQuiver, x) -> DimVector:
    return _apply(coxeter_matrix(q), _vector(q, x))


def reflection_transform(q: ValuedQuiver, x, v: int) -> DimVector:
    """Simple reflection s_v of a dimension vector in the symmetrized form."""
    c = [0] * q.n
    for ar in q.arrows:
        if ar.source == v:
            c[ar.target] += ar.a
        if ar.target == v:
            c[ar.source] += ar.a
    x = [int(t) for t in x]
    x[v] = -x[v] + _dot(c, x)
    return tuple(x)


def positive_roots(q: ValuedQuiver, below=None) -> list[DimVector]:
    """All positive roots of a representation-finite quiver or, given a
    vector `below`, the positive real roots x <= below of any path algebra.

    The simple roots closed under the simple reflections that raise the
    height (Bernstein-Gelfand-Ponomarev) and stay below the bound: s_v x =
    x - (x, e_v) e_v in the symmetrized form, taken whenever (x, e_v) < 0.
    A non-simple positive real root x has (x, x) = sum x_v (x, e_v) = 2, so
    (x, e_v) > 0 for some v in its support, and s_v x < x is a positive real
    root: every root is reached through roots below it, so no coordinate
    bound is needed.  Every generated vector must have Tits form 1, so an
    imaginary bound such as a radical vector is never generated.
    """
    if below is None and not classify_type(q).representation_finite:
        raise QuiverError("positive roots are enumerated for Dynkin quivers only")
    if not q.is_path_algebra():
        raise QuiverError("root enumeration supports path algebras only")
    roots = [tuple(int(v == i) for i in range(q.n)) for v in range(q.n)
             if below is None or below[v] > 0]
    for x in roots:     # the list grows while it is read
        for v in range(q.n):
            y = reflection_transform(q, x, v)
            if y[v] > x[v] and (below is None or y[v] <= below[v]) and y not in roots:
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
    form = _apply(tuple(zip(*euler_matrix(q))), radical_vector(q))
    g = gcd(*form)
    if g == 0:
        raise QuiverError("degenerate defect form")
    form = tuple(x // g for x in form)
    proj = [_dot(form, projective_dimvec(q, i)) for i in range(q.n)]
    if q.is_path_algebra():
        require(all(d <= 0 for d in proj) and any(d < 0 for d in proj),
                "defect sign convention violated on projectives")
    return form


def defect(q: ValuedQuiver, x) -> int:
    return _dot(defect_linear_form(q), _vector(q, x))
