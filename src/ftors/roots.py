"""Dimension-vector arithmetic attached to a valued quiver.

Everything here is exact integer work on one bilinear form, the Euler form
<x, y> = x^T E y of quiver.euler_matrix, valued arrows included: the simple
reflections of its symmetrization (x, y) = <x, y> + <y, x>, the Coxeter
transform as their product (it tracks the translate on dimension vectors),
the positive roots of finite type and the real roots below a bound (the
simple roots closed under height-raising reflections, each checked to keep
the form of the simple root it came from), and the radical/defect data of
tame type.  No representations are built in this module.
"""

from __future__ import annotations

from functools import cache
from math import gcd
from operator import mul

from .quiver import (
    QuiverError,
    ValuedQuiver,
    _symmetrized,
    classify_type,
    euler_matrix,
    projective_dimvec,
    radical_vector,
    require,
    topological_order,
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


def euler_form(q: ValuedQuiver, x, y) -> int:
    x, y = _vector(q, x), _vector(q, y)
    return _dot(x, _apply(euler_matrix(q), y))


def quadratic_form(q: ValuedQuiver, x) -> int:
    return euler_form(q, x, x)


@cache
def coxeter_matrix(q: ValuedQuiver) -> IntMatrix:
    """Phi = -E^-1 E^T, so <y, Phi x> = -<x, y>; dim tau M = Phi (dim M) off
    projectives.  Phi is the product of the simple reflections at the sinks
    first (reverse topological order), the order in which ar_translate
    applies the reflection functors."""
    cols = [tuple(int(i == j) for i in range(q.n)) for j in range(q.n)]
    for v in reversed(topological_order(q)):
        cols = [reflection_transform(q, x, v) for x in cols]
    return tuple(zip(*cols))


def coxeter_transform(q: ValuedQuiver, x) -> DimVector:
    return _apply(coxeter_matrix(q), _vector(q, x))


def reflection_transform(q: ValuedQuiver, x, v: int) -> DimVector:
    """Simple reflection s_v x = x - (2 (x, e_v) / (e_v, e_v)) e_v in the
    symmetrized form; (e_v, e_v) = 2 f_v, and f_v divides row v of E + E^T."""
    c = _symmetrized(q)[v]
    x = [int(t) for t in x]
    x[v] -= _dot(c, x) // (c[v] // 2)
    return tuple(x)


def positive_roots(q: ValuedQuiver, below=None) -> list[DimVector]:
    """All positive roots of a representation-finite quiver or, given a
    vector `below`, the positive real roots x <= below of any quiver, valued
    arrows included.

    The simple roots closed under the simple reflections that raise the
    height (Bernstein-Gelfand-Ponomarev; Dlab-Ringel for valued quivers)
    and stay below the bound: s_v x = x - ((x, e_v) / f_v) e_v in the
    symmetrized form, taken whenever (x, e_v) < 0.  A non-simple positive
    real root x has (x, x) = sum x_v (x, e_v) = 2q(x) > 0, so (x, e_v) > 0
    for some v in its support, and s_v x < x is a positive real root: every
    root is reached through roots below it, so no coordinate bound is
    needed.  Reflections keep the form, so every generated vector must have
    the form f_v = E[v][v] of the simple root e_v it descends from; an
    imaginary bound such as a radical vector (form 0) is never generated.
    """
    if below is None and not classify_type(q).representation_finite:
        raise QuiverError("positive roots are enumerated for Dynkin quivers only")
    e = euler_matrix(q)
    forms = {tuple(int(v == i) for i in range(q.n)): e[v][v] for v in range(q.n)
             if below is None or below[v] > 0}
    roots = list(forms)
    for x in roots:     # the list grows while it is read
        for v in range(q.n):
            y = reflection_transform(q, x, v)
            if y[v] > x[v] and (below is None or y[v] <= below[v]) and y not in forms:
                form = quadratic_form(q, y)
                require(form == forms[x], f"reflected vector {y} has form {form}, "
                                          f"not {forms[x]} as the root it came from")
                forms[y] = form
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
