"""Non-homogeneous tubes of tame path algebras.

The regular simples sitting in tubes of rank at least two are located by an
exact root-theoretic scan: their dimension vectors are the positive real
roots of defect zero lying strictly inside the radical vector.  Modules are
certified by the brick test (a brick whose dimension vector is a real root
is the unique indecomposable for that root): the thin zero/one module
first, random samples only where it is no brick.  Translate orbits of the
found simples are the tubes; rank and dimension sums are checked, and each
mouth is an extension cycle, checked and built on by tors
(validate_ext_cycle, serial_object).
"""

from __future__ import annotations

import random

from .modules import (
    Representation,
    hom_dim,
    make_rep,
    random_rep,
    require,
)
from .quiver import ValuedQuiver, classify_type
from .roots import (
    coxeter_transform,
    defect,
    quadratic_form,
    radical_vector,
)
from .tors import serial_object, validate_ext_cycle
from . import linalg as la

GENERIC_TRIES = 20


class Tube:
    """A translate orbit of regular simples; entry i+1 is the translate of
    entry i, cyclically."""

    __slots__ = ("simples",)

    def __init__(self, simples: tuple[Representation, ...]):
        self.simples = simples

    @property
    def rank(self) -> int:
        return len(self.simples)

    @property
    def dims(self) -> tuple[tuple[int, ...], ...]:
        return tuple(s.dims for s in self.simples)


def _real_regular_roots_inside_delta(q: ValuedQuiver) -> list[tuple[int, ...]]:
    """Positive real roots of defect zero strictly below the radical vector."""
    delta = radical_vector(q)
    ranges = [range(d + 1) for d in delta]
    out = []

    def scan(prefix: list[int]) -> None:
        if len(prefix) == q.n:
            x = tuple(prefix)
            if not any(x) or x == delta:
                return
            if quadratic_form(q, x) == 1 and defect(q, x) == 0:
                out.append(x)
            return
        for c in ranges[len(prefix)]:
            scan(prefix + [c])

    scan([])
    return sorted(out, key=lambda x: (sum(x), x))


def _thin_module(q: ValuedQuiver, p: int, x) -> Representation | None:
    if any(c > 1 for c in x):
        return None
    return make_rep(q, p, x, [[[1]] if x[ar.source] and x[ar.target]
                              else la.zeros(x[ar.target], x[ar.source]) for ar in q.arrows])


def module_for_real_root(q: ValuedQuiver, p: int, x,
                         rng: random.Random) -> Representation:
    """The unique indecomposable with real-root dimension vector x.

    A brick with these dimensions is that indecomposable, so neither
    candidate needs a genericity argument, only the brick test: the thin
    module first, which draws nothing, then random samples.
    """
    require(quadratic_form(q, x) == 1, f"{x} is not a real root")
    thin = _thin_module(q, p, x)
    if thin is not None and hom_dim(thin, thin) == 1:
        return thin
    for _ in range(GENERIC_TRIES):
        cand = random_rep(q, p, x, rng)
        if hom_dim(cand, cand) == 1:
            return cand
    raise RuntimeError(f"failed to realize the indecomposable for root {x}")


def find_regular_simples(q: ValuedQuiver, p: int,
                         rng: random.Random) -> list[Tube]:
    """All tubes of rank at least two, each as a translate-ordered orbit."""
    qt = classify_type(q)
    if qt.family != "euclidean":
        raise ValueError("tubes are computed for tame quivers only")
    delta = radical_vector(q)

    candidates = _real_regular_roots_inside_delta(q)
    # keep only roots with no smaller candidate mapping nonzero into them:
    # a regular module with no maps from smaller regulars is regular simple
    modules = {x: module_for_real_root(q, p, x, rng) for x in candidates}
    simple_roots = []
    for x in candidates:
        receives = False
        for y in candidates:
            if y == x or sum(y) >= sum(x):
                continue
            if hom_dim(modules[y], modules[x]) > 0:
                receives = True
                break
        if not receives:
            simple_roots.append(x)

    tubes: list[Tube] = []
    used: set[tuple[int, ...]] = set()
    for x in simple_roots:
        if x in used:
            continue
        orbit = [x]
        y = coxeter_transform(q, x)
        while y != x:
            require(y in modules and y in simple_roots,
                    f"translate orbit of {x} leaves the regular simples at {y}")
            orbit.append(y)
            y = coxeter_transform(q, y)
        used.update(orbit)
        require(len(orbit) >= 2, f"orbit of {x} is a fixed point below the radical vector")
        total = tuple(map(sum, zip(*orbit)))
        require(total == delta, f"tube through {x} sums to {total}, not {delta}")
        tube = Tube(tuple(modules[d] for d in orbit))
        validate_ext_cycle(tube.simples)
        tubes.append(tube)

    excess = sum(t.rank - 1 for t in tubes)
    require(excess <= q.n - 2, "too many exceptional tubes for a tame algebra")
    return sorted(tubes, key=lambda t: (t.rank, t.dims))


def tube_mouth_pair(tube: Tube):
    """The Hom-orthogonal double-extension pair supported on one tube.

    One side is the first regular simple, the other the serial module on the
    remaining rank - 1 simples (top at the translate of the omitted one).
    """
    y = tube.simples[0]
    x = serial_object(tube.simples, 1, tube.rank - 1)
    return x, y
