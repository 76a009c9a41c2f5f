"""Non-homogeneous tubes of tame path algebras.

The regular simples of the tubes of rank at least two come from root
combinatorics (Ringel, LNM 1099, section 3; Dlab-Ringel, Mem. AMS 173): the
defect-zero real roots below the radical vector, from one root enumeration,
that are no sum of two such roots.  Only their modules are built, each
certified by the brick test (a brick whose dimension vector is a real root
is the unique indecomposable for that root): the thin zero/one module first,
random samples only where it is no brick.  Translate orbits of the simples
are the tubes; rank and dimension sums are checked, and each mouth is an
extension cycle, checked and built on by tors (validate_ext_cycle,
serial_object).
"""

from __future__ import annotations

import random
from operator import sub

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
    positive_roots,
    quadratic_form,
    radical_vector,
)
from .tors import serial_object, validate_ext_cycle
from . import linalg as la

GENERIC_TRIES = 20


class SamplingInconclusive(RuntimeError):
    """No sample with a real-root dimension vector was a brick."""


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
    raise SamplingInconclusive(
        f"no brick among {GENERIC_TRIES} samples for root {x} over F_{p}")


def find_regular_simples(q: ValuedQuiver, p: int,
                         rng: random.Random) -> list[Tube]:
    """All tubes of rank at least two, each as a translate-ordered orbit.

    The candidates, the defect-zero roots of positive_roots(q, below=delta),
    are the dims of the regular indecomposables of quasi-length l below their
    tube's rank r.  With e_0, ..., e_{r-1} the dims of a tube's simples E_i,
    a candidate x is a regular simple exactly when x - y is no candidate for
    every candidate y.  For l >= 2, x = e_i + (e_{i+1} + ... + e_{i+l-1}).
    And e_i = y + z fails: if y, z lie in different tubes, q(y + z) = 2; if
    both lie in another tube, <e_i, y + z> = 0 != <e_i, e_i>; if both lie in
    E_i's tube, y + z has coefficient sum at least 2 in the e_j, which are
    independent (their Euler matrix I - P, P the cyclic shift, turns a
    relation sum c_j e_j = 0 into c_j = c_{j+1}, and c delta != 0 for c != 0).
    Modules are built, in candidate order, for the regular simples only.
    """
    if classify_type(q).family != "euclidean":
        raise ValueError("tubes are computed for tame quivers only")
    delta = radical_vector(q)

    candidates = [x for x in positive_roots(q, below=delta) if defect(q, x) == 0]
    known = set(candidates)
    simple_roots = [x for x in candidates
                    if not any(tuple(map(sub, x, y)) in known for y in candidates)]
    modules = {x: module_for_real_root(q, p, x, rng) for x in simple_roots}

    tubes: list[Tube] = []
    used: set[tuple[int, ...]] = set()
    for x in simple_roots:
        if x in used:
            continue
        orbit = [x]
        y = coxeter_transform(q, x)
        while y != x:
            require(y in modules, f"translate orbit of {x} leaves the regular simples at {y}")
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
