"""Non-homogeneous tubes of tame path algebras.

The regular simples of the tubes of rank at least two come from root
combinatorics (Ringel, LNM 1099, section 3; Dlab-Ringel, Mem. AMS 173): the
defect-zero real roots below the radical vector, from one root enumeration,
that are no sum of two such roots.  Their modules are built exactly, with
no random draw: each simple that misses a vertex from its Dynkin support,
each sincere one as the translate of the simple before it in its orbit
(find_regular_simples and module_for_real_root prove that this covers
every tube).  Translate orbits of the simples are the tubes; rank and
dimension sums are checked, and each mouth is an extension cycle, checked
and built on by tors (validate_ext_cycle, serial_object).
"""

from __future__ import annotations

from operator import sub

from .modules import (Representation, ar_translate, ar_translate_inverse, extend_by_zero,
                      projective, require)
from .quiver import ValuedQuiver, classify_type, projective_dimvec, subquiver_restrict
from .roots import coxeter_transform, defect, positive_roots, quadratic_form, radical_vector
from .tors import serial_object, validate_ext_cycle


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


def module_for_real_root(q: ValuedQuiver, p: int, x) -> Representation:
    """The unique indecomposable with a real root x that misses a vertex of
    the Euclidean quiver q.

    Its support S is connected (x is a root) and proper, and a proper
    connected full subquiver of a Euclidean quiver is Dynkin.  There every
    indecomposable is preprojective, tau^-k P_S(w), and is fixed by its
    dims, so the Coxeter transform of S carries x|S through positive roots
    to the dims of P_S(w) after k steps (Phi has no fixed vector in Dynkin
    type, so no orbit of positive roots is periodic).  The module is
    TrD^k P_S(w), extended by zero.  A sincere x raises VerificationError.
    """
    require(quadratic_form(q, x) == 1, f"{x} is not a real root")
    require(0 in x, f"{x} is sincere")
    s = subquiver_restrict(q, [v for v, c in enumerate(x) if c])
    y = tuple(x[s.old_vertex(w)] for w in range(s.quiver.n))
    tops = {projective_dimvec(s.quiver, w): w for w in range(s.quiver.n)}
    steps = 0
    while y not in tops:
        y = coxeter_transform(s.quiver, y)
        require(min(y) >= 0 and any(y), f"the Coxeter orbit of {x} leaves the positive roots")
        steps += 1
    module = projective(s.quiver, p, tops[y])
    for _ in range(steps):
        module = ar_translate_inverse(module)
    return extend_by_zero(module, s)


def find_regular_simples(q: ValuedQuiver, p: int) -> list[Tube]:
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

    Every Euclidean quiver has a vertex v with delta_v = 1.  An orbit sums
    to delta and has at least two members, so at most one of them is
    nonzero at v.  Walking the orbit from a member that misses v, each
    sincere member is the translate of the member before it: tau permutes
    the simples of a tube, and the Coxeter transform gives their dims.
    """
    if classify_type(q).family != "euclidean" or not q.is_path_algebra():
        raise ValueError("tubes are computed for tame path algebras only")
    delta = radical_vector(q)

    candidates = [x for x in positive_roots(q, below=delta) if defect(q, x) == 0]
    known = set(candidates)
    simple_roots = [x for x in candidates
                    if not any(tuple(map(sub, x, y)) in known for y in candidates)]

    tubes: list[Tube] = []
    used: set[tuple[int, ...]] = set()
    for x in simple_roots:
        if x in used:
            continue
        orbit = [x]
        y = coxeter_transform(q, x)
        while y != x:
            require(y in simple_roots, f"translate orbit of {x} leaves the regular simples at {y}")
            orbit.append(y)
            y = coxeter_transform(q, y)
        used.update(orbit)
        require(len(orbit) >= 2, f"orbit of {x} is a fixed point below the radical vector")
        total = tuple(map(sum, zip(*orbit)))
        require(total == delta, f"tube through {x} sums to {total}, not {delta}")
        misses = [i for i, y in enumerate(orbit) if 0 in y]
        require(misses, f"every simple in the orbit of {x} is sincere")
        walk, built = orbit[misses[0]:] + orbit[:misses[0]], []
        for y in walk:
            built.append(module_for_real_root(q, p, y) if 0 in y else ar_translate(built[-1]))
            require(built[-1].dims == y, f"the translate before {y} has other dims")
        tube = Tube(tuple(built[-misses[0]:] + built[:-misses[0]]))
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
