"""Torsion classes of path algebras: closures, enumeration, covers, lattices.

Two complementary engines live here.

For representation-finite quivers the indecomposables form a finite universe
and every torsion class is a subset of it; closures are computed as honest
fixpoints under quotients (trace tests) and extensions (middle-term tables),
and the whole poset is generated breadth-first.  Meets and joins are then
checked, not assumed.

For infinite types no finite universe exists, but membership in the smallest
torsion class containing a set of generators is still decidable module by
module: peel the trace of the generators off the candidate and recurse on
the quotient.  A candidate lies in the closure exactly when the peeling
reaches zero, because traces are generated quotients and torsion classes are
closed under extensions upward along the peeled chain.  The bounded
two-vertex check and the filtration evidence are built on that test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modules import (
    DecompositionInconclusive,
    Representation,
    _drop_generated,
    _iso_index,
    ar_translate,
    ar_translate_inverse,
    carve,
    decompose,
    direct_sum,
    ext_dim,
    generates,
    hom_basis,
    hom_dim,
    injective,
    middle_terms,
    projective,
    random_rep,
    trace_submodule,
    zero_rep,
)
from .quiver import ValuedQuiver, classify_type
from . import linalg as la


# ---------------------------------------------------------------------------
# exact membership for arbitrary generators

def in_torsion_closure(gens: list[Representation], N: Representation) -> bool:
    """Does N lie in the smallest torsion class containing the generators?

    Peel the trace of the generators off N and recurse on the quotient.  The
    trace is a generated quotient, so peeling builds the required filtration
    from below; conversely torsion classes are quotient closed, so a member
    must keep a nonzero trace at every stage.
    """
    if N.total == 0:
        return True
    tr = trace_submodule(gens, N)
    if tr.full:
        return True
    if tr.sub.total == 0:
        return False
    return in_torsion_closure(gens, tr.carved.quot)


def in_gen_closure(gens: list[Representation], N: Representation) -> bool:
    """Is N a quotient of a finite sum of the generators?"""
    if N.total == 0:
        return True
    return trace_submodule(gens, N).full


# ---------------------------------------------------------------------------
# finite universes

@dataclass(eq=False)
class ModuleUniverse:
    """A finite list of pairwise nonisomorphic indecomposables with caches."""

    quiver: ValuedQuiver
    p: int
    modules: tuple[Representation, ...]
    rng: np.random.Generator
    _middles: dict = field(default_factory=dict)
    _closure: dict = field(default_factory=dict)
    _gen: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.modules)

    def match(self, M: Representation) -> int:
        idx = _iso_index(M, self.modules, self.rng)
        if idx is None:
            raise KeyError(f"module with dims {M.dims} is not in the universe")
        return idx

    def middle_summands(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        """Universe indices of the summands of each middle term of
        extensions of module i by module j."""
        if (i, j) not in self._middles:
            out = []
            for E in middle_terms(self.modules[i], self.modules[j], self.rng):
                parts = decompose(E, self.rng)
                out.append(tuple(sorted(self.match(part) for part in parts)))
            self._middles[(i, j)] = tuple(out)
        return self._middles[(i, j)]

    def generated(self, gens: frozenset, member: int) -> bool:
        key = (gens, member)
        if key not in self._gen:
            self._gen[key] = in_gen_closure(
                [self.modules[g] for g in sorted(gens)], self.modules[member])
        return self._gen[key]


def finite_universe(q: ValuedQuiver, p: int, rng: np.random.Generator) -> ModuleUniverse:
    from .ar_quiver import all_indecomposables

    mods = all_indecomposables(q, p, rng)
    return ModuleUniverse(q, p, tuple(mods), rng)


# ---------------------------------------------------------------------------
# closures and enumeration over a finite universe

def gen_closure(u: ModuleUniverse, gens: frozenset) -> frozenset:
    """Indices of all universe members generated by the given members."""
    return frozenset(
        m for m in range(len(u)) if u.generated(frozenset(gens), m))


def torsion_closure(u: ModuleUniverse, gens) -> frozenset:
    """Smallest subset containing gens closed under quotients and middle
    terms; for a complete universe this is the torsion class they generate."""
    gens = frozenset(gens)
    if gens in u._closure:
        return u._closure[gens]
    current = set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = frozenset(current)
        for m in range(len(u)):
            if m not in current and u.generated(snapshot, m):
                current.add(m)
                changed = True
        snapshot = frozenset(current)
        for i in sorted(snapshot):
            for j in sorted(snapshot):
                for parts in u.middle_summands(i, j):
                    for part in parts:
                        if part not in current:
                            current.add(part)
                            changed = True
    result = frozenset(current)
    u._closure[gens] = result
    # the membership engine must agree with the fixpoint
    for m in range(len(u)):
        assert (m in result) == in_torsion_closure(
            [u.modules[g] for g in sorted(gens)], u.modules[m]), (
            f"closure engines disagree at member {m}")
    return result


def enumerate_torsion_classes(u: ModuleUniverse) -> list[frozenset]:
    """All torsion classes, grown breadth-first from the empty class.

    Every class is reached: from any reachable subclass, adjoining a missing
    member and closing stays inside the class and strictly grows.
    """
    empty = torsion_closure(u, frozenset())
    assert empty == frozenset(), "the empty class must be closed"
    seen = {empty}
    queue = [empty]
    while queue:
        t = queue.pop()
        for x in range(len(u)):
            if x in t:
                continue
            bigger = torsion_closure(u, t | {x})
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def find_cover(u: ModuleUniverse, t: frozenset) -> Representation | None:
    """A single module whose generated quotients are exactly the class.

    The candidate is the direct sum of one copy of each member with summands
    generated by the rest dropped, so the result is normal.  Returns None
    when the candidate fails the generation test; over a complete finite
    universe it never does.
    """
    members = sorted(t)
    kept = [members[k] for k in _drop_generated([u.modules[m] for m in members])]
    if gen_closure(u, frozenset(kept)) != t:
        return None
    if not kept:
        return zero_rep(u.quiver, u.p)
    return direct_sum([u.modules[k] for k in kept])


def find_covers(u: ModuleUniverse, t: frozenset) -> list[frozenset]:
    """All covers of a torsion class: minimal one-generator enlargements.

    Any class strictly above t contains one of the candidates, so the
    minimal candidates are exactly the covering classes.
    """
    candidates = {torsion_closure(u, t | {x}) for x in range(len(u)) if x not in t}
    candidates.discard(t)
    covers = []
    for c in candidates:
        if not any(d != c and t < d < c for d in candidates):
            covers.append(c)
    return sorted(covers, key=lambda s: (len(s), sorted(s)))


def hasse_edges(classes: list[frozenset]) -> list[tuple[int, int]]:
    """Covering pairs (lower index, upper index) in the given class list."""
    edges = []
    for a, t in enumerate(classes):
        for b, s in enumerate(classes):
            if not t < s:
                continue
            if any(t < v < s for v in classes):
                continue
            edges.append((a, b))
    return sorted(edges)


@dataclass(frozen=True, eq=False)
class LatticeReport:
    quiver: ValuedQuiver
    class_count: int
    edges: tuple                      # Hasse diagram, see hasse_edges
    meet_failures: tuple
    join_failures: tuple

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_lattice(self) -> bool:
        return not self.meet_failures and not self.join_failures


def lattice_check(u: ModuleUniverse, classes: list[frozenset] | None = None) -> LatticeReport:
    """Verify that every pair of torsion classes has a meet and a join.

    Meets are checked by closing the intersection (it must already be
    closed) and joins by closing the union and confirming no enumerated
    class sits strictly between the union and its closure.
    """
    if classes is None:
        classes = enumerate_torsion_classes(u)
    class_set = set(classes)
    meet_failures = []
    join_failures = []
    for a, t in enumerate(classes):
        for s in classes[a + 1:]:
            inter = t & s
            if torsion_closure(u, inter) != inter or inter not in class_set:
                meet_failures.append((sorted(t), sorted(s)))
                continue
            union_closure = torsion_closure(u, t | s)
            if union_closure not in class_set:
                join_failures.append((sorted(t), sorted(s)))
                continue
            for c in classes:
                if t <= c and s <= c and not union_closure <= c:
                    join_failures.append((sorted(t), sorted(s)))
                    break
    return LatticeReport(u.quiver, len(classes), tuple(hasse_edges(classes)),
                         tuple(meet_failures), tuple(join_failures))


# ---------------------------------------------------------------------------
# bounded two-vertex check

@dataclass(frozen=True, eq=False)
class TwoVertexReport:
    verdict: str                      # "lattice", "consistent", "inconclusive"
    universe_size: int
    class_count: int
    covered_count: int
    pair_count: int
    failures: tuple
    notes: str


def _kronecker_universe(q: ValuedQuiver, p: int, bound: int,
                        rng: np.random.Generator,
                        samples: int = 4) -> list[Representation]:
    """Bounded universe for the two-vertex two-arrow quiver.

    The translate orbits of the projectives and injectives are exact; the
    one-parameter families in the middle are sampled and decomposed, so the
    regular part is a representative selection, not an enumeration.
    """
    mods: list[Representation] = []

    def push(M: Representation) -> None:
        if 0 < M.total <= bound and _iso_index(M, mods, rng) is None:
            mods.append(M)

    for v in range(q.n):
        M = projective(q, p, v)
        while M.total <= bound:
            push(M)
            M = ar_translate_inverse(M)
        M = injective(q, p, v)
        while M.total <= bound:
            push(M)
            try:
                M = ar_translate(M)
            except ValueError:
                break

    for k in range(1, bound // 2 + 1):
        for _ in range(samples):
            cand = random_rep(q, p, (k, k), rng)
            try:
                parts = decompose(cand, rng)
            except DecompositionInconclusive:
                continue
            for part in parts:
                push(part)
    return sorted(mods, key=lambda m: (m.total, m.dims))


def two_vertex_check(q: ValuedQuiver, p: int, bound: int,
                     rng: np.random.Generator) -> TwoVertexReport:
    """Meet/join consistency for torsion classes of a two-vertex algebra.

    Representation-finite inputs get the exact lattice check.  The tame
    two-arrow algebra is checked inside a bounded sampled universe: classes
    are the closures of single modules, the cover-possessing ones are those
    regenerated by a single normal candidate, and for every pair of such
    classes the meet (intersection) and join (closure of the union) are
    certified to be classes with bounded covers again.  Wild two-vertex
    algebras are reported inconclusive rather than guessed at.
    """
    if q.n != 2:
        raise ValueError("this check is for two-vertex quivers")
    qt = classify_type(q)
    if qt.representation_finite:
        u = finite_universe(q, p, rng)
        classes = enumerate_torsion_classes(u)
        report = lattice_check(u, classes)
        covered = sum(find_cover(u, t) is not None for t in classes)
        return TwoVertexReport(
            "lattice" if report.is_lattice else "failed",
            len(u), report.class_count, covered, 0,
            report.meet_failures + report.join_failures,
            "exact finite-type enumeration")
    if qt.family == "wild" or not q.is_path_algebra():
        return TwoVertexReport(
            "inconclusive", 0, 0, 0, 0, (),
            "no bounded certificate is attempted for a wild two-vertex algebra")

    mods = _kronecker_universe(q, p, bound, rng)
    member_sets: dict[frozenset, frozenset] = {}
    gen_sets: dict[frozenset, frozenset] = {}
    covers: dict[frozenset, frozenset | None] = {}

    def closure_set(gens: frozenset) -> frozenset:
        if gens not in member_sets:
            glist = [mods[g] for g in sorted(gens)]
            member_sets[gens] = frozenset(
                m for m in range(len(mods)) if in_torsion_closure(glist, mods[m]))
        return member_sets[gens]

    def generated_set(gens: frozenset) -> frozenset:
        if gens not in gen_sets:
            glist = [mods[g] for g in sorted(gens)]
            gen_sets[gens] = frozenset(
                m for m in range(len(mods)) if in_gen_closure(glist, mods[m]))
        return gen_sets[gens]

    def prune(gens: frozenset) -> frozenset:
        """Drop generators generated by the others; same closure, far fewer
        Hom systems per membership test."""
        order = sorted(gens, key=lambda g: (-mods[g].total, mods[g].dims))
        kept: list[int] = []
        for g in order:
            if not kept or not in_gen_closure([mods[k] for k in kept], mods[g]):
                kept.append(g)
        return frozenset(kept)

    def bounded_cover(cls: frozenset) -> frozenset | None:
        """Generator indices of a normal module generating exactly cls, if
        one exists inside the bound."""
        if cls not in covers:
            pruned = sorted(prune(cls))
            kept = [pruned[k] for k in _drop_generated([mods[g] for g in pruned])]
            covers[cls] = frozenset(kept) if generated_set(frozenset(kept)) == cls else None
        return covers[cls]

    single = {i: closure_set(frozenset([i])) for i in range(len(mods))}
    classes = sorted(
        set(single.values()) | {frozenset(), frozenset(range(len(mods)))},
        key=lambda s: (len(s), sorted(s)))
    class_set = set(classes)
    gens_of = {}
    for i, cls in single.items():
        gens_of.setdefault(cls, frozenset([i]))
    gens_of.setdefault(frozenset(), frozenset())
    gens_of.setdefault(frozenset(range(len(mods))), frozenset(range(len(mods))))

    covered_classes = [t for t in classes if bounded_cover(t) is not None]
    failures = []
    pairs = 0
    for a, t in enumerate(covered_classes):
        for s in covered_classes[a + 1:]:
            pairs += 1
            inter = t & s
            # the meet must be generated by its own members and have a cover
            if closure_set(prune(inter)) != inter:
                failures.append(("meet", sorted(t), sorted(s)))
                continue
            if bounded_cover(inter) is None:
                failures.append(("meet-cover", sorted(t), sorted(s)))
                continue
            join = closure_set(prune(gens_of[t] | gens_of[s]))
            if not (t <= join and s <= join):
                failures.append(("join", sorted(t), sorted(s)))
                continue
            if any(t <= c and s <= c and not join <= c for c in class_set):
                failures.append(("join", sorted(t), sorted(s)))
                continue
            if bounded_cover(join) is None:
                failures.append(("join-cover", sorted(t), sorted(s)))
    verdict = "consistent" if not failures else "failed"
    return TwoVertexReport(verdict, len(mods), len(classes), len(covered_classes),
                           pairs, tuple(failures),
                           f"sampled universe, total dimension bound {bound}")


# ---------------------------------------------------------------------------
# filtration evidence along an extension cycle

@dataclass(frozen=True, eq=False)
class FiltrationObject:
    module: Representation
    length: int        # number of cycle factors used to build it
    loewy: int         # relative radical length


@dataclass(eq=False)
class FiltrationUniverse:
    cycle: tuple[Representation, ...]
    bound: int
    objects: list[FiltrationObject]
    rng: np.random.Generator


@dataclass(frozen=True, eq=False)
class NoCoverEvidence:
    bound: int
    universe_size: int
    witnesses: tuple          # (r, serial dims, generated?) per step
    monotone_ok: bool

    @property
    def ok(self) -> bool:
        return self.monotone_ok and all(not gen for _, _, gen in self.witnesses)


def _relative_radical(M: Representation, cycle):
    p = M.p
    q = M.quiver
    blocks: list[list[np.ndarray]] = [[] for _ in range(q.n)]
    for X in cycle:
        for f in hom_basis(M, X).basis:
            for v in range(q.n):
                blocks[v].append(f[v])
    spaces = []
    for v in range(q.n):
        if blocks[v]:
            spaces.append(la.kernel_basis(np.vstack(blocks[v]), p))
        else:
            spaces.append(la.identity(M.dims[v]))
    return carve(M, spaces)


def relative_loewy_length(M: Representation, cycle, rng,
                          certify: bool = True) -> int:
    """Steps of the relative radical series, with each layer certified to be
    a sum of cycle members."""
    steps = 0
    current = M
    while current.total > 0:
        carved = _relative_radical(current, cycle)
        layer = carved.quot
        assert carved.sub.total < current.total, (
            "relative radical failed to shrink; module is not filtered by the cycle")
        if certify and layer.total:
            for part in decompose(layer, rng):
                assert _iso_index(part, cycle, rng) is not None, (
                    f"layer summand {part.dims} is not a cycle member")
        current = carved.sub
        steps += 1
    return steps


def validate_ext_cycle(cycle) -> None:
    """Check the defining conditions of an extension cycle.

    Every entry must be a brick, distinct entries must have no homomorphisms
    either way, and each entry must extend the next one cyclically.  A single
    module without self-extensions fails the last condition, as does any
    family drawn from a representation-finite algebra.
    """
    cycle = tuple(cycle)
    if not cycle:
        raise ValueError("an extension cycle needs at least one module")
    for i, X in enumerate(cycle):
        if hom_dim(X, X) != 1:
            raise ValueError(f"cycle entry {i} is not a brick")
        for j in range(i + 1, len(cycle)):
            if hom_dim(X, cycle[j]) or hom_dim(cycle[j], X):
                raise ValueError(f"cycle entries {i} and {j} are not orthogonal")
    for i, X in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        if ext_dim(X, nxt) == 0:
            raise ValueError(
                f"cycle entry {i} has no extension by entry {(i + 1) % len(cycle)}")


def filtration_universe(cycle, bound: int, rng: np.random.Generator) -> FiltrationUniverse:
    """Indecomposable iterated extensions of the cycle members, up to the
    given number of factors."""
    cycle = tuple(cycle)
    validate_ext_cycle(cycle)
    levels: list[list[Representation]] = [[], list(cycle)]
    found: list[tuple[Representation, int]] = [(X, 1) for X in cycle]
    for total in range(2, bound + 1):
        fresh: list[Representation] = []
        for a in range(1, total):
            b = total - a
            for A in levels[a]:
                for B in levels[b]:
                    for E in middle_terms(B, A, rng)[1:]:
                        parts = decompose(E, rng)
                        if len(parts) != 1:
                            continue
                        seen = [N for N, _ in found] + fresh
                        if _iso_index(E, seen, rng) is None:
                            fresh.append(E)
        levels.append(fresh)
        found.extend((M, total) for M in fresh)

    objects = [
        FiltrationObject(M, length,
                         relative_loewy_length(M, cycle, rng))
        for M, length in found
    ]
    objects.sort(key=lambda o: (o.module.total, o.module.dims))
    return FiltrationUniverse(cycle, bound, objects, rng)


def serial_filtration_object(fu: FiltrationUniverse, top_index: int,
                             length: int) -> Representation:
    """The serial object with the given top and length, built upward by
    picking at each step the first nonsplit middle that stays serial."""
    cycle, rng = fu.cycle, fu.rng
    r = len(cycle)
    current = cycle[(top_index + length - 1) % r]
    for k in range(length - 2, -1, -1):
        top = cycle[(top_index + k) % r]
        middles = middle_terms(top, current, rng)[1:]
        pick = None
        for E in middles:
            if len(decompose(E, rng)) != 1:
                continue
            if relative_loewy_length(E, cycle, rng) == length - k:
                pick = E
                break
        assert pick is not None, "no serial middle found"
        current = pick
    return current


def no_cover_evidence(cycle, bound: int, rng: np.random.Generator) -> NoCoverEvidence:
    """Evidence that the filtration chain admits no covering step.

    For each r below the bound, the serial object with r + 1 layers is shown
    not to be generated by the objects of relative Loewy length at most r,
    and generation is shown to preserve the Loewy bound across the whole
    universe, so no single enlargement of the r-th class reaches the next.
    """
    fu = filtration_universe(cycle, bound, rng)
    witnesses = []
    monotone_ok = True
    for r in range(1, bound):
        lower = [o.module for o in fu.objects if o.loewy <= r]
        serial = serial_filtration_object(fu, 0, r + 1)
        gen = generates(lower, serial)
        witnesses.append((r, serial.dims, bool(gen)))
        for o in fu.objects:
            if o.loewy > r and generates(lower, o.module):
                monotone_ok = False
    return NoCoverEvidence(bound, len(fu.objects), tuple(witnesses), monotone_ok)
