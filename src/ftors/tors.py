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

Taking the torsion closure T is monotone: K ⊆ G gives T(K) ⊆ T(G).  A
universe caches each peeled closure as exactly T(K) ∩ U, so for new
generators G every cached T(K) with K ⊆ G lies inside the answer, and
everything outside a cached T(K) that contains G lies outside it.  Only the
members these bounds leave open are peeled.  The bounds are sound only
because every cached value is exact; a value from a weaker test would carry
its error into every later closure.

Both engines read a trace as full or zero off its ranks at each vertex;
only a peeling step through a proper nonzero trace carves it and builds the
quotient.  The middle-term table records the split middle term of members
i and j as (i, j) and decomposes only the nonsplit ones.

Each ModuleUniverse keeps a table of the Hom spaces between its members,
filled on first use (a finite universe starts with the table its knitting
built, where the Euler form decides the zero spaces), so the generation
tests and the first peeling step compute each member pair at most once;
only peeled quotients and outside modules reach hom_basis again.  The
sampled Kronecker universe of the bounded check is not closed under
extensions, so its membership test stays the peeling test, which needs no
universe; the fixpoint torsion_closure needs every middle term of two
members to be a sum of members.

Extension cycles, from a tube mouth or a double-extension pair, have one
check (validate_ext_cycle) and one builder of serial objects (serial_object).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .modules import (
    DecompositionInconclusive,
    HomSpace,
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
    require,
    trace_submodule,
    zero_rep,
)
from .quiver import ValuedQuiver, classify_type
from . import linalg as la


# ---------------------------------------------------------------------------
# exact membership for arbitrary generators

def in_torsion_closure(gens: list[Representation], N: Representation, hom=None) -> bool:
    """Does N lie in the smallest torsion class containing the generators?

    Peel the trace of the generators off N and recurse on the quotient.  The
    trace is a generated quotient, so peeling builds the required filtration
    from below; conversely torsion classes are quotient closed, so a member
    must keep a nonzero trace at every stage.  A full or a zero trace (the
    zero module's is full) is read off the ranks, so only a proper nonzero
    trace is carved.  hom supplies the Hom spaces, as in trace_submodule.
    """
    tr = trace_submodule(gens, N, hom)
    if tr.full:
        return True
    if tr.zero:
        return False
    return in_torsion_closure(gens, tr.carved.quot, hom)


def in_gen_closure(gens: list[Representation], N: Representation, hom=None) -> bool:
    """Is N a quotient of a finite sum of the generators?"""
    return generates(gens, N, hom)


# ---------------------------------------------------------------------------
# finite universes

@dataclass(eq=False)
class ModuleUniverse:
    """A finite list of pairwise nonisomorphic indecomposables with caches.

    The caches live and die with the universe; the Hom table holds the Hom
    space of each ordered pair of members once it has been asked for or
    handed over at construction.
    """

    quiver: ValuedQuiver
    p: int
    modules: tuple[Representation, ...]
    rng: random.Random
    _middles: dict = field(default_factory=dict)
    _closure: dict = field(default_factory=dict)
    _gen: dict = field(default_factory=dict)
    _peeled: dict = field(default_factory=dict)
    _homs: dict = field(default_factory=dict)
    _index: dict = field(init=False)
    _members: frozenset = field(init=False)
    _holders: dict = field(init=False)

    def __post_init__(self):
        self._index = {id(M): i for i, M in enumerate(self.modules)}
        self._members = frozenset(range(len(self.modules)))
        # member m -> the members j whose cached peeled closure T(j) holds m
        self._holders = {m: set() for m in self._members}

    def __len__(self) -> int:
        return len(self.modules)

    def hom(self, X: Representation, Y: Representation) -> HomSpace:
        """Hom(X, Y): from the table when both are members, else computed."""
        key = (self._index.get(id(X)), self._index.get(id(Y)))
        if None in key:
            return hom_basis(X, Y)
        if key not in self._homs:
            self._homs[key] = hom_basis(X, Y)
        return self._homs[key]

    def match(self, M: Representation) -> int:
        idx = _iso_index(M, self.modules, self.rng)
        if idx is None:
            raise KeyError(f"module with dims {M.dims} is not in the universe")
        return idx

    def middle_summands(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        """Universe indices of the summands of each middle term of
        extensions of module i by module j.

        The split middle term comes first and its summands are i and j; only
        the nonsplit ones are decomposed.
        """
        if (i, j) not in self._middles:
            nonsplit = middle_terms(self.modules[i], self.modules[j], self.rng,
                                    hom=self.hom)[1:]
            self._middles[(i, j)] = (tuple(sorted((i, j))),) + tuple(
                tuple(sorted(self.match(part) for part in decompose(E, self.rng)))
                for E in nonsplit)
        return self._middles[(i, j)]

    def generated(self, gens: frozenset, member: int) -> bool:
        key = (gens, member)
        if key not in self._gen:
            self._gen[key] = in_gen_closure(
                [self.modules[g] for g in sorted(gens)], self.modules[member], self.hom)
        return self._gen[key]

    def peeled_closure(self, gens: frozenset) -> frozenset:
        """Members that the peeling test puts in the torsion closure of the
        given members.  Unlike torsion_closure it needs no extension-closed
        universe, so the sampled universe of the bounded check uses it.

        T is monotone, so the cache bounds the answer: it contains every
        cached T(K) with K ⊆ gens and misses every member outside a cached
        T(K) that contains gens.  Only the members left open are peeled, in
        index order; one found inside brings its cached T(m) along, and one
        found outside rules out every j whose cached T(j) contains it (its
        holders).  The bounds hold because each cached value is exactly
        T(K) ∩ U: only peeled answers enter the cache.
        """
        if gens in self._peeled:
            return self._peeled[gens]
        inside, outside = set(gens), set()
        for key, closed in self._peeled.items():
            if key <= gens:
                inside |= closed
            if gens <= closed:
                outside |= self._members - closed
        glist = [self.modules[g] for g in sorted(gens)]
        for m in range(len(self)):
            if m in inside or m in outside:
                continue
            if in_torsion_closure(glist, self.modules[m], self.hom):
                inside |= self._peeled.get(frozenset((m,)), {m})
            else:
                outside |= self._holders[m]
        self._peeled[gens] = result = frozenset(inside)
        if len(gens) == 1:
            [j] = gens
            for m in result:
                self._holders[m].add(j)
        return result


def finite_universe(q: ValuedQuiver, p: int, rng: random.Random) -> ModuleUniverse:
    """Every indecomposable, sorted by (total dimension, dims), with the Hom
    table the knitting built between all of them: the spaces with <x, y> > 0
    solved and checked against the Euler form, the others the zero spaces
    the Euler form decides (see knit_ar_quiver), taken over unchanged."""
    from .ar_quiver import knit_ar_quiver

    ar = knit_ar_quiver(q, p)
    u = ModuleUniverse(q, p, tuple(ar.sorted_modules()), rng)
    for h in ar.homs.values():
        u._homs[u._index[id(h.source)], u._index[id(h.target)]] = h
    return u


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
    peeled = u.peeled_closure(gens)
    require(result == peeled,
            f"closure engines disagree at members {sorted(result ^ peeled)}")
    return result


def enumerate_torsion_classes(u: ModuleUniverse) -> list[frozenset]:
    """All torsion classes, grown breadth-first from the empty class.

    Every class is reached: from any reachable subclass, adjoining a missing
    member and closing stays inside the class and strictly grows.
    """
    empty = torsion_closure(u, frozenset())
    require(empty == frozenset(), "the empty class must be closed")
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


def find_cover(u: ModuleUniverse, t: frozenset) -> Representation:
    """A single module whose generated quotients are exactly the class.

    The candidate is the direct sum of one copy of each member with summands
    generated by the rest dropped, so the result is normal.  Over a complete
    finite universe it always passes the generation test, so a failure is a
    bug and raises VerificationError.
    """
    members = sorted(t)
    kept = [members[k] for k in _drop_generated([u.modules[m] for m in members], u.hom)]
    generated = gen_closure(u, frozenset(kept))
    require(generated == t, f"the cover of class {members} generates "
                            f"{sorted(generated)}")
    if not kept:
        return zero_rep(u.quiver, u.p)
    return direct_sum([u.modules[k] for k in kept])


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
    verdict: str                      # "consistent", "failed", "inconclusive"
    universe_size: int
    class_count: int
    failures: tuple
    notes: str


KRONECKER_SAMPLES = 4   # random (k, k) representations decomposed for each k


def _kronecker_universe(q: ValuedQuiver, p: int, bound: int,
                        rng: random.Random) -> list[Representation]:
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
        for _ in range(KRONECKER_SAMPLES):
            cand = random_rep(q, p, (k, k), rng)
            try:
                parts = decompose(cand, rng)
            except DecompositionInconclusive:
                continue
            for part in parts:
                push(part)
    return sorted(mods, key=lambda m: (m.total, m.dims))


def _prune(u: ModuleUniverse, gens: frozenset) -> frozenset:
    """Drop generators generated by the others; same closure, far fewer Hom
    systems per membership test."""
    mods = u.modules
    kept: list[int] = []
    for g in sorted(gens, key=lambda g: (-mods[g].total, mods[g].dims)):
        if not kept or not u.generated(frozenset(kept), g):
            kept.append(g)
    return frozenset(kept)


def two_vertex_check(q: ValuedQuiver, p: int, bound: int,
                     rng: random.Random) -> TwoVertexReport:
    """Meet/join consistency for torsion classes of a two-vertex algebra.

    Representation-finite inputs raise ValueError: lattice_check over
    finite_universe decides them exactly.  The tame two-arrow algebra is
    checked inside a bounded sampled universe: classes are the closures of
    single modules, and for every pair of classes the meet (intersection)
    and join (closure of the union) are certified to be classes again.  Wild
    two-vertex algebras are reported inconclusive rather than guessed at.

    Each class, meet and join is a peeled closure T(G) ∩ U.  _prune drops
    only generators that the kept ones generate, so it leaves the closure
    unchanged.
    """
    if q.n != 2:
        raise ValueError("this check is for two-vertex quivers")
    qt = classify_type(q)
    if qt.representation_finite:
        raise ValueError("a representation-finite quiver gets the exact lattice check")
    if qt.family == "wild" or not q.is_path_algebra():
        return TwoVertexReport(
            "inconclusive", 0, 0, (),
            "no bounded certificate is attempted for a wild two-vertex algebra")

    u = ModuleUniverse(q, p, tuple(_kronecker_universe(q, p, bound, rng)), rng)
    single = {i: u.peeled_closure(frozenset([i])) for i in range(len(u))}
    classes = sorted(
        set(single.values()) | {frozenset(), frozenset(range(len(u)))},
        key=lambda s: (len(s), sorted(s)))
    class_set = set(classes)
    gens_of = {}
    for i, cls in single.items():
        gens_of.setdefault(cls, frozenset([i]))
    gens_of.setdefault(frozenset(), frozenset())
    gens_of.setdefault(frozenset(range(len(u))), frozenset(range(len(u))))

    failures = []
    for a, t in enumerate(classes):
        for s in classes[a + 1:]:
            inter = t & s
            # the meet must be the closure of its own members
            if u.peeled_closure(_prune(u, inter)) != inter:
                failures.append(("meet", sorted(t), sorted(s)))
                continue
            join = u.peeled_closure(_prune(u, gens_of[t] | gens_of[s]))
            if any(t <= c and s <= c and not join <= c for c in class_set):
                failures.append(("join", sorted(t), sorted(s)))
    verdict = "consistent" if not failures else "failed"
    return TwoVertexReport(verdict, len(u), len(classes), tuple(failures),
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
    objects: list[FiltrationObject]


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
    maps = [f for X in cycle for f in hom_basis(M, X).basis]
    return carve(M, [la.kernel_basis(la.vstack([f[v] for f in maps]), M.p) if maps
                     else la.identity(M.dims[v]) for v in range(M.quiver.n)])


def relative_loewy_length(M: Representation, cycle, rng) -> int:
    """Steps of the relative radical series, with each layer certified to be
    a sum of cycle members."""
    steps = 0
    current = M
    while current.total > 0:
        carved = _relative_radical(current, cycle)
        layer = carved.quot
        require(carved.sub.total < current.total,
                "relative radical failed to shrink; module is not filtered by the cycle")
        if layer.total:
            for part in decompose(layer, rng):
                require(_iso_index(part, cycle, rng) is not None,
                        f"layer summand {part.dims} is not a cycle member")
        current = carved.sub
        steps += 1
    return steps


def validate_ext_cycle(cycle) -> None:
    """Check the defining conditions of an extension cycle.

    Every entry must be a brick, distinct entries must have no homomorphisms
    either way, and each entry must extend the next one cyclically.  A single
    module without self-extensions fails the last condition, as does any
    family drawn from a representation-finite algebra.  Cycles are computed,
    so a failure is a failed self-check: VerificationError.
    """
    cycle = tuple(cycle)
    require(cycle, "an extension cycle needs at least one module")
    for i, X in enumerate(cycle):
        require(hom_dim(X, X) == 1, f"cycle entry {i} is not a brick")
        for j in range(i + 1, len(cycle)):
            require(hom_dim(X, cycle[j]) == 0 and hom_dim(cycle[j], X) == 0,
                    f"cycle entries {i} and {j} are not orthogonal")
    for i, X in enumerate(cycle):
        nxt = (i + 1) % len(cycle)
        require(ext_dim(X, cycle[nxt]) > 0, f"cycle entry {i} has no extension by entry {nxt}")


def filtration_universe(cycle, bound: int, rng: random.Random) -> FiltrationUniverse:
    """Indecomposable iterated extensions of the cycle members, up to the
    given number of factors.

    Two factors from distinct members A and B need no isomorphism scan.  A
    middle E of 0 -> A -> E -> B -> 0 has Hom(A, E) != 0 and Hom(E, B) != 0.
    The members are Hom-orthogonal bricks, so every member and every other
    object of level 2 fails one of the two, except the middles with the same
    ends, which middle_terms lists as pairwise nonisomorphic, and those with
    sub B and quotient A, where a nonzero map A -> E -> A would split the
    extension.  Self-extensions and longer filtrations are scanned against
    everything found so far.

    The first two levels have known relative Loewy length.  A member has
    radical 0 (the identity is a map to the cycle).  For E as above, a map
    E -> X to a member vanishes on A: Hom(A, X) = 0 for X != A, and a
    nonzero scalar A -> E -> A would split E.  So each map factors through
    E -> B, whose kernel is A: the radical of E is A and its length is 2.
    Only levels 3 and up run relative_loewy_length.
    """
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
                    distinct_members = total == 2 and A is not B
                    for E in middle_terms(B, A, rng)[1:]:
                        parts = decompose(E, rng)
                        if len(parts) != 1:
                            continue
                        if distinct_members or _iso_index(
                                E, [N for N, _ in found] + fresh, rng) is None:
                            fresh.append(E)
        levels.append(fresh)
        found.extend((M, total) for M in fresh)

    objects = [
        FiltrationObject(M, length,
                         length if length <= 2 else relative_loewy_length(M, cycle, rng))
        for M, length in found
    ]
    objects.sort(key=lambda o: (o.module.total, o.module.dims))
    return FiltrationUniverse(cycle, objects)


def serial_object(cycle, top_index: int, length: int,
                  rng: random.Random) -> Representation:
    """The serial object with layers cycle[top_index], cycle[top_index + 1],
    ... from the top, built upward by picking at each step the first nonsplit
    middle that stays serial.  On a tube mouth these are the regular
    uniserials (Ringel, LNM 1099, 3.1)."""
    if length < 1:
        raise ValueError("a serial object has at least one layer")
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
        require(pick is not None, "no serial middle found")
        current = pick
    return current


def no_cover_evidence(cycle, bound: int, rng: random.Random) -> NoCoverEvidence:
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
        serial = serial_object(fu.cycle, 0, r + 1, rng)
        gen = generates(lower, serial)
        witnesses.append((r, serial.dims, bool(gen)))
        for o in fu.objects:
            if o.loewy > r and generates(lower, o.module):
                monotone_ok = False
    return NoCoverEvidence(bound, len(fu.objects), tuple(witnesses), monotone_ok)
