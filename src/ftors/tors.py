"""Torsion classes of path algebras: closures, enumeration, covers, lattices.

Membership is decided by peeling: peel the trace of the generators off the
candidate and recurse on the quotient.  A candidate lies in the smallest
torsion class containing the generators exactly when the peeling reaches
zero, because traces are generated quotients and torsion classes are closed
under extensions upward along the peeled chain.  A trace is read as full or
zero off its ranks at each vertex; only a peeling step through a proper
nonzero trace carves it and builds the quotient.

For representation-finite quivers the indecomposables form a finite
universe U, closed under extensions, and a torsion class T is ⊥(T^⊥).  So
torsion_closure reads T(G) ∩ U off the Hom table (hom_closure) and its
cover off the table and τ, and certifies each distinct answer once through
its cover.  The classes grow along the Hasse edges the enumeration records.

A sampled universe (the bounded two-vertex check) has no complete Hom
table, so peeled_closure peels there, bounded by monotonicity: K ⊆ G gives
T(K) ⊆ T(G), and each cached peeled closure is exactly T(K) ∩ U.  The
filtration evidence tests generation once per level (no_cover_evidence).

Each ModuleUniverse caches the Hom spaces between its members (a finite
universe starts with the table its knitting built) and the per-pair facts
read from them, so only peeled quotients and outside modules reach
hom_basis again.

Extension cycles, from a tube mouth or a double-extension pair, have one
check (validate_ext_cycle) and one builder of serial objects (serial_object).
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, reduce
from operator import or_

from .modules import (
    DecompositionInconclusive,
    HomSpace,
    Representation,
    _iso_index,
    _rank_invariants,
    ar_translate,
    ar_translate_inverse,
    carve,
    decompose,
    direct_sum,
    ext_dim,
    generates,
    hom_basis,
    hom_dim,
    image_bases,
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


def in_gen_closure(gens: list[Representation], N: Representation, hom=None,
                   images=None) -> bool:
    """Is N a quotient of a finite sum of the generators?

    images(G, N), when given, supplies Im Hom(G, N) at each vertex; their
    span, the trace, is full where one image is or where the stacked images
    have full rank.  Otherwise hom supplies the Hom spaces of a trace.
    """
    if images is None:
        return generates(gens, N, hom)
    ims = [images(G, N) for G in gens]
    for v, d in enumerate(N.dims):
        bases = [im[v] for im in ims]
        if d not in [b.shape[1] for b in bases] and la.rank(la.hstack(bases), N.p) < d:
            return False
    return True


# ---------------------------------------------------------------------------
# finite universes

class ModuleUniverse:
    """A finite list of pairwise nonisomorphic indecomposables with caches.

    Each cache is filled on first use and lives with the universe: _homs
    holds the Hom space of each ordered pair of members (a finite universe
    is handed its table), _images its image at each vertex, _middles the
    summands of the pair's middle terms, _middle_masks those as one bitmask
    per pair with Ext != 0 (all pairs at once), _covers each certified
    class's cover, and _gen and _peeled a sampled universe's tests.  A
    finite universe also holds hom_rows, the table as bitmasks (bit j of
    row i is set when Hom(i, j) != 0), and tau, each member's translate
    (None at a projective).
    """

    def __init__(self, quiver: ValuedQuiver, p: int, modules: tuple[Representation, ...]):
        self.quiver, self.p, self.modules = quiver, p, modules
        self._middles, self._covers, self._gen, self._peeled = {}, {}, {}, {}
        self._homs, self._images = {}, {}
        self.hom_rows, self.tau = [], []
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
        idx = _iso_index(M, self.modules)
        if idx is None:
            raise KeyError(f"module with dims {M.dims} is not in the universe")
        return idx

    def image(self, X: Representation, Y: Representation) -> tuple:
        """Im Hom(X, Y) of two members at each vertex, the bases that
        trace_submodule([X], Y) spans, computed once per pair."""
        key = (self._index[id(X)], self._index[id(Y)])
        if key not in self._images:
            self._images[key] = image_bases(Y, self.hom(X, Y).basis)
        return self._images[key]

    def middle_summands(self, i: int, j: int) -> tuple[tuple[int, ...], ...]:
        """Universe indices of the summands of each middle term of
        the nonsplit extensions of module i by module j, one entry per line
        of P(Ext) as middle_terms lists them; callers read them as a set of
        summands.  The split middle term, whose summands are i and j, is left
        out.
        """
        if (i, j) not in self._middles:
            self._middles[(i, j)] = tuple(
                tuple(sorted(self.match(part) for part in decompose(E)))
                for E in middle_terms(self.modules[i], self.modules[j], hom=self.hom))
        return self._middles[(i, j)]

    @cached_property
    def _middle_masks(self) -> list[tuple[int, int, int]]:
        """(i, j, mask) for each pair of members with a nonsplit middle of i
        by j (Ext(i, j) != 0, as middle_terms decides it), bit s of mask set
        for each summand s that middle_summands(i, j) lists."""
        return [(i, j, mask) for i, j in itertools.product(range(len(self)), repeat=2)
                if (mask := sum({1 << s for parts in self.middle_summands(i, j) for s in parts}))]

    def extension_summands(self, members) -> set[int]:
        """The summands of the nonsplit middles of pairs of the given
        members, from the OR of their pairs' masks."""
        inside = sum(1 << m for m in members)
        found = reduce(or_, (mask for i, j, mask in self._middle_masks
                             if inside >> i & inside >> j & 1), 0)
        return {s for s in range(len(self)) if found >> s & 1}

    def generated(self, gens: frozenset, member: int) -> bool:
        """in_gen_closure on members through their Hom spaces, memoized for
        _prune, which asks most pairs again."""
        key = (gens, member)
        if key not in self._gen:
            self._gen[key] = in_gen_closure(
                [self.modules[g] for g in sorted(gens)], self.modules[member], self.hom)
        return self._gen[key]

    def peeled_closure(self, gens: frozenset) -> frozenset:
        """Members that the peeling test puts in the torsion closure of the
        given members: the engine of a sampled universe, which has neither
        a complete Hom table nor closure under extensions.

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


def finite_universe(q: ValuedQuiver, p: int) -> ModuleUniverse:
    """Every indecomposable, sorted by (total dimension, dims), with the Hom
    table and the translates the knitting built between all of them (see
    knit_ar_quiver), taken over unchanged, and the table as bitmask rows."""
    from .ar_quiver import knit_ar_quiver

    ar = knit_ar_quiver(q, p)
    u = ModuleUniverse(q, p, tuple(ar.sorted_modules()))
    u.hom_rows = [0] * len(u)
    for h in ar.homs.values():
        i, j = u._index[id(h.source)], u._index[id(h.target)]
        u._homs[i, j] = h
        if h.dim:
            u.hom_rows[i] |= 1 << j
    at = [u._index[id(node.module)] for node in ar.nodes]
    tau = {at[y]: at[ty] for y, ty in ar.translate.items()}
    u.tau = [tau.get(m) for m in range(len(u))]
    return u


# ---------------------------------------------------------------------------
# closures and enumeration over a finite universe

def hom_closure(rows: list, gens) -> frozenset:
    """⊥(G^⊥) for the Galois connection "Hom(i, j) = 0", from the bitmask
    rows of the Hom table: the members m with Hom(m, y) = 0 for every y that
    no generator maps to nonzero."""
    reached = reduce(or_, (rows[g] for g in gens), 0)
    return frozenset(m for m, row in enumerate(rows) if not row & ~reached)


def torsion_closure(u: ModuleUniverse, gens) -> frozenset:
    """The torsion class the given members generate, as universe indices.

    T(G)^⊥ = G^⊥ and every module is a sum of members, so T(G) ∩ U is the
    hom_closure of G.  Each distinct answer T, which must contain gens, is
    certified once, for the generators that first produce it, through its
    cover K, which find_cover returns.  The Ext-projectives P of T are the
    X ∈ T with Hom(T, τX) = 0: Ext(X, Y) ≅ D Hom(Y, τX) over a hereditary
    algebra, and τX = 0 at a projective.  K is the X ∈ P outside
    hom_closure(P - X), the members of Gen(P - X), which is extension closed
    (pull an extension back along an epimorphism from copies of P - X, and
    it splits).  In finite type every member is a brick, so the summands of
    an irredundant generator of T are its split projectives, which lie in
    P, generate T and are exactly K.

    Module tests: peeling puts K - gens inside T(gens), so Gen K ⊆ T(gens),
    and a generation test from the cached images puts each member of T
    outside K in Gen K.  Read off the rows: no other member m is in Gen K,
    as some y has Hom(m, y) != 0 = Hom(K, y), which no quotient of a sum of
    copies of K allows.  So Gen K ∩ U = T and T is closed under quotients;
    the OR of the universe's middle masks over pairs of members shows that
    T holds every summand of every middle term of two members.  So T is
    exactly T(gens) ∩ U.  For later generators it is a torsion class holding
    them; that it holds no more rests on the Hom table, whose nonzero spaces
    the knitting checked against the Euler form.
    """
    gens = frozenset(gens)
    result = hom_closure(u.hom_rows, gens)
    require(gens <= result, f"the closure of {sorted(gens)} misses generators "
                            f"{sorted(gens - result)}")
    if result not in u._covers:
        reached = reduce(or_, (u.hom_rows[m] for m in result), 0)
        ext_projective = {x for x in result if u.tau[x] is None or not reached >> u.tau[x] & 1}
        cover = frozenset(x for x in ext_projective
                          if x not in hom_closure(u.hom_rows, ext_projective - {x}))
        glist = [u.modules[g] for g in sorted(gens)]
        unreached = [m for m in sorted(cover - gens)
                     if not in_torsion_closure(glist, u.modules[m], u.hom)]
        require(not unreached, f"the closure of {sorted(gens)} holds members "
                               f"{unreached} that its generators do not reach")
        members = sorted(result)
        clist = [u.modules[k] for k in sorted(cover)]
        missed = [m for m in members if m not in cover
                  and not in_gen_closure(clist, u.modules[m], images=u.image)]
        require(not missed, f"the cover of class {members} misses members {missed}")
        below = reduce(or_, (u.hom_rows[k] for k in cover), 0)
        generated = [m for m, row in enumerate(u.hom_rows) if m not in result and not row & ~below]
        require(not generated, f"the closure {members} generates members {generated}")
        missing = u.extension_summands(result) - result
        require(not missing, f"the closure {members} misses the extension summands "
                             f"{sorted(missing)}")
        u._covers[result] = cover
    return result


def enumerate_torsion_classes(u: ModuleUniverse) -> tuple[list[frozenset], list[tuple[int, int]]]:
    """All torsion classes, sorted by (size, members), and the covering
    pairs (lower index, upper index) of their Hasse diagram.

    The upper covers of a class t are the minimal sets among the closures of
    t ∪ {x}, x ∉ t: every class s above t holds such an x and so its closure,
    and any x ∈ s - t of a cover s closes to s.  A class s above t contains
    a minimal closure, so growing the classes from the empty class along
    covers reaches every class.
    """
    covers = {}
    queue = [frozenset()]
    seen = set(queue)
    while queue:
        t = queue.pop()
        above = list(dict.fromkeys(
            torsion_closure(u, t | {x}) for x in range(len(u)) if x not in t))
        covers[t] = [s for s in above if not any(v < s for v in above)]
        fresh = [s for s in covers[t] if s not in seen]
        seen.update(fresh)
        queue.extend(fresh)
    classes = sorted(covers, key=lambda s: (len(s), sorted(s)))
    index = {c: k for k, c in enumerate(classes)}
    return classes, sorted((index[t], index[s]) for t in classes for s in covers[t])


def find_cover(u: ModuleUniverse, t: frozenset) -> Representation:
    """The irredundant cover of the torsion class t, which torsion_closure
    reads off τ and certifies: its generated quotients are exactly t, and it
    is normal.  A failure is a bug and raises VerificationError."""
    require(torsion_closure(u, t) == t, f"{sorted(t)} is not a torsion class")
    cover = u._covers[t]
    if not cover:
        return zero_rep(u.quiver, u.p)
    return direct_sum([u.modules[k] for k in sorted(cover)])


class LatticeReport:
    __slots__ = ("class_count", "edges", "meet_failures")

    def __init__(self, class_count: int, edges: tuple, meet_failures: tuple):
        self.class_count = class_count
        self.edges = edges              # Hasse diagram, see enumerate_torsion_classes
        self.meet_failures = meet_failures

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def is_lattice(self) -> bool:
        return not self.meet_failures


def lattice_check(u: ModuleUniverse, classes: list[frozenset], edges) -> LatticeReport:
    """Verify that the enumerated torsion classes form a lattice.

    The family must hold the empty class and the whole universe, and the
    intersection of any two classes must be a class again; a pair whose
    intersection is missing is a meet failure.  A finite family closed under
    intersection with a top element is a lattice: the join of two classes is
    the intersection of all classes above both, so no join can fail.
    """
    class_set = set(classes)
    require({frozenset(), frozenset(range(len(u)))} <= class_set,
            "the classes must include the empty class and the whole universe")
    meet_failures = [(sorted(t), sorted(s))
                     for a, t in enumerate(classes) for s in classes[a + 1:]
                     if t & s not in class_set]
    return LatticeReport(len(classes), tuple(edges), tuple(meet_failures))


# ---------------------------------------------------------------------------
# bounded two-vertex check

class TwoVertexReport:
    __slots__ = ("verdict", "universe_size", "class_count", "failures", "notes")

    def __init__(self, verdict: str, universe_size: int, class_count: int,
                 failures: tuple, notes: str):
        self.verdict = verdict          # "consistent", "failed", "inconclusive"
        self.universe_size, self.class_count = universe_size, class_count
        self.failures, self.notes = failures, notes


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
        if 0 < M.total <= bound and _iso_index(M, mods) is None:
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
                parts = decompose(cand)
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

    u = ModuleUniverse(q, p, tuple(_kronecker_universe(q, p, bound, rng)))
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

class FiltrationObject:
    __slots__ = ("module", "length", "loewy")

    def __init__(self, module: Representation, length: int, loewy: int):
        self.module = module
        self.length = length    # number of cycle factors used to build it
        self.loewy = loewy      # relative radical length


class FiltrationUniverse:
    __slots__ = ("cycle", "objects")

    def __init__(self, cycle: tuple[Representation, ...], objects: list[FiltrationObject]):
        self.cycle, self.objects = cycle, objects


class NoCoverEvidence:
    __slots__ = ("bound", "universe_size", "witnesses")

    def __init__(self, bound: int, universe_size: int, witnesses: tuple):
        self.bound, self.universe_size = bound, universe_size
        self.witnesses = witnesses      # (r, serial dims, generated?) per step

    @property
    def ok(self) -> bool:
        return all(not gen for _, _, gen in self.witnesses)


def relative_loewy_length(M: Representation, cycle) -> int:
    """Steps of the relative radical series of M along a cycle that
    validate_ext_cycle accepts, each layer certified to be a sum of members:
    the layer M/rad embeds in the sum of the X^h_X, h_X = dim Hom(M, X), and
    for pairwise orthogonal bricks it is a sum of members exactly when it
    fills it, dim M - dim rad = sum h_X dim X at every vertex."""
    steps = 0
    while M.total > 0:
        homs = [hom_basis(M, X) for X in cycle]
        maps = [f for h in homs for f in h.basis]
        rad = carve(M, [la.kernel_basis(la.vstack([f[v] for f in maps]), M.p) if maps
                        else la.identity(d) for v, d in enumerate(M.dims)]).sub
        require(rad.total < M.total,
                "relative radical failed to shrink; module is not filtered by the cycle")
        layer = tuple(d - r for d, r in zip(M.dims, rad.dims))
        require(layer == tuple(sum(h.dim * X.dims[v] for h, X in zip(homs, cycle))
                               for v in range(len(layer))),
                f"layer {layer} is not a sum of cycle members")
        M = rad
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


def _is_new(E: Representation, unkeyed: dict, keyed: dict) -> bool:
    """File E in its level unless an earlier object there is isomorphic to
    it; True when filed.  Objects wait in unkeyed, by dims, with no
    invariants computed, until an object of their dims needs a test; then
    they move to keyed, by dims and _rank_invariants, in the order filed,
    so _iso_index meets only equal invariants.  The first object of its
    dims is filed with no test."""
    waiting = unkeyed.get(E.dims)
    if waiting is None:
        unkeyed[E.dims] = [E]
        return True
    for M in waiting:
        keyed.setdefault((M.dims, _rank_invariants(M)), []).append(M)
    waiting.clear()
    same = keyed.setdefault((E.dims, _rank_invariants(E)), [])
    if _iso_index(E, same) is not None:
        return False
    same.append(E)
    return True


def _loewy_on_top(E: Representation, A: FiltrationObject, B: FiltrationObject, cycle) -> int:
    """Relative Loewy length of a kept middle E of 0 -> A -> E -> B -> 0:
    A.loewy + 1 when B is a member and the maps from E to the members are
    the multiples of E -> B (filtration_universe, (ii)), with the top layer
    identity of relative_loewy_length checked on the Hom dimensions read;
    otherwise relative_loewy_length."""
    if B.length == 1:
        h = [hom_basis(E, X).dim for X in cycle]
        if sum(h) == 1:
            layer = tuple(sum(k * X.dims[v] for k, X in zip(h, cycle)) for v in range(len(E.dims)))
            require(tuple(e - a for e, a in zip(E.dims, A.module.dims)) == layer,
                    f"layer {layer} of {E.dims} is not its quotient by {A.module.dims}")
            return A.loewy + 1
    return relative_loewy_length(E, cycle)


def filtration_universe(cycle, bound: int) -> FiltrationUniverse:
    """Indecomposable iterated extensions of the cycle members, up to the
    given number of factors, each with its relative Loewy length.

    Level L holds the new indecomposable middles E of 0 -> A -> E -> B -> 0,
    one per line of P(Ext(B, A)), over the objects A of level a and B of
    level L - a, with the member as quotient first (a from L - 1 down to 1).

    Objects are matched within their level only.  The cycle's pairwise
    Hom-orthogonal bricks filter an exact abelian, extension-closed category
    W with the members as its simples (Ringel, J. Algebra 41, 1976), and an
    isomorphism in mod Λ between objects of W is one in W.  A level-L object
    has composition length L in W (Jordan-Hölder), so levels never match.
    Within a level _is_new files the objects by dims and rank invariants.

    Two factors from distinct members A and B need no isomorphism scan.  A
    middle E of 0 -> A -> E -> B -> 0 has Hom(A, E) != 0 and Hom(E, B) != 0.
    The members are Hom-orthogonal bricks, so every other object of level 2
    fails one of the two, except the middles with the same ends and those
    with sub B and quotient A, where a nonzero map A -> E -> A would split
    the extension.  The middles with the same ends are pairwise
    nonisomorphic, one per line of P(Ext(B, A)): an isomorphism E -> E'
    sends A into the kernel of E' -> B, because Hom(A, B) = 0, so it is a
    morphism of extensions whose ends are nonzero scalars on the bricks A
    and B, and its two classes lie on one line.  So these middles are not
    filed, and any other object goes through _iso_index against its
    level's filed objects of its dims and ranks.

    Indecomposability.  Up to three factors a middle E of
    0 -> A -> E -> B -> 0 has indecomposable ends, one a member, say B.  If
    E = E1 + E2 in W, each Ei maps onto B, else Ei is a summand of A, so
    Ei = A and E splits; Ei = B splits E too, so each Ei has length at
    least 2 and E at least 4.  Dually if A is a member, it embeds in each Ei.
    So no middle of up to three factors is tested.  From four factors on:
    (i) let E = E1 + E2 with both nonzero, and e1, e2 the idempotents of
    End(E) onto them.  If pi: E -> B kills E1, then E1 lies in ker pi = A,
    and by the modular law A = E1 + (A ∩ E2); A is indecomposable, so
    E1 = A and the sequence splits.  So pi e1 and pi e2 are nonzero, and
    independent, as each kills the other's summand: dim Hom(E, B) >= 2.
    Dually (B indecomposable), if e1 kills A, then A lies in E2 and
    B = E1 + E2/A, so E2 = A and the sequence splits; so e1 and e2 restrict
    to independent maps A -> E: dim Hom(A, E) >= 2.  Either dimension being
    1 proves E indecomposable, recorded as its one summand, and only a
    middle with both at least 2 runs decompose.

    Loewy length.  rad_W(E), the meet of the maximal subobjects of E in W,
    is the common kernel of the maps from E to the members, the radical
    relative_loewy_length peels: each nonzero such map is onto a simple of
    W, and each maximal subobject is the kernel of one.  A member has
    radical 0 (the identity is a map to the cycle).  On level 2, a map
    E -> X to a member vanishes on A: Hom(A, X) = 0 for X != A, and a
    nonzero scalar A -> E -> A would split E.  So each map factors through
    E -> B, whose kernel is A: the radical of E is A and its length is 2.
    (ii) From level 3 on, when B is a member and the maps from E to the
    members are the multiples of pi, that is, dim Hom(E, X) summed over the
    cycle is 1, their common kernel is ker pi = A.  Loewy length is
    invariant under isomorphism, so E has the length of the object A plus
    one; the top layer identity dims(E) - dims(A) = sum h_X dims(X) is
    still checked (_loewy_on_top).  Every other object runs
    relative_loewy_length.
    """
    cycle = tuple(cycle)
    validate_ext_cycle(cycle)
    levels: list[list[FiltrationObject]] = [[], [FiltrationObject(X, 1, 1) for X in cycle]]
    for total in range(2, bound + 1):
        fresh: list[FiltrationObject] = []
        unkeyed: dict[tuple, list[Representation]] = {}
        keyed: dict[tuple, list[Representation]] = {}
        for a in range(total - 1, 0, -1):
            for A in levels[a]:
                for B in levels[total - a]:
                    distinct_members = total == 2 and A is not B
                    for E in middle_terms(B.module, A.module):
                        if total > 3:
                            if hom_basis(E, B.module).dim == 1 or hom_basis(A.module, E).dim == 1:
                                E._parts = (E,)
                            elif len(decompose(E)) != 1:
                                continue
                        if distinct_members or _is_new(E, unkeyed, keyed):
                            fresh.append(FiltrationObject(
                                E, total, total if total == 2 else _loewy_on_top(E, A, B, cycle)))
        levels.append(fresh)

    objects = [o for level in levels for o in level]
    objects.sort(key=lambda o: (o.module.total, o.module.dims))
    return FiltrationUniverse(cycle, objects)


def serial_object(cycle, top_index: int, length: int) -> Representation:
    """The serial object with layers cycle[top_index], cycle[top_index + 1],
    ... from the top, built upward by picking at each step the first nonsplit
    middle that stays serial.  The cycle must be one that validate_ext_cycle
    accepts, as relative_loewy_length needs.  On a tube mouth these are the
    regular uniserials (Ringel, LNM 1099, 3.1).  No middle is decomposed: a
    middle E of a step to m layers lies in W (filtration_universe) with
    composition length m, which bounds its relative Loewy length, with
    equality exactly when E is uniserial; a sum E1 + E2 has Loewy length
    max(LL(E1), LL(E2)) < len(E1) + len(E2).  The layer identity holds on
    all of W, so the Loewy test rejects a decomposable E without raising."""
    if length < 1:
        raise ValueError("a serial object has at least one layer")
    r = len(cycle)
    current = cycle[(top_index + length - 1) % r]
    for k in range(length - 2, -1, -1):
        current = next((E for E in middle_terms(cycle[(top_index + k) % r], current)
                        if relative_loewy_length(E, cycle) == length - k), None)
        require(current is not None, "no serial middle found")
    return current


def no_cover_evidence(cycle, bound: int) -> NoCoverEvidence:
    """Evidence that the filtration chain admits no covering step: for each
    r below the bound, the serial object with r + 1 layers is not generated
    by the objects of relative Loewy length at most r, so no single
    enlargement of the r-th class reaches the next.

    No other object needs a test.  An epimorphism in mod Λ between objects
    of W, the category the cycle filters (filtration_universe), is one in W
    and maps the relative radical onto the relative radical, so quotients
    and finite sums never raise the relative Loewy length: no object of
    length l is generated by level l - 1.  The lengths are certified, levels
    1 and 2 by the proof in filtration_universe, 3 and up by its induction
    step or by relative_loewy_length, each with its layer identity checked.
    The argument covers the witnesses too; their test stays as the one
    module test per level.

    Each witness is read from the universe: the first object of Loewy length
    and length r + 1, so uniserial, with the serial dims and a map onto its
    top cycle[0].  Every such uniserial U is there, a middle of (cycle[0],
    rad U) with rad U one level down.
    """
    if bound < 2:
        raise ValueError("no-cover evidence needs a bound of at least 2")
    fu = filtration_universe(cycle, bound)
    top, witnesses = fu.cycle[0], []
    for r in range(1, bound):
        dims = tuple(map(sum, zip(*(fu.cycle[k % len(fu.cycle)].dims for k in range(r + 1)))))
        serial = next((o.module for o in fu.objects if o.length == o.loewy == r + 1
                       and o.module.dims == dims and hom_dim(o.module, top)), None)
        require(serial is not None, f"the universe holds no serial object with {r + 1} layers")
        lower = [o.module for o in fu.objects if o.loewy <= r]
        witnesses.append((r, serial.dims, bool(generates(lower, serial))))
    return NoCoverEvidence(bound, len(fu.objects), tuple(witnesses))
