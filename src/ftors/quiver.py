"""Finite acyclic valued quivers.

The data model is deliberately rigid: vertices are 0-based internally (1-based
in every file format and report), arrows carry a valuation pair (a, b) that
defaults to (1, 1), loops and oriented cycles are rejected at construction, and
the arrow tuple is kept in a canonical sorted order so that representations can
index matrices by arrow position.

Path algebras are the quivers whose arrows all carry valuation (1, 1); parallel
arrows are allowed and meaningful.  Valued arrows participate only in
numerical (Euler-form level) computations.

Each exact routine exists once: one fraction-free elimination over the
integers (`gauss_jordan`, also used by the integer inverse in `roots`), one
topological sort (`_kahn`, which also detects oriented cycles), and one
graph walk over one adjacency (`_spanning_tree` on `neighbors`, which checks
connectivity and propagates the symmetrizer; `_arms` walks the arms of a
tree for the type letters and the tame subtrees of `ext_pairs`).
"""

from __future__ import annotations

import json
from functools import cache
from heapq import heappop, heappush
from math import gcd, lcm


class QuiverError(ValueError):
    """Malformed quiver input or a violated quiver precondition."""


class VerificationError(RuntimeError):
    """A check behind a computed certificate failed."""


def require(cond, msg: str) -> None:
    """Raise VerificationError(msg) unless cond holds; unlike assert, this
    check survives python -O."""
    if not cond:
        raise VerificationError(msg)


class Arrow:
    __slots__ = ("source", "target", "a", "b")

    def __init__(self, source: int, target: int, a: int = 1, b: int = 1):
        self.source, self.target, self.a, self.b = source, target, a, b

    def _key(self) -> tuple[int, int, int, int]:
        return self.source, self.target, self.a, self.b

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is Arrow else NotImplemented

    def __lt__(self, other):
        return self._key() < other._key() if other.__class__ is Arrow else NotImplemented

    def __le__(self, other):
        return self._key() <= other._key() if other.__class__ is Arrow else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Arrow(source={!r}, target={!r}, a={!r}, b={!r})".format(*self._key())

    def reversed(self) -> "Arrow":
        return Arrow(self.target, self.source, self.b, self.a)

    @property
    def unit(self) -> bool:
        return self.a == 1 and self.b == 1


class ValuedQuiver:
    __slots__ = ("n", "arrows", "_hash")

    def __init__(self, n: int, arrows: tuple[Arrow, ...]):
        self.n, self.arrows = n, tuple(sorted(arrows))
        self._hash = hash((n, self.arrows))     # computed once: it keys every cache on q
        if self.n < 1:
            raise QuiverError("a quiver needs at least one vertex")
        for ar in self.arrows:
            if not (0 <= ar.source < self.n and 0 <= ar.target < self.n):
                raise QuiverError(f"arrow {ar} out of vertex range")
            if ar.source == ar.target:
                raise QuiverError(f"loop at vertex {ar.source + 1} is not allowed")
            if ar.a < 1 or ar.b < 1:
                raise QuiverError(f"arrow {ar} has a non-positive valuation")
        if len(_kahn(self.n, self.arrows)) != self.n:
            raise QuiverError("the quiver has an oriented cycle")
        if len(_spanning_tree(neighbors(self))) != self.n - 1:
            raise QuiverError("the underlying graph is not connected")

    def __eq__(self, other):
        if other.__class__ is not ValuedQuiver:
            return NotImplemented
        return self.n == other.n and self.arrows == other.arrows

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ValuedQuiver(n={self.n!r}, arrows={self.arrows!r})"

    @property
    def m(self) -> int:
        return len(self.arrows)

    def is_path_algebra(self) -> bool:
        return all(ar.unit for ar in self.arrows)

    def reverse(self) -> "ValuedQuiver":
        return ValuedQuiver(self.n, tuple(ar.reversed() for ar in self.arrows))


def sorted_with_perm(raw: list[Arrow]) -> tuple[tuple[Arrow, ...], list[int]]:
    """Sort arrows canonically; perm[k] = position of raw arrow k after sorting."""
    order = sorted(range(len(raw)), key=lambda k: (raw[k], k))
    perm = [0] * len(raw)
    for new_pos, old_k in enumerate(order):
        perm[old_k] = new_pos
    return tuple(raw[k] for k in order), perm


# ---------------------------------------------------------------------------
# parsing

def parse_quiver(text: str) -> ValuedQuiver:
    """Parse the plain text format: `vertices N`, `arrow I J [A B]`, `#` comments."""
    n = None
    arrows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            if n is not None:
                raise QuiverError(f"line {lineno}: duplicate vertices directive")
            if len(parts) != 2:
                raise QuiverError(f"line {lineno}: expected `vertices N`")
            n = _int_field(parts[1], lineno)
        elif parts[0] == "arrow":
            if n is None:
                raise QuiverError(f"line {lineno}: arrow before vertices directive")
            if len(parts) not in (3, 5):
                raise QuiverError(f"line {lineno}: expected `arrow I J` or `arrow I J A B`")
            nums = [_int_field(s, lineno) for s in parts[1:]]
            i, j = nums[0], nums[1]
            if not (1 <= i <= n and 1 <= j <= n):
                raise QuiverError(f"line {lineno}: vertex index out of range 1..{n}")
            a, b = (nums[2], nums[3]) if len(nums) == 4 else (1, 1)
            arrows.append(Arrow(i - 1, j - 1, a, b))
        else:
            raise QuiverError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise QuiverError("missing vertices directive")
    return ValuedQuiver(n, tuple(arrows))


def _int_field(s: str, lineno: int) -> int:
    try:
        return int(s)
    except ValueError:
        raise QuiverError(f"line {lineno}: expected an integer, got {s!r}") from None


def parse_quiver_json(data) -> ValuedQuiver:
    """Parse the JSON form {"vertices": N, "arrows": [[i, j] | [i, j, a, b]]}."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise QuiverError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "vertices" not in data or "arrows" not in data:
        raise QuiverError("quiver JSON needs `vertices` and `arrows` keys")
    n = data["vertices"]
    if not isinstance(n, int):
        raise QuiverError("`vertices` must be an integer")
    arrows = []
    for entry in data["arrows"]:
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 4):
            raise QuiverError(f"arrow entry {entry!r} must be [i, j] or [i, j, a, b]")
        if not all(isinstance(x, int) for x in entry):
            raise QuiverError(f"arrow entry {entry!r} must contain integers")
        i, j = entry[0], entry[1]
        if not (1 <= i <= n and 1 <= j <= n):
            raise QuiverError(f"arrow entry {entry!r}: vertex index out of range 1..{n}")
        a, b = (entry[2], entry[3]) if len(entry) == 4 else (1, 1)
        arrows.append(Arrow(i - 1, j - 1, a, b))
    return ValuedQuiver(n, tuple(arrows))


def load_quiver(path: str) -> ValuedQuiver:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_quiver_json(stripped)
    return parse_quiver(text)


def quiver_to_json(q: ValuedQuiver) -> dict:
    arrows = []
    for ar in q.arrows:
        if ar.unit:
            arrows.append([ar.source + 1, ar.target + 1])
        else:
            arrows.append([ar.source + 1, ar.target + 1, ar.a, ar.b])
    return {"vertices": q.n, "arrows": arrows}


# ---------------------------------------------------------------------------
# combinatorial helpers

def _kahn(n: int, arrows) -> list[int]:
    """Kahn's topological sort, smallest available vertex first.

    A vertex on an oriented cycle, or reachable from one, is never freed, so
    the order is shorter than n exactly when the arrows contain a cycle.
    """
    indeg = [0] * n
    heads: list[list[int]] = [[] for _ in range(n)]
    for ar in arrows:
        indeg[ar.target] += 1
        heads[ar.source].append(ar.target)
    avail = [v for v in range(n) if indeg[v] == 0]
    order = []
    while avail:
        v = heappop(avail)
        order.append(v)
        for w in heads[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(avail, w)
    return order


@cache
def topological_order(q: ValuedQuiver) -> tuple[int, ...]:
    return tuple(_kahn(q.n, q.arrows))


def neighbors(q: ValuedQuiver) -> list[set[int]]:
    """Adjacency sets of the underlying simple graph."""
    adj: list[set[int]] = [set() for _ in range(q.n)]
    for ar in q.arrows:
        adj[ar.source].add(ar.target)
        adj[ar.target].add(ar.source)
    return adj


def _spanning_tree(adj) -> list[tuple[int, int]]:
    """Edges (parent, child) of a depth-first spanning tree of the component
    of vertex 0, in discovery order."""
    seen = {0}
    stack = [0]
    edges = []
    while stack:
        v = stack.pop()
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
                edges.append((v, w))
    return edges


def _arms(adj, branch: int) -> list[list[int]] | None:
    """The vertex path of each arm leaving a branch vertex of a tree, in the
    order of the arms' first vertices; None when an arm forks."""
    arms = []
    for start in sorted(adj[branch]):
        arm, prev = [start], branch
        while True:
            nxt = [w for w in adj[arm[-1]] if w != prev]
            if len(nxt) > 1:
                return None
            if not nxt:
                break
            prev = arm[-1]
            arm.append(nxt[0])
        arms.append(arm)
    return arms


@cache
def arrows_out(q: ValuedQuiver, v: int) -> tuple[tuple[int, Arrow], ...]:
    return tuple((k, ar) for k, ar in enumerate(q.arrows) if ar.source == v)


@cache
def arrows_in(q: ValuedQuiver, v: int) -> tuple[tuple[int, Arrow], ...]:
    return tuple((k, ar) for k, ar in enumerate(q.arrows) if ar.target == v)


def is_sink(q: ValuedQuiver, v: int) -> bool:
    return not arrows_out(q, v)


def is_source(q: ValuedQuiver, v: int) -> bool:
    return not arrows_in(q, v)


@cache
def underlying_edges(q: ValuedQuiver) -> tuple[tuple[frozenset, tuple[int, ...]], ...]:
    """Edges of the underlying simple graph with the arrow indices on each."""
    edges: dict[frozenset, list[int]] = {}
    for k, ar in enumerate(q.arrows):
        edges.setdefault(frozenset((ar.source, ar.target)), []).append(k)
    return tuple(sorted(
        ((e, tuple(ks)) for e, ks in edges.items()),
        key=lambda item: sorted(item[0]),
    ))


def valuation_v(q: ValuedQuiver, i: int, j: int) -> int:
    """Product valuation of the arrows i -> j: (sum of a's) * (sum of b's)."""
    sa = sum(ar.a for ar in q.arrows if ar.source == i and ar.target == j)
    sb = sum(ar.b for ar in q.arrows if ar.source == i and ar.target == j)
    return sa * sb


@cache
def projective_dimvec(q: ValuedQuiver, i: int) -> tuple[int, ...]:
    """Path counts i -> v for a path algebra; the dimension vector of P(i)."""
    counts = [0] * q.n
    counts[i] = 1
    for v in topological_order(q):
        if counts[v]:
            for _, ar in arrows_out(q, v):
                counts[ar.target] += counts[v]
    return tuple(counts)


# ---------------------------------------------------------------------------
# classification

class QuiverType:
    __slots__ = ("family", "letter", "rank", "representation_finite", "tame")

    def __init__(self, family: str, letter: str | None, rank: int | None,
                 representation_finite: bool, tame: bool):
        self.family = family            # "dynkin" | "euclidean" | "wild"
        self.letter, self.rank = letter, rank
        self.representation_finite, self.tame = representation_finite, tame

    def _key(self) -> tuple:
        return self.family, self.letter, self.rank, self.representation_finite, self.tame

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is QuiverType else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("QuiverType(family={!r}, letter={!r}, rank={!r}, representation_finite={!r}, "
                "tame={!r})".format(*self._key()))

    def display(self) -> str:
        if self.family == "wild":
            return "wild"
        if self.letter is None:
            return f"{self.family} (valued)"
        if self.family == "dynkin":
            return f"{self.letter}{self.rank}"
        return f"{self.letter}~{self.rank}"


def gauss_jordan(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination over the integers: the nonzero
    rows and their pivot columns.  Row k is a nonzero integer multiple of
    row k of the reduced row echelon form over the rationals, so it is zero
    at every other pivot column; dividing each combined row by the gcd of
    its entries keeps the entries small."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r]
        for i in range(len(m)):
            f = m[i][col]
            if i != r and f:
                row = [piv[col] * x - f * y for x, y in zip(m[i], piv)]
                g = gcd(*row) or 1
                m[i] = [x // g for x in row]
        pivots.append(col)
    return m[:len(pivots)], pivots


def _rational_kernel(c: list[list[int]]) -> list[list[int]]:
    """Exact kernel basis over the rationals of a small integer matrix, as
    integer vectors."""
    ncols = len(c[0])
    rows, pivots = gauss_jordan(c)
    scale = lcm(*(row[pc] for row, pc in zip(rows, pivots)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = scale
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[f] * scale // row[pc]
        basis.append(vec)
    return basis


def _primitive(ints) -> list[int]:
    """The primitive multiple of a nonzero integer vector whose first
    nonzero entry is positive."""
    g = gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints]


def _symmetrized(q: ValuedQuiver) -> list[list[int]]:
    """Symmetrization d_i * a_ij of the generalized Cartan data.

    The positive symmetrizers are propagated along a spanning tree and must
    stay consistent across every edge; valuations that admit none do not
    come from an algebra and are rejected.
    """
    n = q.n
    aij = [[0] * n for _ in range(n)]
    for ar in q.arrows:
        aij[ar.source][ar.target] += ar.a
        aij[ar.target][ar.source] += ar.b
    # integer symmetrizers: rescale those found so far to make d[j] whole
    d = [1] * n
    for i, j in _spanning_tree(neighbors(q)):
        num, den = d[i] * aij[i][j], aij[j][i]
        g = gcd(num, den)
        d = [x * (den // g) for x in d]
        d[j] = num // g
    for i in range(n):
        for j in range(n):
            if aij[i][j] and d[i] * aij[i][j] != d[j] * aij[j][i]:
                raise QuiverError("arrow valuations admit no symmetrizer")
    ints = _primitive(d)
    c = [[0] * n for _ in range(n)]
    for v in range(n):
        c[v][v] = 2 * ints[v]
    for i in range(n):
        for j in range(n):
            if i != j:
                c[i][j] = -ints[i] * aij[i][j]
    return c


def _positive_definite(c: list[list[int]]) -> bool:
    """Sylvester's criterion in one fraction-free (Bareiss) pass.

    Without row swaps the k-th pivot is the k-th leading principal minor, so
    the test stops at the first pivot that is not positive.
    """
    m = [row[:] for row in c]
    n = len(m)
    prev = 1
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


def _arm_lengths(adj, branch: int) -> list[int] | None:
    """Arm lengths of a star-shaped tree seen from its unique branch vertex."""
    arms = _arms(adj, branch)
    return None if arms is None else sorted(len(arm) for arm in arms)


def _simply_laced_letter(q: ValuedQuiver, family: str) -> tuple[str | None, int | None]:
    if not q.is_path_algebra():
        return None, None
    edges = underlying_edges(q)
    mults = [len(ks) for _, ks in edges]
    n = q.n
    adj = neighbors(q)
    degrees = sorted(len(adj[v]) for v in range(n))
    if family == "dynkin":
        # positive definite forces a simple tree here
        if max(degrees) <= 2:
            return "A", n
        branch = [v for v in range(n) if len(adj[v]) == 3]
        if len(branch) == 1:
            arms = _arm_lengths(adj, branch[0])
            if arms and arms[:2] == [1, 1]:
                return "D", n
            if arms == [1, 2, 2]:
                return "E", 6
            if arms == [1, 2, 3]:
                return "E", 7
            if arms == [1, 2, 4]:
                return "E", 8
        return None, None
    # euclidean
    if n == 2 and mults == [2]:
        return "A", 1
    if all(m == 1 for m in mults):
        if len(edges) == n and max(degrees) == 2:
            return "A", n - 1
        if len(edges) == n - 1:
            deg4 = [v for v in range(n) if len(adj[v]) == 4]
            deg3 = [v for v in range(n) if len(adj[v]) == 3]
            if len(deg4) == 1 and not deg3:
                return "D", n - 1
            if len(deg3) == 2 and not deg4:
                return "D", n - 1
            if len(deg3) == 1 and not deg4:
                arms = _arm_lengths(adj, deg3[0])
                if arms == [2, 2, 2]:
                    return "E", 6
                if arms == [1, 3, 3]:
                    return "E", 7
                if arms == [1, 2, 5]:
                    return "E", 8
    return None, None


def classify_type(q: ValuedQuiver) -> QuiverType:
    """Classify by the symmetrized Euler matrix, with exact integer tests.

    Positive definite -> representation finite (Dynkin); positive semidefinite
    with a one-dimensional strictly positive radical -> tame (Euclidean);
    anything else -> wild.  Letters are resolved only for path algebras.
    """
    c = _symmetrized(q)
    if _positive_definite(c):
        letter, rank = _simply_laced_letter(q, "dynkin")
        return QuiverType("dynkin", letter, rank, True, False)
    ker = _rational_kernel(c)
    # with C @ delta = 0 and delta_0 != 0, psd is equivalent to positive
    # definiteness of the principal submatrix omitting vertex 0
    if (len(ker) == 1 and all(x > 0 for x in _primitive(ker[0]))
            and _positive_definite([row[1:] for row in c[1:]])):
        letter, rank = _simply_laced_letter(q, "euclidean")
        return QuiverType("euclidean", letter, rank, False, True)
    return QuiverType("wild", None, None, False, False)


def radical_vector(q: ValuedQuiver) -> tuple[int, ...]:
    """Primitive positive generator of the radical of the symmetrized form."""
    t = classify_type(q)
    if not t.tame:
        raise QuiverError("radical generator exists only for tame (Euclidean) quivers")
    return tuple(_primitive(_rational_kernel(_symmetrized(q))[0]))


# ---------------------------------------------------------------------------
# reflections and subquivers

def reflect_at(q: ValuedQuiver, v: int) -> ValuedQuiver:
    """Reverse all arrows at a sink or source v, swapping valuation pairs."""
    return reflect_with_perm(q, v)[0]


@cache
def reflect_with_perm(q: ValuedQuiver, v: int) -> tuple[ValuedQuiver, tuple[int, ...]]:
    """reflect_at plus the permutation old arrow index -> new arrow index.

    Memoized: each translate reflects the same few quivers again."""
    if not (is_sink(q, v) or is_source(q, v)):
        raise QuiverError(f"vertex {v + 1} is neither a sink nor a source")
    raw = [ar.reversed() if v in (ar.source, ar.target) else ar for ar in q.arrows]
    arrows, perm = sorted_with_perm(raw)
    return ValuedQuiver(q.n, arrows), tuple(perm)


class Subquiver:
    """Induced subquiver with the index maps back into the ambient quiver."""

    __slots__ = ("ambient", "quiver", "vertex_map", "arrow_map")

    def __init__(self, ambient: ValuedQuiver, quiver: ValuedQuiver,
                 vertex_map: tuple[int, ...], arrow_map: tuple[int, ...]):
        self.ambient, self.quiver = ambient, quiver
        self.vertex_map = vertex_map    # new vertex index -> old vertex index
        self.arrow_map = arrow_map      # new arrow index -> old arrow index

    def _key(self) -> tuple:
        return self.ambient, self.quiver, self.vertex_map, self.arrow_map

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is Subquiver else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return ("Subquiver(ambient={!r}, quiver={!r}, vertex_map={!r}, "
                "arrow_map={!r})".format(*self._key()))

    def old_vertex(self, new: int) -> int:
        return self.vertex_map[new]

    def new_vertex(self, old: int) -> int:
        return self.vertex_map.index(old)

    def old_arrow(self, new: int) -> int:
        return self.arrow_map[new]


def subquiver_restrict(q: ValuedQuiver, vertices) -> Subquiver:
    """Full (induced) subquiver on a set of vertices, relabeled contiguously."""
    vs = sorted(set(vertices))
    if not vs:
        raise QuiverError("empty vertex selection")
    for v in vs:
        if not 0 <= v < q.n:
            raise QuiverError(f"vertex {v + 1} out of range")
    pos = {old: new for new, old in enumerate(vs)}
    raw = []
    old_idx = []
    for k, ar in enumerate(q.arrows):
        if ar.source in pos and ar.target in pos:
            raw.append(Arrow(pos[ar.source], pos[ar.target], ar.a, ar.b))
            old_idx.append(k)
    arrows, perm = sorted_with_perm(raw)
    arrow_map = [0] * len(raw)
    for raw_k, new_pos in enumerate(perm):
        arrow_map[new_pos] = old_idx[raw_k]
    sub = ValuedQuiver(len(vs), arrows)   # raises if disconnected
    return Subquiver(q, sub, tuple(vs), tuple(arrow_map))
