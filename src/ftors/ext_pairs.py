"""Hom-orthogonal pairs of exceptional modules extending each other both ways.

Such a pair witnesses the failure of the cover property in the poset of
generation-closed torsion classes, so the finder below is the constructive
half of the lattice criterion.  The search is organized by the shape of the
underlying graph:

  case 1: a tree containing a minimal tame subtree; the pair lives in a
          rank >= 2 tube of that subtree and is extended by zero.
  case 2: a cycle in the underlying simple graph; the pair consists of two
          sincere exceptional modules on complementary arcs, cut at two
          edges oriented the same way around the cycle.
  case 3: a three vertex path with at least two parallel arrows on both
          edges; one member is the middle simple, the other its double
          universal extension.
  case 4: a three vertex path with parallel arrows on exactly one edge; one
          member is a truncated projective, the other its translate.

Cases 3 and 4 construct over a conveniently oriented path and transport back
through reflection functors at the endpoints.  Every returned pair carries a
full verification report computed on the input quiver; nothing is trusted
from the construction itself.
"""

from __future__ import annotations

import random
from collections import deque

from .modules import (
    Representation,
    ar_translate,
    ext_dim,
    extend_by_zero,
    hom_dim,
    is_isomorphic,
    isotypic_socle,
    projective,
    reflection_functor_apply,
    require,
    restrict_module,
    simple,
    universal_extension,
)
from .quiver import (
    Subquiver,
    ValuedQuiver,
    _arms,
    classify_type,
    is_sink,
    neighbors,
    reflect_at,
    subquiver_restrict,
    underlying_edges,
)


class ExtPairInconclusive(RuntimeError):
    """The case analysis does not cover this quiver shape."""


# The eight defining conditions in report order: the name, Hom or Ext, the
# two modules (0 for X, 1 for Y) and what the dimension must satisfy.
CONDITIONS = (
    ("end_x", "hom", 0, 0, lambda d: d == 1),
    ("end_y", "hom", 1, 1, lambda d: d == 1),
    ("ext_xx", "ext", 0, 0, lambda d: d == 0),
    ("ext_yy", "ext", 1, 1, lambda d: d == 0),
    ("hom_xy", "hom", 0, 1, lambda d: d == 0),
    ("hom_yx", "hom", 1, 0, lambda d: d == 0),
    ("ext_xy", "ext", 0, 1, lambda d: d >= 1),
    ("ext_yx", "ext", 1, 0, lambda d: d >= 1),
)


class ExtPairReport:
    __slots__ = ("numbers",)

    def __init__(self, numbers: dict):
        self.numbers = numbers

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, *_, holds in CONDITIONS if not holds(self.numbers[name]))


class ExtPairCertificate:
    __slots__ = ("case", "X", "Y", "report", "detail")

    def __init__(self, case: int, X: Representation, Y: Representation,
                 report: ExtPairReport, detail: dict):
        self.case, self.X, self.Y, self.report, self.detail = case, X, Y, report, detail


def verify_ext_pair(X: Representation, Y: Representation) -> ExtPairReport:
    """All eight defining conditions, computed exactly, in table order."""
    pair = (X, Y)
    dim = {"hom": hom_dim, "ext": ext_dim}
    return ExtPairReport({name: dim[kind](pair[a], pair[b])
                          for name, kind, a, b, _ in CONDITIONS})


# ---------------------------------------------------------------------------
# graph utilities

def _shortest_path(adj, a: int, b: int, direct: bool = True) -> list[int] | None:
    """A shortest path from a to b by breadth-first search in increasing
    vertex order, not using the edge a - b itself unless direct; None when
    there is no such path."""
    prev = {a: -1}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y in sorted(adj[x]):
            if y in prev or (not direct and x == a and y == b):
                continue
            prev[y] = x
            queue.append(y)
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return path[::-1]


def shortest_cycle(q: ValuedQuiver) -> list[int] | None:
    """A shortest cycle of the underlying simple graph, canonically rotated.

    Shortest cycles are chordless.  Returns None when the graph is a tree.
    """
    adj = neighbors(q)
    best: list[int] | None = None
    for pair, _ in underlying_edges(q):
        cycle = _shortest_path(adj, *sorted(pair), direct=False)
        if cycle is not None and (best is None or len(cycle) < len(best)):
            best = cycle
    if best is None:
        return None
    # canonical rotation: start at the smallest vertex, go toward its
    # smaller cycle neighbor
    k = best.index(min(best))
    best = best[k:] + best[:k]
    if best[-1] < best[1]:
        best = [best[0]] + best[:0:-1]
    return best


def _edge_arrows(q: ValuedQuiver, u: int, v: int) -> tuple[int, ...]:
    for pair, ks in underlying_edges(q):
        if pair == frozenset((u, v)):
            return ks
    return ()


# ---------------------------------------------------------------------------
# case 2: complementary arc modules on a chordless cycle

def _arc_module(q: ValuedQuiver, p: int, arc: list[int]) -> Representation:
    """Sincere exceptional module supported on a consecutive arc.

    Built vertex by vertex: the next arc vertex w is attached to the current
    support by the arrows of one edge, and the module is extended universally
    above when those arrows leave w, below when they enter w.  On single
    arrows every step adds one dimension, so the result is the thin module.
    """
    M = simple(q, p, arc[0])
    for prev, w in zip(arc, arc[1:]):
        k = _edge_arrows(q, prev, w)[0]
        where = "above" if q.arrows[k].source == w else "below"
        grown = universal_extension(M, w, where)
        require(grown.dims[w] > 0, "universal extension failed to reach the new vertex")
        M = grown
    return M


def construct_case2(q: ValuedQuiver, p: int, cycle: list[int]):
    """Cut a chordless cycle at two like-oriented edges.

    The two arcs between the cuts carry sincere exceptional modules; the cut
    edges point from one arc into the other and back, giving extensions both
    ways, while disjoint supports kill all homs.  Acyclicity forces at least
    two like-oriented edges on any cycle of length three or more.
    """
    L = len(cycle)

    def forward_positions(order: list[int]) -> list[int]:
        pos = []
        for i in range(L):
            u, v = order[i], order[(i + 1) % L]
            k = _edge_arrows(q, u, v)[0]
            if q.arrows[k].source == u and q.arrows[k].target == v:
                pos.append(i)
        return pos

    for order in (cycle, [cycle[0]] + cycle[:0:-1]):
        fwd = forward_positions(order)
        if len(fwd) >= 2:
            i, j = fwd[0], fwd[1]
            arc_a = [order[t % L] for t in range(i + 1, j + 1)]
            arc_b = [order[t % L] for t in range(j + 1, i + 1 + L)]
            if min(arc_b) < min(arc_a):
                arc_a, arc_b = arc_b, arc_a
            X = _arc_module(q, p, arc_a)
            Y = _arc_module(q, p, arc_b)
            detail = {
                "cycle": [v + 1 for v in cycle],
                "arc_x": [v + 1 for v in arc_a],
                "arc_y": [v + 1 for v in arc_b],
            }
            return X, Y, detail
    raise ExtPairInconclusive("no two like-oriented edges on the cycle")


# ---------------------------------------------------------------------------
# cases 3 and 4: three vertex paths with parallel arrows

def _orient_path(sub: Subquiver, first: int, mid: int, last: int):
    """Reflect the three vertex path at its endpoints until the arrows run
    first -> mid -> last.  Returns the reorientation sequence actually used
    (in application order) and the final quiver."""
    q3 = sub.quiver
    seq: list[int] = []
    cur = q3
    ks = _edge_arrows(cur, first, mid)
    if cur.arrows[ks[0]].source != first:
        cur = reflect_at(cur, first)
        seq.append(first)
    ks = _edge_arrows(cur, mid, last)
    if cur.arrows[ks[0]].source != mid:
        cur = reflect_at(cur, last)
        seq.append(last)
    ks1 = _edge_arrows(cur, first, mid)
    ks2 = _edge_arrows(cur, mid, last)
    require(all(cur.arrows[k].source == first for k in ks1)
            and all(cur.arrows[k].source == mid for k in ks2),
            "reflections did not orient the path first -> mid -> last")
    return cur, seq


def _transport_back(M: Representation, seq: list[int]) -> Representation:
    for v in reversed(seq):
        require(M.dims != tuple(int(w == v) for w in range(M.quiver.n)),
                "cannot transport the reflected simple")
        M = reflection_functor_apply(M, v)
    return M


def construct_case3(q3: ValuedQuiver, p: int, src: int, mid: int, snk: int):
    """Both path edges carry parallel arrows: middle simple against its
    universal extension above by the source simples and below by the sink
    simples."""
    X = simple(q3, p, mid)
    E = universal_extension(X, src, "above")
    Y = universal_extension(E, snk, "below")
    detail = {"middle_dims": list(X.dims), "partner_dims": list(Y.dims)}
    return X, Y, detail


def construct_case4(q3: ValuedQuiver, p: int, src: int, mid: int, snk: int):
    """Parallel arrows on the first edge only: the projective at the source
    truncated at the sink vertex, against its translate.

    The certificate additionally records the wing evidence: the truncation
    drops exactly as many dimensions as there are parallel arrows, and the
    truncated translate matches the translate of the source simple over the
    two vertex subquiver with the parallel arrows.
    """
    P = projective(q3, p, src)
    X = isotypic_socle(P, snk).quot
    Y = ar_translate(X)

    kron = subquiver_restrict(q3, [src, mid])
    s_local = simple(kron.quiver, p, kron.new_vertex(src))
    t_local = None if is_sink(kron.quiver, kron.new_vertex(src)) else ar_translate(s_local)
    y_trunc = isotypic_socle(Y, snk).quot
    detail = {
        "projective_dims": list(P.dims),
        "truncation_drop": P.dims[snk],
        "parallel_count": len(_edge_arrows(q3, src, mid)),
        "truncation_matches_parallel_count": P.dims[snk] == len(_edge_arrows(q3, src, mid)),
    }
    if t_local is not None:
        matches = is_isomorphic(restrict_module(y_trunc, kron), t_local)
        detail["translate_wing_dims"] = list(t_local.dims)
        detail["truncated_translate_matches_wing"] = bool(matches)
        detail["wing_extension_dim"] = ext_dim(
            t_local, projective(kron.quiver, p, kron.new_vertex(src)))
    return X, Y, detail


# ---------------------------------------------------------------------------
# case 1: tame subtree tubes

def _tame_subtree(q: ValuedQuiver) -> list[int] | None:
    """Vertices of a minimal tame induced subtree of a simple-edged tree.

    A star around a vertex of degree four or more; a path between two branch
    vertices padded by one extra neighbor at each end; or a single branch
    vertex whose arms are trimmed to the smallest non-finite arm pattern.
    """
    adj = neighbors(q)
    deg = [len(a) for a in adj]
    for v in range(q.n):
        if deg[v] >= 4:
            return [v] + sorted(adj[v])[:4]
    branches = [v for v in range(q.n) if deg[v] == 3]
    if len(branches) >= 2:
        a, b = branches[0], branches[1]
        # path from a to b plus one extra neighbor at each end
        path = _shortest_path(adj, a, b)
        ends_a = sorted(w for w in adj[a] if w not in path)[:2]
        ends_b = sorted(w for w in adj[b] if w not in path)[:2]
        return sorted(set(path) | set(ends_a) | set(ends_b))
    if len(branches) == 1:
        c = branches[0]
        arms = sorted(_arms(adj, c), key=len)
        la_, lb, lc = len(arms[0]), len(arms[1]), len(arms[2])
        if la_ >= 2:
            keep = arms[0][:2] + arms[1][:2] + arms[2][:2]
        elif lb >= 3:
            keep = arms[0][:1] + arms[1][:3] + arms[2][:3]
        elif lb == 2 and lc >= 5:
            keep = arms[0][:1] + arms[1][:2] + arms[2][:5]
        else:
            return None
        return sorted(set(keep) | {c})
    return None


def construct_case1(q: ValuedQuiver, p: int, rng: random.Random):
    vs = _tame_subtree(q)
    if vs is None:
        raise ExtPairInconclusive("no tame induced subtree found")
    sub = subquiver_restrict(q, vs)
    qt = classify_type(sub.quiver)
    require(qt.family == "euclidean", f"subtree classified as {qt.display()}")
    from .tubes import find_regular_simples, tube_mouth_pair

    tubes = find_regular_simples(sub.quiver, p, rng)
    require(tubes, "a tame tree algebra must have exceptional tubes")
    x_local, y_local = tube_mouth_pair(tubes[0])
    X = extend_by_zero(x_local, sub)
    Y = extend_by_zero(y_local, sub)
    detail = {
        "subtree": [v + 1 for v in vs],
        "subtree_type": qt.display(),
        "tube_rank": tubes[0].rank,
    }
    return X, Y, detail


def _parallel_pair(q: ValuedQuiver, p: int, multi: list[tuple[int, int]]):
    """Cases 3 and 4 on the first three vertex path through one of the edges
    with parallel arrows: (case, X, Y, detail) over the input quiver."""
    adj = neighbors(q)
    for u, v in sorted(multi):
        thirds = sorted((adj[u] ^ adj[v]) - {u, v})
        for w in thirds:
            mid = u if w in adj[u] else v
            far = v if mid == u else u
            sub = subquiver_restrict(q, [u, v, w])
            s_first, s_mid, s_last = (sub.new_vertex(far), sub.new_vertex(mid),
                                      sub.new_vertex(w))
            m_first = len(_edge_arrows(sub.quiver, s_first, s_mid))
            m_last = len(_edge_arrows(sub.quiver, s_mid, s_last))
            if m_last >= 2 and m_first < 2:
                s_first, s_last = s_last, s_first
                m_first, m_last = m_last, m_first
            oriented, seq = _orient_path(sub, s_first, s_mid, s_last)
            if m_first >= 2 and m_last >= 2:
                case = 3
                x_o, y_o, detail = construct_case3(oriented, p, s_first, s_mid, s_last)
            else:
                case = 4
                x_o, y_o, detail = construct_case4(oriented, p, s_first, s_mid, s_last)
            x_local = _transport_back(x_o, seq)
            y_local = _transport_back(y_o, seq)
            require(x_local.quiver == sub.quiver and y_local.quiver == sub.quiver,
                    "transport did not return to the input orientation")
            detail["support"] = [x + 1 for x in sorted((u, v, w))]
            detail["reflections"] = [sub.old_vertex(s) + 1 for s in seq]
            return case, extend_by_zero(x_local, sub), extend_by_zero(y_local, sub), detail
    raise ExtPairInconclusive("parallel arrows found but no three vertex path contains them")


# ---------------------------------------------------------------------------
# the driver

def find_ext_pair(q: ValuedQuiver, p: int,
                  rng: random.Random) -> ExtPairCertificate:
    """A verified double-extension pair for a representation-infinite path
    algebra on at least three vertices.

    Raises ValueError on representation-finite input or fewer than three
    vertices (no such pair can exist there), and ExtPairInconclusive when
    the case analysis does not cover the shape.  rng reaches only case 1,
    for a real-root module whose thin module is no brick.
    """
    if not q.is_path_algebra():
        raise ValueError("double-extension pairs are searched on path algebras only")
    qt = classify_type(q)
    if qt.representation_finite:
        raise ValueError(
            "no double-extension pair exists for a representation-finite quiver")
    if q.n <= 2:
        raise ValueError(
            "double-extension pairs need at least three vertices")

    cycle = shortest_cycle(q)
    multi = [tuple(sorted(pair)) for pair, ks in underlying_edges(q) if len(ks) >= 2]
    if cycle is not None:
        case, (X, Y, detail) = 2, construct_case2(q, p, cycle)
    elif multi:
        case, X, Y, detail = _parallel_pair(q, p, multi)
    else:
        case, (X, Y, detail) = 1, construct_case1(q, p, rng)
    report = verify_ext_pair(X, Y)
    require(report.ok, f"case {case} verification failed: {report.failures}")
    return ExtPairCertificate(case, X, Y, report, detail)
