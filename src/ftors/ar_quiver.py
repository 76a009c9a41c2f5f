"""Auslander-Reiten quivers of representation-finite path algebras.

The AR quiver is knitted from the indecomposable projectives by repeatedly
applying the inverse translate, in topological order, until the injectives
are reached.  Every indecomposable appears exactly once and its dimension
vector is a positive root; both facts are checked, not assumed.  Every
check here raises VerificationError, so it also runs under python -O.

The Hom table between the knitted modules is decided by the Euler form:
dim Hom(X, Y) = max(<x, y>, 0) (proved in knit_ar_quiver).  Only the Hom
spaces with <x, y> > 0 are solved, and each solved dimension is checked to
equal <x, y>; the others are the zero spaces the theory says they are.

Irreducible-map multiplicities are computed honestly as dim rad / rad^2
of the solved Hom spaces, not read off mesh shapes: the composites through
each intermediate module k are reduced into a growing echelon basis of
rad^2, and each basis of Hom(i, k) is transposed at most once per source
i.  The mesh dimension identity is checked at every non-projective vertex.
"""

from __future__ import annotations

from operator import mul

from .linalg import grow_rank, transpose
from .modules import (
    HomSpace,
    Representation,
    ar_translate_inverse,
    hom_basis,
    paths_from,
    projective,
    require,
)
from .quiver import ValuedQuiver, classify_type, euler_matrix, topological_order
from .roots import positive_roots


class ARNode:
    __slots__ = ("index", "module")

    def __init__(self, index: int, module: Representation):
        self.index, self.module = index, module

    @property
    def dims(self):
        return self.module.dims


class ARQuiver:
    def __init__(self, quiver: ValuedQuiver, p: int, nodes: list[ARNode],
                 arrows: dict[tuple[int, int], int], translate: dict[int, int],
                 projectives: list[int], injectives: list[int],
                 homs: dict[tuple[int, int], HomSpace]):
        self.quiver, self.p, self.nodes = quiver, p, nodes
        self.arrows = arrows                # (src node, dst node) -> multiplicity
        self.translate = translate          # node -> node of its translate
        self.projectives, self.injectives = projectives, injectives
        self.homs = homs                    # (src node, dst node) -> Hom space

    def sorted_modules(self) -> list[Representation]:
        """Every knitted module, sorted by (total dimension, dims)."""
        return sorted((node.module for node in self.nodes), key=lambda m: (m.total, m.dims))


def knit_ar_quiver(q: ValuedQuiver, p: int) -> ARQuiver:
    """Knit the AR quiver of a representation-finite path algebra.

    The Hom table holds every ordered pair of nodes, but only the pairs with
    <x, y> > 0 are solved.  Why the rest are zero: for modules over a path
    algebra, dim Hom(X, Y) - dim Ext(X, Y) = <x, y>.  When classify_type
    finds the quiver representation finite, its module category is directed
    (Gabriel 1972; Ringel, LNM 1099, 2.4): the AR quiver has no oriented
    cycle, every nonzero map between indecomposables is a sum of composites
    of irreducible maps, and Ext(X, Y) = D Hom(Y, tau X).  So nonzero Hom(X,
    Y) and Ext(X, Y) would give a path X -> ... -> Y -> ... -> tau X -> ...
    -> X, a cycle; for indecomposable X and Y at most one of them is
    nonzero, and dim Hom(X, Y) = max(<x, y>, 0).  The nodes are those
    indecomposables: their dims are distinct positive roots, as many as
    there are roots, and each is a brick (End is the field, so the module
    is indecomposable), which is the solved diagonal check <x, x> = 1.
    """
    if not classify_type(q).representation_finite or not q.is_path_algebra():
        raise ValueError("knitting requires a representation-finite path algebra")

    roots = positive_roots(q)
    root_set = set(roots)
    order = topological_order(q)

    nodes: list[ARNode] = []
    translate: dict[int, int] = {}
    by_dims: dict[tuple[int, ...], int] = {}

    def add(module: Representation) -> int:
        dims = module.dims
        require(dims in root_set, f"knitted dims {dims} is not a positive root")
        require(dims not in by_dims, f"duplicate indecomposable at {dims}")
        idx = len(nodes)
        nodes.append(ARNode(idx, module))
        by_dims[dims] = idx
        return idx

    projectives = [add(projective(q, p, v)) for v in order]
    frontier = list(projectives)

    # I(v) at u is spanned by the paths u -> v, as modules.injective builds it
    injective_dims = {tuple(len(paths_from(q, u)[v]) for u in range(q.n)): v for v in range(q.n)}
    injectives_found: dict[int, int] = {}

    while frontier:
        nxt: list[int] = []
        for idx in frontier:
            node = nodes[idx]
            if node.dims in injective_dims:
                injectives_found[injective_dims[node.dims]] = idx
                continue
            new = add(ar_translate_inverse(node.module))
            translate[new] = idx
            nxt.append(new)
        frontier = nxt

    require(len(nodes) == len(roots),
            f"knitted {len(nodes)} indecomposables but found {len(roots)} positive roots")
    require(len(injectives_found) == q.n,
            f"knitting reached {len(injectives_found)} of {q.n} injectives")
    injectives = [injectives_found[v] for v in range(q.n)]

    # dim Hom(X, Y) = max(<x, y>, 0) (see the docstring): only the pairs
    # with <x, y> > 0 are solved, each against the form.  <x, x> = 1 for a
    # root, so on the diagonal this is the check that every node is a brick
    e = euler_matrix(q)
    dims = [node.dims for node in nodes]
    xe = [[sum(map(mul, x, col)) for col in zip(*e)] for x in dims]
    euler = [[sum(map(mul, row, y)) for y in dims] for row in xe]
    homs: dict[tuple[int, int], HomSpace] = {}
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            e = euler[i][j]
            if e <= 0:
                homs[(i, j)] = HomSpace(x.module, y.module, ())
                continue
            h = homs[(i, j)] = hom_basis(x.module, y.module)
            require(h.dim == e, f"Hom from node {i} to node {j} has dimension "
                                f"{h.dim}, not the Euler form {e}")

    # irreducible maps: multiplicity = dim rad(X, Y) - dim rad^2(X, Y);
    # between nonisomorphic indecomposables rad is all of Hom, and rad(X, X)
    # vanishes because End(X) is one dimensional.  rad^2 is spanned by the
    # composites through the modules k with Hom(i, k) and Hom(k, j) nonzero;
    # each k's composites are formed as flat rows, vertex by vertex, and
    # reduced into the echelon rows kept so far.  rad^2 lies in Hom, so once
    # they span all of Hom the multiplicity is 0 and the scan stops
    arrows: dict[tuple[int, int], int] = {}
    after = [[k for k, e in enumerate(row) if e > 0] for row in euler]
    for i, succ in enumerate(after):
        fts: dict[int, list] = {}      # k -> the basis of Hom(i, k), transposed when first used
        for j in succ:
            if i == j:
                continue
            h = homs[(i, j)]
            echelon: list[list[int]] = []
            r2 = 0
            for k in succ:
                if k == i or k == j or euler[k][j] <= 0:
                    continue
                if k not in fts:
                    fts[k] = [[transpose(m) for m in f] for f in homs[(i, k)].basis]
                comps = [[sum(map(mul, row, col)) % p for gv, ftv in zip(g, ft)
                          for row in gv for col in ftv]
                         for g in homs[(k, j)].basis for ft in fts[k]]
                r2 = grow_rank(echelon, comps, p)
                if r2 >= h.dim:
                    break
            mult = h.dim - r2
            require(mult >= 0, f"negative multiplicity {mult} from node {i} to node {j}")
            if mult > 0:
                arrows[(i, j)] = mult

    ar = ARQuiver(q, p, nodes, arrows, translate, projectives, injectives, homs)
    _check_meshes(ar)
    return ar


def _check_meshes(ar: ARQuiver) -> None:
    """Mesh identity: dims of tau Y plus Y equal the weighted middle dims."""
    for y, ty in ar.translate.items():
        lhs = tuple(a + b for a, b in zip(ar.nodes[y].dims, ar.nodes[ty].dims))
        mid = [0] * ar.quiver.n
        for (i, j), mult in ar.arrows.items():
            if j == y:
                mid = [m + mult * d for m, d in zip(mid, ar.nodes[i].dims)]
        require(lhs == tuple(mid), f"mesh at node {y}: {lhs} != {tuple(mid)}")


def ar_quiver_dot(ar: ARQuiver) -> str:
    """Graphviz DOT rendering: solid irreducible maps, dashed translates."""
    lines = ["digraph ar_quiver {", '  rankdir="LR";', "  node [shape=box];"]
    for node in ar.nodes:
        label = ",".join(str(d) for d in node.dims)
        tags = []
        if node.index in ar.projectives:
            tags.append("P")
        if node.index in ar.injectives:
            tags.append("I")
        tag = (" " + "/".join(tags)) if tags else ""
        lines.append(f'  n{node.index} [label="({label}){tag}"];')
    for (i, j), mult in sorted(ar.arrows.items()):
        attr = f' [label="{mult}"]' if mult > 1 else ""
        lines.append(f"  n{i} -> n{j}{attr};")
    for y, ty in sorted(ar.translate.items()):
        lines.append(f"  n{y} -> n{ty} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
