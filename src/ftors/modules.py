"""Explicit quiver representations over F_p and the module-level toolbox.

A representation stores one matrix per arrow, shaped (dim at target, dim at
source), over an explicitly carried prime modulus.  On top of that sit the
exact workhorses: Hom spaces by intertwiner systems, Ext dimensions through
the hereditary identity, trace submodules and generation tests, Fitting
decomposition that splits or proves locality from the basis of End(M) and
otherwise says it is inconclusive, an isomorphism test and normalization on
top of it, reflection functors, the translates DTr and TrD as Coxeter
functors twisted by negating every arrow, reflected raw and validated once,
universal extensions by simples, and extension middle terms, one per line of
P(Ext).  Only random_rep draws random numbers, from the generator it is
passed.  Both extension constructions read Ext off the standard
resolution: the Hom system's map from the vertex blocks to the arrow
blocks has kernel Hom and cokernel Ext, so a class is a cocycle on the
arrow blocks, and its middle term is glued from block upper-triangular
arrow matrices with no projective presentation.  Isomorphism classes are
matched only where a caller asks, by one dedup (_iso_index).

Only valuation-(1, 1) quivers (path algebras, parallel arrows allowed) are
accepted here; valued arrows live purely at the numerical level.
"""

from __future__ import annotations

import itertools
import random
from functools import cache, cached_property

from . import linalg as la
from .linalg import Matrix
from .quiver import (
    ValuedQuiver,
    arrows_in,
    arrows_out,
    is_sink,
    reflect_with_perm,
    sorted_with_perm,
    topological_order,
    require,
    Subquiver,
)
from .roots import euler_form


class DecompositionInconclusive(RuntimeError):
    """No basis element of End(M) splits M, and locality is not proved.

    The proof covers every indecomposable M with End(M)/rad = F_p, so this
    is raised only when some basis element has no eigenvalue in F_p
    (End(M)/rad is then larger than F_p, or M decomposes along no basis
    element) or when the nilpotent shifts generate no nilpotent algebra.
    """


class ExtensionCapError(RuntimeError):
    """An extension-class enumeration would exceed MIDDLE_CAP classes up to
    scalar, the (p^e - 1) / (p - 1) lines of Ext; for p <= 5 that is p^e >
    MIDDLE_CAP, and a single class (e = 1) passes at every p."""


MIDDLE_CAP = 3125


# ---------------------------------------------------------------------------
# representation type and constructors

class Representation:
    __slots__ = ("quiver", "p", "dims", "mats", "_parts", "_ranks", "__weakref__")

    def __init__(self, quiver: ValuedQuiver, p: int, dims: tuple[int, ...],
                 mats: tuple[Matrix, ...]):
        self.quiver, self.p, self.dims, self.mats = quiver, p, dims, mats
        self._parts = self._ranks = None

    @property
    def total(self) -> int:
        return sum(self.dims)

    def __repr__(self):
        return f"Representation(dims={self.dims}, p={self.p})"


def make_rep(q: ValuedQuiver, p: int, dims, mats) -> Representation:
    la.check_prime(p)
    if not q.is_path_algebra():
        raise ValueError("explicit representations need all valuations equal to (1, 1)")
    dims = tuple(int(d) for d in dims)
    if len(dims) != q.n or any(d < 0 for d in dims):
        raise ValueError("bad dimension vector")
    if len(mats) != q.m:
        raise ValueError("need one matrix per arrow")
    fixed = []
    for ar, m in zip(q.arrows, mats):
        m = la.matrix(m, p, dims[ar.source])
        if m.shape != (dims[ar.target], dims[ar.source]):
            raise ValueError(
                f"arrow {ar.source + 1}->{ar.target + 1}: matrix shape {m.shape} "
                f"does not match ({dims[ar.target]}, {dims[ar.source]})")
        fixed.append(m)
    return Representation(q, p, dims, tuple(fixed))


def zero_rep(q: ValuedQuiver, p: int) -> Representation:
    return make_rep(q, p, (0,) * q.n, [la.zeros(0, 0)] * q.m)


@cache
def paths_from(q: ValuedQuiver, i: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All paths starting at i, listed per end vertex as arrow-index tuples."""
    out: list[list[tuple[int, ...]]] = [[] for _ in range(q.n)]
    out[i].append(())
    for v in topological_order(q):
        for path in out[v]:
            for k, ar in arrows_out(q, v):
                out[ar.target].append(path + (k,))
    return tuple(tuple(ps) for ps in out)


def _check_vertex(q: ValuedQuiver, i: int) -> None:
    if not 0 <= i < q.n:
        raise ValueError(f"vertex {i + 1} out of range")


def simple(q: ValuedQuiver, p: int, i: int) -> Representation:
    """The simple module at i."""
    _check_vertex(q, i)
    dims = tuple(int(v == i) for v in range(q.n))
    return make_rep(q, p, dims, [la.zeros(dims[ar.target], dims[ar.source])
                                 for ar in q.arrows])


def projective(q: ValuedQuiver, p: int, i: int) -> Representation:
    """The indecomposable projective at i, in the path basis: P(i) at v is
    spanned by the paths i -> v, and arrows act by path concatenation."""
    _check_vertex(q, i)
    basis = paths_from(q, i)
    dims = tuple(len(ps) for ps in basis)
    mats = []
    for k, ar in enumerate(q.arrows):
        m = [[0] * dims[ar.source] for _ in range(dims[ar.target])]
        pos = {path: r for r, path in enumerate(basis[ar.target])}
        for c, path in enumerate(basis[ar.source]):
            m[pos[path + (k,)]][c] = 1
        mats.append(m)
    return make_rep(q, p, dims, mats)


def injective(q: ValuedQuiver, p: int, i: int) -> Representation:
    """The indecomposable injective at i, in the path basis: I(i) at v is
    spanned by the paths v -> i, with arrows acting by the transposed
    concatenation (it is the dual of the projective over the opposite quiver)."""
    _check_vertex(q, i)
    dims = tuple(len(paths_from(q, v)[i]) for v in range(q.n))
    mats = []
    for k, ar in enumerate(q.arrows):
        u, w = ar.source, ar.target
        m = [[0] * dims[u] for _ in range(dims[w])]
        pos = {path: c for c, path in enumerate(paths_from(q, u)[i])}
        for r, path in enumerate(paths_from(q, w)[i]):
            full = (k,) + path
            if full in pos:
                m[r][pos[full]] = 1
        mats.append(m)
    return make_rep(q, p, dims, mats)


def direct_sum(parts: list[Representation]) -> Representation:
    if not parts:
        raise ValueError("direct_sum of nothing; use zero_rep")
    q, p = parts[0].quiver, parts[0].p
    if any(part.quiver != q or part.p != p for part in parts):
        raise ValueError("summands live over different quivers or moduli")
    dims = tuple(sum(part.dims[v] for part in parts) for v in range(q.n))
    mats = []
    for k, ar in enumerate(q.arrows):
        m, co, width = [], 0, dims[ar.source]
        for part in parts:
            dc = part.dims[ar.source]
            m.extend((0,) * co + row + (0,) * (width - co - dc) for row in part.mats[k])
            co += dc
        mats.append(m)
    return make_rep(q, p, dims, mats)


def dual(M: Representation) -> Representation:
    """The dual representation over the reversed quiver."""
    raw = [ar.reversed() for ar in M.quiver.arrows]
    arrows, perm = sorted_with_perm(raw)
    rq = ValuedQuiver(M.quiver.n, arrows)
    mats: list = [None] * len(raw)
    for k, m in enumerate(M.mats):
        mats[perm[k]] = la.transpose(m)
    return make_rep(rq, M.p, M.dims, mats)


def random_rep(q: ValuedQuiver, p: int, dims, rng: random.Random) -> Representation:
    dims = tuple(int(d) for d in dims)
    mats = [la.random_matrix(dims[ar.target], dims[ar.source], p, rng) for ar in q.arrows]
    return make_rep(q, p, dims, mats)


def rep_to_json(M: Representation) -> dict:
    return {
        "dim": list(M.dims),
        "arrows": [
            {"from": ar.source + 1, "to": ar.target + 1,
             "matrix": [list(row) for row in M.mats[k]]}
            for k, ar in enumerate(M.quiver.arrows)
        ],
    }


def rep_from_json(q: ValuedQuiver, p: int, data: dict) -> Representation:
    entries = data["arrows"]
    if any((e["from"], e["to"]) != (a.source + 1, a.target + 1) for a, e in zip(q.arrows, entries)):
        raise ValueError("arrow order in JSON does not match the quiver")
    return make_rep(q, p, data["dim"], [e["matrix"] for e in entries])


def extend_by_zero(M: Representation, sub: Subquiver) -> Representation:
    """Regard a module over an induced subquiver as one over the ambient.

    Induced means every ambient arrow between kept vertices is kept, so Hom
    and Ext between extended modules agree with their values downstairs.
    """
    q = sub.ambient
    dims = [0] * q.n
    for new in range(sub.quiver.n):
        dims[sub.old_vertex(new)] = M.dims[new]
    mats: list = [None] * q.m
    for new_k in range(sub.quiver.m):
        mats[sub.old_arrow(new_k)] = M.mats[new_k]
    for k, ar in enumerate(q.arrows):
        if mats[k] is None:
            mats[k] = la.zeros(dims[ar.target], dims[ar.source])
    return make_rep(q, M.p, dims, mats)


def restrict_module(M: Representation, sub: Subquiver) -> Representation:
    """Inverse of extend_by_zero; the support must lie in the subquiver."""
    kept = {sub.old_vertex(new) for new in range(sub.quiver.n)}
    for v in range(M.quiver.n):
        if v not in kept and M.dims[v]:
            raise ValueError(f"module is supported outside the subquiver at {v + 1}")
    dims = [M.dims[sub.old_vertex(new)] for new in range(sub.quiver.n)]
    mats = [M.mats[sub.old_arrow(new_k)] for new_k in range(sub.quiver.m)]
    return make_rep(sub.quiver, M.p, dims, mats)


# ---------------------------------------------------------------------------
# Hom and Ext

class HomSpace:
    """Hom(source, target) as flat vectors in morphism_flat order; basis cuts
    them into per-vertex matrices when first read, and dim never does."""
    __slots__ = ("source", "target", "vectors", "_basis", "__weakref__")

    def __init__(self, source: Representation, target: Representation, vectors):
        self.source, self.target, self.vectors, self._basis = source, target, vectors, None

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def basis(self) -> tuple[tuple[Matrix, ...], ...]:
        if self._basis is None:
            shapes = list(zip(self.target.dims, self.source.dims))
            self._basis = tuple(_unflatten(vec, shapes) for vec in self.vectors)
        return self._basis


def _intertwiner_rows(X: Representation, Y: Representation) -> tuple[list[list[int]], list[int]]:
    """The map f -> (f_t X_k - Y_k f_s)_k from the vertex blocks
    sum_v Hom(X_v, Y_v) to the arrow blocks sum_k Hom(X_s, Y_t), as rows of
    ints reduced mod p, and the offsets of the vertex blocks.

    The unknowns are the entries of f_v, row by row.  Arrow k: s -> t gives
    one row per entry (i, a) of a Y_t x X_s matrix, arrow by arrow: f_t X_k
    contributes X_k[b, a] at unknown f_t[i, b], and Y_k f_s contributes
    -Y_k[i, j] at unknown f_s[j, a].  Its kernel is Hom(X, Y) and its
    cokernel Ext(X, Y) (the standard resolution).
    """
    if (X.quiver is not Y.quiver and X.quiver != Y.quiver) or X.p != Y.p:
        raise ValueError("modules live over different quivers or moduli")
    q, p = X.quiver, X.p
    offs = [0]
    for v in range(q.n):
        offs.append(offs[-1] + Y.dims[v] * X.dims[v])
    cols = offs[-1]
    rows = []
    for k, ar in enumerate(q.arrows):
        s, t = ar.source, ar.target
        xs, xt, ys = X.dims[s], X.dims[t], Y.dims[s]
        if not xs:
            continue
        xk, yk = X.mats[k], Y.mats[k]
        for i in range(Y.dims[t]):
            ft = offs[t] + i * xt
            for a in range(xs):
                row = [0] * cols
                for b in range(xt):
                    row[ft + b] = xk[b][a]
                for j in range(ys):
                    row[offs[s] + j * xs + a] = -yk[i][j] % p
                rows.append(row)
    return rows, offs


def hom_basis(X: Representation, Y: Representation) -> HomSpace:
    """Canonical echelonized basis of the intertwiner space Hom(X, Y).

    The system of _intertwiner_rows is eliminated by linalg._eliminate in
    place, and its null vectors are kept for HomSpace to cut.
    """
    rows, offs = _intertwiner_rows(X, Y)
    cols = offs[-1]
    return HomSpace(X, Y, la._null_vectors(rows, la._eliminate(rows, cols, X.p), cols, X.p))


def hom_dim(X, Y) -> int:
    return hom_basis(X, Y).dim


def ext_dim(X: Representation, Y: Representation, hom=None) -> int:
    """dim Ext^1 via the hereditary identity hom - ext = <dim X, dim Y>.

    hom supplies Hom(X, Y), as in trace_submodule.
    """
    h = hom_dim(X, Y) if hom is None else hom(X, Y).dim
    e = h - euler_form(X.quiver, X.dims, Y.dims)
    require(e >= 0, "hereditary identity violated")
    return e


def morphism_flat(f: tuple[Matrix, ...]) -> tuple[int, ...]:
    """The entries of a morphism, vertex by vertex and row by row."""
    return tuple(x for m in f for row in m for x in row)


def _unflatten(flat, shapes) -> tuple[Matrix, ...]:
    """The morphism whose entries morphism_flat lists, one matrix per shape."""
    flat, out, off = tuple(flat), [], 0
    for rows, cols in shapes:
        end = off + rows * cols
        out.append(la.from_rows([flat[r:r + cols] for r in range(off, end, cols)], cols)
                   if end > off else la.zeros(rows, cols))
        off = end
    return tuple(out)


def compose(g: tuple[Matrix, ...], f: tuple[Matrix, ...], p: int) -> tuple[Matrix, ...]:
    """Composite g after f, per vertex."""
    return tuple(la.matmul(g[v], f[v], p) for v in range(len(f)))


def is_invertible_morphism(f, p: int) -> bool:
    return all(la.is_invertible(m, p) for m in f)


# ---------------------------------------------------------------------------
# subobjects, quotients, traces

class Subquotient:
    """A short exact sequence sub -> ambient -> quot with explicit witnesses.

    The quotient and its projections are built on first read: generation
    tests, Fitting splittings and kernels only need the sub.
    """

    def __init__(self, ambient: Representation, sub: Representation, incl: tuple[Matrix, ...]):
        self.ambient, self.sub, self.incl = ambient, sub, incl

    @cached_property
    def _quotient(self) -> tuple[Representation, tuple[Matrix, ...]]:
        """The quotient, built on the complementary standard coordinates,
        and the projections onto it."""
        M, q, p = self.ambient, self.ambient.quiver, self.ambient.p
        splits = [_complement(b, p) for b in self.incl]
        sections = [c for c, _ in splits]
        projs = tuple(proj for _, proj in splits)
        quot_mats = [la.matmul(projs[ar.target], la.matmul(M.mats[k], sections[ar.source], p), p)
                     for k, ar in enumerate(q.arrows)]
        quot = make_rep(q, p, [M.dims[v] - self.sub.dims[v] for v in range(q.n)], quot_mats)
        return quot, projs

    @property
    def quot(self) -> Representation:
        return self._quotient[0]

    @property
    def proj(self) -> tuple[Matrix, ...]:
        return self._quotient[1]


def _complement(basis: Matrix, p: int) -> tuple[Matrix, Matrix]:
    """Section and projection of the complement of independent columns.

    The complement is spanned by standard basis vectors; the section c embeds
    it and proj is the matching projection, so proj @ basis = 0 and
    proj @ c = 1.  One elimination of [basis | I] gives both: its pivots past
    the basis pick the standard vectors, and its right block is the inverse
    of [basis | c], whose rows below the basis are the projection.
    """
    d, k = basis.shape
    r, _, pivots = la.rref(la.hstack([basis, la.identity(d)]), p)
    if pivots[:k] != list(range(k)):
        raise ValueError("basis columns are not independent")
    units = la.identity(d)
    c = la.transpose(la.from_rows([units[col - k] for col in pivots[k:]], d))
    return c, la.from_rows([row[k:] for row in r[k:]], d)


def carve(M: Representation, spaces) -> Subquotient:
    """Carve the subrepresentation spanned by per-vertex column spaces.

    The spaces must be arrow-invariant; the quotient is built on the
    complementary standard coordinates, so everything stays canonical.
    """
    q, p = M.quiver, M.p
    bases = [la.column_space_basis(spaces[v], p) for v in range(q.n)]
    sub_dims = [b.shape[1] for b in bases]
    sub_mats = []
    for k, ar in enumerate(q.arrows):
        s, t = ar.source, ar.target
        pushed = la.matmul(M.mats[k], bases[s], p)
        x = la.solve(bases[t], pushed, p)
        if x is None:
            raise ValueError("vertex spaces are not arrow-invariant")
        sub_mats.append(x)
    return Subquotient(M, make_rep(q, p, sub_dims, sub_mats), tuple(bases))


class TraceResult:
    """The trace of some generators in M as one basis per vertex.  Their
    ranks decide full and zero; the submodule is carved on first read."""

    def __init__(self, ambient: Representation, bases: tuple[Matrix, ...]):
        self.ambient, self.bases = ambient, bases

    @property
    def full(self) -> bool:
        return all(b.shape[1] == d for b, d in zip(self.bases, self.ambient.dims))

    @property
    def zero(self) -> bool:
        return not any(b.shape[1] for b in self.bases)

    @cached_property
    def carved(self) -> Subquotient:
        return carve(self.ambient, self.bases)

    @property
    def sub(self):
        return self.carved.sub


def trace_submodule(gens, M: Representation, hom=None) -> TraceResult:
    """Sum of all images of maps from the generators into M.

    The images of the Hom basis maps are reduced to a column-space basis at
    each vertex.  hom(G, M) supplies the Hom spaces, for instance from the
    table of a module universe; without it they are computed by hom_basis.
    """
    if isinstance(gens, Representation):
        gens = [gens]
    if hom is None:
        hom = hom_basis
    return TraceResult(M, image_bases(M, [f for G in gens for f in hom(G, M).basis]))


def image_bases(M: Representation, maps) -> tuple[Matrix, ...]:
    """The span of the images of maps into M at each vertex, as canonical column bases."""
    return tuple(la.column_space_basis(la.hstack([f[v] for f in maps]), M.p) if maps
                 else la.zeros(M.dims[v], 0) for v in range(M.quiver.n))


def generates(gens, M: Representation, hom=None) -> bool:
    return trace_submodule(gens, M, hom).full


def isotypic_socle(M: Representation, i: int) -> Subquotient:
    """Largest submodule that is a sum of copies of S(i), with its quotient."""
    q, p = M.quiver, M.p
    outs = [M.mats[k] for k, _ in arrows_out(q, i)]
    space_i = la.kernel_basis(la.vstack(outs), p) if outs else la.identity(M.dims[i])
    spaces = [space_i if v == i else la.zeros(M.dims[v], 0) for v in range(q.n)]
    return carve(M, spaces)


# ---------------------------------------------------------------------------
# decomposition, isomorphism, normalization

def _endo_power(f, n: int, p: int):
    out = tuple(la.identity(m.shape[0]) for m in f)
    base = f
    while n:
        if n & 1:
            out = compose(out, base, p)
        base = compose(base, base, p)
        n >>= 1
    return out


def _nilpotent_algebra(gens, p: int) -> bool:
    """Whether the endomorphisms gens generate a nilpotent algebra.

    W runs through echelon bases of the powers J, J^2, ... of J = span(gens):
    J^(k+1) is spanned by the products w after n, w in J^k and n in J.  An
    algebra of n x n matrices is nilpotent exactly when J^n = 0, so W reaches
    zero within n rounds or never.
    """
    if not gens:
        return True
    shapes = [m.shape for m in gens[0]]

    def echelon(morphisms):
        r, rk, _ = la.rref(la.Matrix(morphism_flat(f) for f in morphisms), p)
        return [_unflatten(row, shapes) for row in r[:rk]]

    span = w = echelon(gens)
    for _ in range(sum(a for a, _ in shapes)):
        if not w:
            return True
        w = echelon([compose(x, n, p) for x in w for n in span])
    return not w


def _fitting_split(M: Representation, g) -> tuple[Representation, Representation] | None:
    """Split M along ker g^N + im g^N; None when g is nilpotent or invertible."""
    p = M.p
    gn = _endo_power(g, max(M.dims), p)   # a d x d block is stable by exponent d
    ker_spaces = [la.kernel_basis(gn[v], p) for v in range(M.quiver.n)]
    kdim = sum(b.shape[1] for b in ker_spaces)
    if kdim == 0 or kdim == M.total:
        return None
    part1 = carve(M, ker_spaces).sub
    part2 = carve(M, gn).sub
    require(part1.total + part2.total == M.total, "Fitting parts do not add up to the module")
    return part1, part2


def decompose(M: Representation) -> list[Representation]:
    """Full direct-sum decomposition into indecomposables, from the canonical
    basis b_1..b_d of End(M) alone; nothing is sampled.

    Fitting's lemma: each b_i is shifted by every scalar in turn, and the
    first singular shift either splits M along its stable kernel and image
    or is nilpotent.  When every b_i has an eigenvalue l_i in F_p and none
    splits, the nilpotent shifts b_i - l_i span J with End(M) = F_p + J; if
    J generates a nilpotent algebra, that algebra is an ideal of codimension
    one, so End(M) is local and M is indecomposable.  This proof applies
    exactly when End(M)/rad = F_p.  Otherwise DecompositionInconclusive names
    the cause: a basis element with no eigenvalue in F_p, or shifts that
    generate no nilpotent algebra.  M never changes, so it keeps its summands.
    """
    if M._parts is None:
        M._parts = tuple(_split_fully(M))
    return list(M._parts)


def _split_fully(M: Representation) -> list[Representation]:
    if M.total == 0:
        return []
    if M.total == 1:
        return [M]
    end = hom_basis(M, M)
    if end.dim == 1:
        return [M]
    p = M.p
    nilpotents, no_eigenvalue = [], 0
    for phi in end.basis:
        for lam in range(p):
            shifted = tuple(la.Matrix(tuple((x - lam) % p if i == j else x
                                            for j, x in enumerate(row))
                                      for i, row in enumerate(f)) for f in phi)
            if all(la.is_invertible(m, p) for m in shifted):
                continue
            split = _fitting_split(M, shifted)
            if split is not None:
                return decompose(split[0]) + decompose(split[1])
            if any(map(any, itertools.chain(*shifted))):
                nilpotents.append(shifted)
            break   # nilpotent shift: phi is scalar plus nilpotent
        else:
            no_eigenvalue += 1
    # one nilpotent shift needs no products: the split test showed it nilpotent
    if no_eigenvalue or len(nilpotents) > 1 and not _nilpotent_algebra(nilpotents, p):
        cause = (f"no eigenvalue in F_p for {no_eigenvalue} of its {end.dim} basis elements"
                 if no_eigenvalue else "its nilpotent shifts generate no nilpotent algebra")
        raise DecompositionInconclusive(f"End(M) on dims {M.dims}: {cause}, and none splits M")
    return [M]


def is_isomorphic(X: Representation, Y: Representation) -> bool:
    """Exact isomorphism test; it draws nothing.

    If some basis map f_i of Hom(X, Y) is invertible, the answer is yes.  If
    none is and X is indecomposable, the answer is no: an isomorphism phi
    would make phi^-1 f_1, ..., phi^-1 f_d a basis of End(X), and the
    non-units of the local ring End(X) form the proper subspace rad End(X),
    so some phi^-1 f_i, and with it f_i, would be invertible.  With at most
    one basis map X need not be decomposed: an isomorphism would be a
    multiple of it.  Otherwise Y is decomposed too and the summands are
    matched.  Where a decomposition is inconclusive, so is the test.
    """
    if X.quiver != Y.quiver or X.p != Y.p or X.dims != Y.dims:
        return False
    if X.total == 0:
        return True
    h = hom_basis(X, Y)
    if any(is_invertible_morphism(f, X.p) for f in h.basis):
        return True
    if h.dim <= 1 or len(px := decompose(X)) == 1:
        return False
    py = decompose(Y)   # a fresh list, matched summands are popped
    if len(px) != len(py):
        return False
    for part in px:
        idx = _iso_index(part, py)
        if idx is None:
            return False
        py.pop(idx)
    return True


def _iso_index(M: Representation, candidates) -> int | None:
    """Position of the first candidate isomorphic to M, or None: the one
    isomorphism dedup.  Candidates are tried in list order; those with the
    dims and then the _rank_invariants of M reach is_isomorphic, which always
    gets M first, so invariants are computed only on a dims match.
    """
    for idx, cand in enumerate(candidates):
        if (cand.dims == M.dims and _rank_invariants(cand) == _rank_invariants(M)
                and is_isomorphic(M, cand)):
            return idx
    return None


def _rank_invariants(M: Representation) -> tuple[int, ...]:
    """Ranks that a change of basis at each vertex keeps: of each arrow, each
    composite of two arrows and each pencil a + lam b of two parallel arrows.
    M never changes, so it keeps them, as it keeps its summands."""
    if M._ranks is not None:
        return M._ranks
    p, mats, arrows = M.p, M.mats, list(enumerate(M.quiver.arrows))
    more = [la.matmul(mats[l], mats[k], p) for k, a in arrows for l, b in arrows
            if b.source == a.target]
    more += [la.Matrix(tuple((x + lam * y) % p for x, y in zip(*r)) for r in zip(mats[k], mats[l]))
             for k, a in arrows for l, b in arrows[k + 1:]
             if (a.source, a.target) == (b.source, b.target) for lam in range(1, p)]
    M._ranks = tuple(la.rank(m, p) for m in (*mats, *more))
    return M._ranks


def _drop_generated(mods: list[Representation]) -> list[int]:
    """Positions, in list order, of the modules left after one pass that
    drops each module the others still kept generate; the kept ones generate
    them all, and none is generated by the others.

    This is the list of the greedy loop that drops the first generated
    module and starts over: a module that loop passed was not generated by a
    set that has only shrunk since, and Gen is monotone, so no restart drops
    it.  normalize_summands is the one caller.
    """
    kept = list(range(len(mods)))
    for k in range(len(mods)):
        others = [mods[j] for j in kept if j != k]
        if others and generates(others, mods[k]):
            kept.remove(k)
    return kept


def normalize_summands(M: Representation) -> list[Representation]:
    """Multiplicity-one summand list of the normalization.

    One summand per isomorphism class, smallest first, then greedy removal of
    any summand generated by the rest; the result generates the original
    module and no remaining summand is redundant.
    """
    kept: list[Representation] = []
    for piece in sorted(decompose(M), key=lambda r: (r.total, r.dims)):
        if _iso_index(piece, kept) is None:
            kept.append(piece)
    return [kept[k] for k in _drop_generated(kept)]


def normalize(M: Representation) -> Representation:
    kept = normalize_summands(M)
    if not kept:
        return zero_rep(M.quiver, M.p)
    return direct_sum(kept)


# ---------------------------------------------------------------------------
# reflection functors

def _reflect(q: ValuedQuiver, p: int, dims, mats, v: int):
    """One BGP reflection at v on raw (quiver, dims, mats), returned as such;
    every block stays a Matrix, so empty ones keep their shapes."""
    rq, perm = reflect_with_perm(q, v)
    new_dims = list(dims)
    new_mats: list = [None] * q.m
    for k, m in enumerate(mats):        # arrows away from v carry over
        new_mats[perm[k]] = m
    if is_sink(q, v):
        ins = arrows_in(q, v)
        blocks = [mats[k] for k, _ in ins]
        assembled = la.hstack(blocks) if blocks else la.zeros(dims[v], 0)
        ker = la.kernel_basis(assembled, p)
        new_dims[v] = width = ker.shape[1]
        off = 0
        for k, ar in ins:
            d = dims[ar.source]
            new_mats[perm[k]] = la.from_rows(ker[off:off + d], width)
            off += d
    else:
        outs = arrows_out(q, v)
        blocks = [mats[k] for k, _ in outs]
        assembled = la.vstack(blocks) if blocks else la.zeros(0, dims[v])
        # the reduced echelon basis of the left null space: the projection
        # _complement would build, from fewer and narrower eliminations
        proj = la.rref(la.transpose(la.kernel_basis(la.transpose(assembled), p)), p)[0]
        new_dims[v] = len(proj)
        off = 0
        for k, ar in outs:
            d = dims[ar.target]
            new_mats[perm[k]] = la.from_rows([row[off:off + d] for row in proj], d)
            off += d
    return rq, new_dims, new_mats


def reflection_functor_apply(M: Representation, v: int) -> Representation:
    """BGP reflection at a sink (kernel of the assembled map into v) or a
    source (cokernel of the diagonal map out of v).  Copies of S(v) are
    annihilated; everything else transports equivalently.  Any other vertex
    raises QuiverError."""
    rq, dims, mats = _reflect(M.quiver, M.p, M.dims, M.mats, v)
    return make_rep(rq, M.p, dims, mats)


# ---------------------------------------------------------------------------
# the translates as sign-twisted Coxeter functors

def _twisted_coxeter(M: Representation, order, undefined: str) -> Representation:
    """Reflect M at each vertex of order in turn, then negate every arrow.

    Over an acyclic quiver the Coxeter functors agree with DTr and TrD up to
    the automorphism that negates every arrow (Bernstein-Gelfand-Ponomarev);
    without the negation a homogeneous module M_t of the triangle would go
    to M_-t.  A zero result raises ValueError(undefined).  The reflections
    run on raw data through _reflect; one at every vertex brings back the
    quiver of M, so the result is validated once, on M's own quiver object.
    """
    q, dims, mats = M.quiver, M.dims, M.mats
    for v in order:
        q, dims, mats = _reflect(q, M.p, dims, mats, v)
    require(q == M.quiver, "the reflections did not bring back the quiver")
    if not any(dims):
        raise ValueError(undefined)
    return make_rep(M.quiver, M.p, dims, [[[-x for x in row] for row in m] for m in mats])


def ar_translate(M: Representation) -> Representation:
    """DTr M as the sign-twisted Coxeter functor C+: reflections at the
    vertices in reverse topological order, each a sink of the quiver
    reflected so far.  Projective summands vanish; projective input raises."""
    return _twisted_coxeter(M, reversed(topological_order(M.quiver)),
                            "the translate DTr is undefined on projective modules")


def ar_translate_inverse(M: Representation) -> Representation:
    """TrD M as the sign-twisted Coxeter functor C-: reflections at the
    vertices in topological order, each a source of the quiver reflected so
    far.  Injective summands vanish; injective input raises."""
    return _twisted_coxeter(M, topological_order(M.quiver),
                            "the translate TrD is undefined on injective modules")


# ---------------------------------------------------------------------------
# universal extensions and middle terms

def _ext_classes(B: Representation, A: Representation) -> Matrix:
    """Cocycles whose classes form a basis of Ext(B, A), one per row of the
    matrix returned.

    Ext(B, A) is the cokernel of the map of _intertwiner_rows from the
    vertex blocks to the arrow blocks (Ringel's standard resolution), so
    the standard basis vectors of the arrow blocks that complete its image
    represent a basis of it.
    """
    rows, offs = _intertwiner_rows(B, A)
    image = la.column_space_basis(la.from_rows(map(tuple, rows), offs[-1]), B.p)
    units = la.identity(len(rows))
    return la.from_rows([units[i] for i in la.complement_indices(image, B.p)], len(rows))


def _glue(A: Representation, B: Representation, extensions) -> list[Representation]:
    """The middles E of 0 -> A -> E -> B^m -> 0, one per entry of
    extensions, each a sequence of m cocycles of (B, A).

    Arrow k: s -> t acts on E_s = A_s + B_s^m by [[A_k, eta_k], [0, B_k^m]],
    A first at each vertex, where eta_k holds the block of each cocycle at
    arrow k, an A_t x B_s matrix read row by row, side by side.  The rows of
    A_k, the zero-padded rows of B_k^m and the block offsets are laid out
    once for all entries, so each middle costs one make_rep.
    """
    q, m, off, arrows = A.quiver, len(extensions[0]), 0, []
    for k, ar in enumerate(q.arrows):
        s, bs = ar.source, B.dims[ar.source]
        heads = [(row, off + r * bs) for r, row in enumerate(A.mats[k])]
        lower = [(0,) * (A.dims[s] + j * bs) + row + (0,) * ((m - 1 - j) * bs)
                 for j in range(m) for row in B.mats[k]]
        arrows.append((heads, bs, lower))
        off += A.dims[ar.target] * bs
    dims = [a + m * b for a, b in zip(A.dims, B.dims)]
    return [make_rep(q, A.p, dims, [[row + sum((c[i:i + bs] for c in ext), ()) for row, i in heads]
                                    + lower for heads, bs, lower in arrows]) for ext in extensions]


def _universal_extension_above(M: Representation, i: int) -> Representation:
    """0 -> M -> E -> S(i)^e -> 0 killing Ext(S(i), -); e = ext_dim(S(i), M).

    E glues one copy of S(i) along each class of Ext(S(i), M); the
    coboundary of (S(i), M) is minus the stacked arrow maps out of i.
    """
    q, p = M.quiver, M.p
    S = simple(q, p, i)
    classes = _ext_classes(S, M)
    if not classes:
        return M
    [E] = _glue(M, S, [classes])
    require(ext_dim(S, E) == 0, "universal extension above leaves an extension")
    return E


def universal_extension(M: Representation, i: int, where: str) -> Representation:
    """Universal extension of M by copies of S(i), from above or below.

    Above stacks S(i)-copies on top (use at a source of the support); below
    puts them underneath (use at a sink).  The returned module has no
    remaining extensions in the killed direction.
    """
    if where == "above":
        return _universal_extension_above(M, i)
    if where == "below":
        E = _universal_extension_above(dual(M), i)
        out = dual(E)
        require(ext_dim(out, simple(M.quiver, M.p, i)) == 0,
                "universal extension below leaves an extension")
        return out
    raise ValueError("where must be 'above' or 'below'")


def _projective_class_lines(p: int, e: int):
    """Representatives of nonzero classes up to scalar: leading entry one."""
    for lead in range(e):
        for rest in itertools.product(range(p), repeat=e - lead - 1):
            yield (0,) * lead + (1,) + rest


def middle_terms(B: Representation, A: Representation, *, hom=None) -> list[Representation]:
    """Middle terms of the nonsplit extensions of B by A
    (0 -> A -> E -> B -> 0), one glued middle per line of P(Ext(B, A)); the
    list is empty when Ext(B, A) = 0.

    Classes are enumerated up to scalar, as combinations of the basis
    cocycles of _ext_classes, in the order of _projective_class_lines, and
    each middle term is glued from A and B along one, all in one _glue call
    that lays out the pair's blocks once.  Distinct lines may give
    isomorphic middles; callers that need isomorphism classes match them.
    hom supplies the Hom spaces between A and B, as in trace_submodule.
    """
    p = B.p
    e = ext_dim(B, A, hom)
    if e == 0:
        return []
    lines = (p ** e - 1) // (p - 1)
    if lines > MIDDLE_CAP:
        raise ExtensionCapError(f"{lines} extension classes up to scalar (p^e = {p}^{e}) "
                                f"exceed the cap {MIDDLE_CAP}")
    classes = _ext_classes(B, A)
    require(len(classes) == e, "extension classes do not match the Ext dimension")
    cocycles = la.matmul(la.Matrix(_projective_class_lines(p, e)), classes, p)
    return _glue(A, B, [(c,) for c in cocycles])
