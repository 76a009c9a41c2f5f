"""Representations: standard modules, Hom/Ext, decomposition, translates.

The Hom and Ext oracle used throughout builds the four-term exact sequence

    0 -> Hom(X, Y) -> sum_v Hom(X_v, Y_v) -> sum_a Hom(X_sa, Y_ta) -> Ext(X, Y) -> 0

from the raw matrices, so its kernel and cokernel dimensions are independent
of both the packaged intertwiner solver and the Euler-form shortcut.
"""

import itertools
import random
import weakref
from pathlib import Path

import numpy as np
import pytest

from ftors import linalg as la
from ftors import modules
from ftors.modules import (
    DecompositionInconclusive,
    ExtensionCapError,
    Representation,
    ar_translate,
    ar_translate_inverse,
    carve,
    decompose,
    direct_sum,
    dual,
    ext_dim,
    generates,
    hom_basis,
    hom_dim,
    injective,
    is_isomorphic,
    isotypic_socle,
    make_rep,
    middle_terms,
    normalize,
    projective,
    random_rep,
    reflection_functor_apply,
    rep_from_json,
    rep_to_json,
    simple,
    trace_submodule,
    universal_extension,
    zero_rep,
)
from ftors.quiver import arrows_in, load_quiver, parse_quiver, reflect_at
from ftors.roots import coxeter_transform, euler_form
from ftors.tors import filtration_universe, in_gen_closure, in_torsion_closure
from ftors.tubes import find_regular_simples


def arr(m):
    """A matrix as a numpy array of its shape, for the numpy oracles."""
    return np.array(m, dtype=np.int64).reshape(m.shape)


def mat(a, p):
    """A numpy array as a matrix over F_p."""
    return la.matrix(a, p, np.shape(a)[1])


def same(a, b):
    return np.array_equal(arr(a), arr(b))


def aslist(m):
    return [list(row) for row in m]


def element(h, coeffs):
    """The combination of the basis maps of the Hom space h with the given
    coefficients (the pushout reference, the brute-force isomorphism)."""
    X, Y, p = h.source, h.target, h.source.p
    size = sum(x * y for x, y in zip(X.dims, Y.dims))
    flat = [sum(int(c) * vec[i] for c, vec in zip(coeffs, h.vectors)) % p for i in range(size)]
    return modules._unflatten(flat, list(zip(Y.dims, X.dims)))


def neg(m, p):
    return la.matrix([[-x for x in row] for row in m], p, m.shape[1])


def projective_cover(M):
    """Minimal epi from a projective: (P0, component vertices, g: P0 -> M).

    One copy of P(v) for each standard basis vector completing rad M at v;
    g sends the path basis of that copy to the images of the vector.
    """
    q, p = M.quiver, M.p
    comps, tops = [], []
    for v in range(q.n):
        blocks = [M.mats[k] for k, _ in arrows_in(q, v)]
        rad = (la.column_space_basis(la.hstack(blocks), p) if blocks and M.dims[v]
               else la.zeros(M.dims[v], 0))
        for idx in la.complement_indices(rad, p):
            comps.append(v)
            tops.append(np.eye(M.dims[v], dtype=np.int64)[:, idx])
    if not comps:
        assert M.total == 0
        return zero_rep(q, p), [], tuple(la.identity(d) for d in M.dims)
    p0 = direct_sum([projective(q, p, v) for v in comps])
    g = []
    for w in range(q.n):
        cols = []
        for top, v in zip(tops, comps):
            for path in modules.paths_from(q, v)[w]:
                vec = top
                for k in path:
                    vec = arr(M.mats[k]) @ vec % p
                cols.append(vec)
        g.append(mat(np.stack(cols, axis=1), p) if cols else la.zeros(M.dims[w], 0))
        assert la.rank(g[w], p) == M.dims[w]
    return p0, comps, tuple(g)


def is_projective_rep(M):
    """A module is projective exactly when its projective cover is no larger."""
    return projective_cover(M)[0].total == M.total


def minimal_presentation(M):
    """P1 -> P0 -> M -> 0 as (P0, P1, f), P1 the projective cover of the
    kernel of P0 -> M; over a path algebra that kernel is projective, so f
    is injective."""
    q, p = M.quiver, M.p
    p0, _, g = projective_cover(M)
    ker = carve(p0, [la.kernel_basis(g[v], p) for v in range(q.n)])
    p1, _, h = projective_cover(ker.sub)
    assert p1.dims == ker.sub.dims
    return p0, p1, tuple(la.matmul(i, hv, p) for i, hv in zip(ker.incl, h))


def reference_middle_terms(B, A):
    """middle_terms by pushouts of the minimal presentation of B.

    A class of Ext(B, A) is a map P1 -> A modulo those that factor through
    f: P1 -> P0, and its middle term is the cokernel of P1 -> A + P0.  The
    nonsplit ones are listed, one per line of P(Ext).
    """
    q, p = B.quiver, B.p
    e = ext_dim(B, A)
    if e == 0:
        return []
    p0, p1, f = minimal_presentation(B)
    h1, h0 = hom_basis(p1, A), hom_basis(p0, A)
    flat1 = mat(np.array([modules.morphism_flat(m) for m in h1.basis]).reshape(h1.dim, -1).T, p)
    pulled = [modules.morphism_flat(modules.compose(eta, f, p)) for eta in h0.basis]
    coords = (la.solve(flat1, mat(np.stack(pulled, axis=1), p), p)[0] if pulled
              else la.zeros(h1.dim, 0))
    reps_idx = la.complement_indices(la.column_space_basis(coords, p), p)
    assert len(reps_idx) == e
    target = direct_sum([A, p0])
    middles = []
    for line in modules._projective_class_lines(p, e):
        coeffs = np.zeros(h1.dim, dtype=np.int64)
        coeffs[reps_idx] = line
        xi = element(h1, coeffs)
        middles.append(carve(target, [la.vstack([xi[v], neg(f[v], p)]) for v in range(q.n)]).quot)
    return middles


A2 = parse_quiver("vertices 2\narrow 1 2\n")
A3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n")
D4 = parse_quiver("vertices 4\narrow 1 2\narrow 1 3\narrow 1 4\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")
TWO_ONE = parse_quiver("vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\n")
QDIR = Path(__file__).resolve().parent.parent / "quivers"


def random_dims(rng, n, high, low=0):
    return [rng.randrange(low, high) for _ in range(n)]


def count_paths(q, src):
    """Independent path counter by depth-first traversal."""
    counts = [0] * q.n

    def walk(v):
        counts[v] += 1
        for a in q.arrows:
            if a.source == v:
                walk(a.target)

    walk(src)
    return tuple(counts)


def hom_ext_oracle(X, Y):
    """Kernel and cokernel dimensions of the vertex-to-arrow map."""
    q, p = X.quiver, X.p
    rows = sum(X.dims[a.source] * Y.dims[a.target] for a in q.arrows)
    cols = sum(X.dims[v] * Y.dims[v] for v in range(q.n))
    m = np.zeros((rows, cols), dtype=np.int64)
    coff = np.concatenate([[0], np.cumsum([X.dims[v] * Y.dims[v] for v in range(q.n)])])
    r0 = 0
    for k, a in enumerate(q.arrows):
        nr = X.dims[a.source] * Y.dims[a.target]
        if nr:
            # f_v viewed as the flattened matrix Y_v x X_v, row-major
            m[r0:r0 + nr, coff[a.target]:coff[a.target + 1]] += np.kron(
                np.eye(Y.dims[a.target], dtype=np.int64), arr(X.mats[k]).T)
            m[r0:r0 + nr, coff[a.source]:coff[a.source + 1]] -= np.kron(
                arr(Y.mats[k]), np.eye(X.dims[a.source], dtype=np.int64))
        r0 += nr
    r = la.rank(mat(m, p), p)
    return cols - r, rows - r


def test_standard_module_dims_match_path_counts():
    for q in (A2, A3, D4, KRONECKER, TWO_ONE):
        for v in range(q.n):
            assert projective(q, 5, v).dims == count_paths(q, v)
            assert injective(q, 5, v).dims == count_paths(q.reverse(), v)
            want = tuple(1 if w == v else 0 for w in range(q.n))
            assert simple(q, 5, v).dims == want


def test_standard_module_maps_compose_along_paths():
    # P(1) over the commuting-square-free D4 star: each arrow map is onto
    P = projective(D4, 5, 0)
    assert P.dims == (1, 1, 1, 1)
    for m in P.mats:
        assert m.shape == (1, 1) and m[0][0] == 1


def test_make_rep_validates_shapes_and_reduces():
    with pytest.raises(ValueError):
        make_rep(A2, 5, (1, 1), [np.zeros((2, 1), dtype=np.int64)])
    M = make_rep(A2, 5, (1, 1), [np.array([[7]])])
    assert M.mats[0][0][0] == 2


def test_hom_ext_hand_cases_a2():
    S1, S2, P1 = simple(A2, 5, 0), simple(A2, 5, 1), projective(A2, 5, 0)
    assert hom_dim(P1, S1) == 1
    assert hom_dim(P1, S2) == 0
    assert hom_dim(S1, P1) == 0
    assert hom_dim(S2, P1) == 1
    assert ext_dim(S1, S2) == 1
    assert ext_dim(S2, S1) == 0
    assert ext_dim(P1, S2) == 0
    assert hom_dim(P1, P1) == 1 and ext_dim(P1, P1) == 0


def test_hom_ext_match_independent_oracle():
    rng = random.Random(43)
    for q in (A3, D4, KRONECKER, TWO_ONE):
        for p in (2, 5):
            for _ in range(12):
                X = random_rep(q, p, random_dims(rng, q.n, 3), rng)
                Y = random_rep(q, p, random_dims(rng, q.n, 3), rng)
                h, e = hom_ext_oracle(X, Y)
                assert hom_dim(X, Y) == h
                assert ext_dim(X, Y) == e
                assert h - e == euler_form(q, X.dims, Y.dims)


def test_hom_basis_members_intertwine():
    rng = random.Random(47)
    X = random_rep(A3, 5, (2, 2, 1), rng)
    Y = random_rep(A3, 5, (1, 2, 2), rng)
    hs = hom_basis(X, Y)
    for f in hs.basis:
        for k, a in enumerate(A3.arrows):
            lhs = la.matmul(f[a.target], X.mats[k], 5)
            rhs = la.matmul(Y.mats[k], f[a.source], 5)
            assert same(lhs, rhs)


def hom_basis_by_kron(X, Y):
    """hom_basis as built from Kronecker products of the arrow matrices."""
    q, p = X.quiver, X.p
    offs = np.concatenate([[0], np.cumsum([Y.dims[v] * X.dims[v] for v in range(q.n)])])
    rows = sum(Y.dims[a.target] * X.dims[a.source] for a in q.arrows)
    m = np.zeros((rows, int(offs[-1])), dtype=np.int64)
    r0 = 0
    for k, a in enumerate(q.arrows):
        s, t = a.source, a.target
        nr = Y.dims[t] * X.dims[s]
        if nr:
            m[r0:r0 + nr, offs[t]:offs[t + 1]] = np.kron(np.eye(Y.dims[t], dtype=np.int64),
                                                         arr(X.mats[k]).T)
            m[r0:r0 + nr, offs[s]:offs[s + 1]] -= np.kron(arr(Y.mats[k]),
                                                          np.eye(X.dims[s], dtype=np.int64))
        r0 += nr
    ker = arr(la.kernel_basis(mat(m, p), p))
    return [[ker[offs[v]:offs[v + 1], j].reshape(Y.dims[v], X.dims[v]) for v in range(q.n)]
            for j in range(ker.shape[1])]


def test_hom_basis_matches_kronecker_system():
    """The same system, so the same canonical basis, array for array, over
    parallel arrows and with zero-dimensional vertices."""
    rng = random.Random(53)
    three_arrows = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\narrow 1 2\n")
    for q in (KRONECKER, three_arrows, TWO_ONE, D4):
        for _ in range(30):
            dx, dy = random_dims(rng, q.n, 4), random_dims(rng, q.n, 4)
            dx[rng.randrange(q.n)] = 0
            X, Y = random_rep(q, 3, dx, rng), random_rep(q, 3, dy, rng)
            # mostly zero maps, so that the Hom spaces are not all zero
            masks = [np.array([rng.random() < 0.3 for _ in range(arr(m).size)], bool) for m in X.mats]
            X = make_rep(q, 3, X.dims, [arr(m) * k.reshape(m.shape) for m, k in zip(X.mats, masks)])
            want = hom_basis_by_kron(X, Y)
            got = hom_basis(X, Y).basis
            assert len(got) == len(want)
            for f, g in zip(got, want):
                assert len(f) == q.n
                for a, b in zip(f, g):
                    assert a.shape == b.shape and same(a, b)


def test_trace_submodule_a2():
    S1, S2, P1 = simple(A2, 5, 0), simple(A2, 5, 1), projective(A2, 5, 0)
    assert trace_submodule(S1, P1).sub.dims == (0, 0)
    assert trace_submodule(S2, P1).sub.dims == (0, 1)
    assert trace_submodule(P1, direct_sum([S1, S1])).full
    assert trace_submodule(P1, direct_sum([S1, S2])).sub.dims == (1, 0)
    assert generates(P1, S1)
    assert not generates(P1, S2)


def test_isotypic_socle():
    P1 = projective(A2, 5, 0)
    assert isotypic_socle(P1, 1).sub.dims == (0, 1)
    assert isotypic_socle(P1, 0).sub.dims == (0, 0)
    big = projective(TWO_ONE, 5, 0)            # dims (1, 2, 2)
    assert big.dims == (1, 2, 2)
    sq = isotypic_socle(big, 2)
    assert sq.sub.dims == (0, 0, 2)
    assert sq.quot.dims == (1, 2, 0)


def test_carve_is_a_short_exact_sequence():
    """incl and proj are module maps, incl is injective, proj surjective, and
    proj after incl vanishes with matching dimensions."""
    rng = random.Random(53)
    for q, dims in ((A3, (2, 3, 2)), (KRONECKER, (3, 3)), (TWO_ONE, (1, 2, 2))):
        M = random_rep(q, 5, dims, rng)
        for G in [simple(q, 5, v) for v in range(q.n)] + [random_rep(q, 5, (1,) * q.n, rng)]:
            sq = trace_submodule(G, M).carved
            for k, a in enumerate(q.arrows):
                s, t = a.source, a.target
                assert same(la.matmul(sq.incl[t], sq.sub.mats[k], 5),
                                      la.matmul(M.mats[k], sq.incl[s], 5))
                assert same(la.matmul(sq.proj[t], M.mats[k], 5),
                                      la.matmul(sq.quot.mats[k], sq.proj[s], 5))
            for v in range(q.n):
                assert la.rank(sq.incl[v], 5) == sq.sub.dims[v]
                assert la.rank(sq.proj[v], 5) == sq.quot.dims[v]
                assert not np.any(la.matmul(sq.proj[v], sq.incl[v], 5))
                assert sq.sub.dims[v] + sq.quot.dims[v] == M.dims[v]


def _no_quotient(*args, **kwargs):
    raise AssertionError("the quotient of a carve was built")


def test_generation_tests_build_no_quotient(monkeypatch):
    S1, S2, P1 = simple(A2, 5, 0), simple(A2, 5, 1), projective(A2, 5, 0)
    monkeypatch.setattr("ftors.modules._complement", _no_quotient)
    partial = direct_sum([S1, S2])                  # the trace of P1 is S1
    assert trace_submodule(P1, partial).sub.dims == (1, 0)
    assert generates(P1, direct_sum([S1, S1]))      # full trace
    assert not generates(P1, partial)
    assert in_gen_closure([P1], S1)
    assert not in_gen_closure([P1], partial)


def test_carve_checks_invariance_without_a_quotient(monkeypatch):
    P1 = projective(A2, 5, 0)                       # arrow 1 -> 2 is the identity
    monkeypatch.setattr("ftors.modules._complement", _no_quotient)
    with pytest.raises(ValueError, match="arrow-invariant"):
        carve(P1, [la.identity(1), la.zeros(1, 0)])


def carved_trace(gens, M):
    """Reference for the rank-only trace: stack the images at each vertex
    and carve the submodule they span."""
    spaces = []
    for v in range(M.quiver.n):
        cols = [f[v] for G in gens for f in hom_basis(G, M).basis]
        spaces.append(la.hstack(cols) if cols else la.zeros(M.dims[v], 0))
    return carve(M, spaces).sub


def random_trace_cases(q, rng, count):
    """Random modules, each with a random list of generators drawn from the
    simples, the projectives and small random modules."""
    small = [simple(q, 5, v) for v in range(q.n)] + [projective(q, 5, v) for v in range(q.n)]
    for _ in range(count):
        M = random_rep(q, 5, random_dims(rng, q.n, 3), rng)
        gens = rng.sample(small, rng.randrange(3))
        gens += [random_rep(q, 5, random_dims(rng, q.n, 2), rng) for _ in range(rng.randrange(2))]
        yield gens, M


@pytest.mark.parametrize("q", [A3, D4, KRONECKER], ids=["a3", "d4", "kronecker"])
def test_rank_trace_agrees_with_the_carved_trace(q):
    rng = random.Random(131)
    kinds = set()
    for gens, M in random_trace_cases(q, rng, 60):
        sub = carved_trace(gens, M)
        tr = trace_submodule(gens, M)
        assert tr.full == (sub.dims == M.dims) == generates(gens, M)
        assert tr.zero == (sub.total == 0)
        assert tr.sub.dims == sub.dims
        assert all(same(a, b) for a, b in zip(tr.sub.mats, sub.mats))
        kinds.add("full" if tr.full else "zero" if tr.zero else "proper")
    assert kinds == {"full", "zero", "proper"}


def test_full_and_zero_traces_are_never_carved(monkeypatch):
    carved = []
    real = modules.carve

    def counting(M, spaces):
        carved.append(M)
        return real(M, spaces)

    monkeypatch.setattr(modules, "carve", counting)
    rng = random.Random(137)
    decided = 0
    for q in (A3, D4, KRONECKER):
        for gens, M in random_trace_cases(q, rng, 30):
            tr = trace_submodule(gens, M)
            if tr.full or tr.zero:
                decided += 1
                assert generates(gens, M) == in_gen_closure(gens, M) == tr.full
                assert in_torsion_closure(gens, M) == tr.full
    assert decided > 30 and carved == []
    # a proper trace is carved once, to peel it: S2 off P1, leaving S1
    S1, S2, P1 = simple(A2, 5, 0), simple(A2, 5, 1), projective(A2, 5, 0)
    assert in_torsion_closure([S1, S2], P1)
    assert carved == [P1]


def test_decompose_direct_sum_recovers_parts():
    S2, P1 = simple(A2, 5, 1), projective(A2, 5, 0)
    M = direct_sum([P1, P1, S2])
    parts = decompose(M)
    assert sorted(part.dims for part in parts) == [(0, 1), (1, 1), (1, 1)]
    assert is_isomorphic(direct_sum(parts), M)


def test_decompose_random_modules_reassemble():
    rng = random.Random(59)
    for q in (A3, D4):
        for _ in range(8):
            M = random_rep(q, 5, random_dims(rng, q.n, 3), rng)
            parts = decompose(M)
            assert sum(part.total for part in parts) == M.total
            for part in parts:
                # indecomposable over F_p: no idempotent split, so a second
                # decomposition pass returns the part unchanged
                assert len(decompose(part)) == 1
            assert is_isomorphic(direct_sum(parts), M)


REFERENCE_BUDGET = 40


def reference_decompose(M, rng, budget=REFERENCE_BUDGET):
    """The sampling loop decompose ran before it proved locality from a
    basis of End(M), kept as the reference: the basis elements first, then
    random combinations up to the budget, and a module is declared
    indecomposable only once every sample had an eigenvalue in F_p and none
    split it."""
    if M.total == 0:
        return []
    if M.total == 1:
        return [M]
    end = hom_basis(M, M)
    if end.dim == 1:
        return [M]
    p = M.p
    basis = end.basis[:budget]
    draws = [[rng.randrange(p) for _ in range(end.dim)] for _ in range(budget - len(basis))]
    ids = [np.eye(d, dtype=np.int64) for d in M.dims]
    certificate_ok = True
    for phi in itertools.chain(basis, (element(end, c) for c in draws)):
        eig_seen = False
        for lam in range(p):
            shifted = tuple(mat((arr(f) - lam * i) % p, p) for f, i in zip(phi, ids))
            if all(la.is_invertible(m, p) for m in shifted):
                continue
            eig_seen = True
            split = modules._fitting_split(M, shifted)
            if split is not None:
                return (reference_decompose(split[0], rng, budget)
                        + reference_decompose(split[1], rng, budget))
            break
        if not eig_seen:
            certificate_ok = False
    if certificate_ok:
        return [M]
    raise DecompositionInconclusive(f"budget {budget} exhausted on dims {M.dims}")


def glued(A, B, rng):
    """A random extension of B by A: block upper-triangular arrow matrices."""
    q, p = A.quiver, A.p
    mats = []
    for k, a in enumerate(q.arrows):
        corner = la.random_matrix(A.dims[a.target], B.dims[a.source], p, rng)
        mats.append(la.vstack([la.hstack([A.mats[k], corner]),
                               la.hstack([la.zeros(B.dims[a.target], A.dims[a.source]), B.mats[k]])]))
    return make_rep(q, p, [a + b for a, b in zip(A.dims, B.dims)], mats)


def test_nilpotent_algebra_needs_products():
    """E12 and E21 are nilpotent, but E12 E21 = E11 is idempotent, so their
    span generates no nilpotent algebra; strictly upper-triangular blocks
    always do."""
    e12, e21 = la.matrix([[0, 1], [0, 0]], 5), la.matrix([[0, 0], [1, 0]], 5)
    assert not modules._nilpotent_algebra([(e12,), (e21,)], 5)
    assert not modules._nilpotent_algebra([(la.zeros(0, 0), e12), (la.zeros(0, 0), e21)], 5)
    assert modules._nilpotent_algebra([(e12,)], 5)
    rng = random.Random(67)
    for _ in range(60):
        sizes = random_dims(rng, rng.randrange(1, 4), 5)
        gens = [tuple(mat(np.triu(arr(la.random_matrix(n, n, 5, rng)), 1), 5) for n in sizes)
                for _ in range(rng.randrange(1, 5))]
        assert modules._nilpotent_algebra(gens, 5)


def local_endomorphism_rings():
    """Indecomposables whose endomorphism ring is local but not a field:
    the Kronecker module (k^2, k^2; I, J_2(2)) and the regular uniserials
    of the a2tilde tube of rank 2 that filtration_universe finds, rebuilt so
    that none keeps the summands filtration_universe's decompose stored."""
    kron = make_rep(KRONECKER, 5, (2, 2), [la.identity(2), [[2, 1], [0, 2]]])
    tube = find_regular_simples(load_quiver(QDIR / "a2tilde.txt"), 5)[0]
    uniserials = [make_rep(M.quiver, M.p, M.dims, M.mats)
                  for M in (o.module for o in filtration_universe(tube.simples, 4).objects)
                  if M.dims in ((1, 2, 1), (2, 1, 2), (2, 2, 2))]
    assert sorted(M.dims for M in uniserials) == [(1, 2, 1), (2, 1, 2), (2, 2, 2), (2, 2, 2)]
    return [kron] + uniserials


def test_decompose_proves_locality_from_a_basis_of_end(monkeypatch):
    """An indecomposable with End/rad = F_p is proved local after at most
    one Fitting test per basis element."""
    modules_with_local_end = local_endomorphism_rings()
    splits = []
    real = modules._fitting_split

    def counting(M, g):
        splits.append(M)
        return real(M, g)

    monkeypatch.setattr(modules, "_fitting_split", counting)
    for M in modules_with_local_end:
        d = hom_dim(M, M)
        assert d >= 2
        splits.clear()
        parts = decompose(M)
        assert len(parts) == 1 and parts[0] is M
        assert 0 < len(splits) <= d


def decompose_outcome(fn, M):
    """The summands fn returns, array for array, or None if inconclusive."""
    try:
        return [(P.dims, [aslist(m) for m in P.mats]) for P in fn(M)]
    except DecompositionInconclusive:
        return None


@pytest.mark.parametrize("name", ["kronecker", "a2tilde", "twothree"])
def test_decompose_agrees_with_the_sampling_reference(name):
    """Random representations and random extensions (half of them
    self-extensions, which often have a local endomorphism ring of dimension
    two or more): the same summands, array for array, and the same
    inconclusive inputs as the reference with its own random stream."""
    q = load_quiver(QDIR / f"{name}.txt")
    gen = random.Random(73)

    def draw(p):
        return random_rep(q, p, random_dims(gen, q.n, 3), gen)

    for p in (3, 5):
        for trial in range(50):
            if trial % 2:
                A = draw(p)
                M = glued(A, A if gen.randrange(2) else draw(p), gen)
            else:
                M = random_rep(q, p, random_dims(gen, q.n, 4), gen)
            ref = random.Random(gen.randrange(1 << 30))
            assert (decompose_outcome(decompose, M)
                    == decompose_outcome(lambda N: reference_decompose(N, ref), M)), (p, M.dims)


def test_decompose_agrees_with_the_sampling_reference_on_kronecker_squares():
    """The samples of the bounded two-vertex check, random Kronecker (k, k)
    modules: regular summands whose End/rad is a larger field are common
    there, and both sides are inconclusive on the same inputs."""
    gen = random.Random(97)
    outcomes = set()
    for p in (2, 3, 5):
        for k in range(1, 5):
            for _ in range(5):
                M = random_rep(KRONECKER, p, (k, k), gen)
                ref = random.Random(gen.randrange(1 << 30))
                got = decompose_outcome(decompose, M)
                assert got == decompose_outcome(lambda N: reference_decompose(N, ref), M), (p, k)
                outcomes.add(got is None)
    assert outcomes == {False, True}


def fitting_split_at_total(M, g):
    """_fitting_split as it was, with g raised to the total dimension."""
    gn = modules._endo_power(g, M.total, M.p)
    ker = [la.kernel_basis(m, M.p) for m in gn]
    if sum(b.shape[1] for b in ker) in (0, M.total):
        return None
    return carve(M, ker).sub, carve(M, gn).sub


def test_fitting_split_at_the_largest_vertex_dimension(monkeypatch):
    """g raised to max(M.dims), where each d x d block's kernel and image are
    stable, splits every module of the decomposition cases above exactly as
    g raised to M.total did, part for part, and finds no split where it
    found none."""
    real, outcomes = modules._fitting_split, []

    def compared(M, g):
        got, want = real(M, g), fitting_split_at_total(M, g)
        assert (got is None) is (want is None)
        if got is not None:
            assert [(P.dims, P.mats) for P in got] == [(P.dims, P.mats) for P in want]
        outcomes.append(got is None)
        return got

    monkeypatch.setattr(modules, "_fitting_split", compared)
    S2, P1 = simple(A2, 5, 1), projective(A2, 5, 0)
    cases = [direct_sum([P1, P1, S2])] + local_endomorphism_rings()
    rng = random.Random(59)
    cases += [random_rep(q, 5, random_dims(rng, q.n, 3), rng) for q in (A3, D4) for _ in range(8)]
    gen = random.Random(73)
    for name in ("kronecker", "a2tilde", "twothree"):
        q = load_quiver(QDIR / f"{name}.txt")
        for p in (3, 5):
            for _ in range(10):
                A = random_rep(q, p, random_dims(gen, q.n, 3), gen)
                cases += [glued(A, A, gen), random_rep(q, p, random_dims(gen, q.n, 4), gen)]
    for M in cases:
        decompose_outcome(decompose, M)
    assert set(outcomes) == {False, True}


def test_complement_is_one_elimination(monkeypatch):
    """Section and projection equal the two-step build (complement indices,
    then the inverse of [basis | c]) from a single rref call."""
    rng = random.Random(79)
    real = la.rref
    calls = []

    def counting(a, p):
        calls.append(a.shape)
        return real(a, p)

    monkeypatch.setattr(la, "rref", counting)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            d = rng.randrange(6)
            k = rng.randrange(d + 1)
            basis = la.random_matrix(d, k, p, rng)
            if la.rank(basis, p) < k:
                continue
            calls.clear()
            c, proj = modules._complement(basis, p)
            assert len(calls) == 1
            ref_c = np.zeros((d, d - k), dtype=np.int64)
            for j, idx in enumerate(la.complement_indices(basis, p)):
                ref_c[idx, j] = 1
            inv, _ = la.solve(la.hstack([basis, mat(ref_c, p)]), la.identity(d), p)
            assert same(c, ref_c)
            assert same(proj, arr(inv)[k:, :])
    with pytest.raises(ValueError, match="not independent"):
        modules._complement(la.matrix([[1, 2], [2, 4]], 5), 5)


def test_is_isomorphic_detects_base_change_and_rejects_fakes():
    P1 = projective(A2, 5, 0)
    twisted = make_rep(A2, 5, (1, 1), [np.array([[3]])])
    assert is_isomorphic(P1, twisted)
    fake = direct_sum([simple(A2, 5, 0), simple(A2, 5, 1)])
    assert fake.dims == P1.dims
    assert not is_isomorphic(P1, fake)


def base_changed(X, rng):
    """X transported along random invertible matrices at every vertex."""
    q, p = X.quiver, X.p
    g = []
    for d in X.dims:
        while not la.is_invertible(m := la.random_matrix(d, d, p, rng), p):
            pass
        g.append(m)
    inv = [la.solve(m, la.identity(m.shape[0]), p)[0] for m in g]
    return make_rep(q, p, X.dims, [la.matmul(g[a.target], la.matmul(X.mats[k], inv[a.source], p), p)
                                   for k, a in enumerate(q.arrows)])


def no_decompose(M):
    raise AssertionError("decompose was called")


def test_is_isomorphic_is_exact_on_one_dimensional_hom(monkeypatch):
    """With a one-dimensional Hom the basis map decides, with no
    decomposition, both when the answer is no and when it is yes."""
    fake, P1 = direct_sum([simple(A2, 5, 0), simple(A2, 5, 1)]), projective(A2, 5, 0)
    X = projective(TWO_ONE, 5, 0)
    Y = base_changed(X, random.Random(60))
    assert X.dims == (1, 2, 2) and not any(same(a, b) for a, b in zip(X.mats, Y.mats))
    monkeypatch.setattr(modules, "decompose", no_decompose)
    for first, second, iso in ((fake, P1, False), (P1, fake, False), (X, Y, True), (Y, X, True)):
        assert hom_dim(first, second) == 1
        assert is_isomorphic(first, second) is iso


def brute_force_isomorphic(X, Y):
    """Whether one of the p^d maps of Hom(X, Y) is invertible."""
    h = hom_basis(X, Y)
    return any(modules.is_invertible_morphism(element(h, c), X.p)
               for c in itertools.product(range(X.p), repeat=h.dim))


def test_is_isomorphic_rejects_indecomposables_with_a_larger_hom(monkeypatch):
    """The regular uniserials of the a2tilde tube with local endomorphism
    rings of dimension two, among them the pair of dims (2, 2, 2) behind the
    three negative calls with dim Hom >= 2 of `run nocover` on a2tilde: no
    basis map of Hom(X, Y) is invertible, so the answer is no after one
    decomposition, of X.  Each is isomorphic to a base change of itself by
    a basis map, with no decomposition.  All p^d maps agree."""
    mods = local_endomorphism_rings()[1:]
    real, decomposed = modules.decompose, []

    def spying(M):
        decomposed.append(M)
        return real(M)

    monkeypatch.setattr(modules, "decompose", spying)
    rng = random.Random(101)
    negatives = 0
    for X in mods:
        Xb = base_changed(X, rng)
        decomposed.clear()
        assert is_isomorphic(X, Xb) and is_isomorphic(Xb, X) and decomposed == []
        for Y in mods:
            if X is Y or X.dims != Y.dims:
                continue
            assert hom_dim(X, Y) >= 2
            decomposed.clear()
            assert not is_isomorphic(X, Y)
            assert decomposed == [X]
            assert not brute_force_isomorphic(X, Y)
            negatives += 1
    assert negatives == 2


def test_is_isomorphic_matches_summands_of_a_base_change():
    """A decomposable module against a base change of itself: no basis map
    of Hom is invertible (each is a unit vector of the echelon basis), so the
    summands decide; a module with the same dims and other summands is no
    isomorph.  All p^d maps agree where d is small."""
    S1, S2, P1 = simple(A2, 5, 0), simple(A2, 5, 1), projective(A2, 5, 0)
    rng = random.Random(103)
    cases = [([S1, S1], [S1, S1]), ([P1, S2, S2], [P1, S2, S2]), ([P1, P1], [S1, S2, P1]),
             ([S1, S2, P1], [P1, P1])]
    for left, right in cases:
        X, Y = direct_sum(left), base_changed(direct_sum(right), rng)
        h = hom_basis(X, Y)
        assert not any(modules.is_invertible_morphism(f, 5) for f in h.basis)
        iso = sorted(M.dims for M in left) == sorted(M.dims for M in right)
        assert is_isomorphic(X, Y) is is_isomorphic(Y, X) is iso
        if h.dim <= 4:
            assert brute_force_isomorphic(X, Y) is iso


def test_modules_and_hom_spaces_compare_by_identity():
    """Two modules or Hom spaces with the same fields are distinct keys, and
    both can be held weakly."""
    S = simple(A2, 5, 0)
    twin = Representation(S.quiver, S.p, S.dims, S.mats)
    h, h_twin = hom_basis(S, S), hom_basis(S, S)
    assert S == S and S != twin and len({S, twin}) == 2
    assert h.basis == h_twin.basis and h != h_twin and len({h, h_twin}) == 2
    for obj in (S, h):
        assert weakref.ref(obj)() is obj


def test_middle_terms_a2():
    S1, S2 = simple(A2, 5, 0), simple(A2, 5, 1)
    mids = middle_terms(S1, S2)
    assert len(mids) == 1
    assert is_isomorphic(mids[0], projective(A2, 5, 0))
    assert middle_terms(S2, S1) == []


def test_middle_terms_kronecker_point_line():
    """dim Ext(S1, S2) = 2 over F_2 gives the three nonsplit middles."""
    S1, S2 = simple(KRONECKER, 2, 0), simple(KRONECKER, 2, 1)
    regs = middle_terms(S1, S2)
    assert len(regs) == 3
    for i, r in enumerate(regs):
        assert r.dims == (1, 1)
        assert len(decompose(r)) == 1
        for s in regs[i + 1:]:
            assert not is_isomorphic(r, s)


def test_middle_terms_cap():
    S1 = direct_sum([simple(KRONECKER, 5, 0)] * 3)
    with pytest.raises(ExtensionCapError):
        middle_terms(S1, simple(KRONECKER, 5, 1))


THREE_KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\narrow 1 2\n")


def assert_same_middle_terms(got, want):
    """The same nonsplit terms up to isomorphism, counted with
    multiplicity."""
    assert len(got) == len(want)
    rest = list(want)
    for E in got:
        idx = modules._iso_index(E, rest)
        assert idx is not None, E.dims
        rest.pop(idx)


@pytest.mark.parametrize(
    "q", [A3, KRONECKER, THREE_KRONECKER] + [load_quiver(QDIR / f"{name}.txt")
                                            for name in ("twothree", "a2tilde")],
    ids=["a3", "kronecker", "3-kronecker", "twothree", "a2tilde"])
def test_middle_terms_match_the_pushout_reference(q):
    """Gluing along the cocycles of the standard resolution gives the middle
    terms of the pushout construction, one per line of P(Ext) on both sides:
    on random pairs, self-extensions, sums that are no brick, and simples.
    Matching the two lists up to isomorphism can meet a summand whose
    End/rad is larger than F_p, where decompose is inconclusive; such pairs
    are counted, as in criterion 4, and must stay rare."""
    rng = random.Random(89)
    compared = inconclusive = nonsplit = 0
    for p in (2, 3, 5):
        pairs = []
        for _ in range(5):
            A = random_rep(q, p, random_dims(rng, q.n, 3), rng)
            B = random_rep(q, p, random_dims(rng, q.n, 3), rng)
            pairs += [(B, A), (A, A), (B, direct_sum([A, B]))]
        for i in range(q.n):
            for j in range(q.n):
                pairs.append((simple(q, p, i), simple(q, p, j)))
        for B, A in pairs:
            if not (A.total and B.total and p ** ext_dim(B, A) <= 8 * (p - 1) + 1):
                continue            # at most eight lines in P(Ext(B, A))
            try:
                got = middle_terms(B, A)
                assert_same_middle_terms(got, reference_middle_terms(B, A))
            except DecompositionInconclusive:
                inconclusive += 1
                continue
            compared += 1
            nonsplit += len(got)
    assert nonsplit >= 20
    assert inconclusive <= compared // 20


def test_projective_cover_shapes():
    S1 = simple(A2, 5, 0)
    p0, comps, g = projective_cover(S1)
    assert p0.dims == (1, 1)
    assert comps == [0]
    M = direct_sum([projective(A2, 5, 0), simple(A2, 5, 1)])
    p0, comps, g = projective_cover(M)
    assert sorted(comps) == [0, 1]
    assert p0.dims == (1, 2)
    assert is_projective_rep(p0)
    assert not is_projective_rep(S1)


def test_universal_extension_above_and_below():
    S2 = simple(A2, 5, 1)
    E = universal_extension(S2, 0, "above")
    assert E.dims == (1, 1)
    assert ext_dim(simple(A2, 5, 0), E) == 0
    F = universal_extension(simple(A2, 5, 0), 1, "below")
    assert F.dims == (1, 1)
    assert ext_dim(F, S2) == 0
    # two-dimensional extension space: both copies get stacked at once
    K = universal_extension(simple(KRONECKER, 5, 1), 0, "above")
    assert K.dims == (2, 1)
    assert ext_dim(simple(KRONECKER, 5, 0), K) == 0
    with pytest.raises(ValueError):
        universal_extension(S2, 0, "sideways")


def test_reflection_functor_roundtrip():
    """Reflect at a sink and back: every module without S(v) summands returns
    isomorphic to itself, and dimension vectors move by the linear reflection."""
    rng = random.Random(79)
    from ftors.roots import reflection_transform

    sink = 2                                   # vertex 3 of the A3 line
    for _ in range(10):
        M = random_rep(A3, 5, random_dims(rng, 3, 3, 1), rng)
        parts = [x for x in decompose(M) if x.dims != simple(A3, 5, sink).dims]
        if not parts:
            continue
        M = direct_sum(parts)
        R = reflection_functor_apply(M, sink)
        assert R.quiver == reflect_at(A3, sink)
        assert R.dims == reflection_transform(A3, M.dims, sink)
        back = reflection_functor_apply(R, sink)
        assert is_isomorphic(back, M)


def test_ar_translate_a2():
    S1, S2 = simple(A2, 5, 0), simple(A2, 5, 1)
    assert is_isomorphic(ar_translate(S1), S2)
    assert is_isomorphic(ar_translate_inverse(S2), S1)
    with pytest.raises(ValueError):
        ar_translate(projective(A2, 5, 0))
    with pytest.raises(ValueError):
        ar_translate_inverse(injective(A2, 5, 1))


def test_ar_translate_dims_follow_coxeter():
    for q in (A3, D4):
        for v in range(q.n):
            I = injective(q, 5, v)
            if is_projective_rep(I):
                continue
            t = ar_translate(I)
            assert t.dims == coxeter_transform(q, I.dims)


def test_ar_translate_fixes_homogeneous_regulars():
    for lam in (0, 1, 2):
        R = make_rep(KRONECKER, 5, (1, 1), [np.array([[1]]), np.array([[lam]])])
        assert is_isomorphic(ar_translate(R), R)
        assert is_isomorphic(ar_translate_inverse(R), R)


def _triangle_orientations():
    """The six acyclic orientations of the triangle; the other two are
    oriented cycles."""
    out = []
    for flips in itertools.product((False, True), repeat=3):
        edges = [(b, a) if flip else (a, b) for (a, b), flip in zip(((1, 2), (2, 3), (1, 3)), flips)]
        if sorted(edges) in ([(1, 2), (2, 3), (3, 1)], [(1, 3), (2, 1), (3, 2)]):
            continue
        out.append(parse_quiver("vertices 3\n" + "".join(f"arrow {a} {b}\n" for a, b in edges)))
    return out


AR_FORMULA_FILES = ("a5cycle.txt", "kronecker.txt", "twoone.txt")


@pytest.mark.parametrize(
    "q", _triangle_orientations() + [load_quiver(str(QDIR / name)) for name in AR_FORMULA_FILES],
    ids=[f"triangle{k}" for k in range(6)] + [name[:-4] for name in AR_FORMULA_FILES])
def test_ar_formula(q):
    """Hom(N, tau M) = Ext(M, N) and Hom(tau^- M, N) = Ext(N, M) for every
    pair of sampled modules: the summands of random representations, the
    simples and the all-ones module.  On the triangle a translate without the
    sign twist breaks the first identity for homogeneous modules.  A random
    representation that decompose cannot split with certainty is skipped."""
    p = 5
    rng = random.Random(109)
    mods = [simple(q, p, v) for v in range(q.n)]
    mods.append(make_rep(q, p, (1,) * q.n, [np.ones((1, 1), dtype=np.int64)] * q.m))
    for _ in range(4):
        try:
            mods += decompose(random_rep(q, p, random_dims(rng, q.n, 3, 1), rng))
        except modules.DecompositionInconclusive:
            pass
    zero = modules.zero_rep(q, p)
    for M in mods:
        if is_projective_rep(M):
            with pytest.raises(ValueError):
                ar_translate(M)
            tau = zero
        else:
            tau = ar_translate(M)
        try:
            tau_inv = ar_translate_inverse(M)
        except ValueError:
            assert is_projective_rep(dual(M)), "only injective modules lack TrD"
            tau_inv = zero
        for N in mods:
            assert hom_dim(N, tau) == ext_dim(M, N), (M.dims, N.dims)
            assert hom_dim(tau_inv, N) == ext_dim(N, M), (M.dims, N.dims)


def test_normalize_drops_generated_summands():
    S1, S2, P1 = simple(A2, 5, 0), simple(A2, 5, 1), projective(A2, 5, 0)
    n1 = normalize(direct_sum([P1, S1]))
    assert is_isomorphic(n1, P1)
    n2 = normalize(direct_sum([P1, P1]))
    assert is_isomorphic(n2, P1)
    n3 = normalize(direct_sum([S1, S2]))
    assert n3.dims == (1, 1)
    assert not is_isomorphic(n3, P1)


def test_rep_json_roundtrip():
    rng = random.Random(103)
    M = random_rep(TWO_ONE, 5, (2, 2, 1), rng)
    back = rep_from_json(TWO_ONE, 5, rep_to_json(M))
    assert back.dims == M.dims
    for a, b in zip(back.mats, M.mats):
        assert same(a, b)


def test_dual_is_an_involution():
    rng = random.Random(107)
    M = random_rep(A3, 5, (1, 2, 1), rng)
    D = dual(M)
    assert D.quiver == A3.reverse()
    assert dual(D).quiver == A3
    assert is_isomorphic(dual(D), M)
    assert hom_dim(M, M) == hom_dim(D, D)
