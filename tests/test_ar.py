"""Knitting the AR quiver of representation-finite path algebras."""

import numpy as np
import pytest

from ftors import linalg as la
from ftors.ar_quiver import ar_quiver_dot, knit_ar_quiver
from ftors.linalg import rank
from ftors import modules
from ftors.modules import (
    ar_translate,
    ar_translate_inverse,
    compose,
    ext_dim,
    hom_basis,
    hom_dim,
    is_isomorphic,
    make_rep,
    morphism_flat,
    projective,
    reflection_functor_apply,
)
from ftors.quiver import parse_quiver, topological_order
from ftors.roots import euler_form, positive_roots
from test_tors import count_homs, member_pairs

A2 = parse_quiver("vertices 2\narrow 1 2\n")
A3_ORIENTATIONS = [
    parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n"),
    parse_quiver("vertices 3\narrow 2 1\narrow 2 3\n"),
    parse_quiver("vertices 3\narrow 1 2\narrow 3 2\n"),
]
D4 = parse_quiver("vertices 4\narrow 1 2\narrow 1 3\narrow 1 4\n")
E6 = parse_quiver("vertices 6\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 3 6\n")
E7 = parse_quiver("vertices 7\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 5 6\narrow 3 7\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")

KNIT_CASES = pytest.mark.parametrize("q", [*A3_ORIENTATIONS, D4, E6],
                                      ids=["A3-path", "A3-source", "A3-sink", "D4", "E6"])


def test_knitting_counts():
    assert len(knit_ar_quiver(A2, 5).nodes) == 3
    for q in A3_ORIENTATIONS:
        assert len(knit_ar_quiver(q, 5).nodes) == 6
    assert len(knit_ar_quiver(D4, 5).nodes) == 12


def test_knitting_rejects_infinite_type():
    with pytest.raises(ValueError):
        knit_ar_quiver(KRONECKER, 5)


def test_knitted_dims_biject_with_positive_roots():
    for q in (A2, D4, *A3_ORIENTATIONS):
        ar = knit_ar_quiver(q, 5)
        assert {node.dims for node in ar.nodes} == set(positive_roots(q))


def test_knitted_modules_are_exceptional_bricks():
    ar = knit_ar_quiver(D4, 5)
    for node in ar.nodes:
        assert hom_dim(node.module, node.module) == 1
        assert ext_dim(node.module, node.module) == 0


def test_projective_nodes_match_standard_projectives():
    for q in (A2, D4):
        ar = knit_ar_quiver(q, 5)
        for v, idx in enumerate(ar.projectives):
            assert ar.nodes[idx].dims == projective(q, 5, v).dims


def test_translate_edges_agree_with_ar_translate():
    ar = knit_ar_quiver(A3_ORIENTATIONS[0], 5)
    for y, ty in ar.translate.items():
        t = ar_translate(ar.nodes[y].module)
        assert is_isomorphic(t, ar.nodes[ty].module)


def assert_meshes(ar):
    for y, ty in ar.translate.items():
        mid = np.zeros(ar.quiver.n, dtype=np.int64)
        for (i, j), mult in ar.arrows.items():
            if j == y:
                mid += mult * np.array(ar.nodes[i].dims)
        want = np.array(ar.nodes[y].dims) + np.array(ar.nodes[ty].dims)
        assert np.array_equal(mid, want)


def test_mesh_identity_recomputed():
    """Sum of middle dims equals dims of the two mesh ends."""
    for q in (D4, *A3_ORIENTATIONS):
        assert_meshes(knit_ar_quiver(q, 5))


def _arrows_from_full_span(ar):
    """Every multiplicity dim Hom(i, j) - dim rad^2(i, j), with rad^2 the
    span of every composite through every third module."""
    mods = [node.module for node in ar.nodes]
    homs = {(i, j): hom_basis(x, y) for i, x in enumerate(mods) for j, y in enumerate(mods)}
    arrows = {}
    for (i, j), h in homs.items():
        if i == j or h.dim == 0:
            continue
        comps = [morphism_flat(compose(g, f, ar.p))
                 for k in range(len(mods)) if k not in (i, j)
                 for g in homs[k, j].basis for f in homs[i, k].basis]
        mult = h.dim - (rank(np.stack(comps), ar.p) if comps else 0)
        if mult:
            arrows[(i, j)] = mult
    return arrows


@KNIT_CASES
def test_rad2_scan_that_stops_at_full_rank_matches_the_full_span(q):
    """The knit stops collecting composites once they span Hom(i, j); every
    multiplicity still equals the one read from the full span."""
    ar = knit_ar_quiver(q, 5)
    assert ar.arrows == _arrows_from_full_span(ar)


@KNIT_CASES
def test_hom_table_equals_hom_basis_on_every_pair(q):
    """The solved entries and the ones the Euler form decides as zero are
    both, array for array, what hom_basis computes afresh."""
    ar = knit_ar_quiver(q, 5)
    n = len(ar.nodes)
    assert set(ar.homs) == {(i, j) for i in range(n) for j in range(n)}
    for (i, j), h in ar.homs.items():
        x, y = ar.nodes[i].module, ar.nodes[j].module
        fresh = hom_basis(x, y)
        assert h.source is x and h.target is y
        assert len(h.basis) == len(fresh.basis) == max(euler_form(q, x.dims, y.dims), 0)
        for f, g in zip(h.basis, fresh.basis):
            assert all(np.array_equal(a, b) for a, b in zip(f, g))


@pytest.mark.parametrize("q", [D4, E6], ids=["D4", "E6"])
def test_hom_bases_are_cut_when_first_read(q):
    """A Hom space cuts its basis into matrices only when the basis is
    read: reading dim cuts nothing, and after the knit only the pairs its
    rad^2 scan read are cut.  Every solved pair's basis is the eager cut
    (_unflatten) of the null vectors of its intertwiner system."""
    ar = knit_ar_quiver(q, 5)
    solved = {key: h for key, h in ar.homs.items() if h.dim}
    cut = {key for key, h in solved.items() if h._basis is not None}
    assert cut and cut < set(solved) and all(i != j for i, j in cut)
    for h in solved.values():
        X, Y = h.source, h.target
        fresh = hom_basis(X, Y)
        assert fresh.dim == h.dim and fresh._basis is None
        rows, offs = modules._intertwiner_rows(X, Y)
        vectors = la._null_vectors(rows, la._eliminate(rows, offs[-1], X.p), offs[-1], X.p)
        assert h.basis == tuple(modules._unflatten(v, list(zip(Y.dims, X.dims)))
                                for v in vectors)


@KNIT_CASES
def test_knit_solves_exactly_the_pairs_with_positive_euler_form(q, monkeypatch):
    counts, alive = count_homs(monkeypatch)
    ar = knit_ar_quiver(q, 5)
    mods = [node.module for node in ar.nodes]
    solved = {(i, j): 1 for i, x in enumerate(mods) for j, y in enumerate(mods)
              if euler_form(q, x.dims, y.dims) > 0}
    assert 0 < len(solved) < len(mods) ** 2
    assert sum(counts.values()) == len(solved)
    assert member_pairs(counts, mods) == solved


def _reflected_and_negated(M, order):
    """The public reflections at each vertex of order, then every arrow negated."""
    for v in order:
        M = reflection_functor_apply(M, v)
    return make_rep(M.quiver, M.p, M.dims, [[[-x for x in row] for row in m] for m in M.mats])


@KNIT_CASES
def test_translates_match_the_public_reflections(q, monkeypatch):
    """Both translates of every knitted module they are defined on equal,
    matrix for matrix, the public reflection functors followed by the sign
    twist, and each translate builds exactly one Representation."""
    ar = knit_ar_quiver(q, 5)
    order = topological_order(q)
    cases = [(ar_translate_inverse, order, ar.injectives),
             (ar_translate, order[::-1], ar.projectives)]
    expected = [[(node.module, _reflected_and_negated(node.module, vertices))
                 for node in ar.nodes if node.index not in skip]
                for _, vertices, skip in cases]
    built = []
    real = modules.make_rep

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(modules, "make_rep", counted)
    for (translate, _, _), pairs in zip(cases, expected):
        assert pairs
        for M, want in pairs:
            built.clear()
            got = translate(M)
            assert len(built) == 1
            assert got.quiver is M.quiver and got.quiver == want.quiver
            assert got.dims == want.dims
            assert [m.shape for m in got.mats] == [m.shape for m in want.mats]
            assert got.mats == want.mats


def test_knitting_e7():
    ar = knit_ar_quiver(E7, 5)
    assert len(ar.nodes) == 63
    assert {node.dims for node in ar.nodes} == set(positive_roots(E7))
    assert_meshes(ar)


def test_a2_arrow_pattern():
    ar = knit_ar_quiver(A2, 5)
    by_dims = {node.dims: node.index for node in ar.nodes}
    assert ar.arrows == {
        (by_dims[(0, 1)], by_dims[(1, 1)]): 1,
        (by_dims[(1, 1)], by_dims[(1, 0)]): 1,
    }
    assert len(ar.translate) == 1


def indecomposable_for_root(ar, root):
    """The unique knitted indecomposable with the given dimension vector."""
    for node in ar.nodes:
        if node.dims == tuple(root):
            return node.module
    raise KeyError(f"no indecomposable with dimension vector {tuple(root)}")


def test_all_indecomposables_sorted_unique():
    mods = knit_ar_quiver(D4, 5).sorted_modules()
    assert len(mods) == 12
    keys = [(m.total, m.dims) for m in mods]
    assert keys == sorted(keys)
    assert len(set(m.dims for m in mods)) == 12


def test_indecomposable_for_root_and_bad_input():
    ar = knit_ar_quiver(A2, 5)
    M = indecomposable_for_root(ar, (1, 1))
    assert M.dims == (1, 1)
    with pytest.raises(KeyError):
        indecomposable_for_root(ar, (2, 1))


def test_dot_output_a2():
    text = ar_quiver_dot(knit_ar_quiver(A2, 5))
    assert text.startswith("digraph")
    assert text.count("label=") == 3 + 0        # one label per node, no multi-edges
    assert text.count("->") == 3                 # two solid plus one dashed
    assert text.count("dashed") == 1
    assert '"(1,1) P/I"' in text                 # projective at 1, injective at 2
    assert '"(1,0) I"' in text
    assert '"(0,1) P"' in text
