"""Torsion classes over finite universes, covers, no-cover evidence.

The enumeration oracle filters the whole powerset of the universe by the
closure conditions directly, one subset at a time, instead of growing
classes breadth-first the way the library does.
"""

import gc
import itertools
import weakref
from collections import Counter

import numpy as np
import pytest

from ftors import modules, tors
from ftors.modules import direct_sum, ext_dim, hom_basis, hom_dim, is_isomorphic, simple
from ftors.quiver import parse_quiver
from ftors.tors import (
    enumerate_torsion_classes,
    filtration_universe,
    find_cover,
    find_covers,
    finite_universe,
    gen_closure,
    hasse_edges,
    in_gen_closure,
    in_torsion_closure,
    lattice_check,
    no_cover_evidence,
    relative_loewy_length,
    serial_filtration_object,
    torsion_closure,
    two_vertex_check,
    validate_ext_cycle,
)
from ftors.tubes import find_regular_simples, tube_mouth_pair

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 2\narrow 1 2\n")
A3_LINE = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n")
A3_OUT = parse_quiver("vertices 3\narrow 2 1\narrow 2 3\n")
CYCLE3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")
WILD2 = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\narrow 1 2\n")


def powerset_classes(u):
    """Every subset that is generation-closed and extension-closed."""
    found = []
    for bits in itertools.product((0, 1), repeat=len(u)):
        s = frozenset(i for i, b in enumerate(bits) if b)
        if gen_closure(u, s) != s:
            continue
        ok = True
        for a in s:
            for b in s:
                for parts in u.middle_summands(a, b):
                    if not set(parts) <= s:
                        ok = False
        if ok:
            found.append(s)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def universe(q, seed=0):
    return finite_universe(q, 5, np.random.default_rng(seed))


def test_membership_predicates_a2():
    S1, S2 = simple(A2, 5, 0), simple(A2, 5, 1)
    from ftors.modules import projective

    P1 = projective(A2, 5, 0)
    assert in_gen_closure([P1], S1)
    assert not in_gen_closure([P1], S2)
    assert in_torsion_closure([S1], P1) is False      # P1 has S2 at the bottom
    assert in_torsion_closure([S1, S2], P1)
    assert in_torsion_closure([P1], direct_sum([S1, P1]))
    assert in_torsion_closure([], simple(A2, 5, 0)) is False


def test_gen_and_torsion_closure_a2():
    u = universe(A2)
    idx = {u.modules[i].dims: i for i in range(3)}
    p1, s1, s2 = idx[(1, 1)], idx[(1, 0)], idx[(0, 1)]
    assert gen_closure(u, frozenset({p1})) == {p1, s1}
    assert torsion_closure(u, {p1}) == {p1, s1}
    assert torsion_closure(u, {s1}) == {s1}
    assert torsion_closure(u, {s1, s2}) == {p1, s1, s2}


def test_enumeration_matches_powerset_oracle():
    for q, count in ((A1, 2), (A2, 5), (A3_LINE, 14), (A3_OUT, 14)):
        u = universe(q)
        got = enumerate_torsion_classes(u)
        assert got == powerset_classes(u)
        assert len(got) == count


def test_find_cover_a2_every_class():
    u = universe(A2)
    want = {
        frozenset(): (0, 0),
        frozenset({u.match(simple(A2, 5, 1))}): (0, 1),
        frozenset({u.match(simple(A2, 5, 0))}): (1, 0),
    }
    classes = enumerate_torsion_classes(u)
    seen = {}
    for t in classes:
        cov = find_cover(u, t)
        assert cov is not None
        assert ext_dim(cov, cov) == 0
        seen[t] = cov.dims
    for t, dims in want.items():
        assert seen[t] == dims
    assert sorted(seen.values()) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]


def test_find_covers_agree_with_hasse_edges():
    u = universe(A3_LINE)
    classes = enumerate_torsion_classes(u)
    edges = hasse_edges(classes)
    for a, t in enumerate(classes):
        from_edges = {tuple(sorted(classes[b])) for x, b in edges if x == a}
        from_covers = {tuple(sorted(c)) for c in find_covers(u, t)}
        assert from_edges == from_covers


def test_lattice_check_small_cases():
    for q, count, edge_count in ((A2, 5, 5), (A1, 2, 1)):
        u = universe(q)
        report = lattice_check(u)
        assert report.is_lattice
        assert report.class_count == count
        assert report.edge_count == edge_count
        assert report.meet_failures == () and report.join_failures == ()


def test_validate_ext_cycle_rejections():
    S1, S2 = simple(A2, 5, 0), simple(A2, 5, 1)
    from ftors.modules import projective

    with pytest.raises(ValueError):
        validate_ext_cycle([S1])                       # no self extensions
    with pytest.raises(ValueError):
        validate_ext_cycle([S1, S2])                   # ext one way only
    with pytest.raises(ValueError):
        validate_ext_cycle([projective(A2, 5, 0), S1])  # hom not orthogonal
    rng = np.random.default_rng(0)
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5, rng)[0], rng)
    validate_ext_cycle([x, y])                         # the real thing passes


def test_filtration_universe_and_loewy():
    rng = np.random.default_rng(0)
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5, rng)[0], rng)
    fu = filtration_universe((x, y), 3, rng)
    assert all(1 <= o.loewy <= 3 for o in fu.objects)
    assert {o.module.dims for o in fu.objects if o.length == 1} == {x.dims, y.dims}
    for o in fu.objects:
        assert relative_loewy_length(o.module, (x, y), rng) == o.loewy
    two = serial_filtration_object(fu, 0, 2)
    assert two.dims == tuple(a + b for a, b in zip(x.dims, y.dims))
    assert relative_loewy_length(two, (x, y), rng) == 2


def test_no_cover_evidence_cycle3():
    rng = np.random.default_rng(0)
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5, rng)[0], rng)
    ev = no_cover_evidence((x, y), 3, rng)
    assert ev.ok
    assert ev.monotone_ok
    assert [w[0] for w in ev.witnesses] == [1, 2]
    assert all(gen is False for _, _, gen in ev.witnesses)
    assert ev.witnesses[0][1] == (1, 1, 1)


def test_no_cover_evidence_rejects_bad_cycles():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        no_cover_evidence([simple(A2, 5, 0)], 3, rng)
    with pytest.raises(ValueError):
        no_cover_evidence([simple(A2, 5, 0), simple(A2, 5, 1)], 3, rng)


def test_two_vertex_check_finite():
    report = two_vertex_check(A2, 5, 12, np.random.default_rng(0))
    assert report.verdict == "lattice"
    assert report.class_count == 5
    assert report.covered_count == 5
    assert report.failures == ()


def test_two_vertex_check_tame_bounded():
    report = two_vertex_check(KRONECKER, 5, 6, np.random.default_rng(0))
    assert report.verdict == "consistent"
    assert report.failures == ()
    assert 0 < report.covered_count <= report.class_count
    assert report.pair_count == report.covered_count * (report.covered_count - 1) // 2


def test_two_vertex_check_wild_is_inconclusive():
    report = two_vertex_check(WILD2, 5, 6, np.random.default_rng(0))
    assert report.verdict == "inconclusive"


def test_two_vertex_check_needs_two_vertices():
    with pytest.raises(ValueError):
        two_vertex_check(A3_LINE, 5, 6, np.random.default_rng(0))


def count_member_homs(monkeypatch, members: dict) -> Counter:
    """Count every Hom space computed between two modules of `members`, a
    dict from id to position that the caller fills once the members exist."""
    counts: Counter = Counter()

    def counting(X, Y):
        key = (members.get(id(X)), members.get(id(Y)))
        if None not in key:
            counts[key] += 1
        return hom_basis(X, Y)

    monkeypatch.setattr(modules, "hom_basis", counting)
    monkeypatch.setattr(tors, "hom_basis", counting)
    return counts


def assert_table_is_hom_basis(u):
    assert u._homs
    for (i, j), h in u._homs.items():
        fresh = hom_basis(u.modules[i], u.modules[j])
        assert len(h.basis) == len(fresh.basis)
        for f, g in zip(h.basis, fresh.basis):
            assert all(np.array_equal(a, b) for a, b in zip(f, g))


def test_hom_table_computes_each_member_pair_once_a3(monkeypatch):
    u = universe(A3_LINE)
    counts = count_member_homs(monkeypatch, {id(M): i for i, M in enumerate(u.modules)})
    classes = enumerate_torsion_classes(u)
    lattice_check(u, classes)
    for t in classes:
        assert find_cover(u, t) is not None
    assert max(counts.values()) == 1
    assert set(counts) == set(u._homs)
    assert_table_is_hom_basis(u)
    member = weakref.ref(u.modules[0])
    del u
    gc.collect()
    assert member() is None


def test_hom_table_computes_each_member_pair_once_kronecker(monkeypatch):
    """The sampled universe counts from the moment it is built; building it
    tests isomorphisms between would-be members outside the table."""
    members: dict = {}
    built = []

    class Recorded(tors.ModuleUniverse):
        def __post_init__(self):
            super().__post_init__()
            members.update(self._index)
            built.append(self)

    counts = count_member_homs(monkeypatch, members)
    monkeypatch.setattr(tors, "ModuleUniverse", Recorded)
    report = two_vertex_check(KRONECKER, 5, 6, np.random.default_rng(0))
    assert report.verdict == "consistent"
    [u] = built
    assert report.universe_size == len(u)
    assert max(counts.values()) == 1
    assert set(counts) == set(u._homs)
    assert_table_is_hom_basis(u)
    member = weakref.ref(u.modules[0])
    del u, built[:]
    gc.collect()
    assert member() is None
