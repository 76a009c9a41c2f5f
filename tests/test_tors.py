"""Torsion classes over finite universes, covers, no-cover evidence.

The enumeration oracle filters the whole powerset of the universe by the
closure conditions directly, one subset at a time, instead of growing
classes breadth-first the way the library does.
"""

import functools
import gc
import hashlib
import inspect
import itertools
import json
import random
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ftors import ar_quiver, modules, tors
from ftors import linalg as la
from ftors.cli import main
from ftors.ext_pairs import find_ext_pair
from ftors.modules import (
    direct_sum,
    ext_dim,
    generates,
    hom_basis,
    hom_dim,
    is_isomorphic,
    make_rep,
    middle_terms,
    projective,
    simple,
)
from ftors.quiver import (
    VerificationError,
    load_quiver,
    parse_quiver,
    topological_order,
    underlying_edges,
)
from ftors.roots import euler_form
from ftors.tors import (
    enumerate_torsion_classes,
    filtration_universe,
    find_cover,
    finite_universe,
    in_gen_closure,
    in_torsion_closure,
    lattice_check,
    no_cover_evidence,
    relative_loewy_length,
    serial_object,
    torsion_closure,
    two_vertex_check,
    validate_ext_cycle,
)
from ftors.tubes import find_regular_simples, tube_mouth_pair
from test_repn import base_changed

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 2\narrow 1 2\n")
A3_LINE = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n")
A3_OUT = parse_quiver("vertices 3\narrow 2 1\narrow 2 3\n")
CYCLE3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")
WILD2 = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\narrow 1 2\n")
QDIR = Path(__file__).resolve().parent.parent / "quivers"


def gen_closure(u, gens) -> frozenset:
    """Indices of all universe members generated by the given members,
    tested member by member: the oracle of generation closure."""
    return frozenset(m for m in range(len(u)) if u.generated(frozenset(gens), m))


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


def universe(q):
    return finite_universe(q, 5)


def test_membership_predicates_a2():
    S1, S2 = simple(A2, 5, 0), simple(A2, 5, 1)
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
        got, _ = enumerate_torsion_classes(u)
        assert got == powerset_classes(u)
        assert len(got) == count


def test_find_cover_a2_every_class():
    u = universe(A2)
    want = {
        frozenset(): (0, 0),
        frozenset({u.match(simple(A2, 5, 1))}): (0, 1),
        frozenset({u.match(simple(A2, 5, 0))}): (1, 0),
    }
    classes, _ = enumerate_torsion_classes(u)
    seen = {}
    for t in classes:
        cov = find_cover(u, t)
        assert ext_dim(cov, cov) == 0
        seen[t] = cov.dims
    for t, dims in want.items():
        assert seen[t] == dims
    assert sorted(seen.values()) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]


def hasse_edges(classes: list[frozenset]) -> list[tuple[int, int]]:
    """Covering pairs (lower index, upper index) in the given class list:
    t < s with no class strictly between."""
    edges = []
    for a, t in enumerate(classes):
        for b, s in enumerate(classes):
            if not t < s:
                continue
            if any(t < v < s for v in classes):
                continue
            edges.append((a, b))
    return sorted(edges)


def find_covers(u, t):
    """All covers of a torsion class, from the fixpoint closures of its
    one-generator enlargements: any class strictly above t contains one of
    the candidates, so the minimal candidates are exactly the covering
    classes."""
    candidates = {reference_torsion_closure(u, t | {x}) for x in range(len(u)) if x not in t}
    candidates.discard(t)
    covers = [c for c in candidates if not any(t < d < c for d in candidates)]
    return sorted(covers, key=lambda s: (len(s), sorted(s)))


def test_find_covers_agree_with_hasse_edges():
    """The edges the enumeration records equal the covering pairs of its
    class list and the minimal fixpoint enlargements of each class."""
    for q in (A2, A3_LINE, A3_OUT):
        u = universe(q)
        classes, edges = enumerate_torsion_classes(u)
        assert edges == hasse_edges(classes)
        for a, t in enumerate(classes):
            from_edges = {tuple(sorted(classes[b])) for x, b in edges if x == a}
            from_covers = {tuple(sorted(c)) for c in find_covers(u, t)}
            assert from_edges == from_covers


def test_lattice_check_small_cases():
    for q, count, edge_count in ((A2, 5, 5), (A1, 2, 1)):
        u = universe(q)
        report = lattice_check(u, *enumerate_torsion_classes(u))
        assert report.is_lattice
        assert report.class_count == count
        assert report.edge_count == edge_count
        assert report.meet_failures == ()


def test_lattice_check_closes_nothing(monkeypatch):
    """The lattice is read off the enumerated classes: lattice_check asks
    for no closure."""
    u = universe(A3_LINE)
    classes, edges = enumerate_torsion_classes(u)

    def refuse(*args):
        raise AssertionError("lattice_check asked for a closure")

    monkeypatch.setattr(tors, "torsion_closure", refuse)
    monkeypatch.setattr(tors, "hom_closure", refuse)
    monkeypatch.setattr(tors.ModuleUniverse, "peeled_closure", refuse)
    report = lattice_check(u, classes, edges)
    assert report.is_lattice and report.class_count == 14


def test_lattice_check_reports_a_missing_meet():
    """Drop a class that is the intersection of two others: each pair that
    meets in it is a meet failure, and the family is no lattice."""
    u = universe(A3_LINE)
    classes, _ = enumerate_torsion_classes(u)
    meets = {t & s for a, t in enumerate(classes) for s in classes[a + 1:]
             if t & s not in (t, s, frozenset())}
    dropped = min(meets, key=lambda m: (len(m), sorted(m)))
    kept = [c for c in classes if c != dropped]
    report = lattice_check(u, kept, ())
    assert not report.is_lattice
    want = [(sorted(t), sorted(s)) for a, t in enumerate(kept) for s in kept[a + 1:]
            if t & s == dropped]
    assert want and list(report.meet_failures) == want


def test_lattice_check_needs_bottom_and_top():
    u = universe(A2)
    classes, _ = enumerate_torsion_classes(u)
    for missing in (classes[0], classes[-1]):
        with pytest.raises(VerificationError, match="empty class and the whole universe"):
            lattice_check(u, [c for c in classes if c != missing], ())


def test_validate_ext_cycle_rejections():
    S1, S2 = simple(A2, 5, 0), simple(A2, 5, 1)
    with pytest.raises(VerificationError):
        validate_ext_cycle([S1])                       # no self extensions
    with pytest.raises(VerificationError):
        validate_ext_cycle([S1, S2])                   # ext one way only
    with pytest.raises(VerificationError):
        validate_ext_cycle([projective(A2, 5, 0), S1])  # hom not orthogonal
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5)[0])
    validate_ext_cycle([x, y])                         # the real thing passes


def test_filtration_universe_and_loewy():
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5)[0])
    fu = filtration_universe((x, y), 3)
    assert all(1 <= o.loewy <= 3 for o in fu.objects)
    assert {o.module.dims for o in fu.objects if o.length == 1} == {x.dims, y.dims}
    for o in fu.objects:
        assert relative_loewy_length(o.module, (x, y)) == o.loewy
    two = serial_object(fu.cycle, 0, 2)
    assert two.dims == tuple(a + b for a, b in zip(x.dims, y.dims))
    assert relative_loewy_length(two, (x, y)) == 2
    # the first two levels get their length from the proof, not the series
    for _, cycle in audited_cycles():
        fu = filtration_universe(cycle, 2)
        assert {o.length for o in fu.objects} == {1, 2}
        for o in fu.objects:
            assert relative_loewy_length(o.module, cycle) == o.loewy == o.length


def test_no_cover_evidence_cycle3():
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5)[0])
    ev = no_cover_evidence((x, y), 3)
    assert ev.ok
    assert [w[0] for w in ev.witnesses] == [1, 2]
    assert all(gen is False for _, _, gen in ev.witnesses)
    assert ev.witnesses[0][1] == (1, 1, 1)


def assert_generation_keeps_levels(cycle, bound: int) -> int:
    """The per-object scan no_cover_evidence made before it rested on the
    wide-subcategory argument in its docstring, kept as the module check of
    that argument: no object of relative Loewy length l > 1 is generated by
    the objects of length at most l - 1.  The number of objects tested."""
    objects = filtration_universe(cycle, bound).objects
    tested = [o for o in objects if o.loewy > 1]
    for o in tested:
        lower = [x.module for x in objects if x.loewy < o.loewy]
        assert not generates(lower, o.module), (o.module.dims, o.loewy)
    return len(tested)


def test_generation_never_raises_the_relative_loewy_length():
    """The argument behind no_cover_evidence holds on modules: the CYCLE3
    mouth pair at three layers, the a2tilde tube over F_5 at four and the
    twothree pair over F_3 at two, each with objects above level 1."""
    (_, pair), (_, tube) = audited_cycles()
    cases = [(tube_mouth_pair(find_regular_simples(CYCLE3, 5)[0]), 3), (tube, 4), (pair, 2)]
    for cycle, bound in cases:
        assert assert_generation_keeps_levels(cycle, bound) > 0


def test_no_cover_evidence_tests_one_module_per_level(monkeypatch):
    """no_cover_evidence makes bound - 1 generation tests, one per witness,
    whatever the size of the filtration universe."""
    (_, pair), (_, tube) = audited_cycles()
    calls = []
    monkeypatch.setattr(tors, "generates", lambda *args: calls.append(args) or generates(*args))
    for cycle, bounds in ((tube, (2, 3, 4)), (pair, (2,))):
        for bound in bounds:
            calls.clear()
            ev = no_cover_evidence(cycle, bound)
            assert ev.ok and ev.universe_size > len(cycle)
            assert [M.dims for _, M in calls] == [dims for _, dims, _ in ev.witnesses]
            assert len(calls) == bound - 1


def test_no_cover_evidence_refuses_a_bound_below_two():
    """Below bound 2 there is no level to test, and a verdict with no
    witness would be vacuous: ValueError, as for a serial object of no
    layers."""
    tube = find_regular_simples(load_quiver(QDIR / "a2tilde.txt"), 5)[0].simples
    for bound in (1, 0, -1):
        with pytest.raises(ValueError, match="at least 2"):
            no_cover_evidence(tube, bound)


def witness_cases():
    """The CYCLE3 mouth pair at three layers, the a2tilde tube over F_5 at
    four and the twothree pair over F_3 at two, with the bound of each."""
    (_, pair), (_, tube) = audited_cycles()
    return [(tube_mouth_pair(find_regular_simples(CYCLE3, 5)[0]), 3), (tube, 4), (pair, 2)]


def test_universe_decomposes_no_middle_up_to_three_factors(monkeypatch):
    """filtration_universe decomposes no middle term at three factors on
    the three witness cycles; at four on the a2tilde tube it still does."""
    calls = []
    monkeypatch.setattr(tors, "decompose", lambda M: calls.append(M.dims) or modules.decompose(M))
    cases = witness_cases()
    for cycle, _ in cases:
        calls.clear()
        assert any(o.length == 3 for o in filtration_universe(cycle, 3).objects)
        assert calls == []
    filtration_universe(cases[1][0], 4)
    assert calls


def test_middles_of_up_to_three_factors_are_indecomposable():
    """The proof in filtration_universe on modules: every middle term that
    middle_terms gives on two universe objects of three factors in all,
    a member and a member or a level-2 object either way round, decomposes
    into one summand."""
    for cycle, _ in witness_cases():
        level = {1: [], 2: []}
        for o in filtration_universe(cycle, 2).objects:
            level[o.length].append(o.module)
        middles = [E for a, b in ((1, 1), (1, 2), (2, 1)) for A in level[a] for B in level[b]
                   for E in middle_terms(B, A)]
        assert any(E.total > 2 for E in middles)
        assert all(len(modules.decompose(E)) == 1 for E in middles)


def oracle_cases():
    """The CYCLE3 mouth pair at five factors, the a2tilde tube over F_5 at
    six, the d4tilde tube over F_5 at five and the twothree pair over F_3 at
    three, with the bound of each."""
    (_, pair), (_, tube) = audited_cycles()
    d4 = find_regular_simples(load_quiver(QDIR / "d4tilde.txt"), 5)[0].simples
    return [(tube_mouth_pair(find_regular_simples(CYCLE3, 5)[0]), 5), (tube, 6), (d4, 5), (pair, 3)]


@functools.cache
def recorded_universes():
    """filtration_universe on each oracle case, built once with spies: per
    case the cycle, the universe, the middles that reached the isomorphism
    filing marked as one summand with no decompose call (with their ends A
    and B), the decomposed middles (with their ends), each _iso_index
    call's module and candidates, and each is_isomorphic answer."""
    out = []
    for cycle, bound in oracle_cases():
        ends, decomposed, admitted, scans, answers = {}, [], [], [], []

        def middles(B, A):
            found = middle_terms(B, A)
            ends.update((id(E), (E, A, B)) for E in found)
            return found

        def split(M):
            decomposed.append(ends[id(M)])
            return modules.decompose(M)

        def filing(E, *rest, real=tors._is_new):
            if E._parts is not None and ends[id(E)] not in decomposed:
                admitted.append(ends[id(E)])
            return real(E, *rest)

        def scan(M, candidates, real=tors._iso_index):
            scans.append((M, list(candidates)))
            return real(M, candidates)

        def iso(X, Y, real=modules.is_isomorphic):
            answers.append(real(X, Y))
            return answers[-1]

        with pytest.MonkeyPatch.context() as mp:
            for name, spy in (("middle_terms", middles), ("decompose", split),
                              ("_is_new", filing), ("_iso_index", scan)):
                mp.setattr(tors, name, spy)
            mp.setattr(modules, "is_isomorphic", iso)
            fu = filtration_universe(cycle, bound)
        out.append((cycle, fu, admitted, decomposed, scans, answers))
    return out


def copy_of(M):
    """M rebuilt, without the summands M keeps."""
    return make_rep(M.quiver, M.p, M.dims, M.mats)


def test_one_hom_dimension_proves_a_long_middle_indecomposable():
    """The lemma (i) in filtration_universe on modules: every middle of four
    or more factors that dim Hom(E, B) = 1 or dim Hom(A, E) = 1 admits
    without decompose has one summand under modules.decompose, and decompose
    runs only where both dimensions exceed 1, on the four oracle cycles."""
    tested = 0
    for cycle, fu, admitted, decomposed, *_ in recorded_universes():
        for E, A, B in admitted:
            assert hom_dim(E, B) == 1 or hom_dim(A, E) == 1
            assert len(modules.decompose(copy_of(E))) == 1
        for E, A, B in decomposed:
            assert hom_dim(E, B) > 1 and hom_dim(A, E) > 1
        tested += len(admitted)
        assert admitted or max(o.length for o in fu.objects) < 4
    assert tested > 0


def test_every_loewy_length_is_the_relative_radical_length():
    """The lemma (ii) in filtration_universe on modules: each object's
    Loewy length, by the induction step or by relative_loewy_length, is
    the length of its relative radical series, on the four oracle cycles."""
    for cycle, fu, *_ in recorded_universes():
        assert any(o.loewy > 2 for o in fu.objects)
        for o in fu.objects:
            assert relative_loewy_length(o.module, cycle) == o.loewy


def test_isomorphism_filing_meets_only_equal_invariants():
    """Each _iso_index call of filtration_universe gets only candidates of
    the module's dims and rank invariants.  On the twothree pair over F_3
    at three factors the filing still makes the 1454 is_isomorphic calls,
    960 of them False, of the scan over a whole dims bucket."""
    recorded = recorded_universes()
    for *_, scans, _ in recorded:
        for M, candidates in scans:
            key = (M.dims, modules._rank_invariants(M))
            assert all((C.dims, modules._rank_invariants(C)) == key for C in candidates)
    answers = recorded[3][-1]
    assert (len(answers), answers.count(False)) == (1454, 960)


def test_a2tilde_universe_reads_its_loewy_lengths_off_the_tops(monkeypatch):
    """On the a2tilde tube over F_5 at four factors every object of level 3
    or 4 takes its Loewy length from the induction step, so
    relative_loewy_length gets no call, and decompose runs only on the
    middles where dim Hom(E, B) and dim Hom(A, E) both exceed 1."""
    tube = find_regular_simples(load_quiver(QDIR / "a2tilde.txt"), 5)[0].simples
    ends, decomposed = {}, []

    def middles(B, A):
        found = middle_terms(B, A)
        ends.update((id(E), (E, A, B)) for E in found)
        return found

    def refuse(*args):
        raise AssertionError("relative_loewy_length was called")

    monkeypatch.setattr(tors, "middle_terms", middles)
    monkeypatch.setattr(tors, "decompose",
                        lambda M: decomposed.append(ends[id(M)]) or modules.decompose(M))
    monkeypatch.setattr(tors, "relative_loewy_length", refuse)
    fu = filtration_universe(tube, 4)
    assert {o.length for o in fu.objects} == {1, 2, 3, 4}
    assert decomposed
    assert all(hom_dim(E, B) > 1 and hom_dim(A, E) > 1 for E, A, B in decomposed)


def test_witnesses_are_read_from_the_universe(monkeypatch):
    """no_cover_evidence builds no serial object.  The module it tests at
    level r has relative Loewy length r + 1 and the dims of
    serial_object(cycle, 0, r + 1); on the a2tilde tube, whose two
    uniserials of length 2 share their dims, it is isomorphic to it."""
    cases = witness_cases()
    serials = [[serial_object(cycle, 0, r + 1) for r in range(1, bound)]
               for cycle, bound in cases]
    tube = cases[1][0]
    assert len([o for o in filtration_universe(tube, 2).objects
                if o.module.dims == serials[1][0].dims]) == 2
    tested = []
    monkeypatch.setattr(tors, "generates", lambda *args: tested.append(args[1]) or generates(*args))

    def refuse(*args):
        raise AssertionError("no_cover_evidence built a serial object")

    monkeypatch.setattr(tors, "serial_object", refuse)
    for (cycle, bound), want in zip(cases, serials):
        tested.clear()
        ev = no_cover_evidence(cycle, bound)
        assert ev.ok and len(tested) == len(want) == bound - 1
        for r, (M, S) in enumerate(zip(tested, want), 1):
            assert relative_loewy_length(M, cycle) == r + 1
            assert M.dims == S.dims
            assert cycle is not tube or is_isomorphic(M, S)


def test_a_universe_without_its_serial_objects_fails_the_check(monkeypatch):
    """With the uniserials of length r + 1 stripped from the universe,
    no_cover_evidence finds no level-r witness and raises through require;
    test_cli runs the same under python -O."""
    tube = find_regular_simples(load_quiver(QDIR / "a2tilde.txt"), 5)[0].simples
    fu = filtration_universe(tube, 4)
    for r in (1, 2, 3):
        kept = [o for o in fu.objects if not o.length == o.loewy == r + 1]
        assert len(kept) < len(fu.objects)
        monkeypatch.setattr(tors, "filtration_universe",
                            lambda cycle, bound: tors.FiltrationUniverse(fu.cycle, kept))
        with pytest.raises(VerificationError, match=f"no serial object with {r + 1} layers"):
            no_cover_evidence(tube, 4)


def serial_by_decompose(cycle, top_index: int, length: int):
    """serial_object's builder with the decompose filter it had before its
    Loewy test: the first indecomposable middle of the right relative Loewy
    length."""
    r = len(cycle)
    current = cycle[(top_index + length - 1) % r]
    for k in range(length - 2, -1, -1):
        current = next(E for E in middle_terms(cycle[(top_index + k) % r], current)
                       if len(modules.decompose(E)) == 1
                       and relative_loewy_length(E, cycle) == length - k)
    return current


def test_serial_object_decomposes_no_middle(monkeypatch):
    """serial_object picks the middle the decompose filter picked, from
    every top, on the CYCLE3 mouth pair at three layers and the a2tilde tube
    over F_5 at four, with no decompose call.  A decomposable object of the
    filtered category, a serial object of length 2 plus a member, has
    relative Loewy length below its length, and the Loewy test says so
    without raising."""
    (_, tube), = audited_cycles()[1:]
    cases = [(tube_mouth_pair(find_regular_simples(CYCLE3, 5)[0]), 3), (tube, 4)]
    for cycle, _ in cases:
        assert relative_loewy_length(direct_sum([serial_object(cycle, 0, 2), cycle[0]]),
                                     cycle) == 2
    cases = [(cycle, top, length) for cycle, length in cases for top in range(len(cycle))]
    want = [serial_by_decompose(*case) for case in cases]
    calls = []

    def spy(M):
        calls.append(M.dims)
        return modules._split_fully(M)

    monkeypatch.setattr(modules, "decompose", spy)
    monkeypatch.setattr(tors, "decompose", spy)
    got = [serial_object(*case) for case in cases]
    assert calls == []
    assert [(M.dims, M.mats) for M in got] == [(M.dims, M.mats) for M in want]


def test_no_cover_evidence_rejects_bad_cycles():
    with pytest.raises(VerificationError):
        no_cover_evidence([simple(A2, 5, 0)], 3)
    with pytest.raises(VerificationError):
        no_cover_evidence([simple(A2, 5, 0), simple(A2, 5, 1)], 3)


def test_two_vertex_check_finite():
    """A2 is representation finite: its classes come from the exact lattice
    check (test_tors_exact_json), not from the bounded check."""
    with pytest.raises(ValueError, match="exact lattice check"):
        two_vertex_check(A2, 5, 12, random.Random(0))


def test_two_vertex_check_tame_bounded():
    report = two_vertex_check(KRONECKER, 5, 6, random.Random(0))
    assert report.verdict == "consistent"
    assert report.failures == ()
    assert report.class_count > 2


def test_two_vertex_check_wild_is_inconclusive():
    report = two_vertex_check(WILD2, 5, 6, random.Random(0))
    assert report.verdict == "inconclusive"


def test_two_vertex_check_needs_two_vertices():
    with pytest.raises(ValueError):
        two_vertex_check(A3_LINE, 5, 6, random.Random(0))


def count_homs(monkeypatch) -> tuple[Counter, list]:
    """Count every Hom space computed, by the identities of its two modules.

    The second value keeps every counted module alive, so that no identity
    is reused; clear it to let the modules go.
    """
    counts: Counter = Counter()
    alive: list = []

    def counting(X, Y):
        alive.append((X, Y))
        counts[id(X), id(Y)] += 1
        return hom_basis(X, Y)

    for module in (modules, tors, ar_quiver):
        monkeypatch.setattr(module, "hom_basis", counting)
    return counts, alive


def member_pairs(counts: Counter, members) -> Counter:
    """The counts between two members, keyed by their positions."""
    pos = {id(M): i for i, M in enumerate(members)}
    return Counter({(pos[x], pos[y]): n for (x, y), n in counts.items()
                    if x in pos and y in pos})


def assert_table_is_hom_basis(u):
    assert u._homs
    for (i, j), h in u._homs.items():
        fresh = hom_basis(u.modules[i], u.modules[j])
        assert len(h.basis) == len(fresh.basis)
        for f, g in zip(h.basis, fresh.basis):
            assert all(np.array_equal(a, b) for a, b in zip(f, g))


def test_hom_table_computes_each_member_pair_once_a3(monkeypatch):
    """Counting starts before the knitting, which solves the ordered member
    pairs with <x, y> > 0 and reads the rest off the Euler form as zero; the
    universe takes that table over, so knitting, enumeration, the lattice
    check and the covers solve each pair with <x, y> > 0 once and no other
    pair at all."""
    counts, alive = count_homs(monkeypatch)
    u = universe(A3_LINE)
    classes, edges = enumerate_torsion_classes(u)
    lattice_check(u, classes, edges)
    for t in classes:
        find_cover(u, t)
    every = {(i, j) for i in range(len(u)) for j in range(len(u))}
    solved = {(i, j): 1 for i, j in every
              if euler_form(A3_LINE, u.modules[i].dims, u.modules[j].dims) > 0}
    assert 0 < len(solved) < len(every)
    assert member_pairs(counts, u.modules) == solved
    assert set(u._homs) == every
    assert_table_is_hom_basis(u)
    member = weakref.ref(u.modules[0])
    del u
    alive.clear()
    gc.collect()
    assert member() is None


def test_hom_table_computes_each_member_pair_once_kronecker(monkeypatch):
    """The sampled universe counts from the moment it is built; building it
    tests isomorphisms between would-be members outside the table."""
    built = []
    counts, alive = count_homs(monkeypatch)

    class Recorded(tors.ModuleUniverse):
        def __init__(self, *args):
            super().__init__(*args)
            counts.clear()
            built.append(self)

    monkeypatch.setattr(tors, "ModuleUniverse", Recorded)
    report = two_vertex_check(KRONECKER, 5, 6, random.Random(0))
    assert report.verdict == "consistent"
    [u] = built
    assert report.universe_size == len(u)
    pairs = member_pairs(counts, u.modules)
    assert max(pairs.values()) == 1
    assert set(pairs) == set(u._homs)
    assert_table_is_hom_basis(u)
    member = weakref.ref(u.modules[0])
    del u, built[:]
    alive.clear()
    gc.collect()
    assert member() is None


# ---------------------------------------------------------------------------
# audit of the isomorphism scans that the orthogonal-brick argument skips

def lines(p: int, e: int) -> int:
    """Points of the projective space P(F_p^e)."""
    return (p ** e - 1) // (p - 1)


def pairwise_nonisomorphic(mods) -> bool:
    """The pairwise scan: no module is isomorphic to an earlier one."""
    return all(modules._iso_index(M, mods[:k]) is None for k, M in enumerate(mods))


def audited_cycles():
    """The twothree ext pair over F_3 and the a2tilde tube simples over F_5."""
    cert = find_ext_pair(load_quiver(QDIR / "twothree.txt"), 3)
    assert (cert.report.numbers["ext_xy"], cert.report.numbers["ext_yx"]) == (3, 3)
    tube = find_regular_simples(load_quiver(QDIR / "a2tilde.txt"), 5)[0]
    return [(3, (cert.X, cert.Y)), (5, tube.simples)]


def test_orthogonal_brick_middles_are_pairwise_nonisomorphic():
    for p, cycle in audited_cycles():
        middles = []
        for A in cycle:
            for B in cycle:
                if A is not B:
                    mids = middle_terms(B, A)
                    assert len(mids) == lines(p, ext_dim(B, A))
                    middles += mids
        assert middles
        assert pairwise_nonisomorphic(middles)


def test_filtration_level_two_is_pairwise_nonisomorphic():
    for p, cycle in audited_cycles():
        fu = filtration_universe(cycle, 2)
        expected = len(cycle) + sum(lines(p, ext_dim(B, A)) for A in cycle for B in cycle
                                    if A is not B)
        assert len(fu.objects) == expected
        assert pairwise_nonisomorphic([o.module for o in fu.objects])


def decompose_and_match_loewy_length(M, cycle):
    """The layer check relative_loewy_length made before it read the layers
    off dimension vectors, kept as the reference: build each layer's
    quotient, decompose it and match every summand against the cycle.  None
    when the radical does not shrink or a summand is no member."""
    steps = 0
    while M.total > 0:
        maps = [f for X in cycle for f in hom_basis(M, X).basis]
        carved = modules.carve(M, [la.kernel_basis(la.vstack([f[v] for f in maps]), M.p)
                                   if maps else la.identity(d) for v, d in enumerate(M.dims)])
        if carved.sub.total == M.total or any(modules._iso_index(part, cycle) is None
                                              for part in modules.decompose(carved.quot)):
            return None
        M = carved.sub
        steps += 1
    return steps


def test_layer_identity_agrees_with_decompose_and_match():
    """On every filtration object of the audited cycles (three levels) and
    on the serial objects, the dimension identity gives the length the
    decompose-and-match reference gives; a simple at a sink, which embeds in
    a member but is no sum of members, fails both."""
    for p, cycle in audited_cycles():
        objects = [o.module for o in filtration_universe(cycle, 3).objects]
        objects += [serial_object(cycle, top, 3) for top in range(len(cycle))]
        assert len(objects) > len(cycle) + 2
        for M in objects:
            assert relative_loewy_length(M, cycle) == decompose_and_match_loewy_length(M, cycle)
        q = cycle[0].quiver
        [sink] = [v for v in range(q.n) if not any(a.source == v for a in q.arrows)]
        S = simple(q, p, sink)
        assert any(hom_dim(S, X) for X in cycle)
        assert decompose_and_match_loewy_length(S, cycle) is None
        with pytest.raises(VerificationError, match=r"layer \(.*\) is not a sum of cycle members"):
            relative_loewy_length(S, cycle)


def nocover_cycle(name: str, p: int):
    """The cycle run nocover uses: the first tube's mouth on a
    Euclidean quiver, else the double-extension pair."""
    q = load_quiver(QDIR / f"{name}.txt")
    if name.endswith("tilde"):
        return find_regular_simples(q, p)[0].simples
    cert = find_ext_pair(q, p)
    return cert.X, cert.Y


def pairwise_filtration(cycle, bound: int):
    """filtration_universe's enumeration with the pairwise scan it made
    before it bucketed by invariants: each self-extension and longer
    indecomposable middle against everything found so far, by _iso_index.
    The modules with their levels, in the order found."""
    levels, found = [[], list(cycle)], [(X, 1) for X in cycle]
    for total in range(2, bound + 1):
        fresh = []
        for a in range(1, total):
            for A in levels[a]:
                for B in levels[total - a]:
                    for E in middle_terms(B, A):
                        if len(modules.decompose(E)) == 1 and (
                                total == 2 and A is not B
                                or modules._iso_index(E, [N for N, _ in found] + fresh) is None):
                            fresh.append(E)
        levels.append(fresh)
        found.extend((M, total) for M in fresh)
    return found


# run nocover --format json at seed 0, SHA-256 of the report; the bucketed
# scan and the layer identity kept every byte, and the report has since
# dropped only its generation_preserves_level field; the default-bound
# a2tilde digest predates the witnesses read from the universe
NOCOVER_DIGESTS = {
    ("a2tilde", 5, 4): "8c775109c7492b21c2c18863d5f44bba7d29cfcf550902eb2e5679bd38f3520f",
    ("a2tilde", 5, 6): "e7611149bb317185e96a3b4f051446f38b3556b0cde3afc6fc409762ddbe44cf",
    ("d4tilde", 5, 4): "59039e754f4c3d05c1145af7aa717edfcbb688c4e349553da9905e7f52c6c8b7",
    ("twothree", 3, 2): "77c8a8179fafd59e547c0c4285d3d0ace9f2b0d11e5329754524ae2df7e4f3b5",
    ("twothree", 5, 2): "556974197d1257fe27d33adbb716351e1e7f818982d65fc72beb8a54b5675773",
    ("twoone", 5, 2): "163cdc702fc1cc09b2de064dfcdcbec76cf168056ad4a2c21f2ecb0871bd5e52",
}


@pytest.mark.parametrize("name, p, bound", list(NOCOVER_DIGESTS))
def test_bucketed_scan_finds_the_pairwise_objects(capsys, name, p, bound):
    """The scan that tests isomorphism only within a bucket of equal dims
    and rank invariants keeps the object list of the pairwise scan, module
    for module, and the report keeps its digest."""
    cycle = nocover_cycle(name, p)
    want = sorted(pairwise_filtration(cycle, bound), key=lambda f: (f[0].total, f[0].dims))
    got = filtration_universe(cycle, bound).objects
    assert [(o.module.dims, o.module.mats, o.length) for o in got] == [
        (M.dims, M.mats, length) for M, length in want]
    capsys.readouterr()
    assert main(["run", "nocover", str(QDIR / f"{name}.txt"), "--prime", str(p),
                 "--loewy-bound", str(bound), "--format", "json"]) == 0
    report = capsys.readouterr().out.encode()
    assert hashlib.sha256(report).hexdigest() == NOCOVER_DIGESTS[name, p, bound]


def test_rank_invariants_survive_a_change_of_basis():
    """Arrow, composite and pencil ranks are the same on a random base
    change at each vertex, on the filtration objects of two cycles with
    parallel arrows and on random modules of quivers with and without them;
    they separate some modules of equal dims."""
    rng = random.Random(113)
    mods = [o.module for name, p in (("twothree", 3), ("twoone", 5))
            for o in filtration_universe(nocover_cycle(name, p), 2).objects]
    for q in (KRONECKER, CYCLE3, load_quiver(QDIR / "twothree.txt")):
        mods += [modules.random_rep(q, 3, [rng.randrange(4) for _ in range(q.n)], rng)
                 for _ in range(10)]
    keys = {}
    for M in mods:
        key = modules._rank_invariants(M)
        assert modules._rank_invariants(base_changed(M, rng)) == key
        keys.setdefault(M.dims, set()).add(key)
    assert any(len(k) > 1 for k in keys.values())


def test_rank_invariants_are_computed_once_per_module(monkeypatch):
    """A module keeps its rank invariants: asking twice ranks its matrices
    only the first time."""
    M = filtration_universe(nocover_cycle("twothree", 3), 2).objects[-1].module
    ranked = []
    real = la.rank
    monkeypatch.setattr(la, "rank", lambda m, p: ranked.append(m) or real(m, p))
    first = modules._rank_invariants(M)
    assert len(ranked) == len(first) > 0
    assert modules._rank_invariants(M) == first
    assert len(ranked) == len(first)


def test_iso_index_rejects_by_pencil_ranks_without_an_isomorphism_test(monkeypatch):
    """Two Kronecker modules of dims (1, 1) with both arrows of rank 1 lie on
    different points of P^1, which the pencil ranks tell apart: _iso_index
    answers None with no is_isomorphic call, and still finds the module
    itself among them."""
    M = make_rep(KRONECKER, 5, (1, 1), [np.array([[1]]), np.array([[1]])])
    N = make_rep(KRONECKER, 5, (1, 1), [np.array([[1]]), np.array([[2]])])
    assert modules._rank_invariants(M)[:2] == modules._rank_invariants(N)[:2] == (1, 1)
    assert modules._rank_invariants(M) != modules._rank_invariants(N)
    tested = []
    real = modules.is_isomorphic
    monkeypatch.setattr(modules, "is_isomorphic", lambda X, Y: tested.append(Y) or real(X, Y))
    assert modules._iso_index(M, [N]) is None
    assert tested == []
    assert modules._iso_index(M, [N, M]) == 1
    assert tested == [M]


def test_middle_terms_lists_every_line_and_matches_no_isomorphism(monkeypatch):
    """One middle term per line of P(Ext(B, A)), also where distinct lines
    give isomorphic middles, with no isomorphism test and no random draw."""
    scanned = []

    def spy(real):
        def recording(*args, **kwargs):
            scanned.append(real.__name__)
            return real(*args, **kwargs)
        return recording

    for name in ("_iso_index", "is_isomorphic"):
        monkeypatch.setattr(modules, name, spy(getattr(modules, name)))
    params = inspect.signature(middle_terms).parameters
    assert "rng" not in params
    assert params["hom"].kind is inspect.Parameter.KEYWORD_ONLY
    S1, S2 = simple(A2, 3, 0), simple(A2, 3, 1)
    q = WILD2
    X = make_rep(q, 3, (1, 1), [np.array([[1]]), np.array([[0]]), np.array([[0]])])
    T1, T2 = simple(q, 3, 0), simple(q, 3, 1)
    assert hom_dim(X, X) == 1 and hom_dim(X, T1) == 1
    # End(S2 + S2) is not a field: all four lines give P1 + S2; X by X and
    # T1 by X have A is B or Hom(A, B) != 0; T1 by T2 are orthogonal bricks
    cases = ((S1, direct_sum([S2, S2]), 2), (X, X, 2), (T1, X, 2), (T1, T2, 3))
    for B, A, e in cases:
        assert ext_dim(B, A) == e
        assert len(middle_terms(B, A)) == lines(3, e)
    mids = middle_terms(T1, T2)
    assert scanned == []
    assert pairwise_nonisomorphic(mids)


# ---------------------------------------------------------------------------
# theory oracles for run tors in finite type (Ingalls-Thomas,
# arXiv:math/0612219; Adachi-Iyama-Reiten, arXiv:1210.1036)

def orientations(n: int) -> list[str]:
    """Every orientation of the path 1 - 2 - ... - n, as quiver file text."""
    return [f"vertices {n}\n" + "".join(
                f"arrow {v} {v + 1}\n" if b else f"arrow {v + 1} {v}\n"
                for v, b in enumerate(bits, start=1))
            for bits in itertools.product((0, 1), repeat=n - 1)]


def c_sortable(q, c, vectors) -> bool:
    """Is the set of positive roots the left inversion set N(w) of a
    c-sortable element w (Reading, Coxeter-sortable elements)?  Read c^∞
    greedily: take s when α_s ∈ N, a left descent of w, and go on with
    N(sw) = s(N - {α_s}).  The letters taken form the c-sorting word of w,
    so N must empty, and the letters of successive passes must have nested
    supports.  Uses only the underlying graph, no module."""
    edges = [(sorted(e), len(ks)) for e, ks in underlying_edges(q)]

    def reflect(s, v):
        pairing = 2 * v[s] - sum(m * v[b if a == s else a] for (a, b), m in edges if s in (a, b))
        return v[:s] + (v[s] - pairing,) + v[s + 1:]

    N, previous = set(vectors), set(range(q.n))
    while N:
        taken = set()
        for s in c:
            alpha = tuple(int(v == s) for v in range(q.n))
            if alpha in N:
                N = {reflect(s, v) for v in N - {alpha}}
                taken.add(s)
        if not taken or not taken <= previous:
            return False
        previous = taken
    return True


FINITE_ORACLES = ([("A3", text, 14) for text in orientations(3)]
                  + [("A4", text, 42) for text in orientations(4)]
                  + [("D4", (QDIR / "d4.txt").read_text(), 50),
                     ("D5", (QDIR / "d5.txt").read_text(), 182)]
                  # linear A5 (every arrow v -> v + 1) and alternating A5
                  + [("A5", orientations(5)[k], 132) for k in (15, 10)]
                  + [("E6", (QDIR / "e6.txt").read_text(), 833)])


@pytest.mark.parametrize("kind, text, catalan", FINITE_ORACLES,
                         ids=[f"{k}-{n}" for n, (k, _, _) in enumerate(FINITE_ORACLES)])
def test_finite_tors_report_meets_the_theory(tmp_path, capsys, kind, text, catalan):
    """The run tors report against results that need no second engine: the
    class count is the W-Catalan number, the Hasse diagram is n-regular,
    the dimension vectors of each class are the inversion set of a
    c-sortable element for c the simple reflections with sources first
    (Ingalls-Thomas; the reversed c, a control, passes exactly 2^n classes),
    and for each class T with Ext-projectives P(T) (the members X with
    Ext(X, T) = 0, from ext_dim):
    - the members X ∈ T with Hom(T, τX) = 0, read off the universe's Hom
      rows and translates, are P(T);
    - |P(T)| plus the vertices outside the support of T is n;
    - the cover is the sum of one subset of P(T), as its dimension vector
      shows (P(T) is partial tilting, so its dimension vectors are linearly
      independent and the subset is unique), with one summand per lower
      cover of T, counted by the Hasse edges into T.
    Indecomposables of Dynkin type are determined by their dimension
    vectors, so the universe's modules stand for the report's."""
    path = tmp_path / "q.txt"
    path.write_text(text)
    assert main(["run", "tors", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    q = parse_quiver(text)
    n = q.n
    assert report["class_count"] == len(report["classes"]) == catalan
    degree = Counter(v for edge in report["hasse_edges"] for v in edge)
    assert sorted(degree) == list(range(catalan)) and set(degree.values()) == {n}
    dims = [tuple(d) for d in report["universe"]]
    vectors = [{dims[x] for x in members} for members in report["classes"]]
    c = topological_order(q)
    assert all(c_sortable(q, c, N) for N in vectors)
    assert sum(c_sortable(q, c[::-1], N) for N in vectors) == 2 ** n

    u = finite_universe(q, 5)
    assert [M.dims for M in u.modules] == dims
    ext = [[ext_dim(X, Y) for Y in u.modules] for X in u.modules]
    lower = Counter(upper for _, upper in report["hasse_edges"])
    for k, (members, cover) in enumerate(zip(report["classes"], report["covers"])):
        projectives = [x for x in members if not any(ext[x][y] for y in members)]
        reached = 0
        for y in members:
            reached |= u.hom_rows[y]
        assert projectives == [x for x in members
                               if u.tau[x] is None or not reached >> u.tau[x] & 1], members
        support = {v for x in members for v in range(n) if dims[x][v]}
        assert len(projectives) + (n - len(support)) == n, members
        [summands] = [subset for r in range(len(projectives) + 1)
                      for subset in itertools.combinations(projectives, r)
                      if [sum(dims[x][v] for x in subset) for v in range(n)] == cover]
        assert len(summands) == lower[k], members


def test_e6_tors_report_is_pinned(capsys):
    """The E6 run tors report keeps its SHA-256, as criterion 9 keeps the
    A3, D4 and D5 reports: a change to the finite certificate must leave it
    byte for byte."""
    assert main(["run", "tors", str(QDIR / "e6.txt"), "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "0bbba6f7ff175669cd479a5521a41eef2d09daf57422a20273fed4b2d9888b60"


# ---------------------------------------------------------------------------
# audit of the monotone bounds of peeled_closure and of the bounded covers

A3_IN = parse_quiver("vertices 3\narrow 1 2\narrow 3 2\n")
A3_BACK = parse_quiver("vertices 3\narrow 2 1\narrow 3 2\n")


def reference_peeled_closure(u, gens) -> frozenset:
    """The unbounded loop: peel every member."""
    glist = [u.modules[g] for g in sorted(gens)]
    return frozenset(m for m in range(len(u))
                     if tors.in_torsion_closure(glist, u.modules[m], u.hom))


def reference_bounded_cover(u, cls):
    """The cover check over the whole universe: the kept generators must
    generate cls and nothing else."""
    pruned = sorted(tors._prune(u, cls))
    kept = frozenset(pruned[k] for k in modules._drop_generated([u.modules[g] for g in pruned]))
    return kept if gen_closure(u, kept) == cls else None


def assert_peeled_cache_exact(u):
    assert u._peeled
    for gens, closed in u._peeled.items():
        assert closed == reference_peeled_closure(u, gens), sorted(gens)


@pytest.mark.parametrize("bound, seed", [(8, 0), (12, 3)])
def test_bounded_check_matches_unbounded_peeling(monkeypatch, bound, seed):
    """The peeled cache is exact, and every class, meet and join the check
    closes (each a peeled closure) has a cover over the whole universe."""
    built = []

    class Recorded(tors.ModuleUniverse):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(tors, "ModuleUniverse", Recorded)
    report = two_vertex_check(KRONECKER, 5, bound, random.Random(seed))
    assert report.verdict == "consistent"
    [u] = built
    assert_peeled_cache_exact(u)
    # the classes, and meets and joins that are no single closure too
    closed = set(u._peeled.values()) | {frozenset(), frozenset(range(len(u)))}
    assert len(closed) > report.class_count
    for cls in closed:
        assert reference_bounded_cover(u, cls) is not None, sorted(cls)


def reference_torsion_closure(u, gens) -> frozenset:
    """The fixpoint: add every member the current set generates and every
    summand of a middle term of two current members, until nothing
    changes."""
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
    return frozenset(current)


A2_BACK = parse_quiver("vertices 2\narrow 2 1\n")
FINITE_UNIVERSES = pytest.mark.parametrize(
    "q", [A1, A2, A2_BACK, A3_LINE, A3_BACK, A3_OUT, A3_IN, load_quiver(QDIR / "d4.txt")],
    ids=["a1", "a2", "a2-back", "a3-line", "a3-back", "a3-out", "a3-in", "d4"])


def enumerated_closures(monkeypatch, q):
    """Every closure the enumeration asks for, by its key, and a universe of
    its own with the same members in the same order for the oracles.  The
    keys are the single members and t ∪ {x} for each class t and member x
    outside it."""
    asked = {}
    real = tors.torsion_closure

    def recording(u, gens):
        asked[frozenset(gens)] = result = real(u, gens)
        return result

    monkeypatch.setattr(tors, "torsion_closure", recording)
    u = universe(q)
    classes, _ = enumerate_torsion_classes(u)
    keys = {frozenset([x]) for x in range(len(u))}
    keys |= {t | {x} for t in classes for x in range(len(u)) if x not in t}
    assert set(asked) == keys
    fresh = universe(q)
    assert [M.dims for M in fresh.modules] == [M.dims for M in u.modules]
    return fresh, asked


@FINITE_UNIVERSES
def test_finite_peeled_closures_match_unbounded_peeling(monkeypatch, q):
    """Every closure the enumeration asks for equals unbounded peeling,
    computed in a universe of its own."""
    fresh, asked = enumerated_closures(monkeypatch, q)
    for gens, closed in asked.items():
        assert closed == reference_peeled_closure(fresh, gens), sorted(gens)


@FINITE_UNIVERSES
def test_certified_closures_match_the_fixpoint(monkeypatch, q):
    """Every closure the enumeration asks for equals the fixpoint, computed
    in a universe of its own."""
    fresh, asked = enumerated_closures(monkeypatch, q)
    for gens, closed in asked.items():
        assert closed == reference_torsion_closure(fresh, gens), sorted(gens)


def test_bounds_cut_the_peeling_of_the_bounded_check(monkeypatch, capsys):
    """Peeling every member of every closure made 1678 calls here; the
    monotone bounds leave 429."""
    calls = Counter()
    real = tors.in_torsion_closure

    def counting(*args, **kwargs):
        calls["in_torsion_closure"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(tors, "in_torsion_closure", counting)
    code = main(["run", "tors", str(QDIR / "kronecker.txt"),
                 "--dim-bound", "8", "--seed", "0"])
    assert code == 0
    assert "verdict consistent" in capsys.readouterr().out
    assert 0 < calls["in_torsion_closure"] <= 600


def test_finite_enumeration_peels_each_answer_once(monkeypatch):
    """Peeled closures made 3949 peeling calls to enumerate D5; certifying
    each distinct Hom-table closure once leaves 435."""
    calls = Counter()
    real = tors.in_torsion_closure

    def counting(*args, **kwargs):
        calls["in_torsion_closure"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(tors, "in_torsion_closure", counting)
    classes, _ = enumerate_torsion_classes(universe(load_quiver(QDIR / "d5.txt")))
    assert len(classes) == 182
    assert 0 < calls["in_torsion_closure"] <= 1000


# ---------------------------------------------------------------------------
# the finite closures skip what they already know

FINITE_CASES = pytest.mark.parametrize(
    "q", [A3_LINE, A3_BACK, A3_OUT, A3_IN, load_quiver(QDIR / "d4.txt")],
    ids=["a3-line", "a3-back", "a3-out", "a3-in", "d4"])


@FINITE_CASES
def test_middle_summands_match_decomposed_middle_terms(q):
    """Every entry equals decomposing each middle term and matching its
    parts; the split middle term has no entry."""
    u = universe(q)
    nonsplit = 0
    for i in range(len(u)):
        for j in range(len(u)):
            middles = middle_terms(u.modules[i], u.modules[j], hom=u.hom)
            oracle = tuple(tuple(sorted(u.match(part) for part in modules.decompose(E)))
                           for E in middles)
            assert u.middle_summands(i, j) == oracle, (i, j)
            nonsplit += len(middles)
    assert nonsplit > 0


MASK_CASES = pytest.mark.parametrize(
    "q", [A3_LINE, A3_OUT, A3_IN, load_quiver(QDIR / "d4.txt"), load_quiver(QDIR / "d5.txt")],
    ids=["a3-line", "a3-out", "a3-in", "d4", "d5"])


@MASK_CASES
def test_extension_masks_match_the_pairwise_middles(q):
    """For every class the per-pair masks give the members² union of
    middle_summands, and middle_terms is empty on exactly the pairs that
    have no mask."""
    u = universe(q)
    classes, _ = enumerate_torsion_classes(u)
    for t in classes:
        assert u.extension_summands(t) == {s for i in t for j in t
                                           for parts in u.middle_summands(i, j)
                                           for s in parts}, sorted(t)
    masked = {(i, j) for i, j, _ in u._middle_masks}
    assert masked == {(i, j) for i in range(len(u)) for j in range(len(u))
                      if middle_terms(u.modules[i], u.modules[j])}
    assert masked


@FINITE_CASES
def test_closures_carve_only_proper_traces(monkeypatch, q):
    """Generation tests and full or zero traces are decided from ranks; only
    a peeling step through a proper nonzero trace carves, once, so the
    carves number the peeling steps: the calls of in_torsion_closure made
    from inside another.  The enumeration peels little, so unbounded
    peeling of every single-member closure drives the peeling too."""
    traces, carved = {}, []
    depth, steps = [0], [0]
    real_peel = tors.in_torsion_closure

    def counting_peel(*args):
        steps[0] += depth[0] > 0
        depth[0] += 1
        try:
            return real_peel(*args)
        finally:
            depth[0] -= 1

    real_trace, real_carve = tors.trace_submodule, modules.carve

    def recording_trace(*args):
        tr = real_trace(*args)
        traces[id(tr.bases)] = tr
        return tr

    def recording_carve(M, spaces):
        if id(spaces) in traces:
            carved.append(traces[id(spaces)])
        return real_carve(M, spaces)

    monkeypatch.setattr(tors, "trace_submodule", recording_trace)
    monkeypatch.setattr(modules, "trace_submodule", recording_trace)
    monkeypatch.setattr(modules, "carve", recording_carve)
    monkeypatch.setattr(tors, "in_torsion_closure", counting_peel)
    u = universe(q)
    enumerate_torsion_classes(u)
    for x in range(len(u)):
        reference_peeled_closure(u, {x})
    assert carved
    assert len({id(tr) for tr in carved}) == len(carved)
    assert not any(tr.full or tr.zero for tr in carved)
    assert len(carved) == steps[0]


# ---------------------------------------------------------------------------
# covers are checked once

def reference_drop_generated(mods, hom=None) -> list[int]:
    """The restart loop: drop the first module generated by the others
    still kept, then start over, until none is."""
    kept = list(range(len(mods)))
    changed = True
    while changed and len(kept) > 1:
        changed = False
        for idx in range(len(kept)):
            others = [mods[k] for j, k in enumerate(kept) if j != idx]
            if generates(others, mods[kept[idx]], hom):
                kept.pop(idx)
                changed = True
                break
    return kept


D4 = load_quiver(QDIR / "d4.txt")
D5 = load_quiver(QDIR / "d5.txt")


COVER_CASES = pytest.mark.parametrize(
    "q", [A3_LINE, A3_BACK, A3_OUT, A3_IN, D4, D5],
    ids=["a3-line", "a3-back", "a3-out", "a3-in", "d4", "d5"])


@COVER_CASES
def test_covers_are_read_off_tau_and_tested_once(monkeypatch, q):
    """Each certificate tests each member of its class outside its cover
    once, with the cover as the generators and through the cached images,
    and no other generation test is made, nor memoized in the universe; each
    image pair (cover member, class member outside the cover) is computed
    once; find_cover makes no test at all; and the cover is what one pass
    of _drop_generated keeps over the members of the class."""
    tested, imaged = [], []
    real, real_images = tors.in_gen_closure, tors.image_bases

    def spy(gens, N, hom=None, images=None):
        assert hom is None and images is not None
        tested.append((gens, N))
        return real(gens, N, hom, images)

    def images_spy(M, maps):
        imaged.append(M)
        return real_images(M, maps)

    monkeypatch.setattr(tors, "in_gen_closure", spy)
    monkeypatch.setattr(tors, "image_bases", images_spy)
    u = universe(q)
    classes, _ = enumerate_torsion_classes(u)
    torsion_closure(u, frozenset())     # the one class no enumeration step asks for
    covers = u._covers
    assert set(covers) == set(classes)
    assert Counter((frozenset(u._index[id(g)] for g in gens), u._index[id(N)])
                   for gens, N in tested) == Counter(
        (covers[t], m) for t in classes for m in t if m not in covers[t])
    assert set(u._images) == {(k, m) for t in classes for k in covers[t]
                              for m in t if m not in covers[t]}
    assert len(imaged) == len(u._images)
    assert u._gen == {}

    def refuse(*args):
        raise AssertionError("find_cover made a generation test")

    tested.clear()
    monkeypatch.setattr(tors, "in_gen_closure", refuse)
    monkeypatch.setattr(tors, "generates", refuse)
    for t in classes:
        cover = find_cover(u, t)
        members = sorted(t)
        kept = [members[k] for k in modules._drop_generated([u.modules[m] for m in members])]
        assert sorted(covers[t]) == kept, members
        assert cover.dims == tuple(sum(u.modules[k].dims[v] for k in kept) for v in range(q.n))
    assert tested == []


ORACLE_CASES = pytest.mark.parametrize(
    "q", [A1, A2, A3_LINE, A3_OUT, A3_IN, D4, D5],
    ids=["a1", "a2", "a3-line", "a3-out", "a3-in", "d4", "d5"])


@ORACLE_CASES
def test_covers_generate_no_non_member(q):
    """The certificate rules non-members out off the Hom rows; on modules,
    the cover of every class generates none of them.  And each cached image
    is the trace of its one generator, as trace_submodule computes it."""
    u = universe(q)
    classes, _ = enumerate_torsion_classes(u)
    torsion_closure(u, frozenset())
    for t in classes:
        cover = [u.modules[k] for k in sorted(u._covers[t])]
        for x in range(len(u)):
            if x not in t:
                assert not generates(cover, u.modules[x]), (sorted(t), x)
    assert u._images or len(u) == 1
    for (k, m), bases in u._images.items():
        assert bases == modules.trace_submodule([u.modules[k]], u.modules[m]).bases, (k, m)


@COVER_CASES
def test_drop_generated_is_the_restart_loop_in_one_pass(monkeypatch, q):
    """On the members of every class, one pass keeps what the restart loop
    keeps, with at most one generation test per module."""
    u = universe(q)
    classes, _ = enumerate_torsion_classes(u)
    calls = []
    monkeypatch.setattr(modules, "generates", lambda *args: calls.append(args) or generates(*args))
    for t in classes:
        mods = [u.modules[m] for m in sorted(t)]
        calls.clear()
        kept = modules._drop_generated(mods)
        assert len(calls) <= len(mods)
        assert kept == reference_drop_generated(mods, u.hom), sorted(t)


def test_drop_generated_is_the_restart_loop_on_normalize_inputs():
    """The summand lists that normalize hands over in
    test_normalize_drops_generated_summands ([S1, P1], [P1] and [S2, S1]),
    their other orders, P1 twice, and S2, S1 and P1 together."""
    S1, S2, P1 = simple(A2, 5, 0), simple(A2, 5, 1), projective(A2, 5, 0)
    for mods in ([S1, P1], [P1, S1], [P1], [P1, P1], [S2, S1], [S1, S2], [S2, S1, P1]):
        assert modules._drop_generated(mods) == reference_drop_generated(mods)


def test_find_cover_rejects_a_set_that_is_no_class():
    """{P1} without its quotient S1 is no torsion class of A2."""
    u = universe(A2)
    p1 = u.match(projective(A2, 5, 0))
    with pytest.raises(VerificationError, match=rf"^\[{p1}\] is not a torsion class$"):
        find_cover(u, frozenset({p1}))
