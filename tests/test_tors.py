"""Torsion classes over finite universes, covers, no-cover evidence.

The enumeration oracle filters the whole powerset of the universe by the
closure conditions directly, one subset at a time, instead of growing
classes breadth-first the way the library does.
"""

import gc
import itertools
import json
import random
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ftors import ar_quiver, modules, tors
from ftors.cli import main
from ftors.ext_pairs import find_ext_pair
from ftors.modules import (
    direct_sum,
    ext_dim,
    hom_basis,
    hom_dim,
    is_isomorphic,
    make_rep,
    middle_terms,
    simple,
)
from ftors.quiver import VerificationError, load_quiver, parse_quiver
from ftors.roots import euler_form
from ftors.tors import (
    enumerate_torsion_classes,
    filtration_universe,
    find_cover,
    finite_universe,
    gen_closure,
    hasse_edges,
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

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 2\narrow 1 2\n")
A3_LINE = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n")
A3_OUT = parse_quiver("vertices 3\narrow 2 1\narrow 2 3\n")
CYCLE3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")
WILD2 = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\narrow 1 2\n")
QDIR = Path(__file__).resolve().parent.parent / "quivers"


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
    return finite_universe(q, 5, random.Random(seed))


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
        assert ext_dim(cov, cov) == 0
        seen[t] = cov.dims
    for t, dims in want.items():
        assert seen[t] == dims
    assert sorted(seen.values()) == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]


def find_covers(u, t):
    """All covers of a torsion class, as minimal one-generator enlargements:
    any class strictly above t contains one of the candidates, so the
    minimal candidates are exactly the covering classes."""
    candidates = {torsion_closure(u, t | {x}) for x in range(len(u)) if x not in t}
    candidates.discard(t)
    covers = [c for c in candidates if not any(t < d < c for d in candidates)]
    return sorted(covers, key=lambda s: (len(s), sorted(s)))


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

    with pytest.raises(VerificationError):
        validate_ext_cycle([S1])                       # no self extensions
    with pytest.raises(VerificationError):
        validate_ext_cycle([S1, S2])                   # ext one way only
    with pytest.raises(VerificationError):
        validate_ext_cycle([projective(A2, 5, 0), S1])  # hom not orthogonal
    rng = random.Random(0)
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5, rng)[0], rng)
    validate_ext_cycle([x, y])                         # the real thing passes


def test_filtration_universe_and_loewy():
    rng = random.Random(0)
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5, rng)[0], rng)
    fu = filtration_universe((x, y), 3, rng)
    assert all(1 <= o.loewy <= 3 for o in fu.objects)
    assert {o.module.dims for o in fu.objects if o.length == 1} == {x.dims, y.dims}
    for o in fu.objects:
        assert relative_loewy_length(o.module, (x, y), rng) == o.loewy
    two = serial_object(fu.cycle, 0, 2, rng)
    assert two.dims == tuple(a + b for a, b in zip(x.dims, y.dims))
    assert relative_loewy_length(two, (x, y), rng) == 2
    # the first two levels get their length from the proof, not the series
    for _, cycle in audited_cycles():
        fu = filtration_universe(cycle, 2, rng)
        assert {o.length for o in fu.objects} == {1, 2}
        for o in fu.objects:
            assert relative_loewy_length(o.module, cycle, rng) == o.loewy == o.length


def test_no_cover_evidence_cycle3():
    rng = random.Random(0)
    x, y = tube_mouth_pair(find_regular_simples(CYCLE3, 5, rng)[0], rng)
    ev = no_cover_evidence((x, y), 3, rng)
    assert ev.ok
    assert ev.monotone_ok
    assert [w[0] for w in ev.witnesses] == [1, 2]
    assert all(gen is False for _, _, gen in ev.witnesses)
    assert ev.witnesses[0][1] == (1, 1, 1)


def test_no_cover_evidence_rejects_bad_cycles():
    rng = random.Random(0)
    with pytest.raises(VerificationError):
        no_cover_evidence([simple(A2, 5, 0)], 3, rng)
    with pytest.raises(VerificationError):
        no_cover_evidence([simple(A2, 5, 0), simple(A2, 5, 1)], 3, rng)


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
    classes = enumerate_torsion_classes(u)
    lattice_check(u, classes)
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
        def __post_init__(self):
            super().__post_init__()
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


def pairwise_nonisomorphic(mods, rng) -> bool:
    """The pairwise scan: no module is isomorphic to an earlier one."""
    return all(modules._iso_index(M, mods[:k], rng) is None for k, M in enumerate(mods))


def audited_cycles():
    """The twothree ext pair over F_3 and the a2tilde tube simples over F_5."""
    rng = random.Random(0)
    cert = find_ext_pair(load_quiver(QDIR / "twothree.txt"), 3, rng)
    assert (cert.report.numbers["ext_xy"], cert.report.numbers["ext_yx"]) == (3, 3)
    tube = find_regular_simples(load_quiver(QDIR / "a2tilde.txt"), 5, rng)[0]
    return [(3, (cert.X, cert.Y)), (5, tube.simples)]


def test_orthogonal_brick_middles_are_pairwise_nonisomorphic():
    rng = random.Random(1)
    for p, cycle in audited_cycles():
        middles = []
        for A in cycle:
            for B in cycle:
                if A is not B:
                    mids = middle_terms(B, A, rng)[1:]
                    assert len(mids) == lines(p, ext_dim(B, A))
                    middles += mids
        assert middles
        assert pairwise_nonisomorphic(middles, rng)


def test_filtration_level_two_is_pairwise_nonisomorphic():
    rng = random.Random(2)
    for p, cycle in audited_cycles():
        fu = filtration_universe(cycle, 2, rng)
        expected = len(cycle) + sum(lines(p, ext_dim(B, A)) for A in cycle for B in cycle
                                    if A is not B)
        assert len(fu.objects) == expected
        assert pairwise_nonisomorphic([o.module for o in fu.objects], rng)


def test_middle_terms_scans_pairs_that_are_not_orthogonal_bricks(monkeypatch):
    scanned = []
    real = modules._iso_index

    def spy(M, candidates, rng):
        scanned.append(M)
        return real(M, candidates, rng)

    monkeypatch.setattr(modules, "_iso_index", spy)
    rng = random.Random(3)
    S1, S2 = simple(A2, 3, 0), simple(A2, 3, 1)
    # End(S2 + S2) is not a field: all four lines give P1 + S2
    assert len(middle_terms(S1, direct_sum([S2, S2]), rng)) == 2
    assert len(scanned) == lines(3, 2)
    q = WILD2
    X = make_rep(q, 3, (1, 1), [np.array([[1]]), np.array([[0]]), np.array([[0]])])
    T1, T2 = simple(q, 3, 0), simple(q, 3, 1)
    assert hom_dim(X, X) == 1 and hom_dim(X, T1) == 1
    for B, A in ((X, X), (T1, X)):            # A is B; Hom(A, B) != 0
        assert ext_dim(B, A) == 2
        scanned.clear()
        middle_terms(B, A, rng)
        assert len(scanned) == lines(3, 2)
    scanned.clear()
    mids = middle_terms(T1, T2, rng)          # orthogonal bricks: no scan
    assert scanned == []
    assert len(mids) == 1 + lines(3, 3)
    assert pairwise_nonisomorphic(mids[1:], rng)


# ---------------------------------------------------------------------------
# theory oracles for run tors in finite type (Ingalls-Thomas,
# arXiv:math/0612219; Adachi-Iyama-Reiten, arXiv:1210.1036)

def orientations(n: int) -> list[str]:
    """Every orientation of the path 1 - 2 - ... - n, as quiver file text."""
    return [f"vertices {n}\n" + "".join(
                f"arrow {v} {v + 1}\n" if b else f"arrow {v + 1} {v}\n"
                for v, b in enumerate(bits, start=1))
            for bits in itertools.product((0, 1), repeat=n - 1)]


FINITE_ORACLES = ([("A3", text, 14) for text in orientations(3)]
                  + [("A4", text, 42) for text in orientations(4)]
                  + [("D4", (QDIR / "d4.txt").read_text(), 50)])


@pytest.mark.parametrize("kind, text, catalan", FINITE_ORACLES,
                         ids=[f"{k}-{n}" for n, (k, _, _) in enumerate(FINITE_ORACLES)])
def test_finite_tors_report_meets_the_theory(tmp_path, capsys, kind, text, catalan):
    """The run tors report against results that need no second engine: the
    class count is the W-Catalan number, the Hasse diagram is n-regular, and
    for each class T with Ext-projectives P(T) (the members X with
    Ext(X, T) = 0), |P(T)| plus the vertices outside the support of T is n,
    and the cover is a sum of modules of P(T), as its dimension vector
    shows.  Indecomposables of Dynkin type are determined by their
    dimension vectors, so the knitted modules stand for the report's."""
    path = tmp_path / "q.txt"
    path.write_text(text)
    assert main(["run", "tors", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    q = parse_quiver(text)
    n = q.n
    assert report["class_count"] == len(report["classes"]) == catalan
    degree = Counter(v for edge in report["hasse_edges"] for v in edge)
    assert sorted(degree) == list(range(catalan)) and set(degree.values()) == {n}

    by_dims = {node.dims: node.module for node in ar_quiver.knit_ar_quiver(q, 5).nodes}
    dims = [tuple(d) for d in report["universe"]]
    mods = [by_dims[d] for d in dims]
    ext = [[ext_dim(X, Y) for Y in mods] for X in mods]
    for members, cover in zip(report["classes"], report["covers"]):
        projectives = [x for x in members if not any(ext[x][y] for y in members)]
        support = {v for x in members for v in range(n) if dims[x][v]}
        assert len(projectives) + (n - len(support)) == n, members
        assert any(
            [sum(dims[x][v] for x in subset) for v in range(n)] == cover
            for r in range(len(projectives) + 1)
            for subset in itertools.combinations(projectives, r)), members


# ---------------------------------------------------------------------------
# audit of the monotone bounds of peeled_closure and of the bounded covers

A3_IN = parse_quiver("vertices 3\narrow 1 2\narrow 3 2\n")
A3_BACK = parse_quiver("vertices 3\narrow 2 1\narrow 3 2\n")


def reference_peeled_closure(u, gens) -> frozenset:
    """The unbounded loop: peel every member."""
    glist = [u.modules[g] for g in sorted(gens)]
    return frozenset(m for m in range(len(u))
                     if in_torsion_closure(glist, u.modules[m], u.hom))


def reference_bounded_cover(u, cls):
    """The cover check over the whole universe: the kept generators must
    generate cls and nothing else."""
    pruned = sorted(tors._prune(u, cls))
    kept = frozenset(pruned[k] for k in modules._drop_generated(
        [u.modules[g] for g in pruned], u.hom))
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
        def __post_init__(self):
            super().__post_init__()
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


@pytest.mark.parametrize("q", [A3_LINE, A3_OUT, A3_IN, load_quiver(QDIR / "d4.txt")],
                         ids=["a3-line", "a3-out", "a3-in", "d4"])
def test_finite_peeled_closures_match_unbounded_peeling(q):
    u = universe(q)
    lattice_check(u, enumerate_torsion_classes(u))
    assert_peeled_cache_exact(u)
    assert set(u._peeled) == set(u._closure)


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


# ---------------------------------------------------------------------------
# the finite closures skip what they already know

FINITE_CASES = pytest.mark.parametrize(
    "q", [A3_LINE, A3_BACK, A3_OUT, A3_IN, load_quiver(QDIR / "d4.txt")],
    ids=["a3-line", "a3-back", "a3-out", "a3-in", "d4"])


@FINITE_CASES
def test_middle_summands_match_decomposed_middle_terms(q):
    """The split middle term is recorded as (i, j) without a decomposition;
    every entry equals decomposing each middle term and matching its parts."""
    u = universe(q)
    rng = random.Random(1)
    nonsplit = 0
    for i in range(len(u)):
        for j in range(len(u)):
            middles = middle_terms(u.modules[i], u.modules[j], rng, hom=u.hom)
            oracle = tuple(tuple(sorted(u.match(part) for part in modules.decompose(E, rng)))
                           for E in middles)
            assert u.middle_summands(i, j) == oracle, (i, j)
            nonsplit += len(middles) - 1
    assert nonsplit > 0


@FINITE_CASES
def test_closures_carve_only_proper_traces(monkeypatch, q):
    """Generation tests and full or zero traces are decided from ranks; only
    a peeling step through a proper nonzero trace carves, once."""
    traces, carved = {}, []
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
    u = universe(q)
    enumerate_torsion_classes(u)
    assert carved
    assert len({id(tr) for tr in carved}) == len(carved)
    assert not any(tr.full or tr.zero for tr in carved)
    assert len(carved) < len(traces) / 10
