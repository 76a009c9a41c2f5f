"""Tubes of tame quivers: regular simples, serial modules, mouth pairs."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from ftors.cli import main
from ftors.ext_pairs import verify_ext_pair
from ftors.modules import ar_translate, ext_dim, hom_dim, is_isomorphic, make_rep, middle_terms
from ftors.quiver import load_quiver, parse_quiver, radical_vector, require
from ftors.roots import defect, positive_roots, quadratic_form
from ftors.tors import serial_object
from ftors.tubes import find_regular_simples, module_for_real_root, tube_mouth_pair

CYCLE3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n")
D4TILDE = parse_quiver("vertices 5\narrow 2 1\narrow 3 1\narrow 4 1\narrow 5 1\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")
QDIR = Path(__file__).resolve().parent.parent / "quivers"
A2TILDE = load_quiver(QDIR / "a2tilde.txt")
A5CYCLE = load_quiver(QDIR / "a5cycle.txt")     # tubes of rank 2 and 3


def arrows(n, *pairs):
    return parse_quiver(f"vertices {n}\n" + "".join(f"arrow {s} {t}\n" for s, t in pairs))


A22 = arrows(4, (1, 2), (2, 4), (1, 3), (3, 4))
D4TILDE_MIXED = arrows(5, (2, 1), (3, 1), (1, 4), (1, 5))
D5TILDE = arrows(6, (1, 3), (2, 3), (3, 4), (4, 5), (4, 6))
D6TILDE = arrows(7, (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7))
# center 3, arms 2-1, 4-5, 6-7; (1,1,2,1,1,1,1) is a regular simple, not thin
E6TILDE = arrows(7, (1, 2), (2, 3), (4, 3), (5, 4), (3, 6), (6, 7))
E7TILDE = arrows(8, (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (8, 4))
E8TILDE = arrows(9, *((i, i + 1) for i in range(1, 7)), (8, 7), (9, 3))
TAME = [CYCLE3, A22, A5CYCLE, D4TILDE, D4TILDE_MIXED, D5TILDE, D6TILDE, E6TILDE, E7TILDE]
TAME_IDS = ["A(2,1)", "A(2,2)", "A(3,2)", "D4~", "D4~mixed", "D5~", "D6~", "E6~", "E7~"]


def test_cycle3_single_rank2_tube():
    """The two-and-one cycle has tube ranks 2 and 1; only rank 2 is listed.

    Oracle for the mouth: the real roots below the radical vector with zero
    defect are (1,0,1) and (0,1,0), derived by scanning the eight candidate
    0/1 vectors against the quadratic form and the defect functional by hand.
    """
    rng = random.Random(0)
    tubes = find_regular_simples(CYCLE3, 5, rng)
    assert len(tubes) == 1
    t = tubes[0]
    assert t.rank == 2
    assert set(t.dims) == {(1, 0, 1), (0, 1, 0)}
    total = tuple(sum(col) for col in zip(*t.dims))
    assert total == radical_vector(CYCLE3)


def test_d4tilde_three_rank2_tubes():
    rng = random.Random(1)
    tubes = find_regular_simples(D4TILDE, 5, rng)
    assert len(tubes) == 3
    assert all(t.rank == 2 for t in tubes)
    pairings = set()
    for t in tubes:
        assert tuple(sum(col) for col in zip(*t.dims)) == (2, 1, 1, 1, 1)
        legs = frozenset(
            frozenset(v for v in range(1, 5) if s.dims[v]) for s in t.simples)
        pairings.add(legs)
    # the three tubes pair up the four legs in the three possible ways
    want = {
        frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        frozenset({frozenset({1, 3}), frozenset({2, 4})}),
        frozenset({frozenset({1, 4}), frozenset({2, 3})}),
    }
    assert pairings == want


def test_kronecker_has_no_visible_tubes():
    # all tubes are homogeneous there, so the rank >= 2 list is empty
    assert find_regular_simples(KRONECKER, 5, random.Random(2)) == []


def test_tubes_need_tame_input():
    with pytest.raises(ValueError):
        find_regular_simples(parse_quiver("vertices 2\narrow 1 2\n"), 5,
                             random.Random(3))


def test_tube_simples_are_regular_bricks():
    rng = random.Random(4)
    for q in (CYCLE3, D4TILDE):
        for t in find_regular_simples(q, 5, rng):
            for s in t.simples:
                assert defect(q, s.dims) == 0
                assert hom_dim(s, s) == 1
                assert ext_dim(s, s) == 0


def test_tube_order_is_the_translate():
    rng = random.Random(5)
    for q in (CYCLE3, D4TILDE):
        for t in find_regular_simples(q, 5, rng):
            for i, s in enumerate(t.simples):
                nxt = t.simples[(i + 1) % t.rank]
                assert is_isomorphic(ar_translate(s), nxt)


def test_tube_serial_module_layers():
    rng = random.Random(6)
    t = find_regular_simples(CYCLE3, 5, rng)[0]
    one = serial_object(t.simples, 0, 1)
    assert one.dims == t.simples[0].dims
    two = serial_object(t.simples, 0, 2)
    assert two.dims == (1, 1, 1)
    assert hom_dim(two, two) == 1
    with pytest.raises(ValueError):
        serial_object(t.simples, 0, 0)


def reference_tube_serial(tube, top_index, length):
    """The tube's own serial builder, kept as the reference: layers from the
    top are successive translates of the top entry, built from the socle
    upward, and every step must be a one-dimensional extension space, so
    the middle term is forced."""
    r = tube.rank
    if not 1 <= length <= r:
        raise ValueError("serial length must be between 1 and the tube rank")
    layers = [tube.simples[(top_index + k) % r] for k in range(length)]
    current = layers[-1]
    for k in range(length - 2, -1, -1):
        top = layers[k]
        require(ext_dim(top, current) == 1, "serial step is not unique")
        middles = middle_terms(top, current)
        require(len(middles) == 1, "expected exactly one nonsplit middle")
        current = middles[0]
    return current


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("q, seed", [(CYCLE3, 0), (D4TILDE, 1), (A2TILDE, 2), (A5CYCLE, 3)],
                         ids=["cycle3", "d4tilde", "a2tilde", "a5cycle"])
def test_serial_object_matches_the_tube_reference(q, seed, p):
    """On every tube, for every top and every length up to the rank, the
    cycle builder returns the reference's module matrix for matrix and,
    like the reference, draws nothing from the generator."""
    compared = 0
    for t in find_regular_simples(q, p, random.Random(10 * seed + p)):
        for top in range(t.rank):
            for length in range(1, t.rank + 1):
                rng = random.Random(length)
                got = serial_object(t.simples, top, length)
                want = reference_tube_serial(t, top, length)
                assert got.dims == want.dims
                assert all(np.array_equal(x, y) for x, y in zip(got.mats, want.mats))
                assert rng.getstate() == random.Random(length).getstate()
                compared += 1
    assert compared


def test_tube_mouth_pair_verifies():
    rng = random.Random(7)
    for q in (CYCLE3, D4TILDE):
        t = find_regular_simples(q, 5, rng)[0]
        x, y = tube_mouth_pair(t)
        report = verify_ext_pair(x, y)
        assert report.ok, report.failures
        total = tuple(a + b for a, b in zip(x.dims, y.dims))
        assert total == radical_vector(q)


def coordinate_scan(q):
    """The box scan the tubes used to run: every vector between 0 and the
    radical vector, other than those two, with Tits form 1 and defect 0."""
    delta = radical_vector(q)
    out = [x for x in itertools.product(*(range(d + 1) for d in delta))
           if any(x) and x != delta and quadratic_form(q, x) == 1 and defect(q, x) == 0]
    return sorted(out, key=lambda x: (sum(x), x))


@pytest.mark.parametrize("q", TAME, ids=TAME_IDS)
def test_bounded_enumeration_matches_the_coordinate_scan(q):
    """Reflections below the radical vector reach every real root of defect
    zero that the box scan finds, in the same order."""
    delta = radical_vector(q)
    got = [x for x in positive_roots(q, below=delta) if defect(q, x) == 0]
    assert got == coordinate_scan(q)


@pytest.mark.parametrize("q", TAME, ids=TAME_IDS)
def test_sum_test_picks_the_simples_of_the_hom_criterion(q):
    """A candidate is a regular simple when no smaller candidate maps into
    it: over F_7, that criterion on sampled modules selects exactly the dims
    of the tubes' simples."""
    rng = random.Random(7)
    candidates = coordinate_scan(q)
    modules = {x: module_for_real_root(q, 7, x, rng) for x in candidates}
    want = {x for x in candidates
            if not any(sum(y) < sum(x) and hom_dim(modules[y], modules[x])
                       for y in candidates)}
    got = {d for t in find_regular_simples(q, 7, random.Random(0)) for d in t.dims}
    assert got == want


@pytest.mark.parametrize("seed", range(4))
def test_e8tilde_tubes_at_p5(seed):
    """Ranks 2, 3 and 5, each orbit summing to the radical vector; sampling
    every candidate for its Hom scan used to exhaust its tries here."""
    tubes = find_regular_simples(E8TILDE, 5, random.Random(seed))
    assert [t.rank for t in tubes] == [2, 3, 5]
    for t in tubes:
        assert tuple(map(sum, zip(*t.dims))) == radical_vector(E8TILDE)


def test_exhausted_sampling_is_inconclusive(tmp_path, capsys, monkeypatch):
    """When no sample for a non-thin regular simple is a brick, nocover exits
    3 (inconclusive) naming the root, not 5 (internal error)."""
    def zero_rep(q, p, x, rng):
        return make_rep(q, p, x, [[[0] * x[ar.source] for _ in range(x[ar.target])]
                                  for ar in q.arrows])

    monkeypatch.setattr("ftors.tubes.random_rep", zero_rep)
    path = tmp_path / "e6tilde.txt"
    path.write_text("vertices 7\n" + "".join(
        f"arrow {ar.source + 1} {ar.target + 1}\n" for ar in E6TILDE.arrows))
    code = main(["run", "nocover", str(path), "--loewy-bound", "2"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("inconclusive:") and "(1, 1, 2, 1, 1, 1, 1)" in err
