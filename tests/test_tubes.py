"""Tubes of tame quivers: regular simples, serial modules, mouth pairs."""

import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from ftors.cli import main
from ftors.ext_pairs import verify_ext_pair
from ftors.modules import (ar_translate, ext_dim, hom_dim, is_isomorphic, make_rep,
                           middle_terms, random_rep)
from ftors.quiver import VerificationError, load_quiver, parse_quiver, radical_vector, require
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
    tubes = find_regular_simples(CYCLE3, 5)
    assert len(tubes) == 1
    t = tubes[0]
    assert t.rank == 2
    assert set(t.dims) == {(1, 0, 1), (0, 1, 0)}
    total = tuple(sum(col) for col in zip(*t.dims))
    assert total == radical_vector(CYCLE3)


def test_d4tilde_three_rank2_tubes():
    tubes = find_regular_simples(D4TILDE, 5)
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
    assert find_regular_simples(KRONECKER, 5) == []


def test_tubes_need_tame_input():
    with pytest.raises(ValueError):
        find_regular_simples(parse_quiver("vertices 2\narrow 1 2\n"), 5)


def test_tube_simples_are_regular_bricks():
    for q in (CYCLE3, D4TILDE):
        for t in find_regular_simples(q, 5):
            for s in t.simples:
                assert defect(q, s.dims) == 0
                assert hom_dim(s, s) == 1
                assert ext_dim(s, s) == 0


def test_tube_order_is_the_translate():
    for q in (CYCLE3, D4TILDE):
        for t in find_regular_simples(q, 5):
            for i, s in enumerate(t.simples):
                nxt = t.simples[(i + 1) % t.rank]
                assert is_isomorphic(ar_translate(s), nxt)


def test_tube_serial_module_layers():
    t = find_regular_simples(CYCLE3, 5)[0]
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
@pytest.mark.parametrize("q", [CYCLE3, D4TILDE, A2TILDE, A5CYCLE],
                         ids=["cycle3", "d4tilde", "a2tilde", "a5cycle"])
def test_serial_object_matches_the_tube_reference(q, p, monkeypatch):
    """On every tube, for every top and every length up to the rank, the
    cycle builder returns the reference's module matrix for matrix and,
    like the reference, draws nothing: every draw of random.Random is made
    to raise."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    for name in ("random", "randrange", "getrandbits"):
        monkeypatch.setattr(random.Random, name, no_draw)
    compared = 0
    for t in find_regular_simples(q, p):
        for top in range(t.rank):
            for length in range(1, t.rank + 1):
                got = serial_object(t.simples, top, length)
                want = reference_tube_serial(t, top, length)
                assert got.dims == want.dims
                assert all(np.array_equal(x, y) for x, y in zip(got.mats, want.mats))
                compared += 1
    assert compared


def test_tube_mouth_pair_verifies():
    for q in (CYCLE3, D4TILDE):
        t = find_regular_simples(q, 5)[0]
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


def reference_module(q, p, x, rng, tries=40):
    """The brick search the tubes used to run, kept as the reference: the
    thin zero/one module if it is a brick, else the first brick among random
    samples.  A brick with a real-root dimension vector is the unique
    indecomposable with it, however it was found."""
    assert quadratic_form(q, x) == 1
    if max(x) <= 1:
        thin = make_rep(q, p, x, [[[1]] if x[ar.source] and x[ar.target]
                                  else [[0] * x[ar.source] for _ in range(x[ar.target])]
                                  for ar in q.arrows])
        if hom_dim(thin, thin) == 1:
            return thin
    for _ in range(tries):
        cand = random_rep(q, p, x, rng)
        if hom_dim(cand, cand) == 1:
            return cand
    raise AssertionError(f"no reference brick for {x} over F_{p}")


@pytest.mark.parametrize("q", TAME, ids=TAME_IDS)
def test_sum_test_picks_the_simples_of_the_hom_criterion(q):
    """A candidate is a regular simple when no smaller candidate maps into
    it: over F_7, that criterion on the reference modules selects exactly
    the dims of the tubes' simples."""
    rng = random.Random(7)
    candidates = coordinate_scan(q)
    modules = {x: reference_module(q, 7, x, rng) for x in candidates}
    want = {x for x in candidates
            if not any(sum(y) < sum(x) and hom_dim(modules[y], modules[x])
                       for y in candidates)}
    got = {d for t in find_regular_simples(q, 7) for d in t.dims}
    assert got == want


def orientations(n, edges, count, name):
    """count distinct orientations of a tree's edges, drawn from a fixed stream."""
    rng, seen = random.Random(name), []
    while len(seen) < count:
        pairs = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in edges)
        if pairs not in seen:
            seen.append(pairs)
    return [arrows(n, *pairs) for pairs in seen]


E6_EDGES = (7, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)])
E7_EDGES = (8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 8)])
E8_EDGES = (9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (3, 9)])
D6_EDGES = (7, [(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)])
ORIENTED = [(f"{name}#{k}", q)
            for name, (n, edges) in (("E6~", E6_EDGES), ("E7~", E7_EDGES),
                                     ("E8~", E8_EDGES), ("D6~", D6_EDGES))
            for k, q in enumerate(orientations(n, edges, 3, name))]


@pytest.mark.parametrize("q", [q for _, q in ORIENTED], ids=[name for name, _ in ORIENTED])
def test_tube_simples_match_the_reference_bricks(q):
    """Every tube simple built from its Dynkin support or as a translate is
    isomorphic to the reference module with its root, over F_7."""
    rng = random.Random(11)
    tubes = find_regular_simples(q, 7)
    assert tubes
    for t in tubes:
        for s in t.simples:
            assert is_isomorphic(s, reference_module(q, 7, s.dims, rng)), s.dims


def test_sincere_root_is_refused():
    """A sincere real root has no Dynkin support to build it from."""
    x = (1, 1, 2, 1, 1, 1, 1)
    assert quadratic_form(E6TILDE, x) == 1
    with pytest.raises(VerificationError, match="sincere"):
        module_for_real_root(E6TILDE, 5, x)


@pytest.mark.parametrize("seed", range(4))
def test_e8tilde_tubes_at_p5(tmp_path, capsys, seed):
    """Ranks 2, 3 and 5, each orbit summing to the radical vector; sampling
    every candidate for its Hom scan used to exhaust its tries here.  The
    run nocover report at every seed takes its cycle from the rank-2 tube."""
    tubes = find_regular_simples(E8TILDE, 5)
    assert [t.rank for t in tubes] == [2, 3, 5]
    for t in tubes:
        assert tuple(map(sum, zip(*t.dims))) == radical_vector(E8TILDE)
    path = write_quiver(E8TILDE, "e8tilde", tmp_path)
    assert main(["run", "nocover", path, "--loewy-bound", "2", "--seed", str(seed),
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["cycle"] == [list(d) for d in tubes[0].dims]


# Euclidean trees with regular simples that are not thin, and a wild tree
# whose first tame subtree is D8~ (vertex 1 dropped)
E7TILDE_ZIGZAG = arrows(8, (2, 1), (2, 3), (4, 3), (4, 5), (6, 5), (6, 7), (4, 8))
TREE10 = arrows(10, *((i, i + 1) for i in range(1, 8)), (9, 3), (10, 7))
SEED_RUNS = {"E6~": E6TILDE, "E7~": E7TILDE, "E7~zigzag": E7TILDE_ZIGZAG,
             "E8~": E8TILDE, "tree10": TREE10}


def write_quiver(q, name, tmp_path):
    path = tmp_path / f"{name}.txt"
    path.write_text(f"vertices {q.n}\n" + "".join(
        f"arrow {ar.source + 1} {ar.target + 1}\n" for ar in q.arrows))
    return str(path)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", ["E7~", "E8~"])
def test_nocover_at_small_primes(tmp_path, capsys, name, p):
    """Random samples with these regular simples' dims are rarely bricks
    over F_2 and F_3; the tubes are built without sampling, so these runs
    verify."""
    path = write_quiver(SEED_RUNS[name], name, tmp_path)
    code = main(["run", "nocover", path, "--loewy-bound", "2", "--prime", str(p)])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", list(SEED_RUNS))
def test_extpair_and_nocover_do_not_depend_on_the_seed(tmp_path, capsys, name, p):
    """run extpair and run nocover draw nothing, so seeds 0-3 give the same
    JSON bytes."""
    path = write_quiver(SEED_RUNS[name], name, tmp_path)
    for command in (["extpair"], ["nocover", "--loewy-bound", "2"]):
        reports = set()
        for seed in range(4):
            assert main(["run", *command[:1], path, *command[1:], "--prime", str(p),
                         "--seed", str(seed), "--format", "json"]) == 0
            reports.add(capsys.readouterr().out)
        assert len(reports) == 1, command
