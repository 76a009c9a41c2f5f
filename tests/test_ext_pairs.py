"""Double-extension pairs: the eight checks, the four constructions."""

import random
import pytest

from ftors.ext_pairs import (
    construct_case2,
    find_ext_pair,
    shortest_cycle,
    verify_ext_pair,
)
from ftors.modules import ext_dim, hom_dim, projective, simple
from ftors.quiver import parse_quiver

A2 = parse_quiver("vertices 2\narrow 1 2\n")
A3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")
CYCLE3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n")
CYCLE5 = parse_quiver(
    "vertices 5\narrow 1 2\narrow 2 3\narrow 3 4\narrow 4 5\narrow 1 5\n")
TWO_TWO = parse_quiver("vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\narrow 2 3\n")
TWO_ONE = parse_quiver("vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\n")
D4TILDE = parse_quiver("vertices 5\narrow 2 1\narrow 3 1\narrow 4 1\narrow 5 1\n")
STAR5 = parse_quiver("vertices 6\narrow 1 2\narrow 1 3\narrow 1 4\narrow 1 5\narrow 1 6\n")
ARMS223 = parse_quiver(
    "vertices 8\narrow 1 2\narrow 2 3\narrow 1 4\narrow 4 5\n"
    "arrow 1 6\narrow 6 7\narrow 7 8\n")


def test_verify_ext_pair_number_order():
    r = verify_ext_pair(simple(A2, 5, 0), simple(A2, 5, 1))
    assert list(r.numbers) == [
        "end_x", "end_y", "ext_xx", "ext_yy",
        "hom_xy", "hom_yx", "ext_xy", "ext_yx",
    ]


def test_verify_ext_pair_finite_type_failures():
    r = verify_ext_pair(simple(A2, 5, 0), simple(A2, 5, 1))
    assert not r.ok
    assert r.failures == ("ext_yx",)
    p1 = projective(A2, 5, 0)
    r2 = verify_ext_pair(p1, p1)
    assert set(r2.failures) == {"hom_xy", "hom_yx", "ext_xy", "ext_yx"}


def test_shortest_cycle():
    assert shortest_cycle(CYCLE3) == [0, 1, 2]
    assert shortest_cycle(CYCLE5) == [0, 1, 2, 3, 4]
    assert shortest_cycle(A3) is None
    assert shortest_cycle(TWO_ONE) is None     # parallel arrows are one edge
    assert shortest_cycle(D4TILDE) is None


def test_case2_smallest_cycle():
    X, Y, detail = construct_case2(CYCLE3, 5, shortest_cycle(CYCLE3))
    assert X.dims == (1, 0, 1)
    assert Y.dims == (0, 1, 0)
    r = verify_ext_pair(X, Y)
    assert r.ok, r.failures
    assert detail["cycle"] == [1, 2, 3]
    assert sorted(detail["arc_x"] + detail["arc_y"]) == [1, 2, 3]
    # supports are complementary arcs
    assert all(X.dims[v] == 0 or Y.dims[v] == 0 for v in range(3))


def test_case2_longer_cycle():
    X, Y, _ = construct_case2(CYCLE5, 5, shortest_cycle(CYCLE5))
    assert verify_ext_pair(X, Y).ok
    assert tuple(x * y for x, y in zip(X.dims, Y.dims)) == (0, 0, 0, 0, 0)


def test_case2_heavy_edge_cycles():
    """Doubling a cycle edge keeps the construction alive: the arc modules
    become sincere exceptional modules of higher rank via universal
    extensions rather than thin modules."""
    heavy_long = parse_quiver(
        "vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\narrow 1 3\n")
    X, Y, _ = construct_case2(heavy_long, 5, shortest_cycle(heavy_long))
    r = verify_ext_pair(X, Y)
    assert r.ok, r.failures
    assert (X.dims, Y.dims) == ((1, 0, 1), (0, 1, 0))
    assert (r.numbers["ext_xy"], r.numbers["ext_yx"]) == (2, 1)

    heavy_short = parse_quiver(
        "vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\narrow 1 3\n")
    X, Y, _ = construct_case2(heavy_short, 5, shortest_cycle(heavy_short))
    r = verify_ext_pair(X, Y)
    assert r.ok, r.failures
    assert (X.dims, Y.dims) == ((2, 0, 1), (0, 1, 0))
    assert ext_dim(X, X) == 0 and hom_dim(X, X) == 1


def test_find_ext_pair_case_dispatch():
    rng = random.Random(0)
    cert = find_ext_pair(CYCLE3, 5, rng)
    assert cert.case == 2 and cert.report.ok
    assert cert.X.dims == (1, 0, 1) and cert.Y.dims == (0, 1, 0)

    cert = find_ext_pair(CYCLE5, 5, random.Random(0))
    assert cert.case == 2 and cert.report.ok

    cert = find_ext_pair(TWO_TWO, 5, random.Random(0))
    assert cert.case == 3 and cert.report.ok
    assert cert.X.dims == (0, 1, 0) and cert.Y.dims == (2, 1, 2)

    cert = find_ext_pair(TWO_ONE, 5, random.Random(0))
    assert cert.case == 4 and cert.report.ok
    assert cert.X.dims == (1, 2, 0) and cert.Y.dims == (3, 2, 2)

    cert = find_ext_pair(D4TILDE, 5, random.Random(0))
    assert cert.case == 1 and cert.report.ok
    assert sorted((cert.X.dims, cert.Y.dims)) == [(1, 0, 0, 1, 1), (1, 1, 1, 0, 0)]


def test_find_ext_pair_case1_inside_wild_trees():
    # a five-pointed star exceeds every tame bound; the pair lives on a
    # four-legged substar
    cert = find_ext_pair(STAR5, 5, random.Random(0))
    assert cert.case == 1 and cert.report.ok
    # arms (2,2,3) trim to the tame (2,2,2) star with rank 3 tubes
    cert = find_ext_pair(ARMS223, 5, random.Random(0))
    assert cert.case == 1 and cert.report.ok


def test_case4_wing_certificate():
    cert = find_ext_pair(TWO_ONE, 5, random.Random(0))
    d = cert.detail
    assert d["truncation_matches_parallel_count"] is True
    assert d["truncated_translate_matches_wing"] is True
    assert d["parallel_count"] == 2
    assert d["wing_extension_dim"] >= 1


def test_find_ext_pair_error_contract():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="representation-finite"):
        find_ext_pair(A3, 5, rng)
    with pytest.raises(ValueError, match="three vertices"):
        find_ext_pair(KRONECKER, 5, rng)


def test_all_constructed_pairs_are_bricks():
    for q in (CYCLE3, TWO_TWO, TWO_ONE, D4TILDE):
        cert = find_ext_pair(q, 5, random.Random(0))
        for M in (cert.X, cert.Y):
            assert hom_dim(M, M) == 1
            assert ext_dim(M, M) == 0
