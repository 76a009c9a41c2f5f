"""Quiver parsing, validation, classification, reflections."""

import json
from fractions import Fraction

import numpy as np
import pytest

from ftors.quiver import (
    Arrow,
    QuiverError,
    ValuedQuiver,
    classify_type,
    parse_quiver,
    parse_quiver_json,
    quiver_to_json,
    radical_vector,
    reflect_at,
    subquiver_restrict,
    topological_order,
    underlying_edges,
    valuation_v,
)
from ftors.roots import coxeter_matrix, euler_matrix, positive_roots, quadratic_form

A2 = "vertices 2\narrow 1 2\n"
A3 = "vertices 3\narrow 1 2\narrow 2 3\n"
D4 = "vertices 4\narrow 1 2\narrow 1 3\narrow 1 4\n"
KRONECKER = "vertices 2\narrow 1 2\narrow 1 2\n"
CYCLE3 = "vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n"
TWO_TWO = "vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\narrow 2 3\n"
TWO_ONE = "vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\n"
D4TILDE = "vertices 5\narrow 2 1\narrow 3 1\narrow 4 1\narrow 5 1\n"


def test_parse_text_basic():
    q = parse_quiver(A3)
    assert q.n == 3
    assert q.m == 2
    assert [(a.source, a.target) for a in q.arrows] == [(0, 1), (1, 2)]
    assert q.is_path_algebra()


def test_parse_text_comments_and_valued_arrows():
    q = parse_quiver("# cmt\nvertices 2\narrow 1 2 1 2  # tail\n")
    assert q.arrows[0].a == 1 and q.arrows[0].b == 2
    assert not q.is_path_algebra()


def test_parse_text_errors():
    for text in (
            "arrow 1 2\n",                       # arrow before vertices
            "vertices 2\nvertices 2\n",          # duplicate directive
            "vertices 2\narrow 1\n",             # wrong arity
            "vertices 2\narrow 1 3\n",           # out of range
            "vertices 2\nfoo 1 2\n",             # unknown directive
            "vertices x\n",
            "",
    ):
        with pytest.raises(QuiverError):
            parse_quiver(text)


def test_quiver_validation_errors():
    for n, arrows, message in (
            (2, (Arrow(0, 0),), "loop at vertex 1 is not allowed"),
            (2, (Arrow(0, 1), Arrow(1, 0)), "the quiver has an oriented cycle"),
            (4, (Arrow(0, 1), Arrow(2, 3)), "the underlying graph is not connected"),
            (2, (Arrow(0, 1, 0, 1),),
             "arrow Arrow(source=0, target=1, a=0, b=1) has a non-positive valuation"),
            (2, (Arrow(0, 2),), "arrow Arrow(source=0, target=2, a=1, b=1) out of vertex range"),
            (0, (), "a quiver needs at least one vertex"),
    ):
        with pytest.raises(QuiverError) as exc:
            ValuedQuiver(n, arrows)
        assert str(exc.value) == message


def test_value_records_compare_and_hash_like_their_field_tuples():
    """Arrows, quivers, types and subquivers are values: records with equal
    fields are equal and hash alike, as their field tuples do, whatever
    order the arrows came in; arrows sort as (source, target, a, b); and
    the repr, which QuiverError messages quote, names every field."""
    arrows = [Arrow(1, 2), Arrow(0, 2, 1, 2), Arrow(0, 1), Arrow(0, 2), Arrow(0, 2, 2, 1)]

    def key(ar):
        return ar.source, ar.target, ar.a, ar.b

    assert [key(ar) for ar in sorted(arrows)] == sorted(map(key, arrows))
    assert Arrow(0, 2) <= Arrow(0, 2) < Arrow(0, 2, 1, 2) and Arrow(1, 0) >= Arrow(0, 5)
    for ar in arrows:
        assert ar == Arrow(*key(ar)) and hash(ar) == hash(Arrow(*key(ar))) == hash(key(ar))
    assert Arrow(0, 1) != Arrow(0, 1, 1, 2) and Arrow(0, 1) != (0, 1, 1, 1)
    assert repr(Arrow(0, 1)) == "Arrow(source=0, target=1, a=1, b=1)"

    q, same = parse_quiver(A3), ValuedQuiver(3, (Arrow(1, 2), Arrow(0, 1)))
    assert q == same and q is not same and q != q.reverse()
    assert hash(q) == hash(same) == hash((3, (Arrow(0, 1), Arrow(1, 2))))
    assert len({q, same, q.reverse()}) == 2
    assert repr(same) == ("ValuedQuiver(n=3, arrows=(Arrow(source=0, target=1, a=1, b=1), "
                          "Arrow(source=1, target=2, a=1, b=1)))")

    t = classify_type(q)
    assert t == classify_type(parse_quiver("vertices 3\narrow 2 1\narrow 2 3\n"))
    assert t != classify_type(parse_quiver(D4))
    assert hash(t) == hash(("dynkin", "A", 3, True, False))
    assert repr(t) == ("QuiverType(family='dynkin', letter='A', rank=3, "
                       "representation_finite=True, tame=False)")

    sub = subquiver_restrict(q, [2, 1])
    assert sub == subquiver_restrict(same, [1, 2]) != subquiver_restrict(q, [0, 1])
    assert hash(sub) == hash((q, parse_quiver(A2), (1, 2), (1,)))
    assert repr(sub) == (f"Subquiver(ambient={q!r}, quiver={parse_quiver(A2)!r}, "
                         "vertex_map=(1, 2), arrow_map=(1,))")


def test_json_roundtrip_matches_text():
    q = parse_quiver(CYCLE3)
    q2 = parse_quiver_json(quiver_to_json(q))
    assert q2 == q
    q3 = parse_quiver_json(json.dumps({"vertices": 3, "arrows": [[1, 2], [2, 3], [1, 3]]}))
    assert q3 == q


def test_json_errors():
    with pytest.raises(QuiverError):
        parse_quiver_json("{not json")
    with pytest.raises(QuiverError):
        parse_quiver_json({"vertices": 2})
    with pytest.raises(QuiverError):
        parse_quiver_json({"vertices": 2, "arrows": [[1]]})
    with pytest.raises(QuiverError):
        parse_quiver_json({"vertices": 2, "arrows": [[1, 5]]})

    # JSON true is an int to isinstance, and an `arrows` that is no list is
    # refused before it is iterated
    for data in ({"vertices": True, "arrows": []}, {"vertices": 2, "arrows": [[2, True]]},
                 {"vertices": 2, "arrows": [[1, 2, True, 1]]},
                 {"vertices": 2, "arrows": [[1, 2, 1, True]]}, {"vertices": 3, "arrows": 5},
                 {"vertices": 3, "arrows": None}, {"vertices": 3, "arrows": "12"}):
        for form in (data, json.dumps(data)):
            with pytest.raises(QuiverError):
                parse_quiver_json(form)


def test_classify_finite_types():
    assert classify_type(parse_quiver("vertices 1\n")).display() == "A1"
    assert classify_type(parse_quiver(A2)).display() == "A2"
    for text in (A3, "vertices 3\narrow 2 1\narrow 2 3\n",
                 "vertices 3\narrow 1 2\narrow 3 2\n"):
        t = classify_type(parse_quiver(text))
        assert t.display() == "A3"
        assert t.representation_finite and not t.tame
    assert classify_type(parse_quiver(D4)).display() == "D4"


def test_classify_tame_types():
    for text, name in ((KRONECKER, "A~1"), (CYCLE3, "A~2"), (D4TILDE, "D~4")):
        t = classify_type(parse_quiver(text))
        assert t.display() == name
        assert t.tame and not t.representation_finite


def test_classify_wild_types():
    for text in (TWO_TWO, TWO_ONE, "vertices 2\narrow 1 2\narrow 1 2\narrow 1 2\n"):
        t = classify_type(parse_quiver(text))
        assert t.family == "wild"
        assert not t.representation_finite and not t.tame


def test_classify_valued_tame():
    # one arrow with valuation (1, 4) symmetrizes to the same form as two
    # parallel arrows, so the type is tame but carries no path algebra letter
    t = classify_type(ValuedQuiver(2, (Arrow(0, 1, 1, 4),)))
    assert t.family == "euclidean" and t.letter is None
    assert "valued" in t.display()


def test_valuation_v_counts_arrow_products():
    q = parse_quiver(KRONECKER)
    assert valuation_v(q, 0, 1) == 4          # (1+1) * (1+1) for the double arrow
    q2 = parse_quiver(A2)
    assert valuation_v(q2, 0, 1) == 1
    assert valuation_v(q2, 1, 0) == 0         # no arrows that way
    vq = ValuedQuiver(2, (Arrow(0, 1, 2, 3),))
    assert valuation_v(vq, 0, 1) == 6


def test_underlying_edges_merge_parallels():
    q = parse_quiver(TWO_TWO)
    assert dict(underlying_edges(q)) == {
        frozenset({0, 1}): (0, 1),
        frozenset({1, 2}): (2, 3),
    }


def test_radical_vector_tame_cases():
    assert radical_vector(parse_quiver(KRONECKER)) == (1, 1)
    assert radical_vector(parse_quiver(CYCLE3)) == (1, 1, 1)
    assert radical_vector(parse_quiver(D4TILDE)) == (2, 1, 1, 1, 1)
    with pytest.raises(QuiverError):
        radical_vector(parse_quiver(A2))


def test_topological_order_respects_arrows():
    q = parse_quiver(CYCLE3)
    order = topological_order(q)
    pos = {v: i for i, v in enumerate(order)}
    assert sorted(order) == [0, 1, 2]
    for a in q.arrows:
        assert pos[a.source] < pos[a.target]


def test_reflect_at_flips_incident_arrows():
    q = parse_quiver(A3)
    r = reflect_at(q, 2)                      # vertex 3 is a sink
    assert [(a.source, a.target) for a in r.arrows] == [(0, 1), (2, 1)]
    rr = reflect_at(r, 2)
    assert rr == q
    with pytest.raises(QuiverError):
        reflect_at(q, 1)                      # interior vertex, neither end


def test_subquiver_restrict():
    q = parse_quiver(D4)
    sub = subquiver_restrict(q, [0, 1])
    assert sub.quiver.n == 2
    assert sub.quiver.m == 1
    # vertex maps are mutually inverse on the kept set
    for small in range(sub.quiver.n):
        assert sub.new_vertex(sub.old_vertex(small)) == small
    assert q.arrows[sub.old_arrow(0)].target == sub.old_vertex(1)
    with pytest.raises(QuiverError):
        subquiver_restrict(q, [1, 2])         # drops the joining vertex


# ---------------------------------------------------------------------------
# classification against the theory: Dynkin, Euclidean and wild graphs under
# seeded relabelings and orientations

def _path(n):
    return [(v, v + 1) for v in range(n - 1)]


def _star(*arms):
    """Tree with center 0 and one path per arm length."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return edges


def _dtilde(n):
    """n + 1 vertices: a path of n - 3 vertices with two leaves at each end."""
    core = n - 3
    return _path(core) + [(0, core), (0, core + 1),
                          (core - 1, core + 2), (core - 1, core + 3)]


DYNKIN = (
    [("A", n, n, _path(n)) for n in range(1, 9)]
    + [("D", n, n, _path(n - 1) + [(n - 3, n - 1)]) for n in range(4, 9)]
    + [("E", n, n, _path(n - 1) + [(2, n - 1)]) for n in (6, 7, 8)]
)
EUCLIDEAN = (
    [("A", 1, 2, [(0, 1), (0, 1)])]
    + [("A", n, n + 1, _path(n + 1) + [(0, n)]) for n in range(2, 6)]
    + [("D", 4, 5, _star(1, 1, 1, 1))]
    + [("D", n, n + 1, _dtilde(n)) for n in range(5, 8)]
    + [("E", 6, 7, _star(2, 2, 2)), ("E", 7, 8, _path(7) + [(3, 7)]),
       ("E", 8, 9, _path(8) + [(2, 8)])]
)
WILD = [(sum(arms) + 1, _star(*arms)) for arms in ((1, 2, 6), (1, 3, 4), (2, 2, 3))]
WILD.append((2, [(0, 1)] * 3))
COXETER_NUMBER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
                  "E": lambda n: {6: 12, 7: 18, 8: 30}[n]}
SEEDS = (1, 2)


def _relabeled(n, edges, seed, valuation=(1, 1)):
    """The graph under a seeded vertex relabeling, each edge oriented along a
    seeded linear order (so never an oriented cycle); returns the quiver and
    the relabeling old -> new.  An edge (u, v, a, b) carries its own
    valuation."""
    rng = np.random.default_rng(seed)
    label = [int(x) for x in rng.permutation(n)]
    rank = [int(x) for x in rng.permutation(n)]
    arrows = []
    for u, v, *own in edges:
        ar = Arrow(label[u], label[v], *(own or valuation))
        arrows.append(ar if rank[u] < rank[v] else ar.reversed())
    return ValuedQuiver(n, tuple(arrows)), label


def _fraction_inverse(m):
    """Gauss-Jordan inverse of a square integer matrix over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _check_coxeter_inverse(q):
    """Phi equals -E^-1 E^T, with E inverted over the rationals, and Phi is
    unimodular: its rational inverse has integer entries."""
    e = euler_matrix(q)
    e_inv = _fraction_inverse(e)
    want = [[-sum(e_inv[i][k] * e[j][k] for k in range(q.n)) for j in range(q.n)]
            for i in range(q.n)]
    assert [list(row) for row in coxeter_matrix(q)] == want
    assert all(x.denominator == 1 for row in _fraction_inverse(coxeter_matrix(q)) for x in row)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("letter, rank, n, edges", DYNKIN,
                         ids=[f"{c[0]}{c[1]}" for c in DYNKIN])
def test_classify_dynkin_against_theory(letter, rank, n, edges, seed):
    q, _ = _relabeled(n, edges, seed)
    t = classify_type(q)
    assert (t.family, t.letter, t.rank) == ("dynkin", letter, rank)
    assert t.representation_finite and not t.tame
    _check_coxeter_inverse(q)
    assert len(positive_roots(q)) == n * COXETER_NUMBER[letter](n) // 2


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("letter, rank, n, edges", EUCLIDEAN,
                         ids=[f"{c[0]}~{c[1]}" for c in EUCLIDEAN])
def test_classify_euclidean_against_theory(letter, rank, n, edges, seed):
    q, _ = _relabeled(n, edges, seed)
    t = classify_type(q)
    assert (t.family, t.letter, t.rank) == ("euclidean", letter, rank)
    assert t.tame and not t.representation_finite
    delta = radical_vector(q)
    assert min(delta) > 0 and quadratic_form(q, delta) == 0
    _check_coxeter_inverse(q)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, edges, delta", [
    (8, _path(7) + [(3, 7)], (1, 2, 3, 4, 3, 2, 1, 2)),
    (9, _path(8) + [(2, 8)], (2, 4, 6, 5, 4, 3, 2, 1, 3)),
], ids=["E~7", "E~8"])
def test_radical_vector_pinned(n, edges, delta, seed):
    q, label = _relabeled(n, edges, seed)
    got = radical_vector(q)
    assert tuple(got[label[v]] for v in range(n)) == delta


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("valuation, family", [
    ((1, 2), "dynkin"), ((1, 3), "dynkin"), ((1, 4), "euclidean"),
    ((2, 2), "euclidean"), ((1, 5), "wild"),
])
def test_classify_valued_against_theory(valuation, family, seed):
    q, _ = _relabeled(2, [(0, 1)], seed, valuation)
    t = classify_type(q)
    assert (t.family, t.letter, t.rank) == (family, None, None)
    assert t.representation_finite == (family == "dynkin")
    assert t.tame == (family == "euclidean")
    _check_coxeter_inverse(q)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n, edges", WILD,
                         ids=["T(2,3,7)", "T(2,4,5)", "T(3,3,4)", "3-Kronecker"])
def test_classify_wild_against_theory(n, edges, seed):
    q, _ = _relabeled(n, edges, seed)
    t = classify_type(q)
    assert (t.family, t.letter, t.rank) == ("wild", None, None)
    assert not t.representation_finite and not t.tame
    _check_coxeter_inverse(q)
