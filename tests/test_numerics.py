"""Euler form, Coxeter transform, root systems, defect."""

import numpy as np
import pytest
from test_quiver import DYNKIN, SEEDS, _check_coxeter_inverse, _fraction_inverse, _path, _relabeled

from ftors.quiver import QuiverError, classify_type, parse_quiver, radical_vector
from ftors.roots import (
    coxeter_matrix,
    coxeter_transform,
    defect,
    euler_form,
    euler_matrix,
    positive_roots,
    quadratic_form,
)

A2 = parse_quiver("vertices 2\narrow 1 2\n")
A3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\n")
D4 = parse_quiver("vertices 4\narrow 1 2\narrow 1 3\narrow 1 4\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")
CYCLE3 = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n")
B2 = parse_quiver("vertices 2\narrow 1 2 1 2\n")
G2 = parse_quiver("vertices 2\narrow 1 2 1 3\n")
C2TILDE = parse_quiver("vertices 3\narrow 1 2 1 2\narrow 2 3 2 1\n")
# valued Euclidean quivers, named by the valuations of their arrows
VALUED_EUCLIDEAN = {"12-21": C2TILDE} | {name: parse_quiver(text) for name, text in (
    ("14", "vertices 2\narrow 1 2 1 4\n"),
    ("22", "vertices 2\narrow 1 2 2 2\n"),
    ("11-13", "vertices 3\narrow 1 2\narrow 2 3 1 3\n"),
    ("21-12", "vertices 3\narrow 1 2 2 1\narrow 2 3 1 2\n"),
    ("12-11-21", "vertices 4\narrow 1 2 1 2\narrow 2 3\narrow 3 4 2 1\n"),
)}


def euler_oracle(q, x, y):
    """Direct formula: sum of vertex products minus sum of arrow products."""
    s = sum(a * b for a, b in zip(x, y))
    for ar in q.arrows:
        s -= ar.a * x[ar.source] * y[ar.target]
    return s


def test_euler_matrix_a2():
    assert np.array_equal(euler_matrix(A2), np.array([[1, -1], [0, 1]]))


def test_euler_matrix_valued():
    """f_i on the diagonal and -f_i a at each arrow i -> j of valuation
    (a, b), with the primitive symmetrizer f_i a = f_j b: f = (2, 1) on B2
    and (3, 1) on G2."""
    assert euler_matrix(B2) == ((2, -2), (0, 1))
    assert euler_matrix(G2) == ((3, -3), (0, 1))


def test_euler_form_matches_direct_formula():
    rng = np.random.default_rng(17)
    for q in (A2, A3, D4, KRONECKER, CYCLE3):
        for _ in range(20):
            x = tuple(int(v) for v in rng.integers(-3, 4, q.n))
            y = tuple(int(v) for v in rng.integers(-3, 4, q.n))
            assert euler_form(q, x, y) == euler_oracle(q, x, y)


def test_quadratic_form_values():
    assert quadratic_form(A2, (1, 1)) == 1
    assert quadratic_form(KRONECKER, (1, 1)) == 0
    assert quadratic_form(KRONECKER, (2, 1)) == 1
    assert quadratic_form(CYCLE3, (1, 1, 1)) == 0


def test_positive_roots_a2():
    assert set(positive_roots(A2)) == {(1, 0), (0, 1), (1, 1)}


def test_positive_roots_a3():
    want = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)}
    assert set(positive_roots(A3)) == want


def test_positive_roots_d4():
    roots = positive_roots(D4)
    assert len(roots) == 12
    # hand enumeration: center coefficient c, leg coefficients in {0, 1} <= c
    want = {(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0),
            (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
            (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1),
            (1, 1, 1, 1), (2, 1, 1, 1)}
    assert set(roots) == want
    for r in roots:
        assert quadratic_form(D4, r) == 1


ROOT_COORD_BOUND = 6   # no positive root of rank <= 8 exceeds this coordinate


def _positive_roots_reference(q):
    """The coordinate scan positive_roots used to run: every vector with
    coordinates 0..7 whose Tits form is 1.  The window reaches one past the
    bound, and no root may attain it, which certifies the window."""
    coords = np.arange(ROOT_COORD_BOUND + 2, dtype=np.int64)
    grids = np.meshgrid(*([coords] * q.n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.einsum("ij,jk,ik->i", pts, np.array(euler_matrix(q)), pts)
    roots = [tuple(int(c) for c in row) for row in pts[(vals == 1) & (pts.sum(axis=1) > 0)]]
    assert all(max(r) <= ROOT_COORD_BOUND for r in roots)
    return sorted(roots, key=lambda r: (sum(r), r))


SMALL_DYNKIN = [c for c in DYNKIN if c[2] <= 6]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("letter, rank, n, edges", SMALL_DYNKIN,
                         ids=[f"{c[0]}{c[1]}" for c in SMALL_DYNKIN])
def test_positive_roots_match_the_coordinate_scan(letter, rank, n, edges, seed):
    """Reflections from the simple roots reach exactly the roots the bounded
    scan finds, in the same order."""
    q, _ = _relabeled(n, edges, seed)
    assert positive_roots(q) == _positive_roots_reference(q)


def test_positive_roots_rejects_infinite_type():
    with pytest.raises(QuiverError):
        positive_roots(KRONECKER)


def test_coxeter_transform_a2_pinned():
    # the transform must send each indecomposable to its translate:
    # S(1) -> S(2), and projectives to minus the matching injectives
    assert coxeter_transform(A2, (1, 0)) == (0, 1)
    assert coxeter_transform(A2, (1, 1)) == (-1, 0)
    assert coxeter_transform(A2, (0, 1)) == (-1, -1)


def test_coxeter_transform_adjoint_identity():
    """<x, y> = -<y, cox(x)> for all vectors, on every sample quiver."""
    rng = np.random.default_rng(29)
    for q in (A2, A3, D4, KRONECKER, CYCLE3):
        for _ in range(20):
            x = tuple(int(v) for v in rng.integers(-3, 4, q.n))
            y = tuple(int(v) for v in rng.integers(-3, 4, q.n))
            cx = coxeter_transform(q, x)
            assert euler_form(q, x, y) == -euler_form(q, y, cx)
            assert euler_form(q, cx, coxeter_transform(q, y)) == euler_form(q, x, y)


def test_coxeter_transform_inverse_roundtrip():
    """Phi inverted over the rationals is an integer matrix that undoes
    the transform, on path and valued quivers."""
    rng = np.random.default_rng(31)
    for q in (A3, D4, CYCLE3, B2, G2, C2TILDE):
        inverse = _fraction_inverse(coxeter_matrix(q))
        assert all(x.denominator == 1 for row in inverse for x in row)
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(-4, 5, q.n))
            cx = coxeter_transform(q, x)
            assert tuple(sum(a * b for a, b in zip(row, cx)) for row in inverse) == x


def _valued_dynkin():
    """(name, n, edges, number of positive roots) of the valued Dynkin
    quivers B_n and C_n for n = 2..6 (the two directions of the valuation
    on the last edge of a path), F4 and G2, each valuation in both
    directions.  The counts are n h / 2 with h the Coxeter number of the
    Weyl group: 2n for B_n and C_n, 12 for F4, 6 for G2."""
    cases = []
    for a, b in ((1, 2), (2, 1)):
        cases += [(f"BC{n}-{a}{b}", n, _path(n - 1) + [(n - 2, n - 1, a, b)], n * n)
                  for n in range(2, 7)]
        cases.append((f"F4-{a}{b}", 4, [(0, 1), (1, 2, a, b), (2, 3)], 24))
    return cases + [(f"G2-{a}{b}", 2, [(0, 1, a, b)], 6) for a, b in ((1, 3), (3, 1))]


VALUED_DYNKIN = _valued_dynkin()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, n, edges, count", VALUED_DYNKIN,
                         ids=[c[0] for c in VALUED_DYNKIN])
def test_valued_dynkin_roots_count_the_weyl_group(name, n, edges, count, seed):
    """Every orientation of a valued Dynkin quiver has n h / 2 positive
    roots, each with the form f_v of some simple root, and its Coxeter
    matrix matches -E^-1 E^T over the rationals."""
    q, _ = _relabeled(n, edges, seed)
    assert classify_type(q).representation_finite
    roots = positive_roots(q)
    assert len(roots) == len(set(roots)) == count
    diagonal = {euler_matrix(q)[v][v] for v in range(n)}
    assert all(quadratic_form(q, r) in diagonal for r in roots)
    _check_coxeter_inverse(q)


@pytest.mark.parametrize("q", [_relabeled(n, edges, 1)[0] for _, n, edges, _ in VALUED_DYNKIN]
                         + list(VALUED_EUCLIDEAN.values()),
                         ids=[c[0] for c in VALUED_DYNKIN] + list(VALUED_EUCLIDEAN))
def test_valued_coxeter_transform_identities(q):
    """<y, Phi x> = -<x, y> and <Phi x, Phi y> = <x, y> on valued input."""
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = tuple(int(v) for v in rng.integers(-3, 4, q.n))
        y = tuple(int(v) for v in rng.integers(-3, 4, q.n))
        cx, cy = coxeter_transform(q, x), coxeter_transform(q, y)
        assert euler_form(q, y, cx) == -euler_form(q, x, y)
        assert euler_form(q, cx, cy) == euler_form(q, x, y)


@pytest.mark.parametrize("q", VALUED_EUCLIDEAN.values(), ids=VALUED_EUCLIDEAN)
def test_valued_euclidean_radical_and_defect(q):
    """On a valued Euclidean quiver delta is isotropic with defect 0, the
    defect is Phi-invariant, the real roots below delta keep the forms f_v,
    and Phi matches its rational oracle."""
    assert classify_type(q).tame
    delta = radical_vector(q)
    assert quadratic_form(q, delta) == 0 and defect(q, delta) == 0
    rng = np.random.default_rng(47)
    for _ in range(15):
        x = tuple(int(v) for v in rng.integers(-3, 4, q.n))
        assert defect(q, coxeter_transform(q, x)) == defect(q, x)
    diagonal = {euler_matrix(q)[v][v] for v in range(q.n)}
    roots = positive_roots(q, below=delta)
    assert delta not in roots
    assert all(quadratic_form(q, r) in diagonal for r in roots)
    _check_coxeter_inverse(q)


def test_defect_vanishes_on_radical_and_is_coxeter_invariant():
    rng = np.random.default_rng(37)
    for q in (KRONECKER, CYCLE3):
        delta = radical_vector(q)
        assert defect(q, delta) == 0
        for _ in range(15):
            x = tuple(int(v) for v in rng.integers(-3, 4, q.n))
            assert defect(q, coxeter_transform(q, x)) == defect(q, x)


def test_defect_sign_on_projectives():
    from ftors.quiver import projective_dimvec

    for q in (KRONECKER, CYCLE3):
        vals = [defect(q, projective_dimvec(q, v)) for v in range(q.n)]
        assert all(d <= 0 for d in vals)
        assert any(d < 0 for d in vals)


def test_defect_needs_tame_input():
    with pytest.raises(QuiverError):
        defect(A2, (1, 0))


def test_classification_agrees_with_root_growth():
    # finite type iff the quadratic form is positive on every nonzero vector
    # sampled here; tame admits the isotropic radical vector
    rng = np.random.default_rng(41)
    for q, finite in ((A3, True), (D4, True), (KRONECKER, False), (CYCLE3, False)):
        assert classify_type(q).representation_finite is finite
        for _ in range(25):
            x = tuple(int(v) for v in rng.integers(-3, 4, q.n))
            if finite and any(x):
                assert quadratic_form(q, x) >= 1
