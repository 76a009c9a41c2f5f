"""Euler form, Coxeter transform, root systems, defect."""

import numpy as np
import pytest
from test_quiver import DYNKIN, SEEDS, _relabeled

from ftors.quiver import QuiverError, classify_type, parse_quiver, radical_vector
from ftors.roots import (
    _int_inverse,
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


def euler_oracle(q, x, y):
    """Direct formula: sum of vertex products minus sum of arrow products."""
    s = sum(a * b for a, b in zip(x, y))
    for ar in q.arrows:
        s -= ar.a * x[ar.source] * y[ar.target]
    return s


def test_euler_matrix_a2():
    assert np.array_equal(euler_matrix(A2), np.array([[1, -1], [0, 1]]))


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
    rng = np.random.default_rng(31)
    for q in (A3, D4, CYCLE3):
        inverse = np.array(_int_inverse(coxeter_matrix(q)))
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(-4, 5, q.n))
            assert tuple(int(v) for v in inverse @ coxeter_transform(q, x)) == x


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
