"""Acceptance gate: nine checks, one test and one pass/fail line each.

Each criterion is a single test function so the -v report carries exactly
one PASSED/FAILED line per criterion.  Budgets are wall-clock seconds and
are asserted, not just observed.
"""

import hashlib
import itertools
import random
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from ftors import linalg as la
from ftors.ar_quiver import knit_ar_quiver
from ftors.cli import main
from ftors.ext_pairs import find_ext_pair, verify_ext_pair
from ftors.modules import (
    DecompositionInconclusive,
    direct_sum,
    ext_dim,
    hom_dim,
    is_isomorphic,
    normalize,
)
from ftors.quiver import ValuedQuiver, Arrow, parse_quiver
from ftors.roots import euler_form
from ftors.tors import (
    enumerate_torsion_classes,
    find_cover,
    finite_universe,
    lattice_check,
    no_cover_evidence,
    torsion_closure,
    two_vertex_check,
)

from test_repn import base_changed
from test_tors import gen_closure

QDIR = Path(__file__).resolve().parent.parent / "quivers"

A1 = parse_quiver("vertices 1\n")
A2 = parse_quiver("vertices 2\narrow 1 2\n")
D4 = parse_quiver("vertices 4\narrow 1 2\narrow 1 3\narrow 1 4\n")
A2TILDE = parse_quiver("vertices 3\narrow 1 2\narrow 2 3\narrow 1 3\n")
TWO_TWO = parse_quiver("vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\narrow 2 3\n")
TWO_ONE = parse_quiver("vertices 3\narrow 1 2\narrow 1 2\narrow 2 3\n")
D4TILDE = parse_quiver("vertices 5\narrow 2 1\narrow 3 1\narrow 4 1\narrow 5 1\n")
KRONECKER = parse_quiver("vertices 2\narrow 1 2\narrow 1 2\n")


def a3_orientations():
    out = []
    for b1, b2 in itertools.product((0, 1), repeat=2):
        arrows = (Arrow(0, 1) if b1 else Arrow(1, 0),
                  Arrow(1, 2) if b2 else Arrow(2, 1))
        out.append(ValuedQuiver(3, arrows))
    return out


FINITE_RUNS = (A1, A2, *a3_orientations(), D4)


@lru_cache(maxsize=None)
def knitted(q):
    return knit_ar_quiver(q, 5)


def arr(m):
    """A matrix as a numpy array of its shape, for the numpy oracles."""
    return np.array(m, dtype=np.int64).reshape(m.shape)


@lru_cache(maxsize=None)
def universe(q):
    return finite_universe(q, 5)


def ext_oracle(X, Y):
    """dim Ext recomputed as the cokernel of the vertex-to-arrow map, with
    no reference to the Euler matrix."""
    q, p = X.quiver, X.p
    rows = sum(X.dims[a.source] * Y.dims[a.target] for a in q.arrows)
    cols = sum(X.dims[v] * Y.dims[v] for v in range(q.n))
    m = np.zeros((rows, cols), dtype=np.int64)
    coff = np.concatenate(
        [[0], np.cumsum([X.dims[v] * Y.dims[v] for v in range(q.n)])])
    r0 = 0
    for k, a in enumerate(q.arrows):
        nr = X.dims[a.source] * Y.dims[a.target]
        if nr:
            m[r0:r0 + nr, coff[a.target]:coff[a.target + 1]] += np.kron(
                np.eye(Y.dims[a.target], dtype=np.int64), arr(X.mats[k]).T)
            m[r0:r0 + nr, coff[a.source]:coff[a.source + 1]] -= np.kron(
                arr(Y.mats[k]), np.eye(X.dims[a.source], dtype=np.int64))
        r0 += nr
    return rows - la.rank(la.matrix(m, p, cols), p)


def test_criterion_1_euler_identity_sweep():
    start = time.monotonic()
    pairs = 0
    for q in (A2, *a3_orientations(), D4):
        mods = [n.module for n in knitted(q).nodes]
        for X in mods:
            for Y in mods:
                e = ext_oracle(X, Y)
                assert ext_dim(X, Y) == e
                assert hom_dim(X, Y) - e == euler_form(q, X.dims, Y.dims)
                pairs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {pairs} ordered pairs verified in {elapsed:.1f}s")


def test_criterion_2_torsion_class_counts():
    want = {1: 2, 2: 5, 3: 14}
    for q in (A1, A2, *a3_orientations()):
        u = universe(q)
        got, edges = enumerate_torsion_classes(u)
        oracle = []
        for bits in itertools.product((0, 1), repeat=len(u)):
            s = frozenset(i for i, b in enumerate(bits) if b)
            if gen_closure(u, s) != s:
                continue
            if all(set(parts) <= s
                   for a in s for b in s
                   for parts in u.middle_summands(a, b)):
                oracle.append(s)
        oracle.sort(key=lambda s: (len(s), sorted(s)))
        assert got == oracle
        assert len(got) == want[q.n]
        report = lattice_check(u, got, edges)
        assert report.meet_failures == ()
    print("criterion 2 PASS: counts 2/5/14 match the powerset oracle; "
          "all meets valid")


def test_criterion_3_covers_and_single_generators():
    checked = 0
    for q in FINITE_RUNS:
        u = universe(q)
        for t in enumerate_torsion_classes(u)[0]:
            cov = find_cover(u, t)
            ncov = normalize(cov)
            assert is_isomorphic(ncov, cov)
            assert ext_dim(ncov, ncov) == 0
            checked += 1
        for i, M in enumerate(u.modules):
            assert ext_dim(M, M) == 0          # finite type: all exceptional
            assert torsion_closure(u, {i}) == gen_closure(u, frozenset({i}))
    print(f"criterion 3 PASS: {checked} classes covered by self-orthogonal "
          "normal modules; single closures agree")


def test_criterion_4_normalization_uniqueness():
    pool = []
    for q in (A2, a3_orientations()[3], D4):
        pool.extend(universe(q).modules)
    picker = np.random.default_rng(4)
    changer = random.Random(4)
    agreements = 0
    inconclusive = 0
    for i in range(200):
        # pick a quiver via a base module, then up to five of its neighbors
        count = int(picker.integers(1, 6))
        base = pool[int(picker.integers(0, len(pool)))]
        same = [m for m in pool if m.quiver == base.quiver]
        picks = [same[int(picker.integers(0, len(same)))] for _ in range(count)]
        M = direct_sum(picks)
        try:
            n1 = normalize(M)
            n2 = normalize(base_changed(M, changer))
            assert is_isomorphic(n1, n2)
            agreements += 1
        except DecompositionInconclusive:
            inconclusive += 1
    assert agreements + inconclusive == 200
    assert inconclusive / 200 < 0.01, f"{inconclusive} inconclusive runs"
    print(f"criterion 4 PASS: {agreements}/200 conclusive normalizations "
          f"agree with those of a random base change; {inconclusive} inconclusive")


def test_criterion_5_ext_pair_certificates():
    start = time.monotonic()
    expect = ((A2TILDE, 2), (TWO_TWO, 3), (TWO_ONE, 4), (D4TILDE, 1))
    for q, case in expect:
        cert = find_ext_pair(q, 5)
        assert cert.case == case
        fresh = verify_ext_pair(cert.X, cert.Y)
        assert fresh.ok, (case, fresh.failures)
        if case == 4:
            assert cert.detail["truncated_translate_matches_wing"] is True
            assert cert.detail["truncation_matches_parallel_count"] is True
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"certificates took {elapsed:.1f}s"
    print(f"criterion 5 PASS: cases 2/3/4/1 certified in {elapsed:.1f}s; "
          "case 4 wing identity holds")


def test_criterion_6_finite_type_negative_control():
    searched = 0
    for q in (A2, *a3_orientations(), D4):
        mods = [n.module for n in knitted(q).nodes]
        for X in mods:
            for Y in mods:
                assert not verify_ext_pair(X, Y).ok
                searched += 1
    print(f"criterion 6 PASS: {searched} ordered pairs, zero double-extension "
          "pairs in finite type")


def test_criterion_7_filtration_no_cover_evidence():
    cert = find_ext_pair(A2TILDE, 5)
    assert cert.case == 2
    ev = no_cover_evidence((cert.X, cert.Y), 3)
    assert [w[0] for w in ev.witnesses] == [1, 2]
    # the serial object at level r stacks r+1 alternating cycle layers
    expected = {
        1: tuple(x + y for x, y in zip(cert.X.dims, cert.Y.dims)),
        2: tuple(2 * x + y for x, y in zip(cert.X.dims, cert.Y.dims)),
    }
    for r, dims, generated in ev.witnesses:
        assert dims == expected[r]
        assert generated is False
    assert ev.ok
    print(f"criterion 7 PASS: serial objects at levels 1,2 escape the lower "
          f"strata over a universe of {ev.universe_size} objects; that "
          "generation preserves the level bound is checked on modules by "
          "test_tors.py::test_generation_never_raises_the_relative_loewy_length")


def test_criterion_8_two_simples_bounded_check():
    report = two_vertex_check(KRONECKER, 5, 12, random.Random(0))
    assert report.verdict == "consistent"
    assert report.failures == ()
    assert report.class_count > 2
    print(f"criterion 8 PASS: {report.class_count} classes; "
          "every meet and join is a class")


def test_criterion_9_byte_identical_reports(tmp_path, capsys):
    runs = [
        ("classify", str(QDIR / "a2tilde.txt"), "--format", "json"),
        ("classify", str(QDIR / "kronecker.txt")),
        ("run", "knit", str(QDIR / "d4.txt"), "--format", "json"),
        ("run", "knit", str(QDIR / "a2.txt"), "--format", "dot"),
        ("run", "tors", str(QDIR / "a3.txt"), "--format", "json"),
        ("run", "tors", str(QDIR / "d4.txt"), "--format", "json"),
        ("run", "tors", str(QDIR / "d5.txt"), "--format", "json"),
        ("run", "tors", str(QDIR / "a2.txt"), "--format", "dot"),
        ("run", "tors", str(QDIR / "kronecker.txt"),
         "--format", "json", "--dim-bound", "6"),
        ("run", "extpair", str(QDIR / "a2tilde.txt"), "--format", "json"),
        ("run", "extpair", str(QDIR / "twothree.txt"), "--format", "json"),
        ("run", "extpair", str(QDIR / "twoone.txt"), "--format", "json"),
        ("run", "extpair", str(QDIR / "d4tilde.txt"), "--format", "json"),
        ("run", "nocover", str(QDIR / "a2tilde.txt"),
         "--loewy-bound", "3", "--format", "json"),
    ]
    # SHA-256 of each report, one per run above: a refactor keeps every report
    # byte for byte, and a change to a report updates its digest on purpose
    digests = [
        "a9aa7302984952406567602c08d0d4b4eb10945bf1d1e7bb649a91919df4604d",
        "053c67c374c8b71001a66d5992c95a445cd8a135f346aa62d902e018de9d142d",
        "04575dea5a64b122f7a5607b9c9390fdd96ca036b092e68efe68cb51d983a118",
        "9a07cf923499b0a9baa3945ff32722fe94581826c993f28968f40e3d244d5055",
        "e1e547e5768fd9ff2bf5ba1c7abb3822c7ffd4593c7af0e1a6d67e148ef3a9a0",
        "f6a42e887a6c4defec790c7e1ce7b8237afb4f23f94712f122ab071c9540bc8e",
        "1c20dd94c5a5c5625ccc98d61982c46d92954faea1a068855c533fc6fee50928",
        "7531ecdb82905a7023f96173aaf533fcef85978d42b616b00ed7e16529f6d539",
        "ca884826c1d210922082e23397759d69d8218c27a0ed8d5ceb090c08f8404fd0",
        "d91383e18dda72a0abd90b614bdcb35237e6071cd7d815285691f005f3c48246",
        "4f0d7c20f8ca2bc4453094c607b62da3557163aefdf60f8136e13b7025a5a651",
        "754c36db623d999f3fbc1d05d33a3ff5a5dcb4b17bf94378f181a0f18863bf5a",
        "2bc89b52cae76d221da56982f24cc170d8b51c65097f962d33f5edb8633a3303",
        "34565822b4e8706a1da5edd3334f3f77063c71fb526c2b7ee7463ca1fc4b2345",
    ]
    assert len(digests) == len(runs)
    for n, (argv, digest) in enumerate(zip(runs, digests)):
        first = tmp_path / f"{n}a.out"
        second = tmp_path / f"{n}b.out"
        code1 = main([*argv, "--out", str(first)])
        code2 = main([*argv, "--out", str(second)])
        capsys.readouterr()
        assert code1 == code2 == 0, argv
        assert first.read_bytes() == second.read_bytes(), argv
        assert hashlib.sha256(first.read_bytes()).hexdigest() == digest, argv
    print(f"criterion 9 PASS: {len(runs)} report kinds byte-identical "
          "across repeated runs and equal to their pinned digests")
