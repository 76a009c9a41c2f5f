"""Workload inputs made from the seed, and the checks on every verdict.

Each round of a workload is a fixed list of `ftors` commands with
`--prime 5` (one with `--prime 3`, see TWOTHREE_PRIME), the same in every
round of a run.  Every command is short (at most a few seconds), so a run of
`--seconds` holds many rounds and the median over them is steady on a noisy
host.

The seed changes the quiver files, never the amount of work.  On
`finite-exact` it relabels the vertices of each quiver and shuffles its arrow
lines, and it picks the orientations of the quivers that are only knitted.
On the other workloads it only shuffles the arrow lines: there the vertex
numbering changes the work (renumbered twothree makes 10.9k or 15.4k `rref`
calls in `nocover`, the reversed Kronecker quiver 43.6k instead of 48.3k).
The orientation classes that `run tors` sees are fixed, one command per
class, because the class changes the work (A3 tors spans 11.4k to 12.1k
`rref` calls over its orientations, and D4 tors 256k to 282k).  The seed is
passed on as `--seed`, except on `bounded-kronecker`: there ftors always gets
`--seed 0`, because the seed decides which regular modules the bounded check
samples, and that alone changes the work by up to 20%.

The checks use results from the theory, not the program's second engine:
class counts of the torsion-class poset are W-Catalan numbers (Ingalls and
Thomas, arXiv:math/0612219), its Hasse diagram is n-regular (Adachi, Iyama
and Reiten, arXiv:1210.1036), knitting yields one module per positive root,
two simple modules imply a lattice, and certificates report `verified`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from tracer import ALL, CERTIFICATES, FINITE, KRONECKER

PRIME = 5


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]   # a failure message, or None


def quiver_text(n: int, arrows) -> str:
    return f"vertices {n}\n" + "".join(f"arrow {s} {t}\n" for s, t in arrows)


def orient(rng: random.Random, edges):
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in edges]


def shuffled(rng: random.Random, arrows):
    """The same quiver with its arrow lines reordered."""
    arrows = list(arrows)
    rng.shuffle(arrows)
    return arrows


def relabel(rng: random.Random, n: int, arrows):
    """The same quiver with its vertices renumbered and its arrows reordered."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    arrows = [(perm[s - 1], perm[t - 1]) for s, t in arrows]
    rng.shuffle(arrows)
    return arrows


# ---------------------------------------------------------------------------
# checks

def w_catalan(exponents, coxeter: int) -> int:
    value = Fraction(1)
    for e in exponents:
        value *= Fraction(coxeter + e + 1, e + 1)
    assert value.denominator == 1
    return int(value)


# Dynkin type -> (number of vertices, exponents, Coxeter number)
DYNKIN = {
    "A3": (3, (1, 2, 3), 4),
    "D4": (4, (1, 3, 5, 3), 6),
    "E6": (6, (1, 4, 5, 7, 8, 11), 12),
}


def tors_check(kind: str) -> Callable[[dict], str | None]:
    n, exponents, h = DYNKIN[kind]
    classes = w_catalan(exponents, h)

    def check(report: dict) -> str | None:
        edges = n * classes // 2
        if report.get("class_count") != classes:
            return f"{kind}: class_count {report.get('class_count')}, W-Catalan is {classes}"
        if report.get("edge_count") != edges:
            return f"{kind}: edge_count {report.get('edge_count')}, n-regular needs {edges}"
        degree = [0] * classes
        for a, b in report.get("hasse_edges", []):
            degree[a] += 1
            degree[b] += 1
        if set(degree) != {n}:
            return f"{kind}: Hasse diagram is not {n}-regular"
        if report.get("is_lattice") is not True:
            return f"{kind}: is_lattice is {report.get('is_lattice')}"
        return None
    return check


def knit_check(kind: str, arrows) -> Callable[[dict], str | None]:
    n, exponents, h = DYNKIN[kind]

    def tits(x) -> int:
        return sum(c * c for c in x) - sum(x[s - 1] * x[t - 1] for s, t in arrows)

    def check(report: dict) -> str | None:
        dims = [tuple(m["dim"]) for m in report.get("modules", [])]
        if len(dims) != n * h // 2:
            return f"{kind}: knitted {len(dims)} modules, {kind} has {n * h // 2} positive roots"
        if len(set(dims)) != len(dims) or any(tits(x) != 1 for x in dims):
            return f"{kind}: knitted dimension vectors are not the positive roots"
        return None
    return check


def field_check(key: str, expected) -> Callable[[dict], str | None]:
    def check(report: dict) -> str | None:
        if report.get(key) != expected:
            return f"{key} is {report.get(key)!r}, expected {expected!r}"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads

# Orientation classes of A3 up to renumbering: a path, a sink in the middle,
# a source in the middle.  Each round runs `run tors` on all three.
A3_CLASSES = {
    "path": [(1, 2), (2, 3)],
    "sink": [(1, 2), (3, 2)],
    "source": [(2, 1), (2, 3)],
}
D4_EDGES = [(1, 2), (1, 3), (1, 4)]
E6_EDGES = [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]
KRONECKER_DIM_BOUND = 8

# The certificate quivers of quivers/, renumbered by the seed.  Their
# orientation decides which construction runs, and other orientations of the
# same graphs can leave the time budget (twoone at Loewy bound 2 runs for
# minutes), so it is kept.
CERT_QUIVERS = {
    "twothree": (3, [(1, 2), (1, 2), (2, 3), (2, 3)]),
    "a2tilde": (3, [(1, 2), (2, 3), (1, 3)]),
}


KRONECKER_FTORS_SEED = 0
# `nocover` on twothree at Loewy bound 2 enumerates every middle term of its
# extensions, about p^d of them: over F_5 it makes 3.4k `is_isomorphic` calls
# in about 5 s, too long a sample on a noisy host; over F_3, 615 calls in 1 s.
TWOTHREE_PRIME = 3


def commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of one round; quiver files are written to workdir."""
    rng = random.Random(f"{workload}:{seed}")
    ftors_seed = KRONECKER_FTORS_SEED if workload == KRONECKER else seed

    def write(name: str, n: int, arrows) -> str:
        path = workdir / f"{workload}-{seed}-{name}.txt"
        path.write_text(quiver_text(n, arrows), encoding="utf-8")
        return str(path)

    verified = field_check("verified", True)
    if workload == FINITE:
        cmds = [(f"tors a3 {name}", ["run", "tors", write(f"a3-{name}", 3, relabel(rng, 3, arrows))],
                 tors_check("A3")) for name, arrows in A3_CLASSES.items()]
        for kind, n, edges in (("D4", 4, D4_EDGES), ("E6", 6, E6_EDGES)):
            arrows = relabel(rng, n, orient(rng, edges))
            cmds.append((f"knit {kind.lower()}", ["run", "knit", write(kind.lower(), n, arrows)],
                         knit_check(kind, arrows)))
    elif workload == KRONECKER:
        kronecker = write("kronecker", 2, [(1, 2), (1, 2)])
        cmds = [("tors kronecker", ["run", "tors", kronecker,
                                    "--dim-bound", str(KRONECKER_DIM_BOUND)],
                 field_check("verdict", "consistent"))]
    elif workload == CERTIFICATES:
        path = {name: write(name, n, shuffled(rng, arrows))
                for name, (n, arrows) in CERT_QUIVERS.items()}
        cmds = [("extpair twothree", ["run", "extpair", path["twothree"]], verified),
                ("nocover a2tilde", ["run", "nocover", path["a2tilde"]], verified),
                ("nocover twothree", ["run", "nocover", path["twothree"], "--loewy-bound", "2",
                                      "--prime", str(TWOTHREE_PRIME)], verified)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(ALL)}")
    return [Command(label, (*argv, *([] if "--prime" in argv else ["--prime", str(PRIME)]),
                            "--seed", str(ftors_seed)), check)
            for label, argv, check in cmds]
