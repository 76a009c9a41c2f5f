"""A fixed computation that measures how fast the host runs at the moment.

Each child times one reference slice right after its imports, one after
`ftors.cli.main`, and one every `INTERVAL` seconds while it runs (from a
timer signal, so the slices fall inside the command's own run).  The
benchmark reports each time of a child scaled by `NOMINAL_S` over the
child's median slice: the time at the speed the host has when nothing slows
it.  A host that runs everything more slowly for a while slows the command
and the slices taken during it alike, and the scaled time stays.

A slice is Gauss-Jordan elimination mod 5 on fixed small integer matrices in
numpy, row by row in Python, followed by a pure-Python loop of about the same
length: the mix of small numpy calls and interpreter work that `ftors` does.
It is written here, not imported from `ftors`, so that no change to the
program changes it.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

P = 5
# (rows, columns, how many): mostly tiny shapes, like the Hom systems of ftors
SHAPES = ((4, 6, 150), (8, 10, 20), (16, 20, 3))
LOOP = 150_000
INTERVAL = 0.2   # seconds between slices taken while cli.main runs
# The wall time of one slice when the host does not slow it: the tenth
# percentile of 2030 slices on a 2-CPU Intel Xeon VM (Python 3.11.7, numpy
# 2.4.6) was 23.6 ms.  Times are reported in seconds at this speed.
NOMINAL_S = 0.025


def _matrices() -> list[np.ndarray]:
    rng = random.Random(1402)
    return [np.array([[rng.randrange(P) for _ in range(cols)] for _ in range(rows)],
                     dtype=np.int64)
            for rows, cols, count in SHAPES for _ in range(count)]


MATRICES = _matrices()


def _rref(a: np.ndarray) -> int:
    r = a.copy()
    nrows, ncols = r.shape
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        r[row] = (r[row] * pow(int(r[row, col]), P - 2, P)) % P
        other = np.nonzero(r[:, col])[0]
        other = other[other != row]
        if other.size:
            r[other] = (r[other] - np.outer(r[other, col], r[row])) % P
        row += 1
    return row


def _loop() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


def _slice() -> tuple[list[int], int]:
    return [_rref(m) for m in MATRICES], _loop()


EXPECTED = _slice()   # also warms the code before any timing


def measure() -> tuple[float, float]:
    """Run one slice; return its wall and CPU time in seconds."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = _slice()
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    if result != EXPECTED:
        raise RuntimeError("the reference computation gave a different result")
    return wall, cpu


class Sampler:
    """Slices taken in one process: on demand, and from a timer while running."""

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []
        self.timed_wall = 0.0   # wall time of the slices taken from the timer

    def take(self) -> None:
        self.slices.append(measure())

    def _on_timer(self, signum, frame) -> None:
        self.take()
        self.timed_wall += self.slices[-1][0]

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
