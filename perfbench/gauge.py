"""The machine's speed, gauged by a fixed computation in a separate process.

The reference machine (README.md) shares its cores with other machines, and
the same pure-Python code runs up to 40% slower or faster for seconds to
minutes at a time. The benchmark therefore times, next to its answers, a
fixed piece of pure-Python rational arithmetic (Gauss-Jordan elimination on
a fixed matrix of Fractions, the kind of work the solver and the oracle do)
and scales each answer's time by how fast the gauge ran around it.

The gauge runs in a child process, so that nothing the program under test
does to its own process (threads, garbage, tracing hooks) slows the gauge
and hides a regression. `python3 perfbench/gauge.py` serves one timing per
line read from stdin and exits at end of input.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

SIZE = 7
# Eliminations per sample: about 10 ms on the reference machine.
REPEAT = 5


def eliminate():
    """Gauss-Jordan elimination of a fixed SIZE x SIZE rational matrix."""
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + j) % 5 + 1)
             for j in range(SIZE)] + [Fraction(i + 1)] for i in range(SIZE)]
    for col in range(SIZE):
        pivot = next(r for r in range(col, SIZE) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = [x / rows[col][col] for x in rows[col]]
        rows[col] = top
        for r in range(SIZE):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], top)]
    return [row[-1] for row in rows]


def serve():
    for _ in sys.stdin:
        t0 = time.perf_counter()
        for _ in range(REPEAT):
            eliminate()
        print(time.perf_counter() - t0, flush=True)


class Gauge:
    """A running gauge process; `sample()` times REPEAT eliminations in it."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def sample(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the gauge process ended early")
        return float(line)

    def close(self):
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()


if __name__ == "__main__":
    serve()
