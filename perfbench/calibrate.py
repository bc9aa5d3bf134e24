"""Fixed reference work that measures how fast the machine runs Python now.

    python3 perfbench/calibrate.py

It does not import rackhom, so no change to the program moves its time. It
does a little of what rackhom's jobs spend their time on: Gauss-Jordan
elimination of a dense list-of-lists matrix over Z/p, and accumulation into
a dict keyed by index tuples. ``run.py`` times it as a fresh process
between the jobs of a run and divides the run's job times by the ratio of
its mean time to CAL_REF_S, so that a shared host's speed drift over
minutes cancels out. It prints a checksum of its result, which ``run.py`` compares
with CHECKSUM.
"""

from __future__ import annotations

import random

P = 10007
N = 80
DICT_OPS = 60_000
CHECKSUM = 1_799_972_560


def work() -> int:
    rng = random.Random(1)
    m = [[rng.randrange(P) for _ in range(N)] for _ in range(N)]
    r = 0
    for c in range(N):
        piv = next((i for i in range(r, N) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], P - 2, P)
        m[r] = [x * inv % P for x in m[r]]
        for i in range(N):
            if i != r and m[i][c]:
                f, row = m[i][c], m[r]
                m[i] = [(a - f * b) % P for a, b in zip(m[i], row)]
        r += 1
    acc: dict[tuple[int, int], int] = {}
    for i in range(DICT_OPS):
        key = (i % 997, i % 991)
        acc[key] = acc.get(key, 0) + i
    return (sum(map(sum, m)) * 31 + sum(acc.values())) % (1 << 31) + r


if __name__ == "__main__":
    print(work())
