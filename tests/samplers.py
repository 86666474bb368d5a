"""Seeded samplers of Bott matrices, as lists of row bitmasks.

Bit j of rows[i] is the entry a_ij (0-based).  The samplers import
nothing from rbott, least of all the generic spin referee
(rbott.pmatrix, rbott.f2poly), so the tests that check the fast paths
against that referee do not check them against themselves.
"""

from __future__ import annotations

import random


def uniform_rows(n: int, rng: random.Random) -> list[int]:
    """Every above-diagonal entry an independent fair bit."""
    return [rng.getrandbits(n - i - 1) << (i + 1) if i < n - 1 else 0 for i in range(n)]


def kahler_rows(n: int, rng: random.Random) -> list[int]:
    """A Kähler matrix for even n: the columns, in random pairs, share values.

    Column j may only hold bits below j, so a pair {a, b} takes a value
    below 2^min(a, b).  Half of the pairs reuse an earlier pair's value
    where it fits, so equality classes of four or more columns occur.
    """
    cols = list(range(n))
    rng.shuffle(cols)
    values: list[int] = []
    columns = [0] * n
    for a, b in zip(cols[::2], cols[1::2]):
        low = min(a, b)
        fits = [v for v in values if v < 1 << low]
        v = rng.choice(fits) if fits and rng.random() < 0.5 else rng.getrandbits(low)
        values.append(v)
        columns[a] = columns[b] = v
    return [sum((c >> i & 1) << j for j, c in enumerate(columns)) for i in range(n)]


def _solution(space: int, constraints: list[int], rng: random.Random) -> int:
    """A uniform random x within the bits of ``space`` with |x AND c| even
    for every c in ``constraints`` (each a subset of ``space``)."""
    basis: list[tuple[int, int]] = []  # (pivot bit, vector), fully reduced
    for c in constraints:
        for p, b in basis:
            if c >> p & 1:
                c ^= b
        if c:
            p = c.bit_length() - 1
            basis = [(q, b ^ c if b >> p & 1 else b) for q, b in basis]
            basis.append((p, c))
    x = rng.getrandbits(space.bit_length()) & space
    # each pivot bit sits in one basis vector only: fix them one by one
    for p, b in basis:
        if (x & b).bit_count() % 2:
            x ^= 1 << p
    return x


def spin_biased_rows(n: int, rng: random.Random) -> list[int]:
    """Rows drawn bottom-up, each a random solution of its linear constraints.

    Once the rows below row i are fixed, the closed-form spin criterion
    is linear in row i: |r_i| even and |r_i AND t_j| even for j > i,
    where t_j = r_j xor (((|r_j| >> 1) & 1) << j).  Drawing every row
    that way aims at spin matrices; with probability 1/2 one entry is
    then flipped, which usually breaks spin.
    """
    rows = [0] * n
    ts: list[int] = []
    for i in range(n - 2, -1, -1):
        space = ((1 << n) - 1) & ~((2 << i) - 1)
        t = rows[i + 1] ^ ((rows[i + 1].bit_count() >> 1 & 1) << (i + 1))
        ts.append(t)
        rows[i] = _solution(space, [space, *ts], rng)
    if n > 1 and rng.random() < 0.5:
        i = rng.randrange(n - 1)
        rows[i] ^= 1 << rng.randrange(i + 1, n)
    return rows


SAMPLERS = {
    "uniform": uniform_rows,
    "kahler": kahler_rows,
    "spin_biased": spin_biased_rows,
}
