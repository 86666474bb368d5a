"""The steps of the proof that theorem and oracle agree, beyond the census.

The argument is in the README ("Why the two spin routes agree").  Step
(a), the closed form of the cohomological criterion, is tested against
the generic referee in test_spin_closed_form.py.  Here:

- lemma (b): in a Kähler matrix every overlap m_ij = |r_i AND r_j| is
  even, and h_j = (m_j >> 1) & 1 is bit j of the reduced row-sum mask;
- relabelling: a topological order of the digraph i -> j (a_ij = 1)
  relabels the matrix of the same manifold (Choi, Masuda and Oum,
  "Classification of real Bott manifolds and acyclic digraphs", 2017),
  so no verdict may change.
"""

from __future__ import annotations

import random

import samplers
from rbott.bott import (
    BottMatrix,
    is_kahler,
    is_orientable,
    reduce,
    spin_closed_form,
    spin_main_theorem,
    spin_oracle,
)
from test_spin_closed_form import SAMPLE_SIZES

REFEREE_MAX_N = 12


def test_lemma_b_on_kahler_samples():
    rng = random.Random("lemma-b")
    for _ in range(200):
        n = rng.choice([n for n in SAMPLE_SIZES if n % 2 == 0])
        rows = samplers.kahler_rows(n, rng)
        A = BottMatrix.from_row_masks(n, rows)
        assert is_kahler(A)
        for j in range(n):
            assert all((rows[i] & rows[j]).bit_count() % 2 == 0 for i in range(j)), rows
        h = [rows[j].bit_count() >> 1 & 1 for j in range(n)]
        assert h == list(reduce(A).row_sums), rows


def random_topological_order(rows: list[int], rng: random.Random) -> list[int]:
    """The vertices of the digraph i -> j (bit j of rows[i]) in a random
    order that puts every i before each of its j."""
    n = len(rows)
    indegree = [sum(r >> j & 1 for r in rows) for j in range(n)]
    ready = [j for j in range(n) if indegree[j] == 0]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for j in range(n):
            if rows[i] >> j & 1:
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
    return order


def relabel(rows: list[int], order: list[int]) -> list[int]:
    """The matrix with vertex order[k] renamed k."""
    position = {v: k for k, v in enumerate(order)}
    relabelled = [0] * len(rows)
    for i, r in enumerate(rows):
        relabelled[position[i]] = sum(1 << position[j] for j in range(len(rows)) if r >> j & 1)
    return relabelled


def verdicts(A: BottMatrix) -> dict:
    kahler = is_kahler(A)
    return {
        "kahler": kahler,
        "orientable": is_orientable(A),
        "closed_form": spin_closed_form(A),
        "oracle": spin_oracle(A) if A.n <= REFEREE_MAX_N else None,
        "theorem": spin_main_theorem(A) if kahler else None,
    }


def test_relabelling_leaves_every_verdict_unchanged():
    rng = random.Random("relabel")
    drawn = relabelled = 0
    for kind, sampler in sorted(samplers.SAMPLERS.items()):
        sizes = [n for n in SAMPLE_SIZES if n % 2 == 0] if kind == "kahler" else SAMPLE_SIZES
        for _ in range(150):
            n = rng.choice(sizes)
            rows = sampler(n, rng)
            A = BottMatrix.from_row_masks(n, rows)
            B = BottMatrix.from_row_masks(n, relabel(rows, random_topological_order(rows, rng)))
            assert verdicts(B) == verdicts(A), (kind, rows)
            drawn += 1
            relabelled += A != B
    # most samples have more than one topological order
    assert relabelled >= drawn // 2
