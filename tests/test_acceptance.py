"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

import pytest

from rbott import census
from rbott.bott import (
    BottMatrix,
    compose,
    corollary_check,
    generators,
    is_kahler,
    reduce,
    spin_main_theorem,
    spin_oracle,
    to_pmatrix,
)
from rbott.census import enumerate_bott, run_census
from rbott.pmatrix import has_full_holonomy, is_free_action, sw_data

SWEEP_DIMS = (2, 4, 6)


def report(criterion: str, passed: bool):
    print(f"{'PASS' if passed else 'FAIL'}: {criterion}")
    assert passed, criterion


@pytest.fixture(scope="module")
def sweeps():
    """Full population per dimension, with the Kähler sublist."""
    out = {}
    for n in SWEEP_DIMS:
        mats = list(enumerate_bott(n))
        out[n] = (mats, [A for A in mats if is_kahler(A)])
    return out


def test_criterion_1_paper_worked_example(paper_example_file):
    start = time.perf_counter()
    A = BottMatrix.from_text(open(paper_example_file).read())
    ok = (
        is_kahler(A)
        and reduce(A).row_sums == (0, 0, 1, 1, 0, 0)
        and spin_main_theorem(A) is False
        and spin_oracle(A) is False
    )
    elapsed = time.perf_counter() - start
    report(
        f"criterion 1 — 6x6 worked example: Kähler, row sums 001100, "
        f"no spin by either route ({elapsed:.3f}s)",
        ok and elapsed < 1.0,
    )


def test_criterion_2_theorem_equals_oracle_exhaustively(sweeps):
    ok = True
    for n in SWEEP_DIMS:
        mats, kahler = sweeps[n]
        assert len(mats) == 1 << (n * (n - 1) // 2)
        ok &= all(spin_main_theorem(A) == spin_oracle(A) for A in kahler)
        rep = run_census(n)
        ok &= rep.mismatch_count == 0 and rep.mismatches == []
    # counts from the first verified run, frozen as regression fixtures
    ok &= run_census(6).kahler_count == 192
    ok &= run_census(6).spin_by_theorem_count == 76
    report(
        "criterion 2 — spin criterion matches cohomological oracle on every "
        "Kähler matrix for n = 2, 4, 6 (32768 matrices at n = 6)",
        ok,
    )


def test_criterion_3_torus_baselines():
    ok = True
    for n in SWEEP_DIMS:
        Z = BottMatrix.zero(n)
        data = sw_data(to_pmatrix(Z))
        ok &= is_kahler(Z)
        ok &= data.w1.is_zero() and data.w2.is_zero()
        ok &= spin_main_theorem(Z) and spin_oracle(Z)
    report(
        "criterion 3 — zero matrices n = 2, 4, 6: Kähler, orientable, "
        "spin both ways, w2 = 0",
        ok,
    )


def _random_four_grouped(rng, n=8):
    """Matrix whose nonzero columns form one 4-element group of equal columns.

    Column 1 is forced zero by triangularity, so at n = 8 a single group
    is the only possibility; the remaining four columns stay zero.
    """
    columns = {j: 0 for j in range(1, n + 1)}
    group = sorted(rng.sample(range(2, n + 1), 4))
    lo = group[0]
    value = 0
    while value == 0:
        value = rng.getrandbits(lo - 1)
    for j in group:
        columns[j] = value
    rows = [
        [(columns[j] >> (i - 1)) & 1 if i < j else 0 for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return BottMatrix(tuple(tuple(r) for r in rows))


def test_criterion_4_four_column_groups_are_spin():
    rng = random.Random(20260823)
    ok = True
    for _ in range(200):
        A = _random_four_grouped(rng)
        ok &= is_kahler(A)
        ok &= corollary_check(A)
        ok &= spin_main_theorem(A)
        ok &= spin_oracle(A)
    report(
        "criterion 4 — 200 random 8x8 matrices with 4-element equal column "
        "groups: corollary holds and spin by both routes",
        ok,
    )


def test_criterion_5_kahler_is_orientable(sweeps):
    ok = all(
        sw_data(to_pmatrix(A)).w1.is_zero()
        for n in SWEEP_DIMS
        for A in sweeps[n][1]
    )
    report(
        "criterion 5 — every Kähler matrix with n <= 6 has w1 = 0",
        ok,
    )


def test_criterion_6_structural_invariants(sweeps):
    ok = True
    for n in SWEEP_DIMS:
        mats, _ = sweeps[n]
        for A in mats:
            E = to_pmatrix(A)
            ok &= is_free_action(E)
            ok &= not has_full_holonomy(E)
            for i, g in enumerate(generators(A)):
                sq = compose(g, g)
                ok &= sq.signs == (1,) * n
                ok &= sq.half_translation == tuple(
                    2 if k == i else 0 for k in range(n)
                )
            if not ok:
                break
    report(
        "criterion 6 — n <= 6 sweep: action always free, holonomy never "
        "full, every generator squares to a unit translation",
        ok,
    )


def test_criterion_7_klein_bottle(klein):
    ok = (
        not is_kahler(klein)
        and not sw_data(to_pmatrix(klein)).w1.is_zero()
        and not spin_oracle(klein)
    )
    report(
        "criterion 7 — Klein bottle: not Kähler, not orientable, oracle "
        "says no spin",
        ok,
    )


def test_criterion_8_census_determinism(monkeypatch, shard_log):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 8)
    # with 4-value shards, the 8 values of n = 4 make at most 2 shards
    shards = {(4, 1): 1, (4, 2): 2, (4, 8): 2, (6, 1): 1, (6, 2): 2, (6, 8): 8}
    ok = True
    for n in (4, 6):
        docs = []
        for workers in (1, 2, 8):
            shard_log.clear()
            doc = run_census(n, workers=workers).to_dict()
            ok &= len(shard_log) == shards[n, workers]
            doc.pop("elapsed")
            doc.pop("workers")
            docs.append(json.dumps(doc, sort_keys=True))
        ok &= docs[0] == docs[1] == docs[2]
    report(
        "criterion 8 — census reports byte-identical across worker counts "
        "1, 2, 8 (modulo elapsed)",
        ok,
    )
