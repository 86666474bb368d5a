"""The bitmask routes of rbott.bott against the references they replace.

spin_closed_form is checked against the generic cohomological referee,
pmatrix.is_spin(sw_data(to_pmatrix(A))): exhaustively for n <= 5 and for
the orientable matrices at n = 6, and on seeded samples up to n = 48.
is_kahler, reduce, spin_main_theorem and corollary_check are checked
against brute forces over a Counter of column tuples, kept here.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

import samplers
from rbott.bott import (
    BottMatrix,
    NotKahler,
    NotStrictlyUpperTriangular,
    corollary_check,
    is_kahler,
    is_orientable,
    reduce,
    spin_closed_form,
    spin_main_theorem,
    to_pmatrix,
)
from rbott.census import enumerate_bott
from rbott.pmatrix import is_spin, sw_data

SAMPLE_SIZES = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48)
SAMPLES_PER_SIZE = 6


def referee(A: BottMatrix) -> bool:
    return is_spin(sw_data(to_pmatrix(A)))


def orientable_matrices(n: int):
    """Every n x n Bott matrix whose rows all have even weight."""
    per_row = []
    for i in range(n):
        free = range(i + 2, n)
        row_choices = []
        for bits in itertools.product((0, 1), repeat=len(free)):
            mask = sum(b << j for b, j in zip(bits, free))
            if i + 1 < n:
                mask |= (mask.bit_count() % 2) << (i + 1)
            row_choices.append(mask)
        per_row.append(row_choices)
    for rows in itertools.product(*per_row):
        yield BottMatrix.from_row_masks(n, rows)


def samples(kind: str) -> list[BottMatrix]:
    sampler = samplers.SAMPLERS[kind]
    rng = random.Random(f"closed-form-{kind}")
    sizes = [n for n in SAMPLE_SIZES if n % 2 == 0] if kind == "kahler" else SAMPLE_SIZES
    return [
        BottMatrix.from_row_masks(n, sampler(n, rng))
        for n in sizes
        for _ in range(SAMPLES_PER_SIZE)
    ]


def test_samplers_import_no_referee():
    source = Path(samplers.__file__).read_text().splitlines()
    imports = [ln for ln in source if ln.startswith(("import ", "from "))]
    assert imports and not any("rbott" in ln for ln in imports)


# --- closed form against the generic referee ---------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_form_equals_referee_exhaustively(n):
    for A in enumerate_bott(n):
        assert spin_closed_form(A) == referee(A), A.to_text()


def test_closed_form_equals_referee_on_orientable_n6():
    spin = 0
    for A in orientable_matrices(6):
        assert is_orientable(A)
        verdict = spin_closed_form(A)
        assert verdict == referee(A), A.to_text()
        spin += verdict
    # the frozen n = 6 census: 176 spin matrices, all of them orientable
    assert spin == 176


@pytest.mark.parametrize("kind", sorted(samplers.SAMPLERS))
def test_closed_form_equals_referee_on_samples(kind):
    drawn = samples(kind)
    spin = 0
    for A in drawn:
        verdict = spin_closed_form(A)
        assert verdict == referee(A), A.to_text()
        spin += verdict
    if kind != "uniform":
        # uniform matrices are almost never orientable beyond small n
        assert spin >= len(drawn) // 4


# --- mask routes against Counter-of-column-tuples brute forces ---------------


def brute_kahler(A: BottMatrix) -> bool:
    return all(m % 2 == 0 for m in Counter(A.columns()).values())


def brute_reduce(A: BottMatrix):
    mult = Counter(A.columns())
    seen: Counter = Counter()
    kept = []
    for j in range(1, A.n + 1):
        col = A.column(j)
        if seen[col] < mult[col] // 2:
            kept.append(j)
            seen[col] += 1
    cols = tuple(A.column(j) for j in kept)
    return tuple(kept), cols, tuple(sum(row) % 2 for row in zip(*cols))


def brute_theorem(A: BottMatrix) -> bool:
    _, _, row_sums = brute_reduce(A)
    zero = (0,) * A.n
    return all(A.column(i) == zero for i, s in enumerate(row_sums, start=1) if s)


def brute_corollary(A: BottMatrix) -> bool:
    zero = (0,) * A.n
    return all(m % 4 == 0 for col, m in Counter(A.columns()).items() if col != zero)


def all_samples():
    for kind in sorted(samplers.SAMPLERS):
        yield from samples(kind)
    for n in (2, 3, 4):
        yield from enumerate_bott(n)


def test_masks_are_the_entries():
    for A in all_samples():
        n = A.n
        assert A.row_masks == tuple(
            sum(A.rows[i][j] << j for j in range(n)) for i in range(n)
        )
        assert A.column_masks == tuple(
            sum(A.rows[i][j] << i for i in range(n)) for j in range(n)
        )
        B = BottMatrix(A.rows)
        assert A == B and hash(A) == hash(B)


def test_row_masks_round_trip():
    """from_row_masks rebuilds the matrix, and the views read the masks."""
    small = (A for n in range(1, 6) for A in enumerate_bott(n))
    for A in itertools.chain(small, all_samples()):
        n, masks = A.n, A.row_masks
        B = BottMatrix.from_row_masks(n, masks)
        assert B == A and hash(B) == hash(A)
        assert (B.n, B.row_masks) == (n, masks)
        assert B.rows == tuple(tuple(m >> j & 1 for j in range(n)) for m in masks)
        assert B.column_masks == tuple(
            sum((m >> j & 1) << i for i, m in enumerate(masks)) for j in range(n)
        )
        assert B.to_text() == "\n".join(
            "".join("1" if m >> j & 1 else "0" for j in range(n)) for m in masks
        )


def test_mask_routes_equal_brute_force():
    kahler = spin = 0
    for A in all_samples():
        assert is_kahler(A) == brute_kahler(A), A.to_text()
        if not brute_kahler(A):
            for route in (reduce, spin_main_theorem, corollary_check):
                with pytest.raises(NotKahler):
                    route(A)
            continue
        kahler += 1
        r = reduce(A)
        assert (r.kept_columns, r.columns, r.row_sums) == brute_reduce(A), A.to_text()
        theorem = spin_main_theorem(A)
        assert theorem == brute_theorem(A), A.to_text()
        assert corollary_check(A) == brute_corollary(A), A.to_text()
        # the paper's theorem: on Kähler matrices it is the spin criterion
        assert theorem == spin_closed_form(A), A.to_text()
        spin += theorem
    assert kahler >= 60 and spin >= kahler // 4


# --- validation keeps the per-entry reference's errors -----------------------


def reference_validation(rows):
    """The per-entry check BottMatrix made before its whole-row test."""
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            return ValueError, f"row {i + 1} has length {len(row)}, expected {n}"
        for j, v in enumerate(row):
            if v not in (0, 1):
                return ValueError, f"entry ({i + 1},{j + 1}) is {v}, not 0/1"
            if v and i >= j:
                return NotStrictlyUpperTriangular, str(NotStrictlyUpperTriangular(i + 1, j + 1))
    return None


def reference_mask_validation(n, masks):
    """The per-entry check from_row_masks must agree with, lowest bit first."""
    if len(masks) != n:
        return ValueError, f"{len(masks)} row masks, expected {n}"
    for i, mask in enumerate(masks):
        for j in range(mask.bit_length()):
            if mask >> j & 1 and j <= i:
                return NotStrictlyUpperTriangular, str(NotStrictlyUpperTriangular(i + 1, j + 1))
            if mask >> j & 1 and j >= n:
                return ValueError, f"row {i + 1} has a bit at or above column {n + 1}"
    return None


def test_validation_names_the_first_bad_entry():
    rng = random.Random(5)
    mask_rng = random.Random("masks")
    values = (0, 1, 2, -1, True, False, 1.0, "1", None)
    for _ in range(3000):
        n = mask_rng.randrange(1, 6)
        masks = [mask_rng.getrandbits(n) & -(2 << i) for i in range(n)]
        for _ in range(mask_rng.randrange(3)):
            i = mask_rng.randrange(n)
            if mask_rng.random() < 0.5:
                masks[i] |= 1 << mask_rng.randrange(i + 1)  # on or below the diagonal
            else:
                masks[i] |= 1 << (n + mask_rng.randrange(3))  # at or above column n
        if mask_rng.random() < 0.1:
            masks = masks[:-1] if mask_rng.random() < 0.5 else masks + [0]
        expected = reference_mask_validation(n, masks)
        if expected is None:
            A = BottMatrix.from_row_masks(n, masks)
            assert A.rows == tuple(tuple(m >> j & 1 for j in range(n)) for m in masks)
        else:
            with pytest.raises(ValueError) as err:
                BottMatrix.from_row_masks(n, masks)
            assert (type(err.value), str(err.value)) == expected

        n = rng.randrange(1, 6)
        rows = [[rng.randrange(2) if j > i else 0 for j in range(n)] for i in range(n)]
        for _ in range(rng.randrange(3)):
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i][j] = rng.choice(values)
        if rng.random() < 0.1:
            del rows[rng.randrange(n)][-1]
        rows = tuple(map(tuple, rows))
        expected = reference_validation(rows)
        if expected is None:
            A = BottMatrix(rows)
            assert A.row_masks == tuple(
                sum(1 << j for j, v in enumerate(row) if v) for row in rows
            )
            continue
        with pytest.raises(ValueError) as err:
            BottMatrix(rows)
        assert (type(err.value), str(err.value)) == expected
