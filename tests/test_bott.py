import dataclasses
import random
from collections import Counter

import pytest

from rbott.bott import (
    AffineIsometry,
    BottMatrix,
    DimensionMismatch,
    NotKahler,
    NotStrictlyUpperTriangular,
    compose,
    corollary_check,
    generators,
    is_kahler,
    reduce,
    spin_main_theorem,
    spin_oracle,
    to_pmatrix,
)
from rbott.pmatrix import PMatrix, has_full_holonomy, is_free_action, sw_data

# 4x4 matrix with columns (0, 0, v, v), v = (1,1,0,0)^T; spin both ways
FOUR_BY_FOUR = BottMatrix.from_inline("0011;0011;0000;0000")


def random_bott(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(2)
    return BottMatrix(tuple(tuple(r) for r in rows))


class TestValidation:
    def test_paper_example_valid(self, paper_example):
        assert paper_example.n == 6

    def test_identity_rejected(self):
        with pytest.raises(NotStrictlyUpperTriangular) as err:
            BottMatrix(((1, 0), (0, 1)))
        assert (err.value.i, err.value.j) == (1, 1)

    def test_zero_valid(self):
        assert BottMatrix(((0,) * 5,) * 5).n == 5

    def test_lower_entry_rejected(self):
        with pytest.raises(NotStrictlyUpperTriangular) as err:
            BottMatrix(((0, 1), (1, 0)))
        assert (err.value.i, err.value.j) == (2, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            BottMatrix(((0, 1),))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            BottMatrix(())


def test_columns_read_the_rows():
    rng = random.Random(11)
    for n in (1, 2, 5, 9):
        A = random_bott(rng, n)
        expected = [tuple(row[j] for row in A.rows) for j in range(n)]
        assert A.columns() == expected
        assert [A.column(j) for j in range(1, n + 1)] == expected
        # the columns are derived, not fields: equality and hash see the row masks
        B = BottMatrix(A.rows)
        assert A == B and hash(A) == hash(B)


class TestTextFormat:
    def test_header_optional(self):
        with_header = BottMatrix.from_text("2\n01\n00")
        without = BottMatrix.from_text("01\n00")
        assert with_header == without

    def test_spaces_tolerated(self):
        assert BottMatrix.from_text("0 1\n0 0") == BottMatrix.from_inline("01;00")

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            BottMatrix.from_text("3\n01\n00")

    def test_bad_character(self):
        with pytest.raises(ValueError):
            BottMatrix.from_text("0x\n00")

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(20):
            A = random_bott(rng, rng.randrange(1, 7))
            assert BottMatrix.from_text(A.to_text()) == A
            assert BottMatrix.from_text(A.to_text(header=True)) == A

    @pytest.mark.parametrize(
        "rows",
        [((0, 1.0, True), (0, 0, 0), (0, 0, 0)), ((0, True), (False, 0.0))],
    )
    def test_round_trip_of_bool_and_float_entries(self, rows):
        # validation accepts entries equal to 0 or 1, and stores them as bits
        A = BottMatrix(rows)
        assert A.rows == tuple(tuple(1 if v else 0 for v in row) for row in rows)
        assert {type(v) for row in A.rows for v in row} == {int}
        assert set(A.to_text()) <= set("01\n")
        assert BottMatrix.from_text(A.to_text()) == A
        assert BottMatrix.from_text(A.to_text(header=True)) == A


class TestToPMatrix:
    def test_klein(self, klein):
        assert to_pmatrix(klein) == PMatrix(((1, 2), (0, 1)))

    def test_zero(self):
        assert to_pmatrix(BottMatrix.zero(2)) == PMatrix(((1, 0), (0, 1)))

    def test_paper(self, paper_example):
        E = to_pmatrix(paper_example)
        assert E.d == E.n == 6
        for i in range(1, 7):
            for j in range(1, 7):
                if i == j:
                    assert E.entries[i - 1][j - 1] == 1
                else:
                    expected = 2 if paper_example.entry(i, j) else 0
                    assert E.entries[i - 1][j - 1] == expected

    def test_planes(self):
        # the 1s are the diagonal (low plane), the 2s the row masks (high plane)
        rng = random.Random(29)
        for n in (1, 2, 5, 12, 48, 256):
            A = random_bott(rng, n)
            E = to_pmatrix(A)
            assert (E.n, E.low, E.high) == (n, tuple(1 << i for i in range(n)), A.row_masks)
            assert E.entries == tuple(
                tuple(1 if i == j else 2 * v for j, v in enumerate(row))
                for i, row in enumerate(A.rows)
            )

    def test_entries_pass_the_checks(self):
        # to_pmatrix skips PMatrix's checks; what it builds must pass them
        rng = random.Random(23)
        for n in (1, 2, 5, 12, 48):
            E = to_pmatrix(random_bott(rng, n))
            assert PMatrix(E.entries) == E
            assert {type(v) for row in E.entries for v in row} <= {int}
            assert all(type(row) is tuple for row in E.entries)


class TestColumnMasks:
    def test_against_rows_and_columns(self):
        rng = random.Random("column-masks")
        for n in (1, 2, 3, 7, 16, 33, 48, 64):
            A = random_bott(rng, n)
            columns = [tuple(row[j] for row in A.rows) for j in range(n)]
            assert A.columns() == columns
            assert A.column_masks == tuple(
                sum(v << i for i, v in enumerate(col)) for col in columns
            )


class TestKahler:
    def test_paper(self, paper_example):
        assert is_kahler(paper_example)

    def test_zero_even(self):
        assert is_kahler(BottMatrix.zero(4))

    def test_klein(self, klein):
        assert not is_kahler(klein)

    def test_odd_dimension_never(self):
        rng = random.Random(8)
        for _ in range(30):
            assert not is_kahler(random_bott(rng, rng.choice([1, 3, 5])))


class TestReduce:
    def test_paper(self, paper_example):
        r = reduce(paper_example)
        assert r.kept_columns == (1, 3, 5)
        assert r.row_sums == (0, 0, 1, 1, 0, 0)

    def test_zero(self):
        r = reduce(BottMatrix.zero(4))
        assert r.columns == ((0, 0, 0, 0), (0, 0, 0, 0))
        assert r.row_sums == (0, 0, 0, 0)

    def test_four_by_four(self):
        r = reduce(FOUR_BY_FOUR)
        assert r.kept_columns == (1, 3)
        assert r.kept_masks == (FOUR_BY_FOUR.column_masks[0], FOUR_BY_FOUR.column_masks[2])
        assert r.columns[1] == (1, 1, 0, 0)
        assert r.row_sums == (1, 1, 0, 0)

    def test_rejects_non_kahler(self, klein):
        with pytest.raises(NotKahler):
            reduce(klein)

    def test_columns_have_half_multiplicity(self):
        rng = random.Random(21)
        found = 0
        while found < 20:
            A = random_bott(rng, 4)
            if not is_kahler(A):
                continue
            found += 1
            r = reduce(A)
            full = Counter(A.columns())
            half = Counter(r.columns)
            assert {c: m // 2 for c, m in full.items() if m // 2} == dict(half)

    def test_row_sums_depend_only_on_column_multiset(self):
        # Alternative pairing: keep the largest indices instead.
        rng = random.Random(22)
        found = 0
        while found < 20:
            A = random_bott(rng, 6)
            if not is_kahler(A):
                continue
            found += 1
            full = Counter(A.columns())
            alt_sums = [0] * A.n
            for col, m in full.items():
                if (m // 2) % 2:
                    for i, v in enumerate(col):
                        alt_sums[i] ^= v
            assert tuple(alt_sums) == reduce(A).row_sums


class TestSpin:
    def test_paper_not_spin(self, paper_example):
        assert not spin_main_theorem(paper_example)
        assert not spin_oracle(paper_example)

    def test_torus(self):
        for n in (2, 4, 6):
            Z = BottMatrix.zero(n)
            assert spin_main_theorem(Z)
            assert spin_oracle(Z)

    def test_four_by_four_spin_both_ways(self):
        assert spin_main_theorem(FOUR_BY_FOUR)
        assert spin_oracle(FOUR_BY_FOUR)

    def test_klein_oracle_without_kahler(self, klein):
        assert not spin_oracle(klein)
        with pytest.raises(NotKahler):
            spin_main_theorem(klein)

    def test_theorem_matches_oracle_on_all_kahler_4x4(self):
        from rbott.census import enumerate_bott

        for A in enumerate_bott(4):
            if is_kahler(A):
                assert spin_main_theorem(A) == spin_oracle(A)


class TestCorollary:
    def test_four_equal_nonzero_columns(self):
        rows = [[0] * 8 for _ in range(8)]
        for j in range(4, 8):  # columns 5..8 all equal (1,1,0,...)
            rows[0][j] = 1
            rows[1][j] = 1
        A = BottMatrix(tuple(tuple(r) for r in rows))
        assert corollary_check(A)
        assert spin_main_theorem(A)
        assert spin_oracle(A)

    def test_zero_matrix_vacuous(self):
        assert corollary_check(BottMatrix.zero(4))

    def test_paper_fails(self, paper_example):
        assert not corollary_check(paper_example)

    def test_rejects_non_kahler(self, klein):
        with pytest.raises(NotKahler):
            corollary_check(klein)

    def test_implies_spin(self):
        rng = random.Random(31)
        found = 0
        while found < 30:
            A = random_bott(rng, 4)
            if not is_kahler(A):
                continue
            found += 1
            if corollary_check(A):
                assert spin_main_theorem(A)


class TestStructuralInvariants:
    def test_action_always_free(self):
        rng = random.Random(41)
        for _ in range(40):
            A = random_bott(rng, rng.randrange(1, 7))
            assert is_free_action(to_pmatrix(A))

    def test_holonomy_never_full(self):
        rng = random.Random(42)
        for _ in range(40):
            A = random_bott(rng, rng.randrange(1, 7))
            assert not has_full_holonomy(to_pmatrix(A))

    def test_kahler_implies_orientable(self):
        rng = random.Random(43)
        found = 0
        while found < 30:
            A = random_bott(rng, random.choice([2, 4, 6]))
            if not is_kahler(A):
                continue
            found += 1
            assert sw_data(to_pmatrix(A)).w1.is_zero()


class TestGenerators:
    def test_klein(self, klein):
        s1, s2 = generators(klein)
        assert s1 == AffineIsometry((1, -1), (1, 0))
        assert s2 == AffineIsometry((1, 1), (0, 1))

    def test_zero_matrix_pure_translations(self):
        for i, g in enumerate(generators(BottMatrix.zero(3))):
            assert g.signs == (1, 1, 1)
            assert g.half_translation == tuple(
                1 if k == i else 0 for k in range(3)
            )

    def test_squares_are_unit_translations(self):
        rng = random.Random(55)
        for _ in range(30):
            A = random_bott(rng, rng.randrange(1, 7))
            for i, g in enumerate(generators(A)):
                sq = compose(g, g)
                assert sq.signs == (1,) * A.n
                assert sq.half_translation == tuple(
                    2 if k == i else 0 for k in range(A.n)
                )


class TestCompose:
    def test_inverse(self):
        rng = random.Random(56)
        for _ in range(20):
            n = rng.randrange(1, 6)
            g = AffineIsometry(
                tuple(rng.choice([1, -1]) for _ in range(n)),
                tuple(rng.randrange(-3, 4) for _ in range(n)),
            )
            assert compose(g, g.inverse()).is_identity()
            assert compose(g.inverse(), g).is_identity()

    def test_identity_neutral(self):
        g = AffineIsometry((1, -1), (1, 2))
        e = AffineIsometry.identity(2)
        assert compose(g, e) == g
        assert compose(e, g) == g

    def test_associative(self):
        rng = random.Random(57)
        for _ in range(20):
            n = rng.randrange(1, 5)
            gs = [
                AffineIsometry(
                    tuple(rng.choice([1, -1]) for _ in range(n)),
                    tuple(rng.randrange(-2, 3) for _ in range(n)),
                )
                for _ in range(3)
            ]
            a, b, c = gs
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compose(AffineIsometry.identity(2), AffineIsometry.identity(3))

    def test_outside_input_checked(self):
        with pytest.raises(DimensionMismatch, match="^signs and translation lengths differ$"):
            AffineIsometry((1,), (0, 0))
        for signs in ((1, 0), (2, 1), (-1, "1")):
            with pytest.raises(ValueError, match=r"^signs must be \+-1$"):
                AffineIsometry(signs, (0, 0))

    def test_unchecked_results_equal_checked_twins(self):
        # compose, inverse and generators skip the checks of AffineIsometry(...)
        rng = random.Random(58)
        for _ in range(20):
            A = random_bott(rng, rng.randrange(1, 6))
            gens = generators(A)
            results = gens + [g.inverse() for g in gens]
            results += [compose(g, h) for g in gens for h in gens]
            for r in results:
                twin = AffineIsometry(r.signs, r.half_translation)
                assert type(r) is AffineIsometry
                assert r == twin and hash(r) == hash(twin)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    r.signs = ()
