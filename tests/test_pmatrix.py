import functools
import itertools
import operator
import random

import pytest

import samplers
from rbott import pmatrix
from rbott.bott import BottMatrix, to_pmatrix
from rbott.f2poly import F2Polynomial, Monomial, deg2_to_vector
from rbott.pmatrix import (
    ColumnOutOfRange,
    InvalidPEntry,
    PMatrix,
    admits_spin_oracle,
    alpha_form,
    beta_form,
    characteristic_ideal_deg2,
    class_alpha_j,
    class_beta_j,
    class_theta_j,
    has_full_holonomy,
    ideal_deg2,
    is_free_action,
    is_orientable,
    is_spin,
    pentry_add,
    sw_data,
    total_sw_class,
)

X1 = F2Polynomial.var(1)
X2 = F2Polynomial.var(2)

KLEIN = PMatrix(((1, 2), (0, 1)))


def random_pmatrix(rng, max_d=6, max_n=6):
    d = rng.randrange(1, max_d + 1)
    n = rng.randrange(1, max_n + 1)
    return random_pmatrix_of(rng, d, n)


def random_pmatrix_of(rng, d, n):
    return PMatrix(
        tuple(tuple(rng.randrange(4) for _ in range(n)) for _ in range(d))
    )


def _linear(mask):
    """Sum of the x_{k+1} over the set bits k of mask."""
    return F2Polynomial(
        frozenset(Monomial((k + 1,)) for k in range(mask.bit_length()) if mask >> k & 1)
    )


class TestPEntry:
    def test_g3_is_g1_g2(self):
        assert pentry_add(1, 2) == 3

    def test_self_inverse(self):
        for a in range(4):
            assert pentry_add(a, a) == 0

    def test_neutral(self):
        for a in range(4):
            assert pentry_add(0, a) == a

    def test_group_table(self):
        for a, b in itertools.product(range(4), repeat=2):
            assert pentry_add(a, b) == pentry_add(b, a)
        for a, b, c in itertools.product(range(4), repeat=3):
            assert pentry_add(pentry_add(a, b), c) == pentry_add(a, pentry_add(b, c))

    def test_rejects_bad_entry(self):
        with pytest.raises(InvalidPEntry):
            pentry_add(4, 0)


class TestLinearForms:
    def test_tables(self):
        assert [alpha_form(a) for a in range(4)] == [0, 1, 1, 0]
        assert [beta_form(a) for a in range(4)] == [0, 1, 0, 1]

    def test_linearity(self):
        for a, b in itertools.product(range(4), repeat=2):
            s = pentry_add(a, b)
            assert alpha_form(s) == (alpha_form(a) + alpha_form(b)) % 2
            assert beta_form(s) == (beta_form(a) + beta_form(b)) % 2


class TestActionPredicates:
    def test_free_single_translation(self):
        assert is_free_action(PMatrix(((1,),)))

    def test_conjugation_not_free(self):
        assert not is_free_action(PMatrix(((2,),)))

    def test_paper_action_is_free(self, paper_example):
        assert is_free_action(to_pmatrix(paper_example))

    def test_holonomy_conjugation(self):
        assert has_full_holonomy(PMatrix(((2,),)))

    def test_holonomy_pure_translation(self):
        assert not has_full_holonomy(PMatrix(((1,),)))

    def test_holonomy_klein(self):
        # row 2 sums to (0,1): no 2 or 3
        assert not has_full_holonomy(KLEIN)

    def test_match_per_subset_brute_force(self):
        # Every nonempty row subset, summed entry by entry in P.
        def brute(E):
            free = full = True
            for size in range(1, E.d + 1):
                for subset in itertools.combinations(E.entries, size):
                    digits = [0] * E.n
                    for row in subset:
                        digits = [pentry_add(a, b) for a, b in zip(digits, row)]
                    free &= 1 in digits
                    full &= 2 in digits or 3 in digits
            return free, full

        rng = random.Random(17)
        seen = set()
        for _ in range(300):
            E = random_pmatrix(rng, max_d=4, max_n=6)
            verdicts = (is_free_action(E), has_full_holonomy(E))
            assert verdicts == brute(E), E
            seen.add(verdicts)
        # each predicate both holds and fails, in every combination
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_subset_sums_single_rows_first(self):
        rng = random.Random(23)
        for _ in range(50):
            E = random_pmatrix(rng)
            packed = [sum((v & 1) << j | (v >> 1) << (E.n + j) for j, v in enumerate(row)) for row in E.entries]
            sums = list(pmatrix._row_subset_sums(E))
            assert sums[: E.d] == packed
            assert sorted(sums) == sorted(
                functools.reduce(operator.xor, subset)
                for size in range(1, E.d + 1)
                for subset in itertools.combinations(packed, size)
            )

    def test_early_exit_at_n48(self):
        # 2^48 - 1 row subsets: these return only by stopping at a single row
        rng = random.Random(48)
        masks = [sum(rng.randrange(2) << j for j in range(i + 1, 48)) for i in range(48)]
        E = to_pmatrix(BottMatrix.from_row_masks(48, masks))
        # the last row is (0, ..., 0, 1): no 2 or 3
        assert E.entries[-1] == (0,) * 47 + (1,)
        assert not has_full_holonomy(E)
        # a last row (0, ..., 0, 2) has no 1
        assert not is_free_action(PMatrix(E.entries[:-1] + ((0,) * 47 + (2,),)))

    def test_row_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(30):
            E = random_pmatrix(rng, max_d=4, max_n=4)
            rows = list(E.entries)
            rng.shuffle(rows)
            F = PMatrix(tuple(rows))
            assert is_free_action(E) == is_free_action(F)
            assert has_full_holonomy(E) == has_full_holonomy(F)


class TestClasses:
    def test_klein_column_one(self):
        assert class_alpha_j(KLEIN, 1) == X1
        assert class_beta_j(KLEIN, 1) == X1
        assert class_theta_j(KLEIN, 1) == X1 * X1

    def test_klein_column_two(self):
        assert class_alpha_j(KLEIN, 2) == X1 + X2
        assert class_beta_j(KLEIN, 2) == X2
        assert class_theta_j(KLEIN, 2) == X1 * X2 + X2 * X2

    def test_paper_theta_five(self, paper_example):
        E = to_pmatrix(paper_example)
        x = F2Polynomial.var
        expected = (x(1) + x(2) + x(3) + x(4)) * x(5) + x(5) * x(5)
        assert class_theta_j(E, 5) == expected

    def test_column_out_of_range(self):
        with pytest.raises(ColumnOutOfRange):
            class_alpha_j(KLEIN, 3)

    def test_thetas_homogeneous_degree_two(self):
        rng = random.Random(5)
        for _ in range(40):
            E = random_pmatrix(rng)
            for j in range(1, E.n + 1):
                t = class_theta_j(E, j)
                assert t == t.homogeneous_part(2)


class TestSWData:
    def test_circle_quotient(self):
        data = sw_data(PMatrix(((1,),)))
        assert data.w1.is_zero() and data.w2.is_zero()

    def test_klein(self):
        data = sw_data(KLEIN)
        assert data.w1 == X1
        assert data.w2.is_zero()

    def test_paper_w2(self, paper_example):
        data = sw_data(to_pmatrix(paper_example))
        assert str(data.w2) == "x3^2 + x4^2"
        assert data.w1.is_zero()

    def test_symmetric_sums_match_full_product(self):
        # Dual route: e1/e2 of the linear forms vs truncated total product.
        rng = random.Random(99)
        for _ in range(60):
            E = random_pmatrix(rng)
            data = sw_data(E)
            total = total_sw_class(E, 2)
            assert data.w1 == total.homogeneous_part(1)
            assert data.w2 == total.homogeneous_part(2)

    @pytest.mark.parametrize(
        "shape",
        [(48, 48), (48, 1), (1, 48), (48, 17), (13, 48), "random"],
        ids=["48x48", "48x1", "1x48", "48x17", "13x48", "random"],
    )
    def test_mask_expansion_matches_full_product_generic(self, shape):
        # sw_data's bitmask expansion against the truncated product of the
        # (1 + alpha_j + beta_j), on generic P-matrices with entries 0..3
        rng = random.Random(f"mask-expansion-{shape}")
        if shape == "random":
            shapes = [(rng.randrange(1, 49), rng.randrange(1, 49)) for _ in range(20)]
        else:
            shapes = [shape]
        for d, n in shapes:
            E = random_pmatrix_of(rng, d, n)
            data = sw_data(E)
            total = total_sw_class(E, 2)
            assert data.w1 == total.homogeneous_part(1)
            assert data.w2 == total.homogeneous_part(2)
            assert data.alphas == tuple(class_alpha_j(E, j) for j in range(1, n + 1))
            assert data.betas == tuple(class_beta_j(E, j) for j in range(1, n + 1))

    @pytest.mark.parametrize("kind", sorted(samplers.SAMPLERS))
    def test_mask_expansion_matches_full_product_bott(self, kind):
        rng = random.Random(f"mask-expansion-{kind}")
        for _ in range(2):
            E = to_pmatrix(BottMatrix.from_row_masks(48, samplers.SAMPLERS[kind](48, rng)))
            data = sw_data(E)
            total = total_sw_class(E, 2)
            assert data.w1 == total.homogeneous_part(1)
            assert data.w2 == total.homogeneous_part(2)
            assert not data.w2.is_zero()

    @pytest.mark.parametrize("kind", ["generic", *sorted(samplers.SAMPLERS)])
    def test_bit_forms_match_polynomials(self, kind):
        # every field of SWData against the independent reference: the
        # per-column classes from the entries, and the truncated product
        rng = random.Random(f"bit-forms-{kind}")
        if kind == "generic":
            shapes = [(48, 48), (1, 1), (13, 48)]
            shapes += [(rng.randrange(1, 49), rng.randrange(1, 49)) for _ in range(6)]
            matrices = [random_pmatrix_of(rng, d, n) for d, n in shapes]
        else:
            matrices = [
                to_pmatrix(BottMatrix.from_row_masks(48, samplers.SAMPLERS[kind](48, rng)))
                for _ in range(2)
            ]
        for E in matrices:
            data = sw_data(E)
            d = data.d
            total = total_sw_class(E, 2)
            assert d == E.d
            assert len(data.masks) == len(data.theta_vectors) == E.n
            columns = zip(data.masks, data.theta_vectors)
            for j, ((beta, c), theta) in enumerate(columns, start=1):
                assert _linear(beta ^ c) == class_alpha_j(E, j)
                assert _linear(beta) == class_beta_j(E, j)
                assert theta == deg2_to_vector(class_theta_j(E, j), d)
            assert _linear(data.w1_mask) == total.homogeneous_part(1)
            assert data.w2_vector == deg2_to_vector(total.homogeneous_part(2), d)

    def test_carries_per_column_classes(self):
        rng = random.Random(23)
        for _ in range(100):
            E = random_pmatrix(rng)
            data = sw_data(E)
            assert data.d == E.d
            for j in range(1, E.n + 1):
                assert data.alphas[j - 1] == class_alpha_j(E, j)
                assert data.betas[j - 1] == class_beta_j(E, j)
                assert data.thetas[j - 1] == class_theta_j(E, j)

    def test_linear_classes_are_sums_of_variables(self):
        E = PMatrix(((0, 1, 2, 3, 0), (1, 1, 3, 2, 3), (2, 0, 0, 1, 0)))
        x1, x2, x3 = (F2Polynomial.var(i) for i in (1, 2, 3))
        assert class_alpha_j(E, 1) == x2 + x3
        assert class_beta_j(E, 1) == x2
        assert class_alpha_j(E, 2) == x1 + x2
        assert class_beta_j(E, 3) == x2
        assert class_alpha_j(E, 4) == x2 + x3
        assert class_beta_j(E, 4) == x1 + x3
        assert class_alpha_j(E, 5).is_zero()
        assert class_beta_j(E, 5) == x2


class TestTotalSWClass:
    def test_circle(self):
        assert total_sw_class(PMatrix(((1,),)), 4) == F2Polynomial.one()

    def test_klein_degree_two(self):
        assert total_sw_class(KLEIN, 2) == F2Polynomial.one() + X1

    def test_degree_zero_is_one(self):
        rng = random.Random(3)
        for _ in range(10):
            E = random_pmatrix(rng)
            assert total_sw_class(E, 0) == F2Polynomial.one()


class TestCharacteristicIdeal:
    def test_single_square(self):
        space = characteristic_ideal_deg2(PMatrix(((1,),)))
        assert space.dimension == 1
        assert space.contains(deg2_to_vector(X1 * X1, 1))

    def test_diagonal(self):
        space = characteristic_ideal_deg2(PMatrix(((1, 0), (0, 1))))
        assert space.dimension == 2
        assert space.contains(deg2_to_vector(X1 * X1 + X2 * X2, 2))

    def test_klein(self):
        space = characteristic_ideal_deg2(KLEIN)
        assert space.dimension == 2
        assert space.contains(deg2_to_vector(X1 * X1, 2))
        assert space.contains(deg2_to_vector(X1 * X2 + X2 * X2, 2))
        assert not space.contains(deg2_to_vector(X1 * X2, 2))


class TestSpinOracle:
    def test_circle_orientable(self):
        assert is_orientable(PMatrix(((1,),)))

    def test_klein_not_orientable(self):
        assert not is_orientable(KLEIN)

    def test_paper_orientable(self, paper_example):
        assert is_orientable(to_pmatrix(paper_example))

    def test_paper_not_spin(self, paper_example):
        assert not admits_spin_oracle(to_pmatrix(paper_example))

    def test_torus_spin(self):
        E = PMatrix(tuple(
            tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
        ))
        assert admits_spin_oracle(E)

    def test_klein_fails_on_orientability_only(self):
        assert not admits_spin_oracle(KLEIN)
        # w2 = 0 is trivially in the ideal; the bare membership test passes
        data = sw_data(KLEIN)
        assert ideal_deg2(data).contains(deg2_to_vector(data.w2, data.d))

    def test_orientability_needs_only_w1(self, monkeypatch):
        rng = random.Random(29)
        matrices = [random_pmatrix(rng) for _ in range(100)]
        expected = [sw_data(E).w1.is_zero() for E in matrices]

        def no_sw_data(E):
            raise AssertionError("is_orientable built the whole SW data")

        monkeypatch.setattr(pmatrix, "sw_data", no_sw_data)
        assert [is_orientable(E) for E in matrices] == expected
        assert any(expected) and not all(expected)

    def test_wrappers_match_sw_data_route(self):
        rng = random.Random(31)
        for _ in range(60):
            E = random_pmatrix(rng, max_d=4, max_n=5)
            data = sw_data(E)
            assert characteristic_ideal_deg2(E).basis == ideal_deg2(data).basis
            assert admits_spin_oracle(E) == is_spin(data)

    def test_column_permutation_invariance(self):
        rng = random.Random(17)
        for _ in range(40):
            E = random_pmatrix(rng, max_d=4, max_n=5)
            perm = list(range(E.n))
            rng.shuffle(perm)
            F = PMatrix(tuple(
                tuple(row[p] for p in perm) for row in E.entries
            ))
            assert admits_spin_oracle(E) == admits_spin_oracle(F)


class TestConstruction:
    """PMatrix(entries) names the first bad row or entry, as it always has."""

    EMPTY = "P-matrix must have at least one row and column"

    @pytest.mark.parametrize("entries", [(), ((),), ((), (1,)), [], [[]]])
    def test_no_rows_or_empty_first_row(self, entries):
        with pytest.raises(ValueError) as info:
            PMatrix(entries)
        assert type(info.value) is ValueError
        assert str(info.value) == self.EMPTY

    @pytest.mark.parametrize(
        "entries",
        [
            ((1, 0), (1,)),
            ((1, 0), (0, 1), (2, 3, 0)),
            ((1, 0, 0), (0, 1, 0), (0, 0, 1), ()),
            ((1,), (0,), (0, 0)),
        ],
    )
    def test_ragged_row(self, entries):
        with pytest.raises(ValueError) as info:
            PMatrix(entries)
        assert type(info.value) is ValueError
        assert str(info.value) == "ragged P-matrix"

    @pytest.mark.parametrize("bad", [4, -1, "1", None, [0], 1.5], ids=repr)
    @pytest.mark.parametrize("position", [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)])
    def test_bad_entry(self, bad, position):
        rows = [[1, 2, 3], [0, 1, 2], [3, 0, 1]]
        i, j = position
        rows[i][j] = bad
        with pytest.raises(InvalidPEntry) as info:
            PMatrix(tuple(map(tuple, rows)))
        assert type(info.value) is InvalidPEntry
        assert str(info.value) == f"entry {bad}"

    def test_first_bad_entry_of_a_row_is_named(self):
        with pytest.raises(InvalidPEntry, match=r"^entry 4$"):
            PMatrix(((1, 4, -1, None),))

    def test_rows_are_checked_in_order(self):
        # a bad entry in an earlier row is named before a later ragged row,
        # and a ragged row before a bad entry in a later row
        with pytest.raises(InvalidPEntry, match=r"^entry 7$"):
            PMatrix(((1, 7), (1,)))
        with pytest.raises(ValueError, match=r"^ragged P-matrix$"):
            PMatrix(((1, 0), (1,), (9, 9)))


def _shapes():
    rng = random.Random("pmatrix-shapes")
    shapes = [(1, 1), (1, 48), (48, 1), (48, 48), (5, 17), (17, 5)]
    shapes += [(rng.randrange(1, 49), rng.randrange(1, 49)) for _ in range(20)]
    return rng, shapes


class TestEntryViews:
    def test_round_trip_and_columns(self):
        rng, shapes = _shapes()
        for d, n in shapes:
            E = random_pmatrix_of(rng, d, n)
            # some rows, and sometimes every row, all zero
            zero_rows = set(rng.sample(range(d), rng.randrange(d + 1)))
            rows = tuple(
                (0,) * n if i in zero_rows else row for i, row in enumerate(E.entries)
            )
            E = PMatrix(rows)
            assert (E.d, E.n) == (d, n)
            assert E.entries == rows
            assert PMatrix(E.entries) == E
            for j in range(1, n + 1):
                assert E.column(j) == tuple(row[j - 1] for row in rows)
            for j in (0, n + 1):
                with pytest.raises(ColumnOutOfRange):
                    E.column(j)

    def test_entries_by_value(self):
        # an entry equal to 0..3 is stored by its value: 1.0 and True are 1
        rng = random.Random("entries-by-value")
        twins = {0: (0, False, 0.0), 1: (1, True, 1.0), 2: (2, 2.0), 3: (3, 3.0)}
        kinds = set()
        for _ in range(60):
            E = random_pmatrix(rng, max_d=5, max_n=6)
            rows = tuple(tuple(rng.choice(twins[v]) for v in row) for row in E.entries)
            F = PMatrix(rows)
            kinds |= {type(v) for row in rows for v in row}
            assert F == E and hash(F) == hash(E)
            assert F.entries == E.entries
            assert {type(v) for row in F.entries for v in row} == {int}
            assert sw_data(F) == sw_data(E)
            assert is_orientable(F) == is_orientable(E)
            assert is_free_action(F) == is_free_action(E)
            assert has_full_holonomy(F) == has_full_holonomy(E)
        assert kinds == {int, bool, float}
        assert sw_data(PMatrix(((1.0,),))) == sw_data(PMatrix(((1,),)))
