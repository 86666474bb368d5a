import itertools
import random
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

import samplers
from rbott.bott import BottMatrix, to_pmatrix
from rbott.f2poly import (
    Deg2Vector,
    F2Polynomial,
    F2RowSpace,
    LengthMismatch,
    Monomial,
    NotHomogeneousDegree2,
    VariableOutOfRange,
    deg2_length,
    deg2_text,
    deg2_to_vector,
    index_pair,
    linear_text,
    pair_index,
    row_space_membership,
    transpose,
)
from rbott.pmatrix import ideal_deg2, sw_data

X1 = F2Polynomial.var(1)
X2 = F2Polynomial.var(2)
X3 = F2Polynomial.var(3)
ONE = F2Polynomial.one()
ZERO = F2Polynomial.zero()


def exponent_maps(max_var=4, max_exp=2):
    return st.dictionaries(st.integers(1, max_var), st.integers(1, max_exp), max_size=3)


def monomials(max_var=4, max_exp=2):
    return exponent_maps(max_var, max_exp).map(Monomial.from_dict)


def polynomials(max_var=4):
    return st.lists(monomials(max_var), max_size=6).map(F2Polynomial.from_monomials)


class TestAddition:
    def test_self_cancellation(self):
        p = X1 + X2 * X3
        assert (p + p).is_zero()

    def test_simple_sum(self):
        assert str(X1 + X2) == "x1 + x2"

    def test_middle_cancellation(self):
        assert (X1 + X2) + (X2 + X3) == X1 + X3

    @given(polynomials())
    def test_zero_is_neutral(self, p):
        assert p + ZERO == p

    @given(polynomials())
    def test_involution(self, p):
        assert (p + p).is_zero()


class TestMultiplication:
    def test_frobenius_binomial(self):
        sq = (X1 + X2) * (X1 + X2)
        assert sq == F2Polynomial.from_monomials(
            [Monomial.from_dict({1: 2}), Monomial.from_dict({2: 2})]
        )

    def test_one_plus_x_squared(self):
        assert (ONE + X1) * (ONE + X1) == ONE + X1 * X1

    def test_distribution_over_vars(self):
        assert (X1 + X2) * X3 == X1 * X3 + X2 * X3

    @given(polynomials(), polynomials())
    def test_commutative(self, p, q):
        assert p * q == q * p

    @given(polynomials(), polynomials(), polynomials())
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    def test_frobenius_general(self, p):
        squares = F2Polynomial.from_monomials(m * m for m in p.terms)
        assert p * p == squares


class TestProductProperties:
    """The merged-tuple monomial product against its definition, in <= 8 variables."""

    @given(exponent_maps(8, 3), exponent_maps(8, 3))
    def test_monomial_product_sums_exponents(self, e, f):
        summed = {v: e.get(v, 0) + f.get(v, 0) for v in e.keys() | f.keys()}
        product = Monomial.from_dict(e) * Monomial.from_dict(f)
        assert product == Monomial.from_dict(summed)

    @given(monomials(8, 3), monomials(8, 3))
    def test_monomial_product_commutative(self, m, k):
        assert m * k == k * m

    @given(monomials(8, 3))
    def test_monomial_identity(self, m):
        one = Monomial.from_dict({})
        assert m * one == m and one * m == m

    @given(polynomials(8), polynomials(8), polynomials(8))
    def test_polynomial_product_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polynomials(8), polynomials(8), polynomials(8))
    def test_polynomial_product_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r

    @given(polynomials(8))
    def test_polynomial_identity(self, p):
        assert p * ONE == p and ONE * p == p
        assert (p * ZERO).is_zero()


def _naive_product(p, q):
    return F2Polynomial.from_monomials(
        Monomial(sorted(a + b)) for a in p.terms for b in q.terms
    )


def mixed_polynomials(max_var=9):
    # mixed degrees 0..3, and sizes from 0 to 12 terms
    mono = st.lists(st.integers(1, max_var), max_size=3).map(lambda v: Monomial(sorted(v)))
    return st.lists(mono, max_size=12).map(F2Polynomial.from_monomials)


class TestProductAgainstNaive:
    """__mul__ against the product of every pair of terms, sorted and summed."""

    @given(mixed_polynomials(), mixed_polynomials())
    @example(X1 + X2 + X3, X2)  # a linear factor of one term: theta_j = alpha_j * beta_j
    @example(X2, ONE + X1 + X1 * X3 + X2 * X2 * X3)
    def test_matches_naive(self, p, q):
        assert p * q == _naive_product(p, q) == q * p

    def test_sizes_unequal_both_ways(self):
        rng = random.Random(31)
        for _ in range(200):
            big, small = (
                F2Polynomial.from_monomials(
                    Monomial(sorted(rng.choices(range(1, 13), k=rng.randrange(4))))
                    for _ in range(k)
                )
                for k in (rng.randrange(5, 40), rng.randrange(1, 4))
            )
            assert big * small == small * big == _naive_product(big, small)


class TestGradedPieces:
    def test_homogeneous_part(self):
        p = ONE + X1 + X1 * X2
        assert p.homogeneous_part(2) == X1 * X2

    def test_homogeneous_part_of_zero(self):
        assert ZERO.homogeneous_part(3).is_zero()

    def test_square_counts_as_degree_two(self):
        p = ONE + X1 * X1
        assert p.homogeneous_part(2) == X1 * X1

    def test_truncate(self):
        p = ONE + X1 + X1 * X2 * X3
        assert p.truncate_degree(2) == ONE + X1

    def test_truncate_is_identity_at_full_degree(self):
        p = ONE + X1 * X2 * X3
        assert p.truncate_degree(p.degree) == p

    def test_truncate_drops_squares(self):
        assert (X1 * X1).truncate_degree(1).is_zero()

    @given(polynomials(), polynomials(), st.integers(0, 4))
    def test_truncated_product_is_morphism(self, p, q, k):
        assert p.mul_truncated(q, k) == (p * q).truncate_degree(k)

    @given(polynomials(), st.integers(0, 6))
    def test_parts_partition_polynomial(self, p, k):
        assert p.homogeneous_part(k) + p.truncate_degree(k) == (
            p.truncate_degree(k - 1) if k > 0 else ZERO
        )


class TestDeg2Vector:
    def test_layout_is_bijection(self):
        for d in range(1, 7):
            seen = set()
            for i in range(1, d + 1):
                for j in range(i, d + 1):
                    pos = pair_index(i, j, d)
                    assert index_pair(pos, d) == (i, j)
                    seen.add(pos)
            assert seen == set(range(deg2_length(d)))

    def test_example_vector(self):
        p = X1 * X2 + X2 * X2
        v = deg2_to_vector(p, 2)
        assert v.bits == (1 << pair_index(1, 2, 2)) | (1 << pair_index(2, 2, 2))

    def test_zero_vector(self):
        v = deg2_to_vector(ZERO, 3)
        assert v.bits == 0 and v.length == 6

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NotHomogeneousDegree2):
            deg2_to_vector(ONE + X1 * X2, 2)

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(VariableOutOfRange):
            deg2_to_vector(X2 * X3, 2)

    @given(st.integers(1, 64), st.data())
    @example(64, None)
    def test_round_trip(self, d, data):
        full = (1 << deg2_length(d)) - 1
        bits = full if data is None else data.draw(st.integers(0, full))
        v = Deg2Vector(bits, d)
        p = v.to_poly()
        assert p.terms == {Monomial(index_pair(k, d)) for k in range(deg2_length(d)) if bits >> k & 1}
        assert deg2_to_vector(p, d) == v

    def test_to_poly_rejects_bits_past_the_layout(self):
        with pytest.raises(ValueError, match="out of range"):
            Deg2Vector(1 << deg2_length(3), 3).to_poly()

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (X1, NotHomogeneousDegree2, "term x1 has degree 1"),
            (ONE, NotHomogeneousDegree2, "term 1 has degree 0"),
            (X1 * X2 * X3, NotHomogeneousDegree2, "term x1*x2*x3 has degree 3"),
            (X3 * F2Polynomial.var(5), VariableOutOfRange, "x5 with d=4"),
        ],
    )
    def test_one_bad_term_among_valid_ones(self, bad, error, message):
        valid = X1 * X1 + X1 * X2 + X2 * X3 + X3 * X3 + F2Polynomial.var(4) * X2
        for p in (bad, valid + bad):
            with pytest.raises(error) as raised:
                deg2_to_vector(p, 4)
            assert str(raised.value) == message


TEXT_DS = [1, 2, 3, 7, 48, 128]


def _bit_cases(width, rng):
    """Empty, single-bit, all-ones and random masks of the given width."""
    return [0, 1, 1 << (width - 1), 1 << (width // 2), (1 << width) - 1] + [
        rng.getrandbits(width) for _ in range(4)
    ]


class TestTextFromBits:
    """Text printed from masks and vectors is byte for byte str of the polynomial."""

    @pytest.mark.parametrize("d", TEXT_DS)
    def test_linear_mask(self, d):
        rng = random.Random(f"linear-text-{d}")
        for mask in _bit_cases(d, rng):
            p = F2Polynomial(frozenset(Monomial((k + 1,)) for k in range(d) if mask >> k & 1))
            assert linear_text(mask, d) == str(p)

    @pytest.mark.parametrize("d", TEXT_DS)
    def test_deg2_vector(self, d):
        rng = random.Random(f"vector-text-{d}")
        for bits in _bit_cases(deg2_length(d), rng):
            v = Deg2Vector(bits, d)
            assert str(v) == str(v.to_poly())

    @pytest.mark.parametrize("d", TEXT_DS)
    def test_deg2_polynomial(self, d):
        rng = random.Random(f"poly-text-{d}")
        polys = [Deg2Vector(bits, d).to_poly() for bits in _bit_cases(deg2_length(d), rng)]
        # products of linear forms, as the theta_j are
        for a, b in zip(_bit_cases(d, rng), reversed(_bit_cases(d, rng))):
            factors = [
                F2Polynomial(frozenset(Monomial((k + 1,)) for k in range(d) if m >> k & 1))
                for m in (a, b)
            ]
            polys.append(factors[0] * factors[1])
        for p in polys:
            assert deg2_text(p, d) == str(p)

    def test_vector_rejects_bits_past_the_layout(self):
        with pytest.raises(ValueError, match="out of range"):
            str(Deg2Vector(1 << deg2_length(3), 3))

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (X1, NotHomogeneousDegree2, "term x1 has degree 1"),
            (X3 * F2Polynomial.var(5), VariableOutOfRange, "x5 with d=4"),
        ],
    )
    def test_polynomial_off_the_table_raises_like_deg2_to_vector(self, bad, error, message):
        with pytest.raises(error, match=message):
            deg2_text(X1 * X2 + bad, 4)


class TestRowSpace:
    def test_contains_own_generator(self):
        v = Deg2Vector(0b101, 2)
        space = F2RowSpace([v], 2)
        assert row_space_membership(space, v)

    def test_zero_in_empty_span(self):
        space = F2RowSpace([], 3)
        assert row_space_membership(space, Deg2Vector(0, 3))

    def test_unit_not_in_other_unit_span(self):
        space = F2RowSpace([Deg2Vector(0b10, 2)], 2)
        assert not row_space_membership(space, Deg2Vector(0b01, 2))

    def test_length_mismatch(self):
        space = F2RowSpace([], 3)
        with pytest.raises(LengthMismatch):
            space.contains(Deg2Vector(0, 2))

    def test_echelon_invariants(self):
        rng = random.Random(7)
        for _ in range(50):
            d = rng.randrange(1, 5)
            vecs = [
                Deg2Vector(rng.getrandbits(deg2_length(d)), d)
                for _ in range(rng.randrange(0, 6))
            ]
            space = F2RowSpace(vecs, d)
            pivots = [b & -b for b in space.basis]
            assert all(b != 0 for b in space.basis)
            assert pivots == sorted(pivots)
            for k, b in enumerate(space.basis):
                for m, other in enumerate(space.basis):
                    if m != k:
                        assert not (other & pivots[k])

    def test_membership_matches_subset_sum_enumeration(self):
        # Independent oracle: try every subset sum of the generators.
        rng = random.Random(2024)
        for _ in range(40):
            d = rng.randrange(1, 5)
            length = deg2_length(d)
            gens = [
                Deg2Vector(rng.getrandbits(length), d)
                for _ in range(rng.randrange(0, 7))
            ]
            space = F2RowSpace(gens, d)
            assert space.dimension <= 12
            spanned = set()
            for mask in range(1 << len(gens)):
                acc = 0
                for k, g in enumerate(gens):
                    if (mask >> k) & 1:
                        acc ^= g.bits
                spanned.add(acc)
            for _ in range(10):
                probe = rng.getrandbits(length)
                assert space.contains(Deg2Vector(probe, d)) == (probe in spanned)


def check_reduction_trace(space: F2RowSpace, v: Deg2Vector) -> list:
    """The trace's three promises for one vector; returns the trace."""
    trace = space.reduction_trace(v)
    pivots = [b & -b for b in space.basis]
    # empty exactly when no basis pivot is set in v, and then v is reduced
    assert (not trace) == (not any(v.bits & p for p in pivots))
    if not trace:
        assert space.reduce(v) == v
    else:
        assert trace[-1][1] == space.reduce(v)
    # each step subtracts a basis row, in basis order, from the previous remainder
    order = [space.basis.index(b.bits) for b, _ in trace]
    assert order == sorted(set(order))
    remainder = v
    for subtracted, after in trace:
        assert subtracted.d == after.d == space.d
        assert after == remainder ^ subtracted
        remainder = after
    return trace


class TestReductionTrace:
    """F2RowSpace.reduction_trace, which rbott verify prints step by step."""

    def test_seeded_spaces(self):
        rng = random.Random("reduction-trace")
        empty = nonempty = 0
        for _ in range(300):
            d = rng.randrange(1, 9)
            length = deg2_length(d)
            gens = [Deg2Vector(rng.getrandbits(length), d) for _ in range(rng.randrange(8))]
            space = F2RowSpace(gens, d)
            probes = [Deg2Vector(0, d), *gens]
            if len(gens) > 1:
                a, b = rng.sample(gens, 2)
                probes.append(a ^ b)
            probes += [Deg2Vector(rng.getrandbits(length), d) for _ in range(4)]
            for v in probes:
                trace = check_reduction_trace(space, v)
                empty += not trace
                nonempty += bool(trace)
        assert empty > 100 and nonempty > 100

    def test_theta_spans_of_sampled_matrices(self):
        rng = random.Random("reduction-trace-thetas")
        for kind in sorted(samplers.SAMPLERS):
            for n in (2, 3, 4, 6, 8, 12):
                A = BottMatrix.from_row_masks(n, samplers.SAMPLERS[kind](n, rng))
                data = sw_data(to_pmatrix(A))
                space = ideal_deg2(data)
                d = data.d
                probes = [deg2_to_vector(p, d) for p in (data.w2, *data.thetas)]
                probes += [Deg2Vector(rng.getrandbits(deg2_length(d)), d) for _ in range(3)]
                for v in probes:
                    check_reduction_trace(space, v)


def dense_echelon(rows: list[int]) -> list[int]:
    """Dense Gauss-Jordan, F2RowSpace's elimination before it followed set bits.

    Each row is tested against every basis row, then back-substitution
    tests every row against every pivot.  Kept as the reference that the
    pivot-map elimination must reproduce row for row.
    """
    basis: list[int] = []
    for r in rows:
        for b in basis:
            if r & (b & -b):
                r ^= b
        if r:
            basis.append(r)
    basis.sort(key=lambda b: (b & -b).bit_length())
    for k, b in enumerate(basis):
        piv = b & -b
        for m in range(len(basis)):
            if m != k and basis[m] & piv:
                basis[m] ^= b
    return basis


def dense_trace(basis: list[int], bits: int) -> list[tuple[int, int]]:
    """(row, remainder) steps of reducing bits by every basis row in order."""
    steps = []
    for b in basis:
        if bits & (b & -b):
            bits ^= b
            steps.append((b, bits))
    return steps


def assert_matches_dense(gens: list[Deg2Vector], d: int, probes: list[Deg2Vector]) -> None:
    space = F2RowSpace(gens, d)
    basis = dense_echelon([g.bits for g in gens])
    assert space.basis == basis
    assert space.dimension == len(basis)
    for v in probes:
        trace = [(b.bits, r.bits) for b, r in space.reduction_trace(v)]
        assert trace == dense_trace(basis, v.bits)
        assert space.reduce(v).bits == (trace[-1][1] if trace else v.bits)


class TestAgainstDenseEchelon:
    """The pivot-map elimination gives the dense Gauss-Jordan's rows and traces."""

    def test_seeded_vector_sets(self):
        rng = random.Random("dense-echelon")
        for d in range(1, 65):
            length = deg2_length(d)
            for sparsity in (1, 3, 6):  # each bit set with probability 2^-sparsity
                rows = []
                for _ in range(rng.randrange(1, 2 * d + 2)):
                    r = rng.getrandbits(length)
                    for _ in range(sparsity - 1):
                        r &= rng.getrandbits(length)
                    rows.append(r)
                # zero, duplicate and dependent rows among the independent ones
                rows.append(0)
                rows.append(rng.choice(rows))
                a, b = rng.sample(rows, 2)
                rows.append(a ^ b)
                rng.shuffle(rows)
                gens = [Deg2Vector(r, d) for r in rows]
                probes = [Deg2Vector(0, d), *gens[:4], gens[0] ^ gens[-1]]
                probes += [Deg2Vector(rng.getrandbits(length), d) for _ in range(3)]
                assert_matches_dense(gens, d, probes)

    @pytest.mark.parametrize("n", [12, 48, 128])
    def test_theta_spans_of_sampled_matrices(self, n):
        rng = random.Random(f"dense-echelon-thetas-{n}")
        for kind in sorted(samplers.SAMPLERS):
            A = BottMatrix.from_row_masks(n, samplers.SAMPLERS[kind](n, rng))
            data = sw_data(to_pmatrix(A))
            d = data.d
            gens = [deg2_to_vector(t, d) for t in data.thetas]
            probes = [deg2_to_vector(data.w2, d), *gens[:3]]
            probes += [Deg2Vector(rng.getrandbits(deg2_length(d)), d) for _ in range(2)]
            assert_matches_dense(gens, d, probes)


class TestRendering:
    @given(mixed_polynomials(12))
    def test_matches_reference_rendering(self, p):
        expected = " + ".join(Monomial.__str__(m) for m in sorted(sorted(p.terms), key=len))
        assert str(p) == (expected or "0")

    def test_zero(self):
        assert str(ZERO) == "0"

    def test_graded_before_lex(self):
        assert str(ONE + X1) == "1 + x1"

    def test_lex_descending_within_degree(self):
        assert str(X1 * X2 + X2 * X2) == "x1*x2 + x2^2"
        assert str(X3 * X3 + F2Polynomial.var(4) * F2Polynomial.var(4)) == "x3^2 + x4^2"

    def test_exponent_rendering(self):
        m = Monomial.from_dict({1: 2, 3: 1})
        assert str(m) == "x1^2*x3"

    def test_deterministic(self):
        terms = [
            Monomial.from_dict({2: 1}),
            Monomial.from_dict({1: 1, 2: 1}),
            Monomial.from_dict({1: 2}),
        ]
        p = F2Polynomial.from_monomials(terms)
        q = F2Polynomial.from_monomials(reversed(terms))
        assert str(p) == str(q) == "x2 + x1^2 + x1*x2"


def test_monomial_equality_by_exponent_map():
    assert Monomial.from_dict({1: 1, 2: 1}) == Monomial.from_dict({2: 1, 1: 1})
    assert Monomial.from_dict({1: 1, 2: 0}) == Monomial.from_dict({1: 1})


def test_no_zero_exponents_stored():
    m = Monomial.from_dict({1: 2, 2: 0})
    assert all(e > 0 for _, e in m.exps)


# Reference arithmetic on exponent maps, independent of Monomial's layout:
# a polynomial is the set of frozensets of (variable, exponent) items with
# odd multiplicity.


def _key(exponents):
    return frozenset((v, e) for v, e in exponents.items() if e > 0)


def _odd(keys):
    return {k for k, c in Counter(keys).items() if c % 2}


def _ref_product(p_keys, q_keys):
    sums = []
    for a in p_keys:
        for b in q_keys:
            total = Counter(dict(a))
            total.update(dict(b))
            sums.append(_key(total))
    return _odd(sums)


def _poly(maps):
    return F2Polynomial.from_monomials(Monomial.from_dict(e) for e in maps)


small_maps = st.lists(exponent_maps(3, 2), max_size=6)


class TestAgainstReference:
    @given(small_maps, small_maps, st.integers(0, 5))
    @example([{1: 1}, {2: 1}], [{1: 1}, {2: 1}], 2)  # (x1 + x2)^2: cross terms cancel
    @example([{1: 1}, {1: 1, 2: 1}], [{2: 1}, {}], 3)  # x1*x2 twice: cancels
    def test_product_matches_exponent_maps(self, p_maps, q_maps, k):
        p_keys = _odd(_key(e) for e in p_maps)
        q_keys = _odd(_key(e) for e in q_maps)
        expected = _ref_product(p_keys, q_keys)
        p, q = _poly(p_maps), _poly(q_maps)
        assert {frozenset(m.exps) for m in (p * q).terms} == expected
        truncated = {t for t in expected if sum(e for _, e in t) <= k}
        assert {frozenset(m.exps) for m in p.mul_truncated(q, k).terms} == truncated

    @given(st.lists(st.lists(st.integers(1, 5), max_size=4).map(Counter), max_size=8))
    def test_rendering_matches_graded_lex(self, maps):
        # Rendering and order as defined before monomials became index
        # tuples: sort by (degree, ((var, -exp), ...)).
        def render(t):
            items = sorted(t)
            if not items:
                return "1"
            return "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in items)

        def old_key(t):
            items = sorted(t)
            return (sum(e for _, e in items), tuple((v, -e) for v, e in items))

        keys = sorted(_odd(_key(e) for e in maps), key=old_key)
        expected = " + ".join(render(t) for t in keys) if keys else "0"
        assert str(_poly(maps)) == expected

    @given(st.dictionaries(st.integers(1, 9), st.integers(0, 4), max_size=5))
    def test_exps_round_trip(self, e):
        m = Monomial.from_dict(e)
        assert m.exps == tuple(sorted((v, x) for v, x in e.items() if x > 0))
        assert m.degree == sum(e.values())
        assert Monomial.from_dict(dict(m.exps)) == m

    @pytest.mark.parametrize("bad", [{0: 1}, {-2: 1}, {1: -1}])
    def test_from_dict_validates(self, bad):
        with pytest.raises(ValueError):
            Monomial.from_dict(bad)


class TestTranspose:
    def test_against_entrywise_transpose(self):
        rng = random.Random("transpose")
        for width in range(1, 65):
            for rows in (1, 2, rng.randrange(3, 70)):
                masks = [rng.getrandbits(width) for _ in range(rows)]
                if rows > 1:
                    masks[0] = 0  # a zero row
                    masks[-1] = (1 << width) - 1  # a full row
                assert transpose(masks, width) == tuple(
                    sum((m >> j & 1) << i for i, m in enumerate(masks))
                    for j in range(width)
                )

    def test_twice_is_the_identity(self):
        rng = random.Random("transpose-twice")
        for _ in range(50):
            rows, width = rng.randrange(1, 65), rng.randrange(1, 65)
            masks = tuple(rng.getrandbits(width) for _ in range(rows))
            assert transpose(transpose(masks, width), rows) == masks
