"""P-matrices of diagonal actions of elementary abelian 2-groups on tori.

Entries come from P = {0, 1, 2, 3}, identifying the value k with the
circle automorphism g_k (identity, half-rotation, conjugation, their
composite).  A d x n P-matrix records which automorphism each of the d
generators applies to each of the n torus coordinates.  The module
decides freeness and full holonomy of the action, computes the classes
alpha_j, beta_j, theta_j and the degree <= 2 Stiefel-Whitney data, and
exposes the cohomological spin test via degree-2 ideal membership.

A PMatrix is stored as n and two row bit-planes, entry = low + 2 high
bit by bit.  Every reader works on the planes; entries and column(j)
are views for printing and for the reference class_*_j.

sw_data is the generic referee that the closed-form spin criterion and
the census kernel are tested against.  It carries the linear classes as
bitmasks of the d variables while it expands w2 (see its docstring) and
hands back F2Polynomials along with those masks and w2's vector; it
imports nothing from rbott.bott or the census kernel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import Iterator

from .f2poly import (
    Deg2Vector,
    F2Polynomial,
    F2RowSpace,
    Monomial,
    bit_flags,
    deg2_to_vector,
    row_space_membership,
    transpose,
)


class ColumnOutOfRange(IndexError):
    pass


class InvalidPEntry(ValueError):
    pass


def pentry_add(a: int, b: int) -> int:
    """F2-vector-space addition on P = {0,1,2,3}: xor of the two values."""
    if a not in (0, 1, 2, 3) or b not in (0, 1, 2, 3):
        raise InvalidPEntry(f"{a} + {b}")
    return a ^ b


def alpha_form(a: int) -> int:
    """Linear form alpha: 0,3 -> 0 and 1,2 -> 1."""
    return (a ^ (a >> 1)) & 1


def beta_form(a: int) -> int:
    """Linear form beta: 0,2 -> 0 and 1,3 -> 1."""
    return a & 1


def _bytewise(mask: int) -> int:
    """mask with bit k moved to bit 8k: byte k is bit k of mask."""
    return int.from_bytes(bit_flags(mask), "little")


# an entry by its value: 1.0 and True are 1, as `in (0, 1, 2, 3)` reads them
_ENTRY_BITS = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}


@dataclass(frozen=True, init=False)
class PMatrix:
    """d x n matrix over P; rows index group generators, columns torus coordinates.

    Stored as n and two row bit-planes: entry (i, j) (0-based) is bit j of
    low[i] plus twice bit j of high[i].
    """

    n: int
    low: tuple[int, ...]
    high: tuple[int, ...]

    def __init__(self, entries):
        if not entries or not entries[0]:
            raise ValueError("P-matrix must have at least one row and column")
        n = len(entries[0])
        low, high = [], []
        for row in entries:
            if len(row) != n:
                raise ValueError("ragged P-matrix")
            lo = hi = 0
            for j, v in enumerate(row):
                try:
                    a, b = _ENTRY_BITS[v]
                except (KeyError, TypeError):  # TypeError: an unhashable entry
                    raise InvalidPEntry(f"entry {v}") from None
                lo |= a << j
                hi |= b << j
            low.append(lo)
            high.append(hi)
        self.__dict__.update(n=n, low=tuple(low), high=tuple(high))

    @staticmethod
    def from_planes(n: int, low: tuple[int, ...], high: tuple[int, ...]) -> "PMatrix":
        """The P-matrix of planes known to be valid: d >= 1 of each, all below 2^n.
        Checks nothing; PMatrix(entries) checks outside input."""
        E = object.__new__(PMatrix)
        E.__dict__.update(n=n, low=low, high=high)
        return E

    @property
    def d(self) -> int:
        return len(self.low)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        # byte j of _bytewise(lo) | _bytewise(hi) << 1 is entry j of the row
        return tuple(
            tuple((_bytewise(lo) | _bytewise(hi) << 1).to_bytes(self.n, "little"))
            for lo, hi in zip(self.low, self.high)
        )

    def column(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.n:
            raise ColumnOutOfRange(f"column {j} of {self.n}")
        k = j - 1
        return tuple((lo >> k & 1) | (hi >> k & 1) << 1 for lo, hi in zip(self.low, self.high))


def _row_subset_sums(E: PMatrix) -> Iterator[int]:
    """Every nonempty row-subset sum, the single rows first.

    Entries add in F2^2 (xor of 0..3), so rows packed as low | high << n
    sum by integer xor.  After the single rows, the subsets of two or
    more rows whose last row is p are the nonempty subsets of the rows
    before p, each xor p: one xor per subset.  The order matters for the
    predicates below, which stop at the first failing subset: a single
    row fails at once on many inputs (the last row of a Bott matrix's
    P-matrix has no 2 or 3), where all the subsets are 2^d - 1.
    """
    packed = [lo | hi << E.n for lo, hi in zip(E.low, E.high)]
    yield from packed
    sums: list[int] = []  # the nonempty subsets of the rows so far
    for p in packed:
        larger = [s ^ p for s in sums]
        yield from larger
        sums += larger
        sums.append(p)


def is_free_action(E: PMatrix) -> bool:
    """Action has no fixed points: every nonempty row-subset sum contains a 1."""
    n = E.n  # an entry is 1 when its low bit is set and its high bit clear
    full = (1 << n) - 1
    return all(s & ~(s >> n) & full for s in _row_subset_sums(E))


def has_full_holonomy(E: PMatrix) -> bool:
    """Whole group acts as holonomy: every row-subset sum contains a 2 or 3."""
    n = E.n  # an entry is 2 or 3 when its high bit is set
    return all(s >> n for s in _row_subset_sums(E))


def _linear_form(col: tuple[int, ...], form) -> F2Polynomial:
    """Sum of the x_i over the rows i where form(col[i - 1]) is 1."""
    return F2Polynomial(
        frozenset(Monomial((i,)) for i, v in enumerate(col, start=1) if form(v))
    )


def class_alpha_j(E: PMatrix, j: int) -> F2Polynomial:
    return _linear_form(E.column(j), alpha_form)


def class_beta_j(E: PMatrix, j: int) -> F2Polynomial:
    return _linear_form(E.column(j), beta_form)


def class_theta_j(E: PMatrix, j: int) -> F2Polynomial:
    return class_alpha_j(E, j) * class_beta_j(E, j)


def _ones(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    flags = bit_flags(mask)
    return compress(range(len(flags)), flags)


@functools.cache
def _variables(d: int) -> tuple[Monomial, ...]:
    """x_1, ..., x_d; entry a is x_{a + 1}."""
    return tuple(Monomial((i,)) for i in range(1, d + 1))


def _linear_poly(mask: int, d: int) -> F2Polynomial:
    """Sum of the x_{k + 1} over the set bits k of mask."""
    return F2Polynomial(frozenset(compress(_variables(d), bit_flags(mask))))


@dataclass(frozen=True)
class SWData:
    """Degree <= 2 Stiefel-Whitney data of the quotient manifold.

    The classes live in F2[x1, ..., xd]; alphas[j - 1], betas[j - 1] and
    thetas[j - 1] belong to column j.  The bit forms sw_data computes
    come along: masks[j - 1] is (beta_j, c_j) as d-bit masks, bit a the
    coefficient of x_{a+1}, with alpha_j = beta_j xor c_j; w1_mask is
    w1 as such a mask and w2_vector is w2.  w2 is built from w2_vector
    on first use.
    """

    d: int
    alphas: tuple[F2Polynomial, ...]
    betas: tuple[F2Polynomial, ...]
    w1: F2Polynomial
    thetas: tuple[F2Polynomial, ...]
    masks: tuple[tuple[int, int], ...]
    w1_mask: int
    w2_vector: Deg2Vector

    @functools.cached_property
    def w2(self) -> F2Polynomial:
        return self.w2_vector.to_poly()


def sw_data(E: PMatrix) -> SWData:
    """alpha_j, beta_j, w1 and w2 of the quotient, and the ideal generators theta_j.

    The total class is w = prod_j (1 + c_j) with c_j = alpha_j + beta_j
    (Kamishima and Masuda, "Cohomological rigidity of real Bott
    manifolds", 2009), so w1 = sum_j c_j and
    w2 = sum_j (c_1 + ... + c_{j-1}) c_j.

    Each linear class is a d-bit mask, bit a the coefficient of x_{a+1},
    read from one transpose of the stacked planes: beta_j is column j of
    the low plane, c_j (the rows whose entry is 2 or 3) column j of the
    high plane, and alpha_j = beta_j xor c_j.  w2 is expanded term by
    term into a d x d matrix S over F2, held as row masks: multiplying the
    prefix by c_j adds c_j to row a of S for every bit a of the prefix.
    T, the transpose of S, is kept alongside, getting the prefix in row
    b for every bit b of c_j.  Since x_a x_b = x_b x_a, the coefficient
    of x_{a+1} x_{b+1} (a < b) is S[a][b] + S[b][a], which is bit b of
    S[a] xor T[a]; that of x_{a+1}^2 is bit a of S[a].  Row a of these
    coefficients, from x_{a+1}^2 on, is row a of the row-major Deg2Vector
    layout, so w2 is written as one vector.

    This is the product itself, term by term, on any d x n P-matrix:
    masks only replace sets of monomials.  It uses no row weights and
    not the closed form of bott.spin_closed_form, which is tested
    against this referee.  The theta_j stay products alpha_j * beta_j
    of polynomials.
    """
    d = E.d
    full = (1 << d) - 1
    masks = tuple((t & full, t >> d) for t in transpose(E.low + E.high, E.n))
    S = [0] * d
    T = [0] * d
    prefix = 0
    for _, c in masks:
        for a in _ones(prefix):
            S[a] ^= c
        for b in _ones(c):
            T[b] ^= prefix
        prefix ^= c
    w2 = 0
    offset = 0  # pair_index(a + 1, a + 1, d), where row a of the layout starts
    for a, (row, col) in enumerate(zip(S, T)):
        # bit k is the coefficient of x_{a+1} x_{a+1+k}: the square at k = 0
        upper = ((row ^ col) >> a & ~1) | (row >> a & 1)
        w2 |= upper << offset
        offset += d - a
    alphas = tuple(_linear_poly(beta ^ c, d) for beta, c in masks)
    betas = tuple(_linear_poly(beta, d) for beta, _ in masks)
    return SWData(
        d=d,
        alphas=alphas,
        betas=betas,
        w1=_linear_poly(prefix, d),
        thetas=tuple(a * b for a, b in zip(alphas, betas)),
        masks=masks,
        w1_mask=prefix,
        w2_vector=Deg2Vector(w2, d),
    )


def total_sw_class(E: PMatrix, max_degree: int) -> F2Polynomial:
    """Product of (1 + alpha_j + beta_j) over all columns, truncated."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    acc = F2Polynomial.one()
    for j in range(1, E.n + 1):
        factor = F2Polynomial.one() + class_alpha_j(E, j) + class_beta_j(E, j)
        acc = acc.mul_truncated(factor, max_degree)
    return acc


def ideal_deg2(data: SWData) -> F2RowSpace:
    """Degree-2 piece of the ideal generated by data.thetas, as a row space."""
    return F2RowSpace([deg2_to_vector(t, data.d) for t in data.thetas], data.d)


def is_spin(data: SWData) -> bool:
    """Cohomological spin test: w1 = 0 and w2 lies in the degree-2 ideal span."""
    return data.w1_mask == 0 and row_space_membership(ideal_deg2(data), data.w2_vector)


def characteristic_ideal_deg2(E: PMatrix) -> F2RowSpace:
    """Degree-2 piece of the ideal generated by the theta_j, as a row space."""
    return ideal_deg2(sw_data(E))


def is_orientable(E: PMatrix) -> bool:
    """True iff w1 = sum_j (alpha_j + beta_j) vanishes; builds nothing of degree 2."""
    # the coefficient of x_i in w1 is the parity of the 2s and 3s in row i
    return not any(hi.bit_count() % 2 for hi in E.high)


def admits_spin_oracle(E: PMatrix) -> bool:
    """Cohomological spin test of the quotient of E: is_spin on its SWData."""
    return is_spin(sw_data(E))
