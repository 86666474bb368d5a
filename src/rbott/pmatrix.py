"""P-matrices of diagonal actions of elementary abelian 2-groups on tori.

Entries come from P = {0, 1, 2, 3}, identifying the value k with the
circle automorphism g_k (identity, half-rotation, conjugation, their
composite).  A d x n P-matrix records which automorphism each of the d
generators applies to each of the n torus coordinates.  The module
decides freeness and full holonomy of the action, computes the classes
alpha_j, beta_j, theta_j and the degree <= 2 Stiefel-Whitney data, and
exposes the cohomological spin test via degree-2 ideal membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import xor

from .f2poly import (
    Deg2Vector,
    F2Polynomial,
    F2RowSpace,
    deg2_to_vector,
    poly_sum,
    row_space_membership,
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


@dataclass(frozen=True)
class PMatrix:
    """d x n matrix over P; rows index group generators, columns torus coordinates."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("P-matrix must have at least one row and column")
        n = len(self.entries[0])
        for row in self.entries:
            if len(row) != n:
                raise ValueError("ragged P-matrix")
            for v in row:
                if v not in (0, 1, 2, 3):
                    raise InvalidPEntry(f"entry {v}")

    @property
    def d(self) -> int:
        return len(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_text(text: str) -> "PMatrix":
        """Parse d lines of digits 0-3, contiguous or whitespace-separated."""
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            digits = line.split() if " " in line or "\t" in line else list(line)
            rows.append(tuple(int(tok) for tok in digits))
        if not rows:
            raise ValueError("empty P-matrix text")
        return PMatrix(tuple(rows))

    def to_text(self) -> str:
        return "\n".join("".join(str(v) for v in row) for row in self.entries)

    def column(self, j: int) -> tuple[int, ...]:
        if not 1 <= j <= self.n:
            raise ColumnOutOfRange(f"column {j} of {self.n}")
        return tuple(row[j - 1] for row in self.entries)


def _row_subset_sums(E: PMatrix):
    """Every nonempty row-subset sum, smallest subsets first.

    Entries add in F2^2 (xor of 0..3), so a row packed two bits per
    column (column j at bits 2j, 2j+1) sums by integer xor.
    """
    packed = [sum(v << 2 * j for j, v in enumerate(row)) for row in E.entries]
    for size in range(1, E.d + 1):
        for subset in combinations(packed, size):
            yield reduce(xor, subset)


def is_free_action(E: PMatrix) -> bool:
    """Action has no fixed points: every nonempty row-subset sum contains a 1."""
    low = int("01" * E.n, 2)  # the low bit of every column's digit
    # a digit is 1 when its low bit is set and its high bit clear
    return all(s & ~(s >> 1) & low for s in _row_subset_sums(E))


def has_full_holonomy(E: PMatrix) -> bool:
    """Whole group acts as holonomy: every row-subset sum contains a 2 or 3."""
    low = int("01" * E.n, 2)
    # a digit is 2 or 3 when its high bit is set
    return all((s >> 1) & low for s in _row_subset_sums(E))


def class_alpha_j(E: PMatrix, j: int) -> F2Polynomial:
    col = E.column(j)
    return poly_sum(
        F2Polynomial.var(i + 1) for i, v in enumerate(col) if alpha_form(v)
    )


def class_beta_j(E: PMatrix, j: int) -> F2Polynomial:
    col = E.column(j)
    return poly_sum(
        F2Polynomial.var(i + 1) for i, v in enumerate(col) if beta_form(v)
    )


def class_theta_j(E: PMatrix, j: int) -> F2Polynomial:
    return class_alpha_j(E, j) * class_beta_j(E, j)


@dataclass(frozen=True)
class SWData:
    """Degree <= 2 Stiefel-Whitney data of the quotient manifold."""

    w1: F2Polynomial
    w2: F2Polynomial
    thetas: tuple[F2Polynomial, ...]


def sw_data(E: PMatrix) -> SWData:
    """w1 and w2 of the quotient plus the ideal generators theta_j.

    Uses the elementary symmetric sums e1, e2 of c_j = alpha_j + beta_j
    rather than expanding the full n-fold product.
    """
    cs = [class_alpha_j(E, j) + class_beta_j(E, j) for j in range(1, E.n + 1)]
    w1 = poly_sum(cs)
    w2 = F2Polynomial.zero()
    prefix = F2Polynomial.zero()
    for c in cs:
        w2 = w2 + prefix * c
        prefix = prefix + c
    thetas = tuple(class_theta_j(E, j) for j in range(1, E.n + 1))
    return SWData(w1=w1, w2=w2, thetas=thetas)


def total_sw_class(E: PMatrix, max_degree: int) -> F2Polynomial:
    """Product of (1 + alpha_j + beta_j) over all columns, truncated."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    acc = F2Polynomial.one()
    for j in range(1, E.n + 1):
        factor = F2Polynomial.one() + class_alpha_j(E, j) + class_beta_j(E, j)
        acc = acc.mul_truncated(factor, max_degree)
    return acc


def characteristic_ideal_deg2(E: PMatrix) -> F2RowSpace:
    """Degree-2 piece of the ideal generated by the theta_j, as a row space."""
    vectors = [
        deg2_to_vector(class_theta_j(E, j), E.d) for j in range(1, E.n + 1)
    ]
    return F2RowSpace(vectors, E.d)


def is_orientable(E: PMatrix) -> bool:
    """True iff w1 vanishes."""
    return sw_data(E).w1.is_zero()


def admits_spin_oracle(E: PMatrix, include_orientability: bool = True) -> bool:
    """Cohomological spin test: w2 lies in the degree-2 ideal span.

    With include_orientability (default) the quotient must also have
    w1 = 0; the bare membership test is available for callers who want
    only the ideal condition.
    """
    data = sw_data(E)
    if include_orientability and not data.w1.is_zero():
        return False
    space = characteristic_ideal_deg2(E)
    w2_vec = deg2_to_vector(data.w2, E.d)
    return row_space_membership(space, w2_vec)
