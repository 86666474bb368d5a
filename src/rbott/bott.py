"""Bott matrices and the manifolds they encode.

A strictly upper triangular n x n matrix over F2 determines a real Bott
manifold.  This module builds the associated P-matrix, decides the
Kähler condition (columns pair up into equal pairs), evaluates the
combinatorial spin criterion on the reduced matrix, runs the
cohomological spin test as an independent second route, and produces
the crystallographic generators of the fundamental group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .pmatrix import PMatrix, admits_spin_oracle


class NotStrictlyUpperTriangular(ValueError):
    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"nonzero entry at ({i},{j}) on or below the diagonal")


class NotKahler(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


@dataclass(frozen=True)
class BottMatrix:
    """Strictly upper triangular square matrix over F2."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"entry ({i + 1},{j + 1}) is {v}, not 0/1")
                if v and i >= j:
                    raise NotStrictlyUpperTriangular(i + 1, j + 1)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - 1]

    @cached_property
    def _columns(self) -> tuple[tuple[int, ...], ...]:
        # Built on first use; not a field, so it stays out of __eq__/__hash__.
        return tuple(zip(*self.rows))

    def column(self, j: int) -> tuple[int, ...]:
        return self._columns[j - 1]

    def columns(self) -> list[tuple[int, ...]]:
        return list(self._columns)

    @staticmethod
    def zero(n: int) -> "BottMatrix":
        return BottMatrix(tuple((0,) * n for _ in range(n)))

    @staticmethod
    def from_text(text: str) -> "BottMatrix":
        """Parse the matrix file format.

        Optional first line with the dimension n, then n lines of n
        characters from {0,1}; spaces inside rows are tolerated.
        """
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty matrix text")

        def parse_rows(body):
            rows = []
            for ln in body:
                digits = ln.replace(" ", "").replace("\t", "")
                if set(digits) - {"0", "1"}:
                    raise ValueError(f"bad matrix row: {ln!r}")
                rows.append(tuple(int(c) for c in digits))
            return tuple(rows)

        first = lines[0].replace(" ", "").replace("\t", "")
        if set(first) - {"0", "1"}:
            # A line that is not pure 0/1 digits must be the size header.
            try:
                expected = int(first)
            except ValueError:
                raise ValueError(f"bad header line: {lines[0]!r}")
            rows = parse_rows(lines[1:])
            if len(rows) != expected:
                raise ValueError(f"header says {expected} rows, found {len(rows)}")
            return BottMatrix(rows)
        try:
            return BottMatrix(parse_rows(lines))
        except NotStrictlyUpperTriangular:
            raise
        except ValueError:
            # Headers of all-binary digits ("1", "10", ...) are ambiguous;
            # fall back to the header reading if it is consistent.
            if first.isdigit() and int(first) == len(lines) - 1:
                return BottMatrix(parse_rows(lines[1:]))
            raise

    @staticmethod
    def from_inline(spec: str) -> "BottMatrix":
        """Parse an inline matrix like "011;001;000"."""
        return BottMatrix.from_text(spec.replace(";", "\n"))

    def to_text(self, header: bool = False) -> str:
        body = "\n".join("".join(str(v) for v in row) for row in self.rows)
        return f"{self.n}\n{body}" if header else body


def to_pmatrix(A: BottMatrix) -> PMatrix:
    """P-matrix of the Bott manifold: 1 on the diagonal, 2 where a_ij = 1."""
    n = A.n
    entries = tuple(
        tuple(
            1 if i == j else (2 if A.rows[i][j] else 0) for j in range(n)
        )
        for i in range(n)
    )
    return PMatrix(entries)


def _column_multiplicities(A: BottMatrix) -> Counter:
    return Counter(A.columns())


def is_kahler(A: BottMatrix) -> bool:
    """Ishida's criterion: the columns split into pairs of equal columns.

    Equivalent to every distinct column value occurring an even number
    of times (pair greedily within each equality class); forces even n.
    """
    return all(m % 2 == 0 for m in _column_multiplicities(A).values())


@dataclass(frozen=True)
class ReducedMatrix:
    """Half of the columns of a Kähler Bott matrix, one per pair, with row sums."""

    kept_columns: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]
    row_sums: tuple[int, ...]


def reduce(A: BottMatrix) -> ReducedMatrix:
    """Keep the lexicographically smallest half of each column equality class."""
    if not is_kahler(A):
        raise NotKahler("columns do not pair up into equal pairs")
    mult = _column_multiplicities(A)
    seen: Counter = Counter()
    kept: list[int] = []
    for j in range(1, A.n + 1):
        col = A.column(j)
        if seen[col] < mult[col] // 2:
            kept.append(j)
            seen[col] += 1
    cols = tuple(A.column(j) for j in kept)
    row_sums = tuple(sum(row) % 2 for row in zip(*cols))
    return ReducedMatrix(tuple(kept), cols, row_sums)


def spin_main_theorem(A: BottMatrix) -> bool:
    """Combinatorial spin test: every row with odd reduced sum has a zero column.

    Requires the Kähler condition; raises NotKahler otherwise.
    """
    reduced = reduce(A)
    zero = (0,) * A.n
    return all(
        A.column(i) == zero
        for i, s in enumerate(reduced.row_sums, start=1)
        if s == 1
    )


def spin_oracle(A: BottMatrix) -> bool:
    """Cohomological spin test via the P-matrix; defined for any Bott matrix."""
    return admits_spin_oracle(to_pmatrix(A))


def corollary_check(A: BottMatrix) -> bool:
    """Nonzero columns split into 4-element groups of equal columns.

    A sufficient condition for spin; requires the Kähler condition.
    """
    if not is_kahler(A):
        raise NotKahler("columns do not pair up into equal pairs")
    zero = (0,) * A.n
    return all(
        m % 4 == 0
        for col, m in _column_multiplicities(A).items()
        if col != zero
    )


@dataclass(frozen=True)
class AffineIsometry:
    """Isometry of R^n with diagonal +-1 orthogonal part.

    The translation is stored in half-units: half_translation[k] = t
    means the k-th coordinate of the translation is t/2.  This keeps
    all arithmetic exact.
    """

    signs: tuple[int, ...]
    half_translation: tuple[int, ...]

    def __post_init__(self):
        if len(self.signs) != len(self.half_translation):
            raise DimensionMismatch("signs and translation lengths differ")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +-1")

    @property
    def n(self) -> int:
        return len(self.signs)

    @staticmethod
    def identity(n: int) -> "AffineIsometry":
        return AffineIsometry((1,) * n, (0,) * n)

    def is_identity(self) -> bool:
        return all(s == 1 for s in self.signs) and all(
            t == 0 for t in self.half_translation
        )

    def inverse(self) -> "AffineIsometry":
        # (S, a)^-1 = (S, -S a) for diagonal involutive S.
        return AffineIsometry(
            self.signs,
            tuple(-s * t for s, t in zip(self.signs, self.half_translation)),
        )


def compose(s: AffineIsometry, t: AffineIsometry) -> AffineIsometry:
    """Group law (S, a) * (T, b) = (S T, S b + a)."""
    if s.n != t.n:
        raise DimensionMismatch(f"{s.n} vs {t.n}")
    signs = tuple(a * b for a, b in zip(s.signs, t.signs))
    trans = tuple(
        sa * tb + ta
        for sa, tb, ta in zip(s.signs, t.half_translation, s.half_translation)
    )
    return AffineIsometry(signs, trans)


def generators(A: BottMatrix) -> list[AffineIsometry]:
    """Crystallographic generators of the fundamental group of the manifold.

    The i-th generator flips coordinate k > i exactly when a_ik = 1 and
    translates by half a unit along coordinate i; the last generator is
    a pure half-unit translation.
    """
    n = A.n
    gens = []
    for i, row in enumerate(A.rows):
        # strictly upper triangular: row[k] is 0 for k <= i
        signs = tuple(-1 if v else 1 for v in row)
        trans = tuple(1 if k == i else 0 for k in range(n))
        gens.append(AffineIsometry(signs, trans))
    return gens
