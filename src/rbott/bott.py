"""Bott matrices and the manifolds they encode.

A strictly upper triangular n x n matrix over F2 determines a real Bott
manifold.  This module builds the associated P-matrix, decides the
Kähler condition (columns pair up into equal pairs), evaluates the
combinatorial spin criterion on the reduced matrix, decides spin by the
cohomological criterion in closed form, runs the generic cohomological
spin test (the referee) as an independent second route, and produces the
crystallographic generators of the fundamental group.

A BottMatrix is stored as n and its row bitmasks: bit j of row_masks[i]
is the entry a_ij (0-based), as in the census kernel.  The Kähler test,
the reduction, both spin criteria and the corollary work on those masks
and on their transpose column_masks; every entry-level view (rows,
columns, the text format, the generators) reads them; they are the
high plane of the P-matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .f2poly import bit_flags, transpose
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


_BLANKS = str.maketrans("", "", " \t")


def _entries(mask: int, n: int) -> tuple[int, ...]:
    """The n bits of mask as 0/1 entries, bit k at position k."""
    return tuple(bit_flags(mask | 1 << n)[:n])  # bit n makes at least n flags


def _store(A: BottMatrix, n: int, masks: list[int], lengths) -> BottMatrix:
    """Set the (frozen) fields of A to n and masks, after naming the first bad row or entry.

    lengths holds the number of entries each row was given with.
    """
    if n < 1:
        raise ValueError("matrix must have at least one row")
    if len(masks) != n:
        raise ValueError(f"{len(masks)} row masks, expected {n}")
    for i, (mask, length) in enumerate(zip(masks, lengths)):
        if length != n:
            raise ValueError(f"row {i + 1} has length {length}, expected {n}")
        if low := mask & ((2 << i) - 1):
            raise NotStrictlyUpperTriangular(i + 1, (low & -low).bit_length())
        if mask >> n:
            raise ValueError(f"row {i + 1} has a bit at or above column {n + 1}")
    A.__dict__.update(n=n, row_masks=tuple(masks))
    return A


@dataclass(frozen=True, init=False)
class BottMatrix:
    """Strictly upper triangular square matrix over F2: bit j of row_masks[i] is a_ij."""

    n: int
    row_masks: tuple[int, ...]

    def __init__(self, rows):
        n = len(rows)
        masks = [0] * n
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has length {len(row)}, expected {n}")
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"entry ({i + 1},{j + 1}) is {v}, not 0/1")
                if v and i >= j:
                    raise NotStrictlyUpperTriangular(i + 1, j + 1)
                masks[i] |= bool(v) << j
        _store(self, n, masks, [n] * n)

    @staticmethod
    def from_row_masks(n: int, masks: Iterable[int]) -> "BottMatrix":
        """The n x n matrix with a_ij = bit j of masks[i] (0-based); like BottMatrix(rows),
        it names the first bit on or below the diagonal, or at or above column n."""
        return _store(object.__new__(BottMatrix), n, list(masks), [n] * n)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_entries(m, self.n) for m in self.row_masks)

    def entry(self, i: int, j: int) -> int:
        return self.row_masks[i - 1] >> (j - 1) & 1

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Bit i of column_masks[j] is a_ij (0-based): the transpose of row_masks."""
        return transpose(self.row_masks, self.n)

    def column(self, j: int) -> tuple[int, ...]:
        return _entries(self.column_masks[j - 1], self.n)

    def columns(self) -> list[tuple[int, ...]]:
        return [_entries(m, self.n) for m in self.column_masks]

    @staticmethod
    def zero(n: int) -> "BottMatrix":
        return BottMatrix.from_row_masks(n, (0,) * n)

    @staticmethod
    def from_text(text: str) -> "BottMatrix":
        """Parse the matrix file format.

        Optional first line with the dimension n, then n lines of n
        characters from {0,1}; spaces inside rows are tolerated.
        """
        digits = [s for ln in text.translate(_BLANKS).splitlines() if (s := ln.strip())]
        if not digits:
            raise ValueError("empty matrix text")

        def line(k):
            # Dropping spaces and tabs keeps every line break and leaves blank
            # lines blank, so digits[k] comes from the k-th non-blank line.
            return [s for ln in text.splitlines() if (s := ln.strip())][k]

        def parse_rows(start, expected):
            rows = digits[start:]
            for k, row in enumerate(rows, start):
                if row.strip("01"):  # some character is not 0 or 1
                    raise ValueError(f"bad matrix row: {line(k)!r}")
            if len(rows) != expected:
                raise ValueError(f"header says {expected} rows, found {len(rows)}")
            masks = [int(d[::-1], 2) for d in rows]
            return _store(object.__new__(BottMatrix), expected, masks, map(len, rows))

        first = digits[0]
        if first.strip("01"):
            # A line that is not pure 0/1 digits must be the size header.
            try:
                expected = int(first)
            except ValueError:
                raise ValueError(f"bad header line: {line(0)!r}")
            return parse_rows(1, expected)
        try:
            return parse_rows(0, len(digits))
        except NotStrictlyUpperTriangular:
            raise
        except ValueError:
            # Headers of all-binary digits ("1", "10", ...) are ambiguous;
            # fall back to the header reading if it is consistent.
            if first.isdigit() and int(first) == len(digits) - 1:
                return parse_rows(1, len(digits) - 1)
            raise

    @staticmethod
    def from_inline(spec: str) -> "BottMatrix":
        """Parse an inline matrix like "011;001;000"."""
        return BottMatrix.from_text(spec.replace(";", "\n"))

    def to_text(self, header: bool = False) -> str:
        body = "\n".join(f"{m:0{self.n}b}"[::-1] for m in self.row_masks)
        return f"{self.n}\n{body}" if header else body


def to_pmatrix(A: BottMatrix) -> PMatrix:
    """P-matrix of the Bott manifold: 1 on the diagonal, 2 where a_ij = 1.

    The 1s are the low plane, the 2s (the row masks) the high plane.
    """
    n = A.n
    return PMatrix.from_planes(n, tuple(1 << i for i in range(n)), A.row_masks)


def is_kahler(A: BottMatrix) -> bool:
    """Ishida's criterion: the columns split into pairs of equal columns.

    Equivalent to every distinct column value occurring an even number
    of times (pair greedily within each equality class); forces even n.
    """
    return all(m % 2 == 0 for m in Counter(A.column_masks).values())


def is_orientable(A: BottMatrix) -> bool:
    """w1 = 0: every row of A has even weight."""
    return all(r.bit_count() % 2 == 0 for r in A.row_masks)


@dataclass(frozen=True)
class ReducedMatrix:
    """Half of the columns of a Kähler Bott matrix, one per pair, with row sums.

    kept_masks[k] is the mask of column kept_columns[k], bit i its entry in row i + 1.
    """

    kept_columns: tuple[int, ...]
    kept_masks: tuple[int, ...]
    row_sums: tuple[int, ...]

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """The kept columns as 0/1 entries."""
        n = len(self.row_sums)
        return tuple(_entries(m, n) for m in self.kept_masks)


def _column_pairs(A: BottMatrix) -> Counter:
    """How often each column occurs; raises NotKahler unless every count is even."""
    mult = Counter(A.column_masks)
    if any(m % 2 for m in mult.values()):
        raise NotKahler("columns do not pair up into equal pairs")
    return mult


def reduce(A: BottMatrix) -> ReducedMatrix:
    """Keep the first half, by index, of each column equality class.

    The row sums are the bits of the xor of the kept column masks.
    """
    left = {col: m // 2 for col, m in _column_pairs(A).items()}
    kept: list[int] = []
    masks: list[int] = []
    sums = 0
    for j, col in enumerate(A.column_masks, start=1):
        if left[col]:
            left[col] -= 1
            kept.append(j)
            masks.append(col)
            sums ^= col
    return ReducedMatrix(tuple(kept), tuple(masks), _entries(sums, A.n))


def spin_main_theorem(A: BottMatrix) -> bool:
    """Combinatorial spin test: every row with odd reduced sum has a zero column.

    Requires the Kähler condition; raises NotKahler otherwise.
    """
    return spin_main_theorem_on(A, reduce(A))


def spin_main_theorem_on(A: BottMatrix, reduced: ReducedMatrix) -> bool:
    """spin_main_theorem, given the reduction of A already made."""
    return all(col == 0 for col, s in zip(A.column_masks, reduced.row_sums) if s)


def spin_closed_form(A: BottMatrix) -> bool:
    """Cohomological spin criterion in closed form; defined for any Bott matrix.

    With m_a the weight of row r_a and t_j = r_j xor (((m_j >> 1) & 1) << j):
    spin iff every m_a is even and |r_i AND t_j| is even for all i < j.
    The derivation from the cohomology ring of Kamishima and Masuda
    ("Cohomological rigidity of real Bott manifolds", 2009) is in the
    docstring of rbott._kernels; spin_oracle is the generic referee.
    """
    rows = A.row_masks
    weights = [r.bit_count() for r in rows]
    if any(m % 2 for m in weights):
        return False
    t = [r ^ ((m >> 1 & 1) << j) for j, (r, m) in enumerate(zip(rows, weights))]
    return not any(
        (rows[i] & t[j]).bit_count() % 2 for j in range(A.n) for i in range(j)
    )


def spin_oracle(A: BottMatrix) -> bool:
    """Cohomological spin test via the P-matrix; defined for any Bott matrix."""
    return admits_spin_oracle(to_pmatrix(A))


def corollary_check(A: BottMatrix) -> bool:
    """Nonzero columns split into 4-element groups of equal columns.

    A sufficient condition for spin; requires the Kähler condition.
    """
    return all(m % 4 == 0 for col, m in _column_pairs(A).items() if col)


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
        return _isometry(
            self.signs,
            tuple(-s * t for s, t in zip(self.signs, self.half_translation)),
        )


def _isometry(signs: tuple[int, ...], half_translation: tuple[int, ...]) -> AffineIsometry:
    """The isometry of parts known to be valid: +-1 signs, as many as translations.
    Checks nothing; AffineIsometry(...) checks outside input."""
    g = object.__new__(AffineIsometry)
    g.__dict__.update(signs=signs, half_translation=half_translation)
    return g


def compose(s: AffineIsometry, t: AffineIsometry) -> AffineIsometry:
    """Group law (S, a) * (T, b) = (S T, S b + a)."""
    if s.n != t.n:
        raise DimensionMismatch(f"{s.n} vs {t.n}")
    signs = tuple(a * b for a, b in zip(s.signs, t.signs))
    trans = tuple(
        sa * tb + ta
        for sa, tb, ta in zip(s.signs, t.half_translation, s.half_translation)
    )
    return _isometry(signs, trans)


def generators(A: BottMatrix) -> list[AffineIsometry]:
    """Crystallographic generators of the fundamental group of the manifold.

    The i-th generator flips coordinate k > i exactly when a_ik = 1 and
    translates by half a unit along coordinate i; the last generator is
    a pure half-unit translation.
    """
    n = A.n
    gens = []
    for i, row in enumerate(A.row_masks):
        # strictly upper triangular: bit k of row is 0 for k <= i
        signs = tuple(-1 if row >> k & 1 else 1 for k in range(n))
        trans = tuple(1 if k == i else 0 for k in range(n))
        gens.append(_isometry(signs, trans))
    return gens
