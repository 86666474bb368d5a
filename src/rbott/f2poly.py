"""Sparse multivariate polynomial arithmetic over F2.

Polynomials live in F2[x1, ..., xd] and are stored as sets of monomials
(every present monomial has coefficient 1).  The module also provides a
coordinate form for homogeneous degree-2 polynomials and reduced row
spaces over F2, which together turn degree-2 ideal membership into
Gaussian elimination.

A monomial is a tuple of 1-based variable indices in non-decreasing
order, one entry per factor: x1^2*x3 is (1, 1, 3) and 1 is ().  Its
degree is its length and a product is the sorted concatenation.

Polynomials print in graded lex order: ascending degree, then descending
lexicographic on exponents with x1 most significant.  Within one degree
this is ascending tuple order.  Where two index tuples of equal length
first differ, the smaller index a either repeats the previous index
(a larger exponent on that variable, the other tuple's run having
ended) or starts a new variable a that the other tuple skips in favour
of a less significant one.  Either way the first tuple comes first in
graded lex.

Classes of degree 1 and 2 also print from their bit forms, byte for byte
as str of the polynomial: linear_text from a mask of the d variables and
str of a Deg2Vector (see _texts for why table order is graded lex order).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress, groupby
from typing import Iterable, Mapping, Sequence


class NotHomogeneousDegree2(ValueError):
    """Polynomial has a term whose degree is not 2."""


class VariableOutOfRange(ValueError):
    """Monomial uses a variable index above the declared count."""


class LengthMismatch(ValueError):
    """Degree-2 vectors have different lengths."""


class Monomial(tuple):
    """Product of variables as its sorted index tuple (see the module docstring).

    Hash and equality are the tuple's; ``exps`` gives (index, exponent) pairs.
    """

    __slots__ = ()

    @staticmethod
    def from_dict(exponents: Mapping[int, int]) -> "Monomial":
        factors: list[int] = []
        for var, exp in sorted(exponents.items()):
            if var < 1:
                raise ValueError(f"variable index must be >= 1, got {var}")
            if exp < 0:
                raise ValueError(f"negative exponent for x{var}")
            factors += [var] * exp
        return Monomial(factors)

    @property
    def exps(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, len(list(run))) for v, run in groupby(self))

    @property
    def degree(self) -> int:
        return len(self)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(sorted(self + other))

    def __str__(self) -> str:
        if not self:
            return "1"
        return "*".join(
            f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in self.exps
        )


ONE_MONOMIAL = Monomial(())

# The pair table: _PAIRS[x_i][x_j] is the monomial x_i*x_j (one object for
# both orders) for all i, j up to the largest index of a product of two
# linear terms so far.  It is keyed by variables only, never by an input,
# and grown by one thread at a time (the census shards are processes).
_PAIRS: dict[Monomial, dict[Monomial, Monomial]] = {}
# The table's size is quadratic in its largest index, so it stops at the
# largest d that sw and verify accept (cli.REFEREE_MAX_N), 18 MB; a product
# with a larger index is built term by term.
_PAIRS_MAX = 512


def _grow_pairs(d: int) -> None:
    """Extend the pair table to every x_i*x_j with i, j <= d."""
    for j in range(len(_PAIRS) + 1, d + 1):
        x = Monomial((j,))
        new = _PAIRS[x] = {}
        for y, row in _PAIRS.items():  # y is x_i for i <= j, x itself last
            row[x] = new[y] = Monomial((y[0], j))


def _times(a: Monomial, cols: Iterable[Monomial]) -> list[Monomial]:
    """a*b for every b in cols, from the pair table when a and b are linear
    and the table's bound allows."""
    if len(a) == 1:
        row = _PAIRS.get(a)
        if row is not None:
            try:
                return [row[b] for b in cols]
            except KeyError:  # a term of cols is not linear, or above the table
                pass
        top = max([b[0] for b in cols if len(b) == 1], default=0)
        if 0 < top <= _PAIRS_MAX and a[0] <= _PAIRS_MAX:
            _grow_pairs(max(top, a[0]))
            row = _PAIRS[a]
            return [row[b] if len(b) == 1 else Monomial(sorted(a + b)) for b in cols]
    return [Monomial(sorted(a + b)) for b in cols]


def _toggle(acc: set[Monomial], m: Monomial) -> None:
    """Add m to a sum over F2: a second copy cancels the first."""
    if m in acc:
        acc.remove(m)
    else:
        acc.add(m)


@dataclass(frozen=True)
class F2Polynomial:
    """Element of F2[x1, ..., xd] as a frozenset of monomials."""

    terms: frozenset[Monomial]

    @staticmethod
    def from_monomials(monomials: Iterable[Monomial]) -> "F2Polynomial":
        # Duplicate pairs cancel (characteristic 2).
        acc: set[Monomial] = set()
        for m in monomials:
            _toggle(acc, m)
        return F2Polynomial(frozenset(acc))

    @staticmethod
    def zero() -> "F2Polynomial":
        return F2Polynomial(frozenset())

    @staticmethod
    def one() -> "F2Polynomial":
        return F2Polynomial(frozenset({ONE_MONOMIAL}))

    @staticmethod
    def var(i: int) -> "F2Polynomial":
        return F2Polynomial(frozenset({Monomial.from_dict({i: 1})}))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def __add__(self, other: "F2Polynomial") -> "F2Polynomial":
        return F2Polynomial(self.terms ^ other.terms)

    def __mul__(self, other: "F2Polynomial") -> "F2Polynomial":
        # For a fixed a the products a*b over distinct b are distinct, so a
        # one-term factor gives the terms of the product as they are, and
        # each row of several folds into the sum with one symmetric
        # difference; the factor with fewer terms gives the rows.
        rows, cols = sorted((self.terms, other.terms), key=len)
        if len(rows) == 1:
            (a,) = rows
            return F2Polynomial(frozenset(_times(a, cols)))
        acc: set[Monomial] = set()
        for a in rows:
            acc.symmetric_difference_update(_times(a, cols))
        return F2Polynomial(frozenset(acc))

    def homogeneous_part(self, k: int) -> "F2Polynomial":
        """Sum of terms of degree exactly k."""
        if k < 0:
            raise ValueError("degree must be >= 0")
        return F2Polynomial(frozenset(m for m in self.terms if m.degree == k))

    def truncate_degree(self, k: int) -> "F2Polynomial":
        """Sum of terms of degree at most k."""
        if k < 0:
            raise ValueError("degree must be >= 0")
        return F2Polynomial(frozenset(m for m in self.terms if m.degree <= k))

    def mul_truncated(self, other: "F2Polynomial", k: int) -> "F2Polynomial":
        """Product discarding terms of degree above k.

        Agrees with (self * other).truncate_degree(k) because truncation
        is a ring morphism modulo degree > k.
        """
        acc: set[Monomial] = set()
        for a in self.terms:
            acc.symmetric_difference_update(
                [Monomial(sorted(a + b)) for b in other.terms if len(b) <= k - len(a)]
            )
        return F2Polynomial(frozenset(acc))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        # Graded lex, x1 most significant: ascending tuple order within
        # each degree (see the module docstring), kept by the stable sort.
        ordered = sorted(sorted(self.terms), key=len)
        return " + ".join(map(str, ordered))


def deg2_length(d: int) -> int:
    return d * (d + 1) // 2


def pair_index(i: int, j: int, d: int) -> int:
    """Bit position of the x_i*x_j coefficient, 1 <= i <= j <= d.

    Layout is row-major over the upper triangle:
    (1,1),(1,2),...,(1,d),(2,2),...,(2,d),...,(d,d).
    """
    if not (1 <= i <= j <= d):
        raise ValueError(f"bad pair ({i},{j}) for d={d}")
    return (i - 1) * d - (i - 1) * (i - 2) // 2 + (j - i)


# the ASCII digits "0" and "1" as bytes 0 and 1
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def bit_flags(bits: int) -> bytes:
    """Byte k is bit k of bits (0 or 1), up to the highest set bit."""
    return bin(bits)[:1:-1].encode().translate(_BIT_VALUES)


def transpose(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """Bit i of column j is bit j of masks[i]: at least one mask, each below 2^width."""
    # last row first, high bit first: each stride-width slice is a column;
    # the format spec is parsed once, not once per mask
    spec = f"0{width}b"
    digits = "".join([format(m, spec) for m in reversed(masks)])
    return tuple(int(digits[p::width], 2) for p in range(width - 1, -1, -1))


@functools.lru_cache(maxsize=16)
def _deg2_table(d: int) -> tuple[tuple[Monomial, ...], dict[Monomial, int]]:
    """The d(d+1)/2 monomials x_i*x_j in pair_index order, and each one's position."""
    monomials = tuple(
        Monomial((i, j)) for i in range(1, d + 1) for j in range(i, d + 1)
    )
    return monomials, {m: pos for pos, m in enumerate(monomials)}


@functools.lru_cache(maxsize=16)
def _texts(d: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The texts of x_1, ..., x_d, and of the x_i*x_j in pair_index order.

    Printing from bits reads these in table order, which is graded lex
    order: a linear mask lists x_1, ..., x_d ascending, and pair_index
    order is ascending (i, j) tuple order, which within degree 2 is
    graded lex order (module docstring).  Built apart from _deg2_table,
    on first print.
    """
    linear = tuple(f"x{i}" for i in range(1, d + 1))
    deg2 = tuple(
        f"{x}^2" if i == j else f"{x}*{linear[j]}"
        for i, x in enumerate(linear)
        for j in range(i, d)
    )
    return linear, deg2


def linear_text(mask: int, d: int) -> str:
    """str of the sum of the x_{k+1} over the set bits k of mask, below 2^d."""
    return " + ".join(compress(_texts(d)[0], bit_flags(mask))) or "0"


def index_pair(pos: int, d: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    for i in range(1, d + 1):
        row = d - i + 1
        if pos < row:
            return (i, i + pos)
        pos -= row
    raise ValueError(f"position out of range for d={d}")


@dataclass(frozen=True)
class Deg2Vector:
    """Coefficient bit vector of a homogeneous degree-2 polynomial.

    Bit pair_index(i, j, d) carries the coefficient of x_i*x_j.
    """

    bits: int
    d: int
    # str walks the set bits when fewer than 1 in _SPARSE_RATIO are set; above
    # that, reading the flags of every bit is the faster (measured at d = 12-512)
    _SPARSE_RATIO = 32

    @property
    def length(self) -> int:
        return deg2_length(self.d)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "Deg2Vector") -> "Deg2Vector":
        if self.d != other.d:
            raise LengthMismatch(f"d={self.d} vs d={other.d}")
        return Deg2Vector(self.bits ^ other.bits, self.d)

    def to_poly(self) -> F2Polynomial:
        self._check_layout()
        monomials, _ = _deg2_table(self.d)
        return F2Polynomial(frozenset(compress(monomials, bit_flags(self.bits))))

    def __str__(self) -> str:
        """str(self.to_poly()), read from the bits in table order (see _texts):
        a sparse vector (a theta_j) by its set bits, a dense one by its flags."""
        self._check_layout()
        texts = _texts(self.d)[1]
        if self.bits.bit_count() * self._SPARSE_RATIO < self.length:
            terms = map(texts.__getitem__, _set_bits(self.bits))
        else:
            terms = compress(texts, bit_flags(self.bits))
        return " + ".join(terms) or "0"

    def _check_layout(self) -> None:
        if self.bits >> self.length:
            raise ValueError(f"position out of range for d={self.d}")


def _off_table(m: Monomial, d: int) -> ValueError:
    """The error naming a term that has no position in the layout of d."""
    if len(m) != 2:
        return NotHomogeneousDegree2(f"term {m} has degree {len(m)}")
    if m[1] > d:
        return VariableOutOfRange(f"x{m[1]} with d={d}")
    return ValueError(f"bad pair ({m[0]},{m[1]}) for d={d}")  # as pair_index words it


def deg2_to_vector(p: F2Polynomial, d: int) -> Deg2Vector:
    """Coordinate vector of a homogeneous degree-2 polynomial (or zero)."""
    _, positions = _deg2_table(d)
    bits = 0
    try:
        for m in p.terms:
            bits |= 1 << positions[m]
    except KeyError:
        raise _off_table(m, d) from None  # m is the term the lookup missed
    return Deg2Vector(bits, d)


def _set_bits(x: int, base: int = 0) -> list[int]:
    """Positions of the set bits of x, ascending, each plus base.  Clearing a
    top bit costs the length of x, so an x of 4098 bits or more goes by halves."""
    half = x.bit_length() >> 1
    if half > 2048:
        return _set_bits(x & ((1 << half) - 1), base) + _set_bits(x >> half, base + half)
    positions = []
    while x:
        top = x.bit_length() - 1
        positions.append(base + top)
        x ^= 1 << top
    return positions[::-1]


class F2RowSpace:
    """Span of degree-2 vectors, kept in reduced row-echelon form.

    Basis rows are nonzero with strictly increasing pivot positions
    (lowest pair index first) and each pivot occurs in exactly one row.

    Elimination follows the set bits rather than the basis.  Forward
    elimination fills a pivot map {pivot position: row}: an incoming row
    is xored only with the rows whose pivots it holds, lowest first, and
    a row left nonzero is filed under its lowest bit.  Back-substitution
    then runs from the highest pivot down: a row holds other pivots only
    above its own, and those rows are already reduced, so xoring one in
    clears that pivot and adds no other.  Reduction of a vector by the
    reduced rows likewise touches exactly the pivots the vector holds.
    """

    def __init__(self, vectors: Iterable[Deg2Vector], d: int):
        self.d = d
        rows: list[int] = []
        for v in vectors:
            if v.d != d:
                raise LengthMismatch(f"d={v.d} vs d={d}")
            rows.append(v.bits)
        self._row_at, self._pivot_mask = self._echelonize(rows)
        self.basis = [self._row_at[p] for p in sorted(self._row_at)]

    @staticmethod
    def _echelonize(rows: list[int]) -> tuple[dict[int, int], int]:
        """The reduced rows as a pivot map {pivot position: row}, and the
        mask of every pivot bit."""
        pivots: dict[int, int] = {}  # pivot position -> row with that lowest bit
        mask = 0  # the bits of every pivot in the map
        for r in rows:
            hit = r & mask
            while hit:
                r ^= pivots[(hit & -hit).bit_length() - 1]
                hit = r & mask
            if r:
                low = r & -r
                pivots[low.bit_length() - 1] = r
                mask |= low
        # Back-substitute so each pivot is zero in every other row.
        for p in sorted(pivots, reverse=True):
            r = pivots[p]
            for q in _set_bits(r & mask ^ (1 << p)):
                r ^= pivots[q]
            pivots[p] = r
        return pivots, mask

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def _remainder(self, v: Deg2Vector) -> int:
        """The bits of v after reduction by the echelon basis."""
        if v.d != self.d:
            raise LengthMismatch(f"d={v.d} vs d={self.d}")
        r = v.bits
        for p in _set_bits(r & self._pivot_mask):
            r ^= self._row_at[p]
        return r

    def reduce(self, v: Deg2Vector) -> Deg2Vector:
        """Remainder of v after reduction by the echelon basis."""
        return Deg2Vector(self._remainder(v), self.d)

    def reduction_trace(self, v: Deg2Vector) -> list[tuple[Deg2Vector, Deg2Vector]]:
        """Per-step (basis row used, remainder after) pairs for v."""
        if v.d != self.d:
            raise LengthMismatch(f"d={v.d} vs d={self.d}")
        r = v.bits
        steps = []
        for p in _set_bits(r & self._pivot_mask):
            b = self._row_at[p]
            r ^= b
            steps.append((Deg2Vector(b, self.d), Deg2Vector(r, self.d)))
        return steps

    def contains(self, v: Deg2Vector) -> bool:
        return self._remainder(v) == 0


def row_space_membership(space: F2RowSpace, v: Deg2Vector) -> bool:
    """True iff v lies in the F2-span of the basis."""
    return space.contains(v)
