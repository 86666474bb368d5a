"""Independent referee for Bott-matrix verdicts; uses none of rbott's code.

A Bott matrix is held as a list of row bitmasks: bit j of rows[i] is the
entry a_ij (0-based, strictly upper triangular).  Write m_a for the size
of row a and m_ab for |row a AND row b|.  The Stiefel-Whitney classes of
the manifold have the closed form

    w1 = sum_a m_a x_a,
    w2 = sum_a C(m_a, 2) x_a^2 + sum_{a<b} (m_a m_b + m_ab) x_a x_b,

and theta_j = x_j^2 + x_j * sum_{a_ij = 1} x_i.  Each theta_j holds the
only x_j^2 pivot, so w2 lies in their span iff, for all i < j, the
x_i x_j coefficient of w2 equals C(m_j, 2) a_ij.  With every m_a even
(orientable) that reads: spin iff m_ij = a_ij (m_j / 2) (mod 2).
"""

from __future__ import annotations

from collections import Counter

# The n = 6 census, frozen: 2^15 matrices, of which 192 Kähler; 76 of
# those are spin, 176 spin overall, and 2^(3+2+1) * 2^4 = 1024 orientable.
CENSUS_N6 = {
    "total": 32768,
    "kahler_count": 192,
    "spin_by_theorem_count": 76,
    "spin_by_oracle_count": 76,
    "spin_by_oracle_all_count": 176,
    "orientable_count": 1024,
    "mismatch_count": 0,
}


def orientable_total(n: int) -> int:
    """Matrices with every row of even size: row a has n-a free entries."""
    return 1 << sum(max(n - a - 1, 0) for a in range(1, n + 1))


def expected_census(n: int, oracle: bool) -> dict:
    """Counts a correct census of dimension 6 reports."""
    if n != 6:
        raise ValueError("only the n = 6 census table is frozen")
    expected = dict(CENSUS_N6, orientable_count=orientable_total(n))
    if not oracle:
        expected.update(spin_by_oracle_count=None, spin_by_oracle_all_count=None)
    return expected


def popcount(x: int) -> int:
    return bin(x).count("1")


def to_spec(rows: list[int]) -> str:
    n = len(rows)
    return ";".join("".join("1" if r >> j & 1 else "0" for j in range(n)) for r in rows)


def columns(rows: list[int]) -> list[int]:
    n = len(rows)
    return [sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)]


def is_kahler(rows: list[int]) -> bool:
    """Every column value occurs an even number of times."""
    return all(m % 2 == 0 for m in Counter(columns(rows)).values())


def is_orientable(rows: list[int]) -> bool:
    return all(popcount(r) % 2 == 0 for r in rows)


def is_spin(rows: list[int]) -> bool:
    if not is_orientable(rows):
        return False
    half = [popcount(r) // 2 % 2 for r in rows]
    n = len(rows)
    return all(
        popcount(rows[i] & rows[j]) % 2 == (rows[i] >> j & 1) * half[j]
        for i in range(n)
        for j in range(i + 1, n)
    )


def reduced_row_sums(rows: list[int]) -> list[int]:
    """Row sums mod 2 of the Kähler matrix with one column kept per equal pair."""
    acc = 0
    for col, mult in Counter(columns(rows)).items():
        if mult // 2 % 2:
            acc ^= col
    return [acc >> i & 1 for i in range(len(rows))]


def w1_terms(rows: list[int]) -> set[tuple[int, ...]]:
    """Monomials of w1 as sorted tuples of 1-based variable indices."""
    return {(a + 1,) for a, r in enumerate(rows) if popcount(r) % 2}


def w2_terms(rows: list[int]) -> set[tuple[int, ...]]:
    n = len(rows)
    m = [popcount(r) for r in rows]
    terms = {(a + 1, a + 1) for a in range(n) if m[a] * (m[a] - 1) // 2 % 2}
    for a in range(n):
        for b in range(a + 1, n):
            if (m[a] * m[b] + popcount(rows[a] & rows[b])) % 2:
                terms.add((a + 1, b + 1))
    return terms


def theta_terms(rows: list[int], j: int) -> set[tuple[int, ...]]:
    """Monomials of theta_j for the 0-based column j."""
    return {(j + 1, j + 1)} | {(i + 1, j + 1) for i in range(j) if rows[i] >> j & 1}


def parse_poly(text: str) -> set[tuple[int, ...]]:
    """Monomials of a printed F2 polynomial such as "x1^2 + x1*x3"."""
    if text.strip() == "0":
        return set()
    terms = set()
    for term in text.split(" + "):
        if term == "1":
            terms.add(())
            continue
        indices: list[int] = []
        for factor in term.split("*"):
            var, _, exp = factor.partition("^")
            if not var.startswith("x"):
                raise ValueError(f"bad factor {factor!r} in {text!r}")
            indices += [int(var[1:])] * int(exp or 1)
        terms.add(tuple(sorted(indices)))
    return terms


def census_counts(n: int) -> dict:
    """Recount a whole census with the referee (exhaustive; small n only).

    Counter bit p is the p-th above-diagonal entry in row-major order.
    """
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    counts = Counter(total=0)
    for idx in range(1 << len(positions)):
        rows = [0] * n
        for p, (i, j) in enumerate(positions):
            if idx >> p & 1:
                rows[i] |= 1 << j
        kahler = is_kahler(rows)
        spin = is_spin(rows)
        counts["total"] += 1
        counts["kahler_count"] += kahler
        counts["spin_by_oracle_all_count"] += spin
        counts["spin_by_oracle_count"] += kahler and spin
        counts["orientable_count"] += is_orientable(rows)
    return dict(counts)
