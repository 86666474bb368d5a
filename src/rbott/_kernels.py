"""Batched census kernel over ranges of the orientable matrix counter.

A strictly upper triangular n x n matrix over F2 has m = n(n-1)/2 free
entries; the census reports on all 2^m such matrices, numbered by the
full counter (bit p is the p-th above-diagonal entry, row-major, least
significant bit first).  Only orientable matrices can be Kähler or
spin, and a matrix is orientable iff every row has even weight.  So the
kernel walks the orientable counter [0, 2^b), b = (n-1)(n-2)/2, in
numpy batches of ``CHUNK`` values.  Row a reads its entries in columns a+2..n-1 from a
bit field of n-2-a counter bits (row-major, least significant bit
first), and its column-(a+1) entry is the parity of those bits.  Rows
r_a and columns c_j are uint16 bitmasks: bit j of r_a and bit a of c_j
are both the entry a_aj.

The two counters list orientable matrices in the same order.  Both
order the free bits alike, so the order could differ only where two
matrices first differ, from the most significant end, in a parity bit.
In the full counter the entry (a, a+1) is the least significant bit of
row a, so that would need row a to agree in every free bit but not in
their parity, which cannot happen.  Mismatches are reported as full
counter values.

Write m_a = |r_a| for the row weights and m_ab = |r_a AND r_b|.  For the
P-matrix of a Bott matrix the generators of the characteristic ideal are
theta_j = x_j^2 + x_j c_j, where c_j is read as the linear form
sum_{a_ij = 1} x_i, and the Stiefel-Whitney classes are

    w1 = sum_j c_j = sum_a m_a x_a,
    w2 = e2(c_1, ..., c_n)
       = sum_a C(m_a, 2) x_a^2 + sum_{a<b} (m_a m_b + m_ab) x_a x_b.

Each theta_j owns the pivot x_j^2, which no other theta_i contains, so
the thetas span a rank-n space and w2 lies in it iff w2 minus
sum_a C(m_a, 2) theta_a has no x_i x_j term (i < j).  That term is
m_i m_j + m_ij + C(m_j, 2) a_ij, since theta_j contributes x_i x_j
exactly when a_ij = 1.  Hence the cohomological oracle needs no
elimination:

    spin  <=>  every m_a is even (w1 = 0), and for all i < j
               m_ij = a_ij (m_j / 2)  (mod 2).

With h_j = (m_j / 2) mod 2 and t_j = r_j XOR (h_j << j), the condition
for i < j says |r_i AND t_j| is even, as r_j has no bit j and so
|r_i AND t_j| = m_ij + a_ij h_j.

Sort each matrix's column values.  Every value occurs an even number of
times (the Kähler test) iff n is even and positions 2k and 2k+1 are
equal for every k.  The reduced matrix keeps one column of each equal
pair, and the bitmask of its row sums is the xor of the kept columns,
so the even sorted positions give it.

A Kähler matrix (every column value occurs an even number of times) is
orientable: each row meets every class of equal columns in an even
number of entries.  So no Kähler or spin matrix lies outside the
orientable counter.
"""

from __future__ import annotations

import numpy as np

# counts layout produced by census_range
IDX_KAHLER = 0
IDX_SPIN_THEOREM = 1        # Kähler inputs only
IDX_SPIN_ORACLE_ALL = 2     # all inputs
IDX_SPIN_ORACLE_KAHLER = 3  # Kähler inputs only
IDX_ORIENTABLE = 4          # all inputs
IDX_MISMATCH = 5            # Kähler inputs where theorem != oracle
N_COUNTS = 6

BACKEND = "numpy"

# mismatches are full counter values, and the full counter range
# 2^(n(n-1)/2) fits a signed 64-bit int up to here
MAX_DIM = 11

# counter values per batch
CHUNK = 4096


def orientable_bits(n: int) -> int:
    """Bits of the orientable counter: the free entries above the superdiagonal."""
    return (n - 1) * (n - 2) // 2


def _columns(rows: np.ndarray) -> np.ndarray:
    """Column bitmasks c_j (bit i is a_ij), shape (batch, n)."""
    bits = np.arange(rows.shape[1], dtype=np.uint16)
    entries = (rows[:, :, None] >> bits) & np.uint16(1)
    # einsum measured ~2x faster than .sum(axis=1) over the same product
    return np.einsum("kij,i->kj", entries, np.uint16(1) << bits)


def _spin_theorem(ordered: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Reduced-row-sum criterion from the sorted columns ``ordered`` of
    Kähler matrices: spin iff every row i with odd sum has c_i = 0."""
    sums = np.bitwise_xor.reduce(ordered[:, 0::2], axis=1)
    nonzero = np.bitwise_or.reduce(rows, axis=1)
    return (sums & nonzero) == 0


def _spin_oracle(rows: np.ndarray) -> np.ndarray:
    """Closed-form oracle on orientable matrices (w1 = 0 already holds):
    spin iff |r_i AND t_j| is even for all i < j."""
    n = rows.shape[1]
    half = (np.bitwise_count(rows) >> 1) & np.uint16(1)
    t = rows ^ (half << np.arange(n, dtype=np.uint16))
    i, j = np.triu_indices(n, 1)
    return ~(np.bitwise_count(rows[:, i] & t[:, j]) & 1).any(axis=1)


def census_range(n, lo, hi, with_oracle, mismatch_cap):
    """Counts over the orientable counter values [lo, hi), in the IDX_* layout.

    Returns (counts, mismatches): the full counter values of the first
    ``mismatch_cap`` Kähler matrices where theorem and oracle disagree,
    in counter order.
    """
    widths = [max(n - 2 - a, 0) for a in range(n)]
    shifts = np.array([sum(widths[:a]) for a in range(n)], dtype=np.int64)[:, None]
    masks = np.array([(1 << w) - 1 for w in widths], dtype=np.int64)[:, None]
    columns = np.arange(1, n + 1, dtype=np.uint16)
    # row a starts at bit a n - a(a+1)/2 of the full counter
    full_shifts = np.array([a * n - a * (a + 1) // 2 for a in range(n)], dtype=np.int64)
    counts = np.zeros(N_COUNTS, dtype=np.int64)
    counts[IDX_ORIENTABLE] = hi - lo
    mismatches: list[int] = []
    for start in range(lo, hi, CHUNK):
        idx = np.arange(start, min(start + CHUNK, hi), dtype=np.int64)
        # rows[k, a] is the bitmask of row a of matrix idx[k]; the
        # transposed (column-major) layout is faster in the stages below
        fields = ((idx >> shifts) & masks).astype(np.uint16).T
        rows = ((fields << 1) | (np.bitwise_count(fields) & 1)) << columns

        ordered = np.sort(_columns(rows), axis=1)
        kahler = (ordered[:, 0 : n - 1 : 2] == ordered[:, 1::2]).all(axis=1) & (n % 2 == 0)
        theorem = kahler & _spin_theorem(ordered, rows)
        counts[IDX_KAHLER] += np.count_nonzero(kahler)
        counts[IDX_SPIN_THEOREM] += np.count_nonzero(theorem)

        if with_oracle:
            oracle = _spin_oracle(rows)
            counts[IDX_SPIN_ORACLE_ALL] += np.count_nonzero(oracle)
            counts[IDX_SPIN_ORACLE_KAHLER] += np.count_nonzero(oracle & kahler)
            disagree = rows[kahler & (oracle != theorem)].astype(np.int64)
            full = ((disagree >> columns) << full_shifts).sum(axis=1)
            counts[IDX_MISMATCH] += full.size
            mismatches += full[: mismatch_cap - len(mismatches)].tolist()
    return counts, mismatches
