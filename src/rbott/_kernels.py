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


def _entries(rows: np.ndarray) -> np.ndarray:
    """Entries a_ij as uint16 0/1, shape (batch, n, n)."""
    n = rows.shape[1]
    return (rows[:, :, None] >> np.arange(n, dtype=np.uint16)) & np.uint16(1)


def _columns(entries: np.ndarray) -> np.ndarray:
    """Column bitmasks c_j (bit i is a_ij), shape (batch, n)."""
    n = entries.shape[1]
    weights = (np.uint16(1) << np.arange(n, dtype=np.uint16))[:, None]
    return (entries * weights).sum(axis=1, dtype=np.uint16)


def _spin_theorem(cols: np.ndarray, equal: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Reduced-row-sum criterion on Kähler matrices.

    Each column value v of multiplicity 2k adds k v to the reduced row
    sums; spin iff every row with odd sum has a zero column.
    """
    n = cols.shape[1]
    earlier = np.tri(n, k=-1, dtype=bool)
    first = ~(equal & earlier).any(axis=2)
    odd_half = first & ((mult >> 1) & 1).astype(bool)
    sums = np.bitwise_xor.reduce(np.where(odd_half, cols, np.uint16(0)), axis=1)
    weights = np.uint16(1) << np.arange(n, dtype=np.uint16)
    nonzero = ((cols != 0) * weights).sum(axis=1, dtype=np.uint16)
    return (sums & nonzero) == 0


def _spin_oracle(rows: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Closed-form oracle on orientable matrices (w1 = 0 already holds)."""
    n = rows.shape[1]
    meet = np.bitwise_count(rows[:, :, None] & rows[:, None, :]) & 1
    half = (np.bitwise_count(rows) >> 1) & 1
    off = (meet ^ (entries * half[:, None, :])).astype(bool)
    upper = ~np.tri(n, dtype=bool)
    return ~(off & upper).any(axis=(1, 2))


def census_range(n, lo, hi, with_oracle, mismatches, mismatch_cap):
    """Counts over the orientable counter values [lo, hi), in the IDX_* layout.

    Full counter values of Kähler matrices where theorem and oracle
    disagree are written to ``mismatches`` in counter order, at most
    ``mismatch_cap`` of them; returns (counts, number written).
    """
    widths = [max(n - 2 - a, 0) for a in range(n)]
    shifts = np.array([sum(widths[:a]) for a in range(n)], dtype=np.int64)[:, None]
    masks = np.array([(1 << w) - 1 for w in widths], dtype=np.int64)[:, None]
    columns = np.arange(1, n + 1, dtype=np.uint16)
    # row a starts at bit a n - a(a+1)/2 of the full counter
    full_shifts = np.array([a * n - a * (a + 1) // 2 for a in range(n)], dtype=np.int64)
    counts = np.zeros(N_COUNTS, dtype=np.int64)
    counts[IDX_ORIENTABLE] = hi - lo
    n_mis = 0
    for start in range(lo, hi, CHUNK):
        idx = np.arange(start, min(start + CHUNK, hi), dtype=np.int64)
        # rows[k, a] is the bitmask of row a of matrix idx[k]; the
        # transposed (column-major) layout is faster in the stages below
        fields = ((idx >> shifts) & masks).astype(np.uint16).T
        rows = ((fields << 1) | (np.bitwise_count(fields) & 1)) << columns

        entries = _entries(rows)
        cols = _columns(entries)
        equal = cols[:, :, None] == cols[:, None, :]
        mult = equal.sum(axis=2)
        kahler = ~(mult & 1).any(axis=1)
        theorem = np.zeros_like(kahler)
        theorem[kahler] = _spin_theorem(cols[kahler], equal[kahler], mult[kahler])
        counts[IDX_KAHLER] += np.count_nonzero(kahler)
        counts[IDX_SPIN_THEOREM] += np.count_nonzero(theorem)

        if with_oracle:
            oracle = _spin_oracle(rows, entries)
            counts[IDX_SPIN_ORACLE_ALL] += np.count_nonzero(oracle)
            counts[IDX_SPIN_ORACLE_KAHLER] += np.count_nonzero(oracle & kahler)
            disagree = rows[kahler & (oracle != theorem)].astype(np.int64)
            full = ((disagree >> columns) << full_shifts).sum(axis=1)
            counts[IDX_MISMATCH] += full.size
            kept = full[: mismatch_cap - n_mis]
            mismatches[n_mis : n_mis + kept.size] = kept
            n_mis += kept.size
    return counts, n_mis
