"""Batched census kernel over ranges of the matrix enumeration counter.

A strictly upper triangular n x n matrix over F2 has m = n(n-1)/2 free
bits; the kernel walks a half-open range of the counter [0, 2^m) in
numpy batches of ``CHUNK`` values.  Bit p of the counter (row-major over
the above-diagonal positions, least significant bit first) is one
matrix entry, so row a is a contiguous bit field of the counter.  Rows
r_a and columns c_j are uint16 bitmasks: bit j of r_a and bit a of c_j
are both the entry a_aj.

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
number of entries.  So the kernel tests orientability on the whole
batch, and runs the Kähler test, the reduced-row-sum theorem and the
oracle only on the orientable part.
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

# the whole counter range 2^(n(n-1)/2) fits a signed 64-bit int up to here
MAX_DIM = 11

# Counter values per batch.  Batches are aligned blocks of CHUNK values,
# so within one the counter bits from LOG2_CHUNK up are constant, and the
# varying low bits fit uint16.
LOG2_CHUNK = 12
CHUNK = 1 << LOG2_CHUNK


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
    """Counts over the counter values [lo, hi), in the IDX_* layout.

    Counter values of Kähler matrices where theorem and oracle disagree
    are written to ``mismatches`` in counter order, at most
    ``mismatch_cap`` of them; returns (counts, number written).
    """
    widths = [n - 1 - a for a in range(n)]
    offsets = [sum(widths[:a]) for a in range(n)]
    masks = np.array([(1 << w) - 1 for w in widths], dtype=np.uint16)[:, None]
    # numpy shifts by the bit width or more to 0, so rows that lie wholly
    # in the high bits take nothing from low
    low_shifts = np.array(offsets, dtype=np.uint16)[:, None]
    places = np.arange(1, n + 1, dtype=np.uint16)[:, None]
    counts = np.zeros(N_COUNTS, dtype=np.int64)
    n_mis = 0
    start = lo
    while start < hi:
        base = start - start % CHUNK
        stop = min(base + CHUNK, hi)
        low = np.arange(start - base, stop - base, dtype=np.uint16)
        start = stop
        high = [(base >> o) & ((1 << w) - 1) for o, w in zip(offsets, widths)]
        if any(h.bit_count() & 1 for h, o in zip(high, offsets) if o >= LOG2_CHUNK):
            continue  # a row fixed for the whole batch has odd weight
        # rows[a, k] is the bitmask of row a of matrix base + low[k]
        fields = ((low >> low_shifts) & masks) | np.array(high, dtype=np.uint16)[:, None]
        rows = fields << places
        orientable = (np.bitwise_or.reduce(np.bitwise_count(rows), axis=0) & 1) == 0
        counts[IDX_ORIENTABLE] += np.count_nonzero(orientable)
        rows = rows[:, orientable].T

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
            idx = base + low[orientable].astype(np.int64)
            disagree = idx[kahler & (oracle != theorem)]
            counts[IDX_MISMATCH] += disagree.size
            kept = disagree[: mismatch_cap - n_mis]
            mismatches[n_mis : n_mis + kept.size] = kept
            n_mis += kept.size
    return counts, n_mis
