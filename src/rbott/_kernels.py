"""Batched census kernel over ranges of the orientable matrix counter.

A strictly upper triangular n x n matrix over F2 has m = n(n-1)/2 free
entries; the census reports on all 2^m such matrices, numbered by the
full counter (bit p is the p-th above-diagonal entry, row-major, least
significant bit first).  Only orientable matrices can be Kähler or
spin, and a matrix is orientable iff every row has even weight.  So the
kernel walks the orientable counter [0, 2^b), b = (n-1)(n-2)/2.  Its
bits are the free entries a_aj, j >= a+2, row-major, least significant
bit first; the entry a_a,a+1 is the parity of row a's free entries.
Rows r_a and columns c_j are bitmasks: bit j of r_a and bit a of c_j
are both the entry a_aj.  A strictly upper triangular row never has bit
0, so the kernel stores each row as r_a >> 1, with a_aj in bit j - 1;
the columns are stored as they are.  Both then use bits 0..n-2 only, so
the lanes are uint8 up to n = 9 (every census n) and uint16 above.
Every numpy stage is dtype-generic; a byte lane halves each temporary
and makes every popcount a byte popcount.  Any producer of batches (a
Kähler generator, say) must build them in this convention: stored rows,
unshifted columns, in the layout's dtype.

The decoder rests on one fact: the map from an orientable counter value
to its rows and columns is F2-linear.  A free bit sets a_aj and toggles
the parity entry a_a,a+1, so it has a fixed image: bits j - 1 and a of
stored row a, and bit a of c_j and of c_a+1.  The image of a counter
value is the xor of the images of its set bits.  So each n has one
table, built once by doubling, of the images of every pattern of the
low min(b, SPAN_BITS) counter bits: lanes 0..n-1 hold the stored rows
and lanes n..2n-1 the columns.
The batches are the table's spans: a batch never crosses a multiple of
2^SPAN_BITS, so its low bits run through a contiguous slice of the table
and its high bits are constant.  The batch is that slice xor the image
of the high bits: one xor, with no gather and no parity pass.

Batches stay lanes-first, shape (lanes, batch), so that every stage
works on whole contiguous lanes: the sort, the Kähler test and the
theorem reduce along axis 0, and the oracle gathers its pairs of lanes
along axis 0.

The two counters list orientable matrices in the same order.  Both
order the free bits alike, so the order could differ only where two
matrices first differ, from the most significant end, in a parity bit.
In the full counter the entry (a, a+1) is the least significant bit of
row a, so that would need row a to agree in every free bit but not in
their parity, which cannot happen.  So the mismatches, reported as
their full row bitmasks, come in full counter order.

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
|r_i AND t_j| = m_ij + a_ij h_j.  In an orientable matrix rows n-2 and
n-1 are zero (row n-1 is empty, and row n-2's one entry is its own
parity), so t_n-2 = t_n-1 = 0 and only the pairs i < j < n-2 can fail.
The kernel works on stored rows: neither r_i nor t_j has bit 0, so
|r_i AND t_j| is the weight of (r_i >> 1) AND (t_j >> 1), and
t_j >> 1 = (r_j >> 1) XOR (h_j << (j - 1)).  Stored lane 0 gets no
diagonal bit, since t_0 is never the j of a pair.

Sort each matrix's column values, with a sorting network of lane-wise
min/max.  Every value occurs an even number of times (the Kähler test)
iff n is even and positions 2k and 2k+1 are equal for every k.  So at
odd n the kernel skips the sort, the Kähler test, the theorem and the
mismatch stage; only the oracle decodes batches, and without it the
counts are the range's length and zeros.  The reduced matrix keeps one
column of each equal pair, and the bitmask of its row sums is the xor
of the kept columns, so the even sorted positions give it: bit i is row
i's sum.  The theorem asks that no odd row i have c_i nonzero, and bit
i - 1 of the OR of the stored rows says whether c_i is nonzero.  c_0 is
always zero, so the test ((sums >> 1) AND nonzero) = 0 is exact.  These
stages run at even n only, where bit n - 1 fits the lane: mismatch rows
shift back to full bitmasks in the lane's dtype.

A Kähler matrix (every column value occurs an even number of times) is
orientable: each row meets every class of equal columns in an even
number of entries.  So no Kähler or spin matrix lies outside the
orientable counter.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple

import numpy as np

BACKEND = "numpy"

# low counter bits decoded by the table; a batch is one span of 2^SPAN_BITS
SPAN_BITS = 12


def orientable_bits(n: int) -> int:
    """Bits of the orientable counter: the free entries above the superdiagonal."""
    return (n - 1) * (n - 2) // 2


def _sorting_network(n: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort on n wires, as (low, high) comparators.

    The usual iterative form, built for the next power of two.  Wires
    from n up would hold +inf, so the comparators that touch them never
    swap and are dropped.
    """
    size = 1 << max(n - 1, 0).bit_length()
    network = []
    p = 1
    while p < size:
        k = p
        while k >= 1:
            for j in range(k % p, size - k, 2 * k):
                for i in range(min(k, size - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        network.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return [(lo, hi) for lo, hi in network if hi < n]


class _Layout(NamedTuple):
    """Per-n constants of census_range."""

    table: np.ndarray        # (2n, 2^min(b, SPAN_BITS)): images of the low bits
    high: np.ndarray         # (b - SPAN_BITS, 2n): images of the high bits
    network: tuple           # sorting network comparators
    pairs: tuple             # (i, j) lanes of the oracle's pairs i < j < n-2
    diagonal: np.ndarray     # (n, 1): bit a - 1 of stored row a, none in row 0


@functools.cache
def _layout(n: int) -> _Layout:
    """The images of the orientable counter bits, and the stages' constants."""
    # stored rows and the columns use bits 0..n-2
    dtype = np.uint8 if n <= 9 else np.uint16
    images = []
    for a in range(n):
        for j in range(a + 2, n):
            image = np.zeros(2 * n, dtype=dtype)
            image[a] = (1 << (j - 1)) | (1 << a)
            image[n + j] = image[n + a + 1] = 1 << a
            images.append(image)
    low = min(len(images), SPAN_BITS)
    table = np.zeros((2 * n, 1 << low), dtype=dtype)
    for k in range(low):
        table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ images[k][:, None]
    layout = _Layout(
        table=table,
        high=np.array(images[low:], dtype=dtype).reshape(-1, 2 * n),
        # column 0 is zero, so already the least: sort columns 1..n-1
        network=tuple((lo + 1, hi + 1) for lo, hi in _sorting_network(n - 1)),
        pairs=np.triu_indices(max(n - 2, 0), 1),
        diagonal=np.array([(1 << a) >> 1 for a in range(n)], dtype=dtype)[:, None],
    )
    # every caller shares the layout, and batches are views of the table
    for array in (table, layout.high, *layout.pairs, layout.diagonal):
        array.setflags(write=False)
    return layout


def _batches(n: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Decode the orientable counter values [lo, hi), in counter order, as
    lanes-first batches: stored rows r_a >> 1 in lanes 0..n-1, columns in
    lanes n..2n-1.

    Batches end at multiples of the table span, so each is a slice of
    the table, xor the image of its constant high bits.
    """
    layout = _layout(n)
    span = 1 << SPAN_BITS
    start = lo
    while start < hi:
        stop = min(hi, (start // span + 1) * span)
        batch = layout.table[:, start % span : start % span + stop - start]
        high = start >> SPAN_BITS
        if high:
            bits = [k for k in range(high.bit_length()) if high >> k & 1]  # high may exceed int64
            batch = batch ^ np.bitwise_xor.reduce(layout.high[bits], axis=0)[:, None]
        yield batch
        start = stop


def _sorted_columns(network: tuple, columns: np.ndarray) -> np.ndarray:
    """Each matrix's column values in ascending order along axis 0."""
    lanes = list(columns)
    for lo, hi in network:
        lanes[lo], lanes[hi] = np.minimum(lanes[lo], lanes[hi]), np.maximum(lanes[lo], lanes[hi])
    return np.array(lanes)


def _spin_theorem(ordered: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Reduced-row-sum criterion from the sorted columns ``ordered`` of
    Kähler matrices and their stored rows: spin iff every row i with odd
    sum has c_i = 0."""
    sums = np.bitwise_xor.reduce(ordered[0::2], axis=0)
    nonzero = np.bitwise_or.reduce(rows, axis=0)
    return ((sums >> 1) & nonzero) == 0


def _spin_oracle(layout: _Layout, rows: np.ndarray) -> np.ndarray:
    """Closed-form oracle on the stored rows of orientable matrices (w1 = 0
    already holds): spin iff |r_i AND t_j| is even for all i < j < n-2."""
    half = (np.bitwise_count(rows) >> 1) & np.uint8(1)
    t = rows ^ (half * layout.diagonal)
    i, j = layout.pairs
    # the gather rows[i] is a fresh array, so the AND may overwrite it;
    # one batch-sized temporary fewer measured faster from n = 8 on
    pairs = rows[i]
    pairs &= t[j]
    # the low bit of an OR of counts is the OR of their low bits
    odd = np.bitwise_or.reduce(np.bitwise_count(pairs), axis=0) & np.uint8(1)
    return odd == 0


def census_range(n, lo, hi, with_oracle, mismatch_cap):
    """Counts over the orientable counter values [lo, hi), by CensusReport field.

    Returns (counts, mismatches).  counts maps each field counted to a
    Python int; without the oracle it has no oracle fields.  mismatches
    are the first ``mismatch_cap`` Kähler matrices where theorem and
    oracle disagree, in counter order, each as the tuple of its n row
    bitmasks.
    """
    layout = _layout(n)
    counts = {
        "kahler_count": 0,
        "spin_by_theorem_count": 0,
        "orientable_count": hi - lo,
        "mismatch_count": 0,
    }
    if with_oracle:
        counts |= {"spin_by_oracle_count": 0, "spin_by_oracle_all_count": 0}
    mismatches: list[tuple[int, ...]] = []
    if n % 2 and not with_oracle:
        return counts, mismatches
    for batch in _batches(n, lo, hi):
        rows = batch[:n]
        if with_oracle:
            oracle = _spin_oracle(layout, rows)
            counts["spin_by_oracle_all_count"] += int(np.count_nonzero(oracle))
        if n % 2:
            continue

        ordered = _sorted_columns(layout.network, batch[n:])
        kahler = (ordered[0::2] == ordered[1::2]).all(axis=0)
        theorem = kahler & _spin_theorem(ordered, rows)
        counts["kahler_count"] += int(np.count_nonzero(kahler))
        counts["spin_by_theorem_count"] += int(np.count_nonzero(theorem))

        if with_oracle:
            counts["spin_by_oracle_count"] += int(np.count_nonzero(oracle & kahler))
            disagree = kahler & (oracle != theorem)
            found = int(np.count_nonzero(disagree))
            counts["mismatch_count"] += found
            if found:
                kept = rows[:, disagree].T[: mismatch_cap - len(mismatches)]
                mismatches += map(tuple, (kept << 1).tolist())
    return counts, mismatches
