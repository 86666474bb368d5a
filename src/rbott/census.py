"""Exhaustive enumeration of Bott matrices and theorem-vs-oracle census runs.

The enumeration order is fixed: the above-diagonal entries, read
row-major, are the bits of a binary counter (position (1,2) is the
least significant bit).  Censuses sweep only the orientable matrices, in
the same order, through the kernel's orientable counter, and shard that
index space into disjoint ranges, so worker counts never change the
resulting counts; several shards run in worker processes, one each.
The kernel hands back its counts keyed by the CensusReport fields they
fill, and each matrix where theorem and oracle disagree as its row
bitmasks, the storage of BottMatrix; the report gives it in the matrix
file format of BottMatrix.to_text.
"""

from __future__ import annotations

import os
import time
from concurrent import futures
from dataclasses import asdict, dataclass, field
from typing import Iterator

from . import _kernels
from .bott import BottMatrix

MISMATCH_CAP = 100

# The one bound on every census route.  On one core of a 2-CPU VM the
# n = 9 sweep takes ~3 s with the oracle and no time theorem-only (odd
# n, no Kähler matrix); n = 10, 2^8 times the values on uint16 lanes,
# ~30 min theorem-only and ~2.5 h with the oracle (scaled from 2^20).
MAX_DIM = 9

# Fewest counter values in a shard, unless the counter has fewer.  Two
# 2^20-value shards do not pay for starting processes; n <= 8 starts none.
MIN_SHARD = 1 << 21


class DimensionTooLarge(ValueError):
    pass


def free_bit_count(n: int) -> int:
    return n * (n - 1) // 2


def _offset(n: int, i: int) -> int:
    """Counter position of entry (i, i+1), 0-based: row i holds n-1-i bits."""
    return i * (2 * n - 1 - i) // 2


def matrix_from_index(n: int, idx: int) -> BottMatrix:
    """Decode a counter value into a strictly upper triangular matrix."""
    masks = [((idx >> _offset(n, i)) & ((1 << (n - 1 - i)) - 1)) << (i + 1) for i in range(n)]
    return BottMatrix.from_row_masks(n, masks)


def index_of(A: BottMatrix) -> int:
    """Counter value of a matrix; inverse of matrix_from_index."""
    return sum((m >> (i + 1)) << _offset(A.n, i) for i, m in enumerate(A.row_masks))


def enumerate_bott(n: int) -> Iterator[BottMatrix]:
    """Yield every strictly upper triangular n x n matrix over F2 once;
    check_request refuses n before the first one."""
    check_request(n)
    for idx in range(1 << free_bit_count(n)):
        yield matrix_from_index(n, idx)


def partition_space(n: int, workers: int) -> list[tuple[int, int]]:
    """Split the orientable counter [0, 2^b) into at most ``workers`` near-equal disjoint
    covering ranges, none shorter than MIN_SHARD unless the counter is, nor more than the
    CPU count, read only for several; refuses what check_request refuses."""
    check_request(n, workers)
    total = 1 << _kernels.orientable_bits(n)
    chunks = max(1, min(workers, total // MIN_SHARD))
    if chunks > 1:
        chunks = min(chunks, os.cpu_count() or 1)
    base, extra = divmod(total, chunks)
    ranges = []
    lo = 0
    for k in range(chunks):
        hi = lo + base + (1 if k < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def check_request(n: int, workers: int = 1) -> None:
    """Refuse a census that run_census would refuse, before any work.

    ValueError for n < 1 or workers < 1; DimensionTooLarge when n
    exceeds MAX_DIM.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if n > MAX_DIM:
        raise DimensionTooLarge(
            f"n={n} has 2^{free_bit_count(n)} matrices; the census counter "
            f"is limited to n <= {MAX_DIM}"
        )


@dataclass
class CensusReport:
    """Aggregate counts of one census run; mismatches must stay empty.

    The oracle counts stay None when the oracle did not run.
    """

    dimension: int
    total: int
    kahler_count: int = 0
    spin_by_theorem_count: int = 0                 # Kähler inputs only
    spin_by_oracle_count: int | None = None        # Kähler inputs only
    spin_by_oracle_all_count: int | None = None    # all inputs
    orientable_count: int = 0
    mismatch_count: int = 0                        # Kähler, theorem != oracle
    mismatches: list[str] = field(default_factory=list)
    mismatch_truncated: bool = False
    oracle: bool = True
    workers: int = 1
    backend: str = _kernels.BACKEND
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def run_census(n: int, oracle: bool = True, workers: int = 1) -> CensusReport:
    """Classify every n x n Bott matrix; cross-validate theorem vs oracle.

    Deterministic: counts and mismatch lists do not depend on the
    worker count.  partition_space plans the shards, and one shard runs
    here; several run in worker processes, one each, that end before
    this returns or raises.  A sweep that decodes nothing (odd n, which
    has no Kähler matrix, without the oracle) is one shard.  The
    report's ``workers`` counts the shards.  Mismatch matrices are kept
    verbatim (capped at MISMATCH_CAP with a truncation flag).  Requests
    that check_request refuses raise before any work.
    """
    start = time.perf_counter()
    # min(workers, 1) keeps a refused worker count refused
    decodes = oracle or n % 2 == 0
    ranges = partition_space(n, workers if decodes else min(workers, 1))
    shards = [(n, lo, hi, oracle, MISMATCH_CAP) for lo, hi in ranges]
    if len(shards) == 1:
        results = [_kernels.census_range(*shards[0])]
    else:
        # fork (Linux's default) starts a pool in ~10 ms, spawn in ~0.35 s.
        # Merging in range order keeps counts and mismatch order fixed.
        with futures.ProcessPoolExecutor(max_workers=len(shards)) as pool:
            results = list(pool.map(_kernels.census_range, *zip(*shards)))

    counts: dict[str, int] = {}
    mismatch_rows: list[tuple[int, ...]] = []
    for shard_counts, shard_mis in results:
        for key, value in shard_counts.items():
            counts[key] = counts.get(key, 0) + value
        mismatch_rows += shard_mis

    elapsed = time.perf_counter() - start
    return CensusReport(
        dimension=n,
        total=1 << free_bit_count(n),
        mismatches=[
            BottMatrix.from_row_masks(n, rows).to_text()
            for rows in mismatch_rows[:MISMATCH_CAP]
        ],
        mismatch_truncated=counts["mismatch_count"] > MISMATCH_CAP,
        oracle=oracle,
        workers=len(shards),
        elapsed=elapsed,
        **counts,
    )
