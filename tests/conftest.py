from __future__ import annotations

import random

import pytest

from rbott import _kernels, census
from rbott.bott import BottMatrix

PAPER_EXAMPLE_TEXT = """\
6
001111
001111
000011
000011
000000
000000
"""


@pytest.fixture(scope="session")
def paper_example() -> BottMatrix:
    """The 6x6 matrix whose manifold is Kähler but not spin."""
    return BottMatrix.from_text(PAPER_EXAMPLE_TEXT)


@pytest.fixture(scope="session")
def klein() -> BottMatrix:
    return BottMatrix.from_inline("01;00")


@pytest.fixture()
def paper_example_file(tmp_path):
    path = tmp_path / "paper_example.txt"
    path.write_text(PAPER_EXAMPLE_TEXT)
    return str(path)


@pytest.fixture(scope="session")
def kahler12_spec() -> str:
    """Seeded 12x12 Kähler matrix as an inline spec.

    Columns 2k and 2k+1 (0-based) share one random column on rows < 2k.
    """
    rng = random.Random(12)
    rows = [[0] * 12 for _ in range(12)]
    for k in range(6):
        for i in range(2 * k):
            rows[i][2 * k] = rows[i][2 * k + 1] = rng.getrandbits(1)
    return ";".join("".join(map(str, row)) for row in rows)


class InlineExecutor:
    """Stands in for census's ProcessPoolExecutor: runs every shard here,
    in order, so that patched kernels and loggers see each one."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture()
def shard_log(monkeypatch):
    """The (lo, hi) range of every kernel call, one per census shard.

    Shards may shrink to 4 counter values, so that n = 4 and n = 6
    censuses, which fit one real shard, still split into several; they
    run in this process, through InlineExecutor.
    """
    monkeypatch.setattr(census, "MIN_SHARD", 4)
    monkeypatch.setattr(census.futures, "ProcessPoolExecutor", InlineExecutor)
    kernel = _kernels.census_range
    ranges = []

    def logged(n, lo, hi, *args):
        ranges.append((lo, hi))
        return kernel(n, lo, hi, *args)

    monkeypatch.setattr(_kernels, "census_range", logged)
    return ranges


@pytest.fixture()
def no_kernel(monkeypatch):
    """Fail any census that reaches the kernel: a refusal must come before it."""

    def no_work(*args):
        raise AssertionError("kernel started")

    monkeypatch.setattr(_kernels, "census_range", no_work)
