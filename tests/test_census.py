import itertools
import multiprocessing
import random

import numpy as np
import pytest

from rbott import _kernels, census
from rbott.bott import BottMatrix, is_kahler, spin_main_theorem, spin_oracle, to_pmatrix
from rbott.census import (
    MISMATCH_CAP,
    CensusReport,
    DimensionTooLarge,
    check_request,
    enumerate_bott,
    free_bit_count,
    index_of,
    matrix_from_index,
    partition_space,
    run_census,
)
from rbott.pmatrix import is_orientable, sw_data


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (4, 64), (6, 32768)])
    def test_population_sizes(self, n, count):
        assert 1 << free_bit_count(n) == count
        if n < 6:
            assert sum(1 for _ in enumerate_bott(n)) == count

    def test_each_matrix_exactly_once(self):
        seen = {A.rows for A in enumerate_bott(4)}
        assert len(seen) == 64

    def test_index_round_trip(self):
        for idx in range(64):
            assert index_of(matrix_from_index(4, idx)) == idx

    def test_counter_order_is_row_major(self):
        # Bit 0 of the counter is entry (1,2).
        A = matrix_from_index(3, 0b001)
        assert A.rows == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
        A = matrix_from_index(3, 0b100)
        assert A.rows == ((0, 0, 0), (0, 0, 1), (0, 0, 0))

    def test_ceiling(self):
        # enumerate_bott refuses through check_request, with its messages
        for n in (0, 10, 12):
            with pytest.raises(ValueError) as direct:
                check_request(n)
            with pytest.raises(type(direct.value)) as refused:
                next(enumerate_bott(n))
            assert str(refused.value) == str(direct.value)


class TestPartition:
    """Shards split the orientable counter, where every value is a matrix."""

    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        # the plan caps shards at the CPU count; these tests test the other caps
        monkeypatch.setattr(census.os, "cpu_count", lambda: 1000)

    def test_single_worker(self):
        assert partition_space(4, 1) == [(0, 8)]

    def test_two_workers(self, monkeypatch):
        monkeypatch.setattr(census, "MIN_SHARD", 1)
        assert partition_space(4, 2) == [(0, 4), (4, 8)]

    def test_two_workers_balanced_at_n9(self):
        assert partition_space(9, 2) == [(0, 1 << 27), (1 << 27, 1 << 28)]

    def test_no_shard_shorter_than_min_shard(self):
        # every n <= 8 (at most 2^21 values) is one shard and starts no
        # process; n = 9 (2^28 values) makes at most 128 shards
        assert census.MIN_SHARD == 1 << 21
        for n in (6, 7, 8):
            assert partition_space(n, 2) == [(0, 1 << _kernels.orientable_bits(n))]
        ranges = partition_space(9, 1000)
        assert len(ranges) == 128
        assert {hi - lo for lo, hi in ranges} == {1 << 21}

    def test_partition_covers_space(self, monkeypatch):
        monkeypatch.setattr(census, "MIN_SHARD", 1)
        for n in (2, 4, 5):
            for workers in (1, 2, 3, 7, 100):
                ranges = partition_space(n, workers)
                total = 1 << _kernels.orientable_bits(n)
                assert ranges[0][0] == 0 and ranges[-1][1] == total
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo
                assert sum(hi - lo for lo, hi in ranges) == total

    def test_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
        assert len(partition_space(9, 1000)) == 3
        monkeypatch.setattr(census.os, "cpu_count", lambda: None)
        assert partition_space(9, 2) == [(0, 1 << 28)]

    def test_refuses_what_check_request_refuses(self):
        for n, workers in ((0, 1), (10, 1), (2, 0), (9, -1)):
            with pytest.raises(ValueError) as direct:
                check_request(n, workers)
            with pytest.raises(type(direct.value)) as refused:
                partition_space(n, workers)
            assert str(refused.value) == str(direct.value)


class TestCensusCounts:
    def test_dimension_two(self):
        report = run_census(2)
        assert report.total == 2
        assert report.kahler_count == 1
        assert report.spin_by_theorem_count == 1
        assert report.spin_by_oracle_count == 1
        assert report.orientable_count == 1
        assert report.mismatch_count == 0

    def test_odd_dimension_has_no_kahler(self):
        for n in (1, 3, 5):
            report = run_census(n)
            assert report.kahler_count == 0
            assert report.spin_by_theorem_count == 0

    # Regression fixtures recorded from the first verified full runs.
    @pytest.mark.parametrize(
        "n,kahler,spin,oracle_all,orientable",
        [
            (4, 6, 6, 8, 8),
            (6, 192, 76, 176, 1024),
            # n = 7 reaches the high counter bits, n = 8 crosses 512 table spans
            (7, 0, 0, 1482, 32768),
            (8, 28464, 4244, 17400, 2097152),
        ],
    )
    def test_regression_counts(self, n, kahler, spin, oracle_all, orientable):
        report = run_census(n)
        assert report.total == 1 << free_bit_count(n)
        assert report.kahler_count == kahler
        assert report.spin_by_theorem_count == spin
        assert report.spin_by_oracle_count == spin
        assert report.spin_by_oracle_all_count == oracle_all
        assert report.orientable_count == orientable
        assert report.mismatch_count == 0
        assert report.mismatches == []

    def test_counts_match_pure_recount(self):
        # Independent route: per-matrix module functions, no kernel.
        kahler = spin = oracle_all = oracle_kahler = orientable = 0
        for A in enumerate_bott(4):
            k = is_kahler(A)
            o = spin_oracle(A)
            if k:
                kahler += 1
                t = spin_main_theorem(A)
                assert t == o
                spin += t
                oracle_kahler += o
            oracle_all += o
            orientable += sw_data(to_pmatrix(A)).w1.is_zero()
        report = run_census(4)
        assert (
            report.kahler_count,
            report.spin_by_theorem_count,
            report.spin_by_oracle_count,
            report.spin_by_oracle_all_count,
            report.orientable_count,
        ) == (kahler, spin, oracle_kahler, oracle_all, orientable)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_orientable_count_closed_form(self, n):
        # row a has n - a free entries, one of them fixed by parity
        expected = 1 << sum(max(n - a - 1, 0) for a in range(1, n + 1))
        assert run_census(n, oracle=False).orientable_count == expected

    def test_no_oracle_path(self):
        report = run_census(4, oracle=False)
        assert report.kahler_count == 6
        assert report.spin_by_theorem_count == 6
        assert report.spin_by_oracle_count is None
        assert report.spin_by_oracle_all_count is None
        assert report.mismatch_count == 0

    def test_ceiling_enforced(self, no_kernel):
        # n = 9 reaches the kernel (which fails here), n = 10 does not
        for oracle in (True, False):
            with pytest.raises(AssertionError, match="kernel started"):
                run_census(9, oracle=oracle)
            with pytest.raises(DimensionTooLarge):
                run_census(10, oracle=oracle)


class TestDeterminism:
    def test_counts_independent_of_workers(self, monkeypatch, shard_log):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 8)
        reference = run_census(6, workers=1).to_dict()
        for workers in (2, 8):
            shard_log.clear()
            other = run_census(6, workers=workers).to_dict()
            assert len(shard_log) == workers
            for key in reference:
                if key in ("elapsed", "workers"):
                    continue
                assert other[key] == reference[key], key

    def test_reports_byte_identical_modulo_elapsed(self):
        import json

        a = run_census(4, workers=1).to_dict()
        b = run_census(4, workers=1).to_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert json.dumps(a) == json.dumps(b)


def _random_orientable_index(n, rng):
    """Counter value of a random matrix whose rows all have even weight."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(i + 1, n):
            rows[i][j] = rng.getrandbits(1)
        rows[i][n - 1] ^= sum(rows[i]) % 2
    return index_of(BottMatrix(tuple(map(tuple, rows))))


def _random_kahler_index(n, rng):
    """Counter value of a random matrix whose columns pair up as equals."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [[0] * n for _ in range(n)]
    for j, k in zip(order[::2], order[1::2]):
        value = rng.getrandbits(min(j, k))
        for i in range(min(j, k)):
            rows[i][j] = rows[i][k] = (value >> i) & 1
    return index_of(BottMatrix(tuple(map(tuple, rows))))


def _decode_orientable(n, k):
    """Matrix at orientable counter value k: row a takes its entries in
    columns a+2..n-1 from the next n-2-a bits of k, least significant
    first, and its column-(a+1) entry is their parity."""
    rows = [[0] * n for _ in range(n)]
    p = 0
    for a in range(n - 1):
        for j in range(a + 2, n):
            rows[a][j] = (k >> p) & 1
            p += 1
        rows[a][a + 1] = sum(rows[a]) % 2
    return BottMatrix(tuple(map(tuple, rows)))


def _encode_orientable(A):
    """Orientable counter value of an orientable matrix."""
    k = p = 0
    for a in range(A.n - 1):
        for j in range(a + 2, A.n):
            k |= A.rows[a][j] << p
            p += 1
    return k


class TestOrientableCounter:
    def test_lists_orientable_matrices_in_full_counter_order(self):
        # The mismatch order of a census depends on this.
        n = 5
        decoded = [
            index_of(_decode_orientable(n, k))
            for k in range(1 << _kernels.orientable_bits(n))
        ]
        expected = [
            index_of(A) for A in enumerate_bott(n) if is_orientable(to_pmatrix(A))
        ]
        assert decoded == expected


def _lanes(A):
    """Stored rows then columns of A as bitmasks.  The kernel stores row a
    as r_a >> 1, entry a_aj in bit j - 1 (bit 0 of a strictly upper
    triangular row is always zero); column j has a_aj in bit a."""
    n = A.n
    rows = [sum(A.rows[a][j] << j for j in range(n)) >> 1 for a in range(n)]
    columns = [sum(A.rows[a][j] << a for a in range(n)) for j in range(n)]
    return rows + columns


class TestDecoder:
    """The table decoder against the test-side decoder, value by value."""

    @staticmethod
    def _check(n, lo, hi):
        batches = list(_kernels._batches(n, lo, hi))
        decoded = np.concatenate(batches, axis=1)
        assert decoded.shape == (2 * n, hi - lo)
        for k, lanes in zip(range(lo, hi), decoded.T):
            assert lanes.tolist() == _lanes(_decode_orientable(n, k)), k
        return batches

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counters_of_at_most_one_bit(self, n):
        self._check(n, 0, 1 << _kernels.orientable_bits(n))

    @pytest.mark.parametrize("n,seed", [(7, 1), (8, 2), (9, 3), (10, 4), (11, 5)])
    def test_unaligned_windows_across_a_span(self, n, seed):
        rng = random.Random(seed)
        span = 1 << _kernels.SPAN_BITS
        boundary = span * rng.randrange(1, (1 << _kernels.orientable_bits(n)) // span)
        lo = boundary - rng.randrange(1, 300)
        hi = boundary + rng.randrange(1, 300)
        batches = self._check(n, lo, hi)
        # one batch on each side: no batch crosses the span boundary
        assert [b.shape[1] for b in batches] == [boundary - lo, hi - boundary]

    @pytest.mark.parametrize("n", [14, 17])
    def test_windows_at_the_top_of_wide_counters(self, n):
        # the high counter bits pass 63 bits from n = 14 (78 counter bits)
        top = 1 << _kernels.orientable_bits(n)
        span = 1 << _kernels.SPAN_BITS
        self._check(n, top - 5, top)
        self._check(n, top - span - 3, top - span + 3)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_lanes_are_bytes_up_to_n9(self, n):
        # stored rows and columns use bits 0..n-2
        dtype = np.uint8 if n <= 9 else np.uint16
        assert _kernels._layout(n).table.dtype == dtype
        assert _kernels._layout(n).high.dtype == dtype
        assert all(b.dtype == dtype for b in _kernels._batches(n, 0, 2))


class TestSortingNetwork:
    @pytest.mark.parametrize("n", range(12))
    def test_sorts_every_zero_one_input(self, n):
        # 0-1 principle: a comparator network that sorts every 0-1
        # input sorts every input
        network = _kernels._sorting_network(n)
        for value in range(1 << n):
            wires = [(value >> k) & 1 for k in range(n)]
            for lo, hi in network:
                wires[lo], wires[hi] = min(wires[lo], wires[hi]), max(wires[lo], wires[hi])
            assert wires == sorted(wires), value


def _referee_counts(n, indices):
    """The kernel's count record, recounted by the per-matrix functions."""
    counts = dict.fromkeys(
        (
            "kahler_count",
            "spin_by_theorem_count",
            "orientable_count",
            "mismatch_count",
            "spin_by_oracle_count",
            "spin_by_oracle_all_count",
        ),
        0,
    )
    for idx in indices:
        A = matrix_from_index(n, idx)
        oracle = spin_oracle(A)
        counts["spin_by_oracle_all_count"] += oracle
        counts["orientable_count"] += is_orientable(to_pmatrix(A))
        if is_kahler(A):
            theorem = spin_main_theorem(A)
            counts["kahler_count"] += 1
            counts["spin_by_theorem_count"] += theorem
            counts["spin_by_oracle_count"] += oracle
            counts["mismatch_count"] += theorem != oracle
    return counts


def _kernel_counts(n, lo, hi, with_oracle=True):
    counts, mismatches = _kernels.census_range(n, lo, hi, with_oracle, MISMATCH_CAP)
    assert mismatches == []
    return counts


def _seeded_window(n, seed):
    """128 orientable counter values around a seeded Kähler matrix (even n)
    or orientable one (odd n), and the full counter values they list."""
    rng = random.Random(seed)
    pick = _random_kahler_index if n % 2 == 0 else _random_orientable_index
    A = matrix_from_index(n, pick(n, rng))
    centre = _encode_orientable(A)
    assert _decode_orientable(n, centre) == A
    lo = max(centre - 64, 0)
    window = range(lo, min(lo + 128, 1 << _kernels.orientable_bits(n)))
    return window, [index_of(_decode_orientable(n, k)) for k in window]


class TestKernelReferee:
    """census_range against the generic per-matrix referee."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_referee_exhaustively(self, n):
        # The referee sees every matrix, so non-orientable ones must add
        # nothing beyond the orientable counter.
        sweep = _kernel_counts(n, 0, 1 << _kernels.orientable_bits(n))
        assert sweep == _referee_counts(n, range(1 << free_bit_count(n)))

    @pytest.mark.parametrize(
        "n,seed",
        [(7, 1), (7, 2), (8, 1), (8, 2), (8, 3), (9, 1), (9, 2), (10, 1), (10, 2), (11, 1)],
    )
    def test_matches_referee_on_seeded_windows(self, n, seed):
        # Windows around a Kähler matrix (even n) or an orientable one
        # (odd n) are dense in the cases the kernel treats specially.
        window, full = _seeded_window(n, seed)
        assert _kernel_counts(n, window.start, window.stop) == _referee_counts(n, full)

    @pytest.mark.parametrize("n,seed", [(7, 1), (7, 2), (9, 1), (9, 2)])
    def test_odd_n_skips_the_kahler_stages(self, monkeypatch, n, seed):
        # no Kähler matrix at odd n, so the sort and the theorem never run
        def fail(*args):
            raise AssertionError("Kähler stage ran")

        monkeypatch.setattr(_kernels, "_sorted_columns", fail)
        monkeypatch.setattr(_kernels, "_spin_theorem", fail)
        window, full = _seeded_window(n, seed)
        referee = _referee_counts(n, full)
        assert _kernel_counts(n, window.start, window.stop) == referee
        for key in ("spin_by_oracle_count", "spin_by_oracle_all_count"):
            referee.pop(key)
        assert _kernel_counts(n, window.start, window.stop, with_oracle=False) == referee

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_theorem_only_odd_census_decodes_nothing(self, monkeypatch, n):
        def fail(*args):
            raise AssertionError("batch decoded")

        monkeypatch.setattr(_kernels, "_batches", fail)
        report = run_census(n, oracle=False)
        assert report.orientable_count == 1 << _kernels.orientable_bits(n)
        assert report.kahler_count == report.spin_by_theorem_count == report.mismatch_count == 0

    def test_split_ranges_sum_to_whole(self):
        # Ranges with arbitrary ends must neither drop nor double-count
        # any counter value: at n = 6 (2^10 values, with Kähler matrices)
        # within one batch, at n = 7 (2^15 values) across batches.
        rng = random.Random(6)
        for n in (6, 7):
            total = 1 << _kernels.orientable_bits(n)
            cuts = sorted(rng.sample(range(1, total), 9))
            summed = {}
            for lo, hi in zip([0] + cuts, cuts + [total]):
                for key, value in _kernel_counts(n, lo, hi).items():
                    summed[key] = summed.get(key, 0) + value
            assert summed == _kernel_counts(n, 0, total)


class TestKernelBackends:
    def test_backend_reported(self):
        assert _kernels.BACKEND == "numpy"
        assert run_census(2).backend == "numpy"


class TestMismatchPath:
    def test_negated_theorem_reports_every_kahler_matrix(self, monkeypatch, shard_log):
        theorem = _kernels._spin_theorem
        monkeypatch.setattr(_kernels, "_spin_theorem", lambda *a: ~theorem(*a))
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        kahler = (A for A in enumerate_bott(6) if is_kahler(A))
        first = [A.to_text() for A in itertools.islice(kahler, MISMATCH_CAP)]
        reports = [run_census(6, workers=workers) for workers in (1, 2)]
        assert len(shard_log) == 1 + 2
        for report in reports:
            assert report.mismatch_count == 192
            assert report.mismatch_truncated
            assert report.mismatches == first
        assert reports[0].mismatches == reports[1].mismatches

    def test_mismatch_rows_keep_the_top_bit(self, monkeypatch):
        # Mismatches come back as full row bitmasks, not the kernel's
        # stored r_a >> 1: a Kähler matrix with a_07 = 1 has bit 7 of row 0.
        theorem = _kernels._spin_theorem
        monkeypatch.setattr(_kernels, "_spin_theorem", lambda *a: ~theorem(*a))
        n = 8
        rng = random.Random(8)
        A = matrix_from_index(n, _random_kahler_index(n, rng))
        while not A.rows[0][7]:
            A = matrix_from_index(n, _random_kahler_index(n, rng))
        lo = max(_encode_orientable(A) - 64, 0)
        window = [_decode_orientable(n, k) for k in range(lo, lo + 128)]
        counts, mismatches = _kernels.census_range(n, lo, lo + 128, True, MISMATCH_CAP)
        expected = [B.row_masks for B in window if is_kahler(B)]
        assert counts["mismatch_count"] == len(expected) <= MISMATCH_CAP
        assert mismatches == expected
        assert A.row_masks in mismatches


@pytest.mark.parametrize("n", [10, 16])
def test_mismatch_rows_keep_the_top_bit_on_two_byte_lanes(monkeypatch, n):
    # a Kähler matrix with a_0,n-1 = 1 has bit n - 1 of row 0, the top
    # bit of a uint16 lane at n = 16
    theorem = _kernels._spin_theorem
    monkeypatch.setattr(_kernels, "_spin_theorem", lambda *a: ~theorem(*a))
    assert _kernels._layout(n).table.dtype == np.uint16
    rng = random.Random(n)
    A = matrix_from_index(n, _random_kahler_index(n, rng))
    while not A.rows[0][n - 1]:
        A = matrix_from_index(n, _random_kahler_index(n, rng))
    lo = max(_encode_orientable(A) - 64, 0)
    window = [_decode_orientable(n, k) for k in range(lo, lo + 128)]
    counts, mismatches = _kernels.census_range(n, lo, lo + 128, True, MISMATCH_CAP)
    expected = [B.row_masks for B in window if is_kahler(B)]
    assert counts["mismatch_count"] == len(expected) <= MISMATCH_CAP
    assert mismatches == expected
    assert A.row_masks in mismatches
    assert A.row_masks[0] >> (n - 1) == 1


class TestBoundedWork:
    def test_refusal_names_the_counter_size(self, no_kernel):
        for (n, bits), oracle in itertools.product(((10, 45), (11, 55), (12, 66)), (True, False)):
            with pytest.raises(DimensionTooLarge) as refused:
                run_census(n, oracle=oracle)
            assert str(refused.value) == (
                f"n={n} has 2^{bits} matrices; the census counter is limited to n <= 9"
            )

    def test_check_request_is_the_one_bound(self):
        # n = 9 passes in both modes, so no mode has a lower bound of its own
        assert census.MAX_DIM == 9
        assert check_request(9) is None
        assert check_request(9, workers=2) is None
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            check_request(0)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            check_request(2, workers=0)
        with pytest.raises(DimensionTooLarge):
            check_request(10)

    def test_workers_capped_at_cpu_count(self, monkeypatch, shard_log):
        pools = []

        class RecordingExecutor:
            """Runs shards inline and records the requested pool size."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(census.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 3)
        capped = run_census(6, workers=10**6).to_dict()
        assert pools == [3]
        assert len(shard_log) == 3
        assert capped.pop("workers") == 3
        reference = run_census(6, workers=1).to_dict()
        reference.pop("workers")
        capped.pop("elapsed")
        reference.pop("elapsed")
        assert capped == reference

    def test_one_shard_plan_reads_no_cpu_count(self, monkeypatch):
        # the CPU count only sizes a process pool; workers counts the shards
        def fail():
            raise AssertionError("cpu_count read")

        monkeypatch.setattr(census.os, "cpu_count", fail)
        for n, workers in ((6, 4), (8, 2)):
            report = run_census(n, workers=workers)
            assert report.workers == 1
            assert report.orientable_count == 1 << _kernels.orientable_bits(n)

    def test_workers_reports_the_shards_that_ran(self, monkeypatch, shard_log):
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        for n, workers, shards in ((4, 8, 2), (6, 8, 2), (2, 2, 1), (6, 1, 1)):
            shard_log.clear()
            assert run_census(n, workers=workers).workers == len(shard_log) == shards


class TestNoWorkSweep:
    """A theorem-only census at odd n decodes nothing, so it plans one
    inline shard: no process pool and no CPU count."""

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    def test_one_inline_shard(self, monkeypatch, n):
        def fail(*args, **kwargs):
            raise AssertionError("pool or cpu_count used")

        reference = run_census(n, oracle=False).to_dict()
        reference.pop("elapsed")
        monkeypatch.setattr(census.futures, "ProcessPoolExecutor", fail)
        monkeypatch.setattr(census.os, "cpu_count", fail)
        for workers in (2, 8):
            doc = run_census(n, oracle=False, workers=workers).to_dict()
            doc.pop("elapsed")
            assert doc == reference

    def test_plan_and_kernel_agree_on_what_decodes(self, monkeypatch, shard_log):
        # shard_log shrinks shards to 4 values, so a plan that ignored the
        # kernel's skip would log several shards
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        for n, oracle in itertools.product(range(4, 9), (True, False)):
            if oracle or n % 2 == 0:
                shard_log.clear()
                run_census(n, oracle=oracle, workers=2)
                assert len(shard_log) == 2, (n, oracle)

        def fail(*args):
            raise AssertionError("batch decoded")

        monkeypatch.setattr(_kernels, "_batches", fail)
        for n in (1, 3, 5, 7, 9):
            shard_log.clear()
            assert run_census(n, oracle=False, workers=2).workers == 1
            assert shard_log == [(0, 1 << _kernels.orientable_bits(n))]


class TestProcessShards:
    """Real worker processes: n = 8 made into two shards of 2^20 values."""

    @pytest.fixture()
    def pools(self, monkeypatch):
        """Pool size of every ProcessPoolExecutor the census starts."""
        sizes = []
        real = census.futures.ProcessPoolExecutor

        class Recorded(real):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(census, "MIN_SHARD", 1 << 20)
        monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(census.futures, "ProcessPoolExecutor", Recorded)
        return sizes

    @pytest.mark.parametrize("oracle", [True, False])
    def test_two_processes_match_one(self, pools, oracle):
        one, two = (run_census(8, oracle=oracle, workers=w).to_dict() for w in (1, 2))
        assert pools == [2]
        assert multiprocessing.active_children() == []
        for doc in (one, two):
            doc.pop("elapsed")
            doc.pop("workers")
        assert one == two
        assert one["kahler_count"] == 28464

    def test_failing_shard_leaves_no_process(self, pools, monkeypatch):
        # the workers must inherit the patched kernel
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("needs the fork start method")

        def fail(*args):
            raise RuntimeError("shard failed")

        monkeypatch.setattr(_kernels, "_spin_oracle", fail)
        with pytest.raises(RuntimeError, match="shard failed"):
            run_census(8, workers=2)
        assert pools == [2]
        assert multiprocessing.active_children() == []


class TestReportShape:
    @pytest.mark.parametrize("oracle", [True, False])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_to_dict_key_order(self, monkeypatch, shard_log, oracle, workers):
        # The kernel names the fields it counts; merged over one shard
        # or several, they keep the report's key order and stay Python
        # ints, and the oracle fields stay None without the oracle.
        monkeypatch.setattr(census.os, "cpu_count", lambda: 8)
        doc = run_census(6, oracle=oracle, workers=workers).to_dict()
        assert len(shard_log) == workers
        assert list(doc) == [
            "dimension",
            "total",
            "kahler_count",
            "spin_by_theorem_count",
            "spin_by_oracle_count",
            "spin_by_oracle_all_count",
            "orientable_count",
            "mismatch_count",
            "mismatches",
            "mismatch_truncated",
            "oracle",
            "workers",
            "backend",
            "elapsed",
        ]
        for key, value in doc.items():
            if key == "total" or key.endswith("_count"):
                unset = not oracle and key.startswith("spin_by_oracle")
                assert type(value) is (type(None) if unset else int), key

    def test_mismatch_invariant(self):
        for n in (2, 3, 4, 5, 6):
            assert run_census(n).mismatch_count == 0
