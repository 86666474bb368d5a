"""Tests of the benchmark itself: its referee, tracing and failure paths.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import rbott  # noqa: E402
from rbott import bott, pmatrix  # noqa: E402

from perfbench import referee, run, speed, tracing, workloads  # noqa: E402


def all_matrices(n):
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in itertools.product((0, 1), repeat=len(positions)):
        rows = [0] * n
        for (i, j), b in zip(positions, bits):
            rows[i] |= b << j
        yield rows


def as_bott(rows):
    return rbott.BottMatrix.from_inline(referee.to_spec(rows))


def assert_referee_agrees(rows):
    A = as_bott(rows)
    data = pmatrix.sw_data(bott.to_pmatrix(A))
    assert referee.is_kahler(rows) == rbott.is_kahler(A)
    assert referee.is_orientable(rows) == pmatrix.is_orientable(bott.to_pmatrix(A))
    assert referee.is_spin(rows) == rbott.spin_oracle(A)
    assert referee.parse_poly(str(data.w1)) == referee.w1_terms(rows)
    assert referee.parse_poly(str(data.w2)) == referee.w2_terms(rows)
    if referee.is_kahler(rows):
        assert referee.reduced_row_sums(rows) == list(rbott.reduce(A).row_sums)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_referee_agrees_with_oracle_exhaustively(n):
    for rows in all_matrices(n):
        assert_referee_agrees(rows)


def test_referee_agrees_with_oracle_at_n48():
    rng = random.Random(48)
    for k in range(8):
        assert_referee_agrees(workloads.kahler_matrix(48, rng))
        assert_referee_agrees(workloads.random_matrix(48, rng))


def test_referee_recounts_frozen_n6_census():
    counts = referee.census_counts(6)
    frozen = referee.CENSUS_N6
    for key in counts:
        assert counts[key] == frozen[key], key
    assert counts["orientable_count"] == referee.orientable_total(6) == 1024
    assert counts["spin_by_oracle_all_count"] == 176


def test_corpus_is_seeded_and_proportioned():
    a, b = workloads.build_corpus(7), workloads.build_corpus(7)
    assert [m.spec for m in a] == [m.spec for m in b]
    assert [m.spec for m in a] != [m.spec for m in workloads.build_corpus(8)]
    assert sum(m.kahler for m in a) * 2 == len(a)
    assert sum(len(m.rows) == workloads.LARGE_N for m in a) * 5 == len(a)
    for m in a:
        assert referee.is_kahler(m.rows) == m.kahler


def test_union_and_self_time():
    assert tracing.union_ns([(0, 10), (5, 15), (20, 30)]) == 25
    spans = [
        tracing.Span(1, None, 1, "root", 0, 100, 0),
        tracing.Span(2, 1, 1, "child", 10, 50, 0),
        tracing.Span(3, 1, 1, "child", 40, 60, 1),
    ]
    assert tracing.self_ns(spans, "root") == [50]


def test_speed_probe_scales_by_bracketing_probes(monkeypatch):
    probes = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    probe = speed.SpeedProbe()
    assert probe.factor() == pytest.approx(2 * speed.REFERENCE_S / (0.010 + 0.030))
    assert probe.factor() == pytest.approx(2 * speed.REFERENCE_S / (0.030 + 0.020))


def test_missing_function_is_absent_not_fatal():
    tracer = tracing.Tracer()
    tracer.install(targets=[("pmatrix.membership", "rbott.pmatrix", "no_such_function", "span")])
    try:
        assert tracer.present == set()
    finally:
        tracer.uninstall()
    m = workloads.Measurement({}, {}, attempted=1)
    layer = workloads.MatrixCorpus().per_layer(tracer, m)
    assert layer["pmatrix.membership_ms"] is None


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_traced_run_reports_every_layer(capsys):
    code = run.main(["--workload", "matrix_corpus", "--seconds", "0.2", "--trace", "1"])
    result = last_json(capsys)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["pmatrix.sw_data_ms"] > 0 and metrics["f2poly.mul_calls"] > 0
    # the census kernel does no work on this workload
    assert metrics["kernels.ns_per_matrix_oracle"] == 0
    assert (ROOT / "perfbench" / "out" / "matrix_corpus-seed1-spans.jsonl").is_file()


def test_wrong_census_count_fails_the_run(monkeypatch, capsys):
    def wrong_census(n, oracle=True, workers=1):
        return rbott.CensusReport(
            dimension=n,
            total=32768,
            kahler_count=191,
            spin_by_theorem_count=76,
            spin_by_oracle_count=76 if oracle else None,
            spin_by_oracle_all_count=176 if oracle else None,
            orientable_count=1024,
        )

    monkeypatch.setattr(rbott, "run_census", wrong_census)
    code = run.main(["--workload", "census_sweep", "--seconds", "0.03"])
    result = last_json(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_wrong_spin_verdict_fails_the_run(monkeypatch, capsys):
    real = bott.spin_oracle

    def flipped(A):
        # non-Kähler inputs have no theorem verdict, so only the referee can object
        return real(A) if bott.is_kahler(A) else not real(A)

    monkeypatch.setattr(bott, "spin_oracle", flipped)
    code = run.main(["--workload", "matrix_corpus", "--seconds", "0.1"])
    result = last_json(capsys)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
