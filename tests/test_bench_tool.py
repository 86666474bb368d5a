"""tools/bench.py: both subcommands write entries of the recorded schema.

Each subcommand runs in-process at a tiny size with its entries sent to
a temporary directory (the module's RECORDS), so the repository's own
BENCH_*.json files are never written.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from rbott.census import run_census

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = ("BENCH_check.json", "BENCH_census.json")
COMMON_KEYS = ["label", "commit", "src_modified", "python", "numpy", "cpus", "kernel", "sizes"]
CHECK_KEYS = COMMON_KEYS + ["matrices_per_n", "repeats", "seed", "probe_s", "ms"]
CENSUS_KEYS = COMMON_KEYS + ["workers", "repeats", "probe_s", "seconds", "counts"]


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RECORDS", tmp_path)
    before = {name: (ROOT / name).read_bytes() for name in BENCH_FILES}
    yield module
    assert {name: (ROOT / name).read_bytes() for name in BENCH_FILES} == before


def _entries(path: Path) -> list[dict]:
    return json.loads(path.read_text())


def test_check_entry_keys(bench, tmp_path, capsys):
    bench.main(["check", "--label", "t", "--sizes", "12", "--matrices", "1", "--repeats", "1"])
    (entry,) = _entries(tmp_path / "BENCH_check.json")
    assert list(entry) == CHECK_KEYS
    assert entry["label"] == "t" and entry["sizes"] == [12]
    assert {cmd: list(times) for cmd, times in entry["ms"].items()} == {
        "check": ["12"],
        "sw": ["12"],
        "verify": ["12"],
    }
    assert json.loads(capsys.readouterr().out) == entry["ms"]


def test_census_entry_keys_and_counts(bench, tmp_path, capsys):
    bench.main(["census", "--label", "t", "--sizes", "4", "--workers", "1", "--repeats", "1"])
    (entry,) = _entries(tmp_path / "BENCH_census.json")
    assert list(entry) == CENSUS_KEYS
    report = run_census(4).to_dict()
    expected = {k: v for k, v in report.items() if k == "total" or k.endswith("_count")}
    assert entry["counts"] == {"4": expected}
    assert {mode: list(times) for mode, times in entry["seconds"].items()} == {
        "oracle": ["1"],
        "theorem": ["1"],
    }
    assert json.loads(capsys.readouterr().out) == entry["seconds"]


def test_repo_without_rbott_is_refused(bench, tmp_path):
    records = tmp_path / "BENCH_census.json"
    records.write_text("[]\n")
    with pytest.raises(SystemExit, match="has no src/rbott") as exit_info:
        bench.main(["census", "--repo", str(tmp_path / "nowhere"), "--label", "typo"])
    assert exit_info.value.code not in (0, None)
    assert records.read_text() == "[]\n"
    assert not (tmp_path / "BENCH_check.json").exists()


def test_rbott_imported_from_elsewhere_is_refused(bench, tmp_path):
    # rbott is already imported from this checkout, so a stub package in
    # --repo would not be the code timed
    (tmp_path / "other" / "src" / "rbott").mkdir(parents=True)
    (tmp_path / "other" / "src" / "rbott" / "__init__.py").write_text("")
    with pytest.raises(SystemExit, match="not from"):
        bench.main(["check", "--repo", str(tmp_path / "other"), "--label", "typo"])
    assert not (tmp_path / "BENCH_check.json").exists()


def test_census_case_runs_until_the_minimum_time(bench, monkeypatch):
    # a sub-millisecond census repeats past --repeats until its runs add
    # up to MIN_CASE_S; on this clock every run takes 2/7 of it, so 4 runs
    from rbott import census

    ticks = itertools.count()
    clock = SimpleNamespace(perf_counter=lambda: next(ticks) * bench.MIN_CASE_S * 2 / 7)
    monkeypatch.setattr(bench, "time", clock)
    calls = []

    def recorded(n, oracle, workers):
        calls.append(oracle)
        return run_census(n, oracle=oracle, workers=workers)

    monkeypatch.setattr(census, "run_census", recorded)
    bench.main(["census", "--label", "t", "--sizes", "2", "--workers", "1", "--repeats", "1"])
    assert calls == [True] * 4 + [False] * 4
