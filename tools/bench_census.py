"""Wall time of `rbott.census.run_census`, appended to BENCH_census.json.

Run from the repository root:

    python tools/bench_census.py --label HEAD
    python tools/bench_census.py --repo ../other-checkout --label parent

--repo names the checkout whose src/rbott is timed (default: this one).
Every n in --sizes is censused with and without the oracle, on each
worker count in --workers, --repeats times in this process; the entry
holds the best wall time of each in seconds, under
seconds[mode][workers][n], with mode "oracle" or "theorem".  It also
holds the counts of each n (the report's total and every *_count field),
and every run of that n must give the same counts (the oracle fields
only where the oracle ran), so two entries compare only when their
counts agree.  With the defaults (n = 6, 8 and 9, 1 and 2 workers, best
of 3) one round takes about four minutes on a 2-CPU VM, most of it the
n = 9 oracle census.

Every entry carries the metadata of tools/bench_check.py (commit, Python
and numpy versions, CPU count, kernel) and the machine's speed before and
after the timings (its `_probe_s`), so entries from different runs compare
only where their probes agree.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
if str(HERE / "tools") not in sys.path:
    sys.path.insert(0, str(HERE / "tools"))

from bench_check import _probe_s, metadata  # noqa: E402

OUT = HERE / "BENCH_census.json"


def _counts(report: dict) -> dict:
    """The report's counts: total and every field ending in _count."""
    return {k: v for k, v in report.items() if k == "total" or k.endswith("_count")}


def measure(repo: Path, sizes: list[int], workers: list[int], repeats: int) -> dict:
    sys.path.insert(0, str(repo / "src"))
    from rbott import census

    seconds: dict[str, dict[str, dict[str, float]]] = {
        mode: {str(w): {} for w in workers} for mode in ("oracle", "theorem")
    }
    counts: dict[str, dict[str, int]] = {}
    probe_before = _probe_s()
    for n in sizes:
        seen: dict[str, int] = {}
        for mode in seconds:
            for w in workers:
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    report = census.run_census(n, oracle=mode == "oracle", workers=w).to_dict()
                    best = min(best, time.perf_counter() - start)
                    for key, value in _counts(report).items():
                        if value is not None and seen.setdefault(key, value) != value:
                            raise SystemExit(f"n = {n}, {mode}, {w} workers: {key} differs")
                seconds[mode][str(w)][str(n)] = round(best, 6)
        counts[str(n)] = seen
    probe_after = _probe_s()
    return {
        **metadata(repo),
        "sizes": sizes,
        "workers": workers,
        "repeats": repeats,
        "probe_s": {"before": probe_before, "after": probe_after},
        "seconds": seconds,
        "counts": counts,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=HERE, help="checkout to time")
    parser.add_argument("--label", required=True, help="name of the entry, e.g. parent")
    parser.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 9])
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    entry = {"label": args.label}
    entry.update(measure(args.repo.resolve(), args.sizes, args.workers, args.repeats))
    entries = json.loads(OUT.read_text()) if OUT.exists() else []
    entries.append(entry)
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    print(json.dumps(entry["seconds"]))


if __name__ == "__main__":
    main()
