"""Timings of rbott, appended to BENCH_check.json or BENCH_census.json.

Run from the repository root:

    python tools/bench.py check --label HEAD
    python tools/bench.py census --repo ../other-checkout --label parent

--repo names the checkout whose src/rbott is timed (default: this one);
nothing is written when it has no src/rbott or rbott comes from elsewhere.

check: per-matrix wall time of `rbott check`, `sw` and `verify`.  The
matrices always come from this checkout's tests/samplers.py, so two
checkouts are timed on the same inputs: seeded Kähler matrices for check
and verify, spin-biased ones for sw.  Each command runs in-process as
rbott.cli.main([cmd, "--matrix", spec, "--json"]) with stdout discarded;
every timed call must exit 0, so a refusal is never timed as a result.
sw and verify are not timed above the checkout's cli.REFEREE_MAX_N,
which they refuse; check is timed at every size.  A matrix's time is
the best of --repeats runs; the entry holds, per command and n, the
median over --matrices matrices, in milliseconds, under ms[cmd][n].
The matrices are drawn with seed SEED.

census: wall time of `rbott.census.run_census`.  Every n in --sizes is
censused with and without the oracle, on each worker count in
--workers, --repeats times in this process, and then again until that
case's runs add up to MIN_CASE_S, so that a sub-millisecond census is
timed over many runs; the entry holds the best wall time of each in
seconds, under seconds[mode][workers][n], with mode "oracle" or
"theorem".  It also holds the counts of each n (the report's
total and every *_count field), and every run of that n must give the
same counts (the oracle fields only where the oracle ran), so two
entries compare only when their counts agree.  With the defaults (n = 6,
8 and 9, 1 and 2 workers, at least 3 runs) one round takes about 20 s on
a 2-CPU VM, most of it the n = 9 oracle census.

Every entry carries what is needed to reproduce it: the commit of the
timed checkout (and whether its src/ differs from that commit; both
null when the checkout is not a git work tree, e.g. a `git archive`
export), the Python and numpy versions, the CPU count and the kernel.
It also holds the machine's speed before and after the timings, as the
best of PROBES runs of perfbench.speed.probe() (a fixed pure-Python
loop that calls no rbott code): on a shared machine whose speed drifts,
entries from different runs compare only where their probes agree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from perfbench.speed import probe  # noqa: E402

RECORDS = HERE  # directory holding BENCH_check.json and BENCH_census.json
SEED = 1
PROBES = 3
MIN_CASE_S = 0.2  # least total wall time of a census case's runs
COMMANDS = {"check": "kahler", "sw": "spin_biased", "verify": "kahler"}


def _git(repo: Path, *args: str) -> str | None:
    """git's output in repo, or None when repo is not a git work tree."""
    done = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _probe_s() -> float:
    return round(min(probe() for _ in range(PROBES)), 5)


def metadata(repo: Path) -> dict:
    """The fields every entry carries to be reproduced."""
    import numpy

    status = _git(repo, "status", "--porcelain", "--", "src")
    return {
        "commit": _git(repo, "rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "kernel": platform.release(),
    }


def load_rbott(repo: Path) -> None:
    """Import rbott from repo/src, or exit when it would come from elsewhere."""
    src = repo / "src"
    if not (src / "rbott" / "__init__.py").is_file():
        raise SystemExit(f"{repo} has no src/rbott/__init__.py")
    sys.path.insert(0, str(src))
    import rbott
    if not Path(rbott.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"rbott was imported from {rbott.__file__}, not from {src}")


def _time_ms(main, argv: list[str], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = main(argv)
            best = min(best, time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"{argv[0]} at n = {argv[2].count(';') + 1} exited {code}")
    return best * 1e3


def time_check(args: argparse.Namespace) -> tuple[dict, dict]:
    sys.path.insert(1, str(HERE / "tests"))
    import samplers
    from rbott import cli

    ms: dict[str, dict[str, float]] = {cmd: {} for cmd in COMMANDS}
    for n in args.sizes:
        for cmd, sampler in COMMANDS.items():
            if cmd != "check" and n > cli.REFEREE_MAX_N:
                continue
            rng = random.Random(SEED * 1000 + n)
            times = []
            for _ in range(args.matrices):
                spec = ";".join(f"{r:0{n}b}"[::-1] for r in samplers.SAMPLERS[sampler](n, rng))
                times.append(_time_ms(cli.main, [cmd, "--matrix", spec, "--json"], args.repeats))
            ms[cmd][str(n)] = round(statistics.median(times), 3)
    params = {"matrices_per_n": args.matrices, "repeats": args.repeats, "seed": SEED}
    return params, {"ms": ms}


def _counts(report: dict) -> dict:
    """The report's counts: total and every field ending in _count."""
    return {k: v for k, v in report.items() if k == "total" or k.endswith("_count")}


def time_census(args: argparse.Namespace) -> tuple[dict, dict]:
    from rbott import census

    seconds = {mode: {str(w): {} for w in args.workers} for mode in ("oracle", "theorem")}
    counts: dict[str, dict[str, int]] = {}
    for n in args.sizes:
        seen: dict[str, int] = {}
        for mode in seconds:
            for w in args.workers:
                times: list[float] = []
                while len(times) < args.repeats or sum(times) < MIN_CASE_S:
                    start = time.perf_counter()
                    report = census.run_census(n, oracle=mode == "oracle", workers=w).to_dict()
                    times.append(time.perf_counter() - start)
                    for key, value in _counts(report).items():
                        if value is not None and seen.setdefault(key, value) != value:
                            raise SystemExit(f"n = {n}, {mode}, {w} workers: {key} differs")
                seconds[mode][str(w)][str(n)] = round(min(times), 6)
        counts[str(n)] = seen
    params = {"workers": args.workers, "repeats": args.repeats}
    return params, {"seconds": seconds, "counts": counts}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    check = commands.add_parser("check", help="per-matrix wall time of check, sw and verify")
    census = commands.add_parser("census", help="wall time of run_census")
    for sub in (check, census):
        sub.add_argument("--repo", type=Path, default=HERE, help="checkout to time")
        sub.add_argument("--label", required=True, help="name of the entry, e.g. parent")
    check.add_argument("--sizes", type=int, nargs="+", default=[12, 48, 128, 256, 512, 1024])
    check.add_argument("--matrices", type=int, default=3)
    check.add_argument("--repeats", type=int, default=5)
    census.add_argument("--sizes", type=int, nargs="+", default=[6, 8, 9])
    census.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    census.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    load_rbott(repo)
    probe_before = _probe_s()
    params, results = (time_check if args.command == "check" else time_census)(args)
    entry = {"label": args.label, **metadata(repo), "sizes": args.sizes, **params}
    entry.update(probe_s={"before": probe_before, "after": _probe_s()}, **results)
    out = RECORDS / f"BENCH_{args.command}.json"
    entries = json.loads(out.read_text()) if out.exists() else []
    out.write_text(json.dumps([*entries, entry], indent=1) + "\n")
    print(json.dumps(entry["ms" if args.command == "check" else "seconds"]))


if __name__ == "__main__":
    main()
