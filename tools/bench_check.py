"""Per-matrix wall time of `rbott check`, `sw` and `verify`, appended to BENCH_check.json.

Run from the repository root:

    python tools/bench_check.py --label HEAD
    python tools/bench_check.py --repo ../other-checkout --label parent

--repo names the checkout whose src/rbott is timed (default: this one).
The matrices always come from this checkout's tests/samplers.py, so two
checkouts are timed on the same inputs: seeded Kähler matrices for check
and verify, spin-biased ones for sw.  Each command runs in-process as
rbott.cli.main([cmd, "--matrix", spec, "--json"]) with stdout discarded;
every timed call must exit 0, so a refusal is never timed as a result.
sw and verify are not timed above the checkout's cli.REFEREE_MAX_N,
which they refuse; check is timed at every size.  A matrix's time is
the best of --repeats runs; the entry holds, per command and n, the
median over --matrices matrices, in milliseconds.  The matrices are
drawn with seed SEED.

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

OUT = HERE / "BENCH_check.json"
SEED = 1
PROBES = 3
COMMANDS = {"check": "kahler", "sw": "spin_biased", "verify": "kahler"}


def _git(repo: Path, *args: str) -> str | None:
    """git's output in repo, or None when repo is not a git work tree."""
    done = subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _spec(n: int, rows: list[int]) -> str:
    return ";".join(f"{r:0{n}b}"[::-1] for r in rows)


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


def measure(repo: Path, sizes: list[int], matrices: int, repeats: int) -> dict:
    sys.path[:0] = [str(repo / "src"), str(HERE / "tests")]
    import samplers
    from rbott import cli

    ms: dict[str, dict[str, float]] = {cmd: {} for cmd in COMMANDS}
    probe_before = _probe_s()
    for n in sizes:
        for cmd, sampler in COMMANDS.items():
            if cmd != "check" and n > cli.REFEREE_MAX_N:
                continue
            rng = random.Random(SEED * 1000 + n)
            times = []
            for _ in range(matrices):
                spec = _spec(n, samplers.SAMPLERS[sampler](n, rng))
                times.append(_time_ms(cli.main, [cmd, "--matrix", spec, "--json"], repeats))
            ms[cmd][str(n)] = round(statistics.median(times), 3)
    probe_after = _probe_s()
    return {
        **metadata(repo),
        "sizes": sizes,
        "matrices_per_n": matrices,
        "repeats": repeats,
        "seed": SEED,
        "probe_s": {"before": probe_before, "after": probe_after},
        "ms": ms,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", type=Path, default=HERE, help="checkout to time")
    parser.add_argument("--label", required=True, help="name of the entry, e.g. parent")
    parser.add_argument("--sizes", type=int, nargs="+", default=[12, 48, 128, 256, 512, 1024])
    parser.add_argument("--matrices", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    entry = {"label": args.label}
    entry.update(measure(args.repo.resolve(), args.sizes, args.matrices, args.repeats))
    entries = json.loads(OUT.read_text()) if OUT.exists() else []
    entries.append(entry)
    OUT.write_text(json.dumps(entries, indent=1) + "\n")
    print(json.dumps(entry["ms"]))


if __name__ == "__main__":
    main()
