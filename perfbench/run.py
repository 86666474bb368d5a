#!/usr/bin/env python3
"""Run one rbott benchmark workload, check its results, print its metrics.

    python3 perfbench/run.py --workload census_sweep|matrix_corpus
                             [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the run measures the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it alternates untraced and traced
stretches, and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  The program under test is
rbott from ``src/`` next to this directory; the run exits with code 2 if
it is missing and 1 if any result was wrong.  Details, run metadata and
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
# set-up interpreters run before the measured stretch and as many after it
SETUP_RUNS_EACH_SIDE = 5
IMPORTTIME_RUNS = 3
MAX_LOGGED_FAILURES = 100


def interpreter_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_seconds(code: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import rbott and run ``code``.

    Returns the times scaled by the machine-speed probe, and the raw ones.
    """
    times, raw = [], []
    speed = SpeedProbe()
    for _ in range(SETUP_RUNS_EACH_SIDE):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=interpreter_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] * speed.factor())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.decode()[-2000:]}")
    return times, raw


def import_times_ms() -> dict:
    """Cumulative import time of numpy and rbott, from ``-X importtime``."""
    samples: dict[str, list[float]] = {"numpy": [], "rbott": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import rbott"],
            cwd=ROOT,
            env=interpreter_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        # lines read "import time:  self [us] | cumulative | package"
        for line in proc.stderr.splitlines():
            _, _, rest = line.partition("import time:")
            parts = [p.strip() for p in rest.split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e3)
    return {
        "setup.import_numpy_ms": statistics.median(samples["numpy"]),
        "setup.import_rbott_ms": statistics.median(samples["rbott"]),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(rbott, args) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": rbott.KERNEL_BACKEND,
        "cpu_count": os.cpu_count(),
        "kernel_release": platform.release(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def declared(spec: dict, key: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rbott" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no rbott sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rbott
    import rbott.cli  # noqa: F401  (the corpus calls rbott.cli.main)

    workload = WORKLOADS[args.workload]
    state = workload.prepare(args.seed)
    details: dict = {"metadata": metadata(rbott, args)}
    tracer = None
    if args.trace:
        tracer = Tracer()
        untraced, traced = workload.measure(rbott, state, args.seconds, tracer)
        runs = [untraced, traced]
        units = declared(spec, "per_layer")
        # a layer that did no work on this workload reads 0
        values: dict = dict.fromkeys(units, 0.0)
        values.update(workload.per_layer(tracer, traced))
        values.update(import_times_ms())
        if untraced.metrics and traced.metrics:
            ratio = untraced.metrics["throughput_per_s"] / traced.metrics["throughput_per_s"]
            values["trace.overhead_pct"] = (ratio - 1) * 100
        details["untraced"] = {"metrics": untraced.metrics, **untraced.details}
        details["traced"] = {"metrics": traced.metrics, **traced.details}
        details["absent"] = sorted(k for k, v in values.items() if v is None)
    else:
        setup, setup_raw = setup_seconds(workload.setup_code)
        measured = workload.measure(rbott, state, args.seconds)
        after, after_raw = setup_seconds(workload.setup_code)
        setup += after
        setup_raw += after_raw
        runs = [measured]
        units = declared(spec, "end_to_end")
        values = {
            **measured.metrics,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
        }
        details["measured"] = measured.details
        details["setup_runs_s"] = setup
        details["setup_runs_raw_s"] = setup_raw

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    failed = len(failures)
    failures += [f"metric {name} was not measured" for name in sorted(set(units) - set(values))]
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name].update(value=0.0, absent=True)
    details["fail_ratio"] = failed / max(attempted, 1)
    details["failures"] = failures[:MAX_LOGGED_FAILURES]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT_DIR / f"{stem}.json"
    result_path.write_text(json.dumps({"metrics": metrics, **details}, indent=2) + "\n")
    meta = details["metadata"]
    print(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        f" commit={meta['commit'][:12]} python={meta['python']} numpy={meta['numpy']}"
        f" backend={meta['kernel_backend']} cpus={meta['cpu_count']}"
        f" kernel={meta['kernel_release']}"
    )
    for half, r in zip(("untraced ", "traced ") if args.trace else ("",), runs):
        for name, (value, unit) in r.details.get("named", {}).items():
            print(f"  {half + name:<38} {value:14.4f} {unit}")
    for name, m in metrics.items():
        shown = "absent" if m.get("absent") else f"{m['value']:14.4f}"
        print(f"  {name:<38} {shown:>14} {m['unit']}")
    print(f"  {'fail_ratio':<38} {details['fail_ratio']:14.4f} ({failed}/{attempted})")
    if tracer is not None:
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(
            spans_path,
            {"metadata": meta, "counts": dict(tracer.counts), "absent": details["absent"]},
        )
        print(
            f"  tracing overhead {values.get('trace.overhead_pct', float('nan')):+.1f}%"
            f" on throughput; {len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}"
        )
    for f in failures[:5]:
        print(f"  FAILED: {f.strip().splitlines()[-1]}")
    print(f"  details in {result_path.relative_to(ROOT)}")
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
