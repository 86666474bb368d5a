"""The two workloads: a census sweep and a corpus of per-matrix requests.

Both are closed loops with a single caller that waits for each call to
return before making the next.  Only public entry points are timed:
``rbott.run_census`` and ``rbott.cli.main``.  Every timed stretch is
scaled by the machine-speed probe of ``speed.py``, which runs between
stretches.  Every result is checked against the referee outside the
timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field

from . import referee
from .speed import SpeedProbe
from .tracing import Tracer, self_ns

# Tail latency is read at the highest of these percentiles that leaves at
# least TAIL_BEYOND samples above it.  The ladder stops at 99 so that a
# faster program, which fits more samples into a run, is not judged at a
# deeper percentile than its parent.
TAIL_LADDER = (99, 95, 90)
TAIL_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    idx = max(math.ceil(p / 100 * len(ordered)) - 1, 0)
    return ordered[idx], len(ordered) - idx - 1


def tail(values):
    """(value, percentile, samples beyond) at the highest qualifying rung."""
    for p in TAIL_LADDER:
        value, beyond = percentile(values, p)
        if beyond >= TAIL_BEYOND:
            return value, p, beyond
    median = statistics.median(values)
    return median, 50, sum(v > median for v in values)


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


@dataclass
class Measurement:
    """End-to-end numbers of one measured stretch, plus what went wrong."""

    metrics: dict
    details: dict
    attempted: int = 0
    failures: list = field(default_factory=list)


def _traces(tracer: Tracer, label: str) -> set[int]:
    return {t for t, lab in tracer.trace_labels.items() if lab == label}


def _busy_ns(tracer: Tracer, name: str, traces=None) -> int:
    return sum(
        s.end_ns - s.start_ns
        for s in tracer.spans
        if s.name == name and (traces is None or s.trace_id in traces)
    )


# ---------------------------------------------------------------------------
# census_sweep

KERNEL_METRICS = (
    "kernels.ns_per_matrix_oracle",
    "kernels.ns_per_matrix_theorem",
    "kernels.oracle_stage_ns",
    "kernels.shard_imbalance",
    "census.shards",
)


class CensusSweep:
    """Back-to-back sweeps of every n = 6 matrix in three configurations.

    n = 6 (32,768 matrices) stands in for the n = 8 census, which takes
    hours; no larger sweep is ever started.  Each configuration (phase)
    gets an equal share of the run's time rather than a sweep count, so
    the run does not shrink to nothing when the kernel gets faster.
    """

    name = "census_sweep"
    dim = 6
    workers = min(2, os.cpu_count() or 1)
    phases = (
        ("oracle", True, 1),
        ("oracle_w2", True, workers),
        ("theorem", False, 1),
    )
    setup_code = (
        "import rbott\n"
        "r = rbott.run_census(2)\n"
        "raise SystemExit(0 if (r.total, r.kahler_count, r.mismatch_count)"
        " == (2, 1, 0) else 1)\n"
    )

    def prepare(self, seed: int):
        # The input is the whole dimension; the seed changes nothing.
        return None

    def measure(self, rbott, state, seconds: float, tracer: Tracer | None = None):
        """One Measurement, or (untraced, traced) when given a tracer.

        The next sweep always goes to the (phase, tracing) slot with the
        least time so far.  Slots get equal time, and drift in machine
        speed hits all of them alike instead of whichever ran last.
        """
        modes = (None,) if tracer is None else (None, tracer)
        expected = {
            label: referee.expected_census(self.dim, oracle) for label, oracle, _ in self.phases
        }
        slots = [(phase, mode) for mode in range(len(modes)) for phase in self.phases]
        durations: dict = {slot: [] for slot in slots}
        raw: dict = {slot: [] for slot in slots}
        spent = dict.fromkeys(slots, 0.0)
        errors = dict.fromkeys(slots, 0)
        failures: list = [[] for _ in modes]
        attempted = [0 for _ in modes]

        def unmeasured():
            # a slot with no sweep yet, unless it has failed three times
            return any(not durations[s] and errors[s] < 3 for s in slots)

        speed = SpeedProbe()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or unmeasured():
            slot = min(slots, key=spent.__getitem__)
            (label, oracle, workers), mode = slot
            traced = modes[mode]
            if traced is not None:
                traced.label = label
                traced.install()
            attempted[mode] += 1
            t0 = time.perf_counter()
            try:
                report = rbott.run_census(self.dim, oracle=oracle, workers=workers)
            except Exception:
                failures[mode].append(f"{label}: {traceback.format_exc()}")
                errors[slot] += 1
                report = None
            finally:
                dt = time.perf_counter() - t0
                if traced is not None:
                    traced.uninstall()
            scale = speed.factor()
            spent[slot] += dt
            if report is None:
                continue
            durations[slot].append(dt * scale)
            raw[slot].append(dt)
            got = {key: getattr(report, key) for key in expected[label]}
            if got != expected[label] or report.mismatches:
                failures[mode].append(f"{label}: counts {got} != {expected[label]}")
        wall_s = time.perf_counter() - start
        runs = [
            self._summarize(
                {phase[0]: durations[(phase, mode)] for phase in self.phases},
                {phase[0]: raw[(phase, mode)] for phase in self.phases},
                attempted[mode],
                failures[mode],
                wall_s,
            )
            for mode in range(len(modes))
        ]
        return runs[0] if tracer is None else tuple(runs)

    def _summarize(self, durations, raw, attempted, failures, wall_s) -> Measurement:
        details: dict = {"workers": self.workers, "wall_s": wall_s, "phases": {}}
        for label, oracle, workers in self.phases:
            sweeps_ms = [d * 1e3 for d in durations[label]]
            if not sweeps_ms:
                continue
            tail_ms, tail_p, beyond = tail(sweeps_ms)
            details["phases"][label] = {
                "oracle": oracle,
                "workers": workers,
                "sweeps": len(sweeps_ms),
                "per_s": referee.CENSUS_N6["total"] * len(sweeps_ms) / (sum(sweeps_ms) / 1e3),
                "raw_per_s": referee.CENSUS_N6["total"] * len(sweeps_ms) / sum(raw[label]),
                "p50_ms": statistics.median(sweeps_ms),
                "tail_ms": tail_ms,
                "tail_percentile": tail_p,
                "tail_beyond": beyond,
            }
        details["named"] = {
            f"census_{label}_per_s": (p["per_s"], "1/s")
            for label, p in details["phases"].items()
        }
        phases = details["phases"].values()
        metrics = {}
        if len(phases) == len(self.phases):
            metrics = {
                "throughput_per_s": geomean([p["per_s"] for p in phases]),
                "latency_p50_ms": geomean([p["p50_ms"] for p in phases]),
                "latency_tail_ms": geomean([p["tail_ms"] for p in phases]),
            }
        return Measurement(metrics, details, attempted, failures)

    def per_layer(self, tracer: Tracer, m: Measurement) -> dict:
        """Census-side layer metrics; None marks a metric whose function is gone."""
        out: dict = {}
        phases = m.details["phases"]
        for label in phases:
            out[f"census.{label}_per_s"] = phases[label]["per_s"]
        out["census.self_s"] = None
        if "census.run_census" in tracer.present:
            selfs = self_ns(tracer.spans, "census.run_census")
            out["census.self_s"] = statistics.fmean(selfs) / 1e9
        kernel = "kernels.census_range"
        if kernel not in tracer.present or len(phases) < len(self.phases):
            return out | dict.fromkeys(KERNEL_METRICS)
        per_matrix = {}
        for label in ("oracle", "theorem"):
            matrices = referee.CENSUS_N6["total"] * phases[label]["sweeps"]
            per_matrix[label] = _busy_ns(tracer, kernel, _traces(tracer, label)) / matrices
        out["kernels.ns_per_matrix_oracle"] = per_matrix["oracle"]
        out["kernels.ns_per_matrix_theorem"] = per_matrix["theorem"]
        out["kernels.oracle_stage_ns"] = per_matrix["oracle"] - per_matrix["theorem"]
        w2 = _traces(tracer, "oracle_w2")
        shards: dict[int, list[int]] = {t: [] for t in w2}
        for s in tracer.spans:
            if s.name == kernel and s.trace_id in w2:
                shards[s.trace_id].append(s.end_ns - s.start_ns)
        swept = [d for d in shards.values() if d]
        out["kernels.shard_imbalance"] = statistics.median(max(d) / min(d) for d in swept)
        out["census.shards"] = statistics.fmean(len(d) for d in swept)
        return out


# ---------------------------------------------------------------------------
# matrix_corpus

SMALL_SIZES = tuple(range(6, 13))
KAHLER_SMALL_SIZES = (6, 8, 10, 12)
LARGE_N = 48
CORPUS_SMALL = 48
CORPUS_LARGE = 12
# Requests are timed in blocks of about this much time; the speed probe
# runs between blocks and scales every latency in the block it follows.
BLOCK_NS = 250_000_000

# Functions on the per-matrix path whose busy time per request is reported.
SPANNED_PER_REQUEST = (
    "cli.build_parser",
    "bott.from_text",
    "bott.is_kahler",
    "bott.reduce",
    "bott.spin_main_theorem",
    "bott.to_pmatrix",
    "pmatrix.admits_spin_oracle",
    "pmatrix.sw_data",
    "pmatrix.characteristic_ideal_deg2",
    "pmatrix.membership",
    "f2poly.rowspace_echelon",
    "f2poly.deg2_to_vector",
)


@dataclass
class Matrix:
    spec: str
    rows: list
    kahler: bool


def random_matrix(n: int, rng: random.Random) -> list[int]:
    """Uniform strictly upper triangular matrix that is not Kähler."""
    while True:
        rows = [sum(rng.getrandbits(1) << j for j in range(i + 1, n)) for i in range(n)]
        if not referee.is_kahler(rows):
            return rows


def kahler_matrix(n: int, rng: random.Random) -> list[int]:
    """Columns 2k and 2k+1 share one random vector on rows < 2k.

    Rejection sampling finds almost no Kähler matrices at large n.
    """
    rows = [0] * n
    for k in range(n // 2):
        for i in range(2 * k):
            if rng.getrandbits(1):
                rows[i] |= 3 << 2 * k
    return rows


def build_corpus(seed: int) -> list[Matrix]:
    """Half Kähler; 4 in 5 small (n in 6..12), 1 in 5 at n = 48.

    Sizes come in fixed proportions so that seeds change contents only.
    The large band is a single size so the tail does not straddle two.
    """
    rng = random.Random(seed)
    plan = []
    for k in range(CORPUS_SMALL // 2):
        plan.append((KAHLER_SMALL_SIZES[k % len(KAHLER_SMALL_SIZES)], True))
        plan.append((SMALL_SIZES[k % len(SMALL_SIZES)], False))
    for k in range(CORPUS_LARGE):
        plan.append((LARGE_N, k % 2 == 0))
    corpus = []
    for n, kahler in plan:
        rows = kahler_matrix(n, rng) if kahler else random_matrix(n, rng)
        corpus.append(Matrix(referee.to_spec(rows), rows, kahler))
    return corpus


def check_response(cmd: str, m: Matrix, code, out: str) -> str | None:
    """Problem with one response, judged by the referee; None if correct."""
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    rows = m.rows
    spin = referee.is_spin(rows)
    expect = {"command": cmd, "dimension": len(rows)}
    if cmd == "check":
        expect.update(
            kahler=referee.is_kahler(rows),
            orientable=referee.is_orientable(rows),
            spin_oracle=spin,
            spin_theorem=spin if m.kahler else None,
            reduced_row_sums=referee.reduced_row_sums(rows) if m.kahler else None,
        )
    elif cmd == "verify":
        expect.update(spin_theorem=spin, spin_oracle=spin)
    got = {key: doc.get(key) for key in expect}
    if cmd in ("sw", "verify"):
        expect["w2"] = referee.w2_terms(rows)
        got["w2"] = referee.parse_poly(doc["w2"])
        thetas = doc["thetas"] if cmd == "verify" else [c["theta"] for c in doc["classes"]]
        expect["thetas"] = [referee.theta_terms(rows, j) for j in range(len(rows))]
        got["thetas"] = [referee.parse_poly(t) for t in thetas]
    if cmd == "sw":
        expect.update(w1=referee.w1_terms(rows), ideal_deg2_rank=len(rows))
        got.update(w1=referee.parse_poly(doc["w1"]), ideal_deg2_rank=doc["ideal_deg2_rank"])
    bad = sorted(k for k in expect if got[k] != expect[k])
    return f"wrong {', '.join(bad)}" if bad else None


class MatrixCorpus:
    """Seeded Bott matrices sent one at a time through ``rbott.cli.main``.

    Every matrix gets ``check`` and ``sw``; Kähler ones also ``verify``.
    The small band is dominated by CLI and bott overhead, the n = 48 band
    by ``pmatrix.sw_data`` and F2 polynomial arithmetic.
    """

    name = "matrix_corpus"
    setup_code = (
        "import contextlib, io, json, rbott.cli\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    code = rbott.cli.main(['check', '--json', '--matrix', '01;00'])\n"
        "raise SystemExit(0 if code == 0 and json.loads(buf.getvalue())['dimension'] == 2"
        " else 1)\n"
    )

    def prepare(self, seed: int):
        corpus = build_corpus(seed)
        requests = [
            (cmd, m)
            for m in corpus
            for cmd in (("check", "sw", "verify") if m.kahler else ("check", "sw"))
        ]
        random.Random(seed).shuffle(requests)
        return requests

    def measure(self, rbott, requests, seconds: float, tracer: Tracer | None = None):
        """One Measurement, or (untraced, traced) when given a tracer.

        Whole passes over the corpus keep the mix of sizes and commands
        exact, so each pass yields a comparable throughput; their median
        shrugs off passes that hit a burst of load from elsewhere.  With a
        tracer, traced and untraced passes alternate, so drift in machine
        speed does not masquerade as tracing overhead.
        """
        modes = (None,) if tracer is None else (None, tracer)
        passes: list = [[] for _ in modes]
        raw_ns_by_mode: list = [[] for _ in modes]
        failures: list = [[] for _ in modes]
        speed = SpeedProbe()
        start = time.perf_counter()
        k = 0
        while k < len(modes) or k % len(modes) or time.perf_counter() - start < seconds:
            mode = k % len(modes)
            k += 1
            pass_ns, block = [], []
            if modes[mode] is not None:
                modes[mode].install()
            try:
                for i, (cmd, m) in enumerate(requests):
                    problem, elapsed_ns = self._request(rbott, cmd, m)
                    block.append(elapsed_ns)
                    if problem:
                        failures[mode].append(f"{cmd} --matrix {m.spec}: {problem}")
                    if sum(block) >= BLOCK_NS or i == len(requests) - 1:
                        scale = speed.factor()
                        pass_ns.extend(ns * scale for ns in block)
                        raw_ns_by_mode[mode].extend(block)
                        block = []
            finally:
                if modes[mode] is not None:
                    modes[mode].uninstall()
            passes[mode].append(pass_ns)
        wall_s = time.perf_counter() - start
        runs = [
            self._summarize(p, r, f, wall_s) for p, r, f in zip(passes, raw_ns_by_mode, failures)
        ]
        return runs[0] if tracer is None else tuple(runs)

    @staticmethod
    def _request(rbott, cmd: str, m: Matrix):
        """Send one request; (problem or None, latency in ns)."""
        out, err = io.StringIO(), io.StringIO()
        argv = [cmd, "--json", "--matrix", m.spec]
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = rbott.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        elapsed_ns = time.perf_counter_ns() - t0
        try:
            return check_response(cmd, m, code, out.getvalue()), elapsed_ns
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}", elapsed_ns

    @staticmethod
    def _summarize(passes, raw_ns, failures, wall_s) -> Measurement:
        lat_ms = [ns / 1e6 for pass_ns in passes for ns in pass_ns]
        pass_rates = [len(p) / (sum(p) / 1e9) for p in passes]
        tail_ms, tail_p, beyond = tail(lat_ms)
        metrics = {
            "throughput_per_s": statistics.median(pass_rates),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail_ms,
        }
        details = {
            "passes": len(passes),
            "pass_rates_per_s": pass_rates,
            "raw_per_s": len(raw_ns) / (sum(raw_ns) / 1e9),
            "requests": len(lat_ms),
            "wall_s": wall_s,
            "p50_beyond": percentile(lat_ms, 50)[1],
            "tail_percentile": tail_p,
            "tail_beyond": beyond,
            "named": {
                "matrix_per_s": (metrics["throughput_per_s"], "1/s"),
                "matrix_p50_ms": (metrics["latency_p50_ms"], "ms"),
                f"matrix_tail_ms (p{tail_p}, {beyond} beyond)": (tail_ms, "ms"),
            },
        }
        return Measurement(metrics, details, len(lat_ms), failures)

    def per_layer(self, tracer: Tracer, m: Measurement) -> dict:
        """Per-request layer metrics; None marks a metric whose function is gone."""
        requests = m.attempted

        def known(name, value):
            return value() if name in tracer.present else None

        out = {
            "cli.self_ms": known(
                "cli.main", lambda: sum(self_ns(tracer.spans, "cli.main")) / requests / 1e6
            ),
            "pmatrix.sw_data_calls_per_request": known(
                "pmatrix.sw_data",
                lambda: sum(s.name == "pmatrix.sw_data" for s in tracer.spans) / requests,
            ),
            "f2poly.mul_calls": known(
                "f2poly.mul", lambda: tracer.counts["f2poly.mul"] / requests
            ),
        }
        for name in SPANNED_PER_REQUEST:
            out[f"{name}_ms"] = known(
                name, lambda: _busy_ns(tracer, name) / requests / 1e6
            )
        return out


WORKLOADS = {w.name: w for w in (CensusSweep(), MatrixCorpus())}
