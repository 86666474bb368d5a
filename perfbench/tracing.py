"""Spans and counts recorded around calls into rbott, from outside it.

A Tracer replaces functions in every namespace that looks them up with
wrappers that record one span per call: name, start, end, parent span,
thread and trace.  Each call of a root function (``cli.main``,
``run_census``) opens a new trace.  Spans stay in memory until
``write_spans``.  Hot functions are only counted, not spanned.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "span_id parent_id trace_id name start_ns end_ns thread_id")

# (metric name, module, attribute path, role).  One name may sit in several
# namespaces because rbott's modules import functions by name.
TARGETS = (
    ("cli.main", "rbott.cli", "main", "root"),
    ("census.run_census", "rbott", "run_census", "root"),
    ("census.run_census", "rbott.census", "run_census", "root"),
    ("kernels.census_range", "rbott._kernels", "census_range", "span"),
    ("cli.build_parser", "rbott.cli", "build_parser", "span"),
    ("bott.from_text", "rbott.bott", "BottMatrix.from_text", "span"),
    ("bott.is_kahler", "rbott.bott", "is_kahler", "span"),
    ("bott.reduce", "rbott.bott", "reduce", "span"),
    ("bott.spin_main_theorem", "rbott.bott", "spin_main_theorem", "span"),
    ("bott.to_pmatrix", "rbott.bott", "to_pmatrix", "span"),
    ("pmatrix.admits_spin_oracle", "rbott.bott", "admits_spin_oracle", "span"),
    ("pmatrix.admits_spin_oracle", "rbott.pmatrix", "admits_spin_oracle", "span"),
    ("pmatrix.sw_data", "rbott.pmatrix", "sw_data", "span"),
    ("pmatrix.characteristic_ideal_deg2", "rbott.pmatrix", "characteristic_ideal_deg2", "span"),
    ("pmatrix.membership", "rbott.pmatrix", "row_space_membership", "span"),
    ("f2poly.deg2_to_vector", "rbott.pmatrix", "deg2_to_vector", "span"),
    ("f2poly.deg2_to_vector", "rbott.cli", "deg2_to_vector", "span"),
    ("f2poly.rowspace_echelon", "rbott.f2poly", "F2RowSpace._echelonize", "span"),
    ("f2poly.mul", "rbott.f2poly", "F2Polynomial.__mul__", "count"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.label = ""
        self.trace_labels: dict[int, str] = {}
        self.present: set[str] = set()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._root: tuple[int, int] | None = None
        self._patches: list[tuple[object, str, object]] = []

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name, fn, root):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = self._new_id()
            if stack:
                trace_id, parent_id = stack[-1][0], stack[-1][1]
            elif root:
                trace_id, parent_id = span_id, None
                self.trace_labels[trace_id] = self.label
            elif self._root is not None:
                # pool threads start with an empty stack: parent is the root call
                trace_id, parent_id = self._root
            else:
                trace_id, parent_id = 0, None
            opened_root = root and not stack
            if opened_root:
                self._root = (trace_id, span_id)
            stack.append((trace_id, span_id))
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if opened_root:
                    self._root = None
                self.spans.append(
                    Span(span_id, parent_id, trace_id, name, start, end, threading.get_ident())
                )

        return wrapper

    def _counted(self, name, fn):
        # Counted functions run only on the caller thread, so the
        # unlocked increment cannot lose updates.
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; names with no target stay absent.

        ``install`` and ``uninstall`` may alternate: spans and counts
        accumulate across installs.
        """
        wrappers: dict[int, object] = {}
        for name, module_name, path, role in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = wrappers.get(id(fn))
            if wrapped is None:
                if role == "count":
                    wrapped = self._counted(name, fn)
                else:
                    wrapped = self._spanned(name, fn, role == "root")
                wrappers[id(fn)] = wrapped
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self.present.add(name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write_spans(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(
                    json.dumps({**s._asdict(), "label": self.trace_labels.get(s.trace_id, "")})
                    + "\n"
                )


def union_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(spans: list[Span], name: str) -> list[int]:
    """Per span of ``name``: its duration minus the union of its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start_ns, s.end_ns))
    return [
        (s.end_ns - s.start_ns) - union_ns(children.get(s.span_id, ()))
        for s in spans
        if s.name == name
    ]
