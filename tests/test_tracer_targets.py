"""perfbench's tracer still finds every rbott function it names.

perfbench/tracing.py wraps functions by module and attribute path and
skips a target that no longer exists; perfbench/run.py then writes that
metric as absent, which its output check refuses.  So renaming or
deleting a traced function, or changing its kind (BottMatrix.from_text
is a staticmethod), breaks the benchmark.  This test runs the CLI
routes of the matrix_corpus workload under the tracer and asserts that
every target was found.  It also guards what perfbench's own tests
assert of those routes: sw and verify multiply F2 polynomials, and the
generic referee in rbott.pmatrix imports neither the census kernel nor
rbott.bott, where the closed form lives.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from rbott import cli, pmatrix  # noqa: E402
from rbott.f2poly import F2Polynomial  # noqa: E402

PAPER_SPEC = "001111;001111;000011;000011;000000;000000"


def test_every_tracer_target_is_present(capsys):
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        codes = [
            cli.main([*argv, "--matrix", PAPER_SPEC])
            for argv in (["check"], ["sw"], ["verify", "--json"])
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    assert {name for name, *_ in tracing.TARGETS} - tracer.present == set()


def test_referee_routes_multiply_polynomials(monkeypatch, capsys):
    # perfbench asserts f2poly.mul_calls > 0 on matrix_corpus: sw and verify
    # must keep forming the theta_j as products of F2 polynomials
    calls = []
    real = F2Polynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(F2Polynomial, "__mul__", counting)
    for command in ("sw", "verify"):
        calls.clear()
        assert cli.main([command, "--matrix", PAPER_SPEC]) == 0
        assert calls, command
    capsys.readouterr()


def test_referee_imports_no_fast_path():
    # the generic referee must not lean on the closed form it referees
    tree = ast.parse(Path(pmatrix.__file__).read_text())
    parts = set()  # every dotted component of every imported name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
            parts.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts.update(alias.name.split("."))
    assert not parts & {"_kernels", "bott"}
