"""perfbench's tracer still finds every rbott function it names.

perfbench/tracing.py wraps functions by module and attribute path and
skips a target that no longer exists; perfbench/run.py then writes that
metric as absent, which its output check refuses.  So renaming or
deleting a traced function, or changing its kind (BottMatrix.from_text
is a staticmethod), breaks the benchmark.  This test runs the CLI
routes of the matrix_corpus workload under the tracer and asserts that
every target was found.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from rbott import cli  # noqa: E402

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
