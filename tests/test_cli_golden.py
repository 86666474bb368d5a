"""CLI output frozen byte for byte on a fixed matrix corpus.

``tests/data/cli_golden.json`` holds, for every command, matrix and
output mode, the exit code and the sha256 of stdout and stderr.  The
corpus is the paper's 6x6 example, the Klein bottle, the 4x4 zero
matrix, seeded random, orientable and Kähler matrices at n = 6..12,
one Kähler and one non-Kähler matrix at n = 48, and one Kähler and one
orientable matrix at n = 128.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from rbott import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = ("check", "sw", "verify", "pmatrix", "generators")
MODES = ("text", "json")


def _spec(rows: list[list[int]]) -> str:
    return ";".join("".join(map(str, row)) for row in rows)


def _random_rows(n: int, rng: random.Random) -> list[list[int]]:
    return [[rng.getrandbits(1) if j > i else 0 for j in range(n)] for i in range(n)]


def _orientable_rows(n: int, rng: random.Random) -> list[list[int]]:
    """Every row weight even: the last column entry fixes each row's parity."""
    rows = _random_rows(n, rng)
    for row in rows[:-2]:
        row[-1] ^= sum(row) % 2
    rows[-2][-1] = 0
    return rows


def _kahler_rows(n: int, rng: random.Random) -> list[list[int]]:
    """Columns matched in random pairs; each pair shares one random column."""
    cols = list(range(n))
    rng.shuffle(cols)
    rows = [[0] * n for _ in range(n)]
    for p, q in zip(cols[::2], cols[1::2]):
        for i in range(min(p, q)):
            rows[i][p] = rows[i][q] = rng.getrandbits(1)
    return rows


def build_matrices() -> dict[str, str]:
    rng = random.Random(20221)
    matrices = {
        "paper": "001111;001111;000011;000011;000000;000000",
        "klein": "01;00",
        "zero4": "0000;0000;0000;0000",
    }
    for n in range(6, 13):
        matrices[f"random{n}"] = _spec(_random_rows(n, rng))
        matrices[f"orientable{n}"] = _spec(_orientable_rows(n, rng))
        if n % 2 == 0:
            matrices[f"kahler{n}"] = _spec(_kahler_rows(n, rng))
    matrices["random48"] = _spec(_random_rows(48, rng))
    matrices["kahler48"] = _spec(_kahler_rows(48, rng))
    # drawn last, so the earlier matrices keep their draws
    matrices["kahler128"] = _spec(_kahler_rows(128, rng))
    matrices["orientable128"] = _spec(_orientable_rows(128, rng))
    return matrices


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(cmd: str, spec: str, mode: str) -> list[str]:
    return [cmd, "--matrix", spec] + (["--json"] if mode == "json" else [])


def record(matrices: dict[str, str]) -> dict:
    outputs = {}
    for name, spec in matrices.items():
        for cmd in COMMANDS:
            for mode in MODES:
                code, out, err = run_cli(_argv(cmd, spec, mode))
                outputs[f"{cmd} {name} {mode}"] = {
                    "exit": code,
                    "stdout_sha256": _sha(out),
                    "stderr_sha256": _sha(err),
                }
    return {"matrices": matrices, "outputs": outputs}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_is_reproducible():
    assert _golden()["matrices"] == build_matrices()


def test_corpus_covers_both_exit_codes():
    exits = {key: v["exit"] for key, v in _golden()["outputs"].items()}
    assert exits["verify kahler48 text"] == 0
    assert exits["verify random48 text"] == 2
    assert set(exits.values()) == {0, 2}


@pytest.mark.parametrize("cmd", COMMANDS)
def test_output_byte_identical(cmd):
    golden = _golden()
    changed = []
    for name, spec in golden["matrices"].items():
        for mode in MODES:
            key = f"{cmd} {name} {mode}"
            code, out, err = run_cli(_argv(cmd, spec, mode))
            got = {"exit": code, "stdout_sha256": _sha(out), "stderr_sha256": _sha(err)}
            if got != golden["outputs"][key]:
                changed.append(key)
    assert not changed


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(build_matrices()), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
