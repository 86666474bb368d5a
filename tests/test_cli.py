import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import samplers
from rbott import bott, cli, pmatrix
from rbott.bott import BottMatrix, is_kahler
from rbott.f2poly import Deg2Vector, F2Polynomial, F2RowSpace

PAPER_SPEC = "001111;001111;000011;000011;000000;000000"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestCheck:
    def test_paper_example(self, capsys, paper_example_file):
        code, doc, _ = run_json(capsys, "check", paper_example_file)
        assert code == 0
        assert doc["schema_version"] == 1
        assert doc["kahler"] is True
        assert doc["orientable"] is True
        assert doc["spin_theorem"] is False
        assert doc["spin_oracle"] is False
        assert doc["reduced_row_sums"] == [0, 0, 1, 1, 0, 0]

    def test_zero_matrix_inline(self, capsys):
        code, doc, _ = run_json(capsys, "check", "--matrix", "0000;0000;0000;0000")
        assert code == 0
        assert doc["kahler"] is True
        assert doc["spin_theorem"] is True
        assert doc["spin_oracle"] is True

    def test_klein_text_output(self, capsys):
        code, out, _ = run(capsys, "check", "--matrix", "01;00")
        assert code == 0
        assert "kahler:           false" in out
        assert "spin_theorem:     n/a" in out
        assert "spin_oracle:      false" in out
        assert "orientable:       false" in out
        assert "reduced_row_sums: n/a" in out

    def test_text_and_json_verdicts_agree(self, capsys, paper_example_file):
        _, out, _ = run(capsys, "check", paper_example_file)
        _, doc, _ = run_json(capsys, "check", paper_example_file)
        for key in ("kahler", "orientable", "spin_oracle"):
            expected = "true" if doc[key] else "false"
            assert f"{expected}" in [
                ln.split()[-1] for ln in out.splitlines() if ln.startswith(key)
            ]


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/no/such/file")
        assert code == 2
        assert "error" in err

    def test_non_utf8_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert out == ""
        assert f"error: cannot read {bad}" in err

    def test_not_triangular(self, capsys):
        code, _, err = run(capsys, "check", "--matrix", "10;00")
        assert code == 2
        assert "(1,1)" in err

    def test_bad_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n0a\n00\n")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2

    def test_no_matrix_given(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == 2

    @pytest.mark.parametrize("cmd", ["check", "sw", "pmatrix", "generators", "verify"])
    def test_empty_inline_matrix_is_given(self, capsys, cmd):
        code, out, err = run(capsys, cmd, "--matrix", "")
        assert (code, out, err) == (2, "", "error: --matrix: empty matrix text\n")

    @pytest.mark.parametrize("cmd", ["check", "sw", "pmatrix", "generators", "verify"])
    def test_file_and_inline_matrix_refused(self, capsys, paper_example_file, cmd):
        for argv in (
            [cmd, paper_example_file, "--matrix", "01;00"],
            [cmd, "--matrix", "", paper_example_file],
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == (
                f"error: two matrices given, the file {paper_example_file} "
                "and --matrix: pass one\n"
            )

    @pytest.mark.parametrize("cmd", ["check", "sw", "pmatrix", "generators", "verify"])
    @pytest.mark.parametrize("text", ["00", "+0"])
    def test_empty_matrix(self, capsys, tmp_path, cmd, text):
        # "00" falls back to the header reading (0 rows), "+0" is a header
        path = tmp_path / "m.txt"
        path.write_text(text + "\n")
        for source in (["--matrix", text], [str(path)]):
            code, out, err = run(capsys, cmd, *source)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and "at least one row" in err


FUZZ_ALPHABET = "012+-; \t\n\r\u2028\u00b2\u0663"


def _reference_from_text(text):
    """BottMatrix.from_text as it normalised lines before its single pass (two strips
    per line, two replaces per row): the reference for what the parser accepts and says."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")

    def parse_rows(body, expected):
        rows = [ln.replace(" ", "").replace("\t", "") for ln in body]
        for ln, digits in zip(body, rows):
            if digits.strip("01"):
                raise ValueError(f"bad matrix row: {ln!r}")
        if len(rows) != expected:
            raise ValueError(f"header says {expected} rows, found {len(rows)}")
        masks = [int(d[::-1], 2) for d in rows]
        return bott._store(object.__new__(BottMatrix), expected, masks, map(len, rows))

    first = lines[0].replace(" ", "").replace("\t", "")
    if first.strip("01"):
        try:
            expected = int(first)
        except ValueError:
            raise ValueError(f"bad header line: {lines[0]!r}")
        return parse_rows(lines[1:], expected)
    try:
        return parse_rows(lines, len(lines))
    except bott.NotStrictlyUpperTriangular:
        raise
    except ValueError:
        if first.isdigit() and int(first) == len(lines) - 1:
            return parse_rows(lines[1:], len(lines) - 1)
        raise


def _reference_error(source, text):
    """The stderr of cli._load_matrix on text, by the reference parser."""
    try:
        _reference_from_text(text)
    except bott.NotStrictlyUpperTriangular as exc:
        return f"error: {source}: not strictly upper triangular at ({exc.i},{exc.j})\n"
    except ValueError as exc:
        return f"error: {source}: {exc}\n"
    return ""


def _fuzz_main(argv, source, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        # argparse reads a --matrix value with a leading "-" as an option
        assert argv[2].startswith("-") and exc.code == 2
        return
    assert code in (0, 2, 3)
    assert (stdout.getvalue() == "") == (code == 2)
    assert stderr.getvalue() == _reference_error(source, text)


@given(st.text(FUZZ_ALPHABET, max_size=30))
def test_row_check_matches_set_test(text):
    # BottMatrix.from_text asks strip("01") where it once built a set
    for digits in (text, text.replace(" ", "").replace("\t", "")):
        assert bool(digits.strip("01")) == bool(set(digits) - {"0", "1"})


@settings(max_examples=150, deadline=None)
@given(st.text(FUZZ_ALPHABET, max_size=30))
def test_fuzz_matrix_text(text):
    _fuzz_main(["check", "--matrix", text], "--matrix", text.replace(";", "\n"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(text, encoding="utf-8")
        _fuzz_main(["check", str(path)], str(path), path.read_text())


class TestSw:
    def test_paper_w2(self, capsys, paper_example_file):
        code, out, _ = run(capsys, "sw", paper_example_file)
        assert code == 0
        assert "w2 = x3^2 + x4^2" in out

    def test_zero_two(self, capsys):
        code, doc, _ = run_json(capsys, "sw", "--matrix", "00;00")
        assert code == 0
        assert doc["w2"] == "0"
        assert [c["theta"] for c in doc["classes"]] == ["x1^2", "x2^2"]

    def test_klein_theta(self, capsys):
        code, out, _ = run(capsys, "sw", "--matrix", "01;00")
        assert code == 0
        assert "theta_2 = x1*x2 + x2^2" in out

    def test_rank_reported(self, capsys, paper_example_file):
        _, doc, _ = run_json(capsys, "sw", paper_example_file)
        assert doc["ideal_deg2_rank"] == 6


class TestPmatrixCommand:
    def test_klein(self, capsys):
        code, out, _ = run(capsys, "pmatrix", "--matrix", "01;00")
        assert code == 0
        assert out.strip() == "12\n01"

    def test_json(self, capsys):
        code, doc, _ = run_json(capsys, "pmatrix", "--matrix", "01;00")
        assert doc["rows"] == [[1, 2], [0, 1]]


class TestGeneratorsCommand:
    def test_klein(self, capsys):
        code, out, _ = run(capsys, "generators", "--matrix", "01;00")
        assert code == 0
        assert "s1: diag(+1, -1), t = (1/2, 0)" in out
        assert "s2: diag(+1, +1), t = (0, 1/2)" in out

    def test_json(self, capsys):
        _, doc, _ = run_json(capsys, "generators", "--matrix", "01;00")
        assert doc["generators"][0]["signs"] == [1, -1]
        assert doc["generators"][0]["translation_halves"] == [1, 0]


class TestCensusCommand:
    def test_dimension_two(self, capsys):
        code, out, err = run(capsys, "census", "--dim", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == 2
        assert doc["kahler_count"] == 1
        assert doc["mismatch_count"] == 0
        assert "census n=2" in err

    def test_odd_dimension(self, capsys):
        code, out, _ = run(capsys, "census", "--dim", "3")
        assert json.loads(out)["kahler_count"] == 0

    def test_workers_flag(self, capsys):
        code, out, _ = run(capsys, "census", "--dim", "4", "--workers", "2")
        assert code == 0
        assert json.loads(out)["kahler_count"] == 6

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "census", "--dim", "2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["total"] == 2

    def test_out_file_unwritable(self, capsys, tmp_path, no_kernel):
        # refused before the sweep starts
        target = tmp_path / "missing" / "r.json"
        code, out, err = run(capsys, "census", "--dim", "2", "--out", str(target))
        assert code == 2
        assert out == ""
        assert f"error: cannot write {target}" in err
        assert "Traceback" not in err
        assert not target.exists()

    def test_out_file_replaced_whole(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("x" * 10000)
        code, _, _ = run(capsys, "census", "--dim", "2", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["total"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dim", "12"],
            ["--dim", "0"],
            ["--dim", "10"],
            ["--dim", "2", "--workers", "0"],
            ["--dim", "11", "--no-oracle"],
        ],
    )
    def test_refused_request_creates_no_out_file(self, capsys, tmp_path, no_kernel, argv):
        target = tmp_path / "new.json"
        code, out, err = run(capsys, "census", *argv, "--out", str(target))
        assert code == 2
        assert out == "" and err.startswith("error:")
        assert not target.exists()

    def test_refused_dimension_keeps_out_file(self, capsys, tmp_path, no_kernel):
        target = tmp_path / "r.json"
        target.write_text("earlier report\n")
        code, out, err = run(capsys, "census", "--dim", "10", "--out", str(target))
        assert code == 2
        assert "n <= 9" in err
        assert target.read_text() == "earlier report\n"

    def test_over_ceiling(self, capsys, no_kernel):
        code, out, err = run(capsys, "census", "--dim", "10")
        assert code == 2
        assert out == ""
        assert err == (
            "error: n=10 has 2^45 matrices; the census counter is limited to n <= 9\n"
        )

    def test_theorem_only_over_ceiling(self, capsys, no_kernel):
        code, out, err = run(capsys, "census", "--dim", "10", "--no-oracle")
        assert code == 2
        assert out == ""
        assert "n <= 9" in err

    @pytest.mark.parametrize("extra", [[], ["--no-oracle"]])
    def test_counter_overflow_rejected(self, capsys, no_kernel, extra):
        code, out, err = run(capsys, "census", "--dim", "12", *extra)
        assert code == 2
        assert out == ""
        assert "2^66" in err and "n <= 9" in err

    def test_ceiling_flag_is_gone(self, capsys, tmp_path, no_kernel):
        target = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["census", "--dim", "4", "--ceiling", "5", "--out", str(target)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ceiling 5" in capsys.readouterr().err
        assert not target.exists()


class TestVerify:
    def test_paper(self, capsys, paper_example_file):
        code, doc, _ = run_json(capsys, "verify", paper_example_file)
        assert code == 0
        assert doc["odd_rows"] == [3, 4]
        assert doc["residual"] != "0"
        assert doc["spin_theorem"] is False
        assert doc["spin_oracle"] is False

    def test_zero_matrix(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--matrix", "00;00")
        assert code == 0
        assert doc["odd_rows"] == []
        assert doc["w2"] == "0"
        assert doc["residual"] == "0"
        assert doc["spin_theorem"] is True and doc["spin_oracle"] is True

    def test_four_by_four(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--matrix", "0011;0011;0000;0000")
        assert code == 0
        assert doc["odd_rows"] == [1, 2]
        assert doc["w2"] == "x1^2 + x2^2"
        assert doc["spin_theorem"] is True and doc["spin_oracle"] is True

    def test_rejects_non_kahler(self, capsys):
        code, _, err = run(capsys, "verify", "--matrix", "01;00")
        assert code == 2
        assert "Kähler" in err or "Kahler" in err

    def test_trace_shown(self, capsys, paper_example_file):
        code, out, _ = run(capsys, "verify", paper_example_file)
        assert "reduction of w2" in out
        assert "residual:" in out


@pytest.fixture()
def sw_calls(monkeypatch):
    """Every sw_data call the CLI makes, by the name it looks up."""
    assert cli.pmx is pmatrix
    calls = []
    real = pmatrix.sw_data

    def counting(E):
        calls.append(E)
        return real(E)

    monkeypatch.setattr(pmatrix, "sw_data", counting)
    return calls


class TestOneSWComputation:
    """sw and verify each build the Stiefel-Whitney data once."""

    @pytest.mark.parametrize("cmd", ["sw", "verify"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_paper_example(self, capsys, sw_calls, cmd, json_flag):
        code, _, _ = run(capsys, cmd, "--matrix", PAPER_SPEC, *json_flag)
        assert code == 0
        assert len(sw_calls) == 1

    @pytest.mark.parametrize("cmd", ["sw", "verify"])
    def test_seeded_kahler_n12(self, capsys, sw_calls, cmd, kahler12_spec):
        assert is_kahler(BottMatrix.from_inline(kahler12_spec))
        code, _, _ = run(capsys, cmd, "--matrix", kahler12_spec, "--json")
        assert code == 0
        assert len(sw_calls) == 1


class TestRefereeBound:
    """sw and verify refuse n > REFEREE_MAX_N before building anything."""

    @pytest.fixture()
    def pmatrix_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bott, "to_pmatrix", lambda A: calls.append(A))
        return calls

    @pytest.mark.parametrize("cmd", ["sw", "verify"])
    def test_refused_above_bound(self, capsys, pmatrix_calls, cmd):
        n = cli.REFEREE_MAX_N + 1
        code, out, err = run(capsys, cmd, "--matrix", ";".join(["0" * n] * n))
        assert code == 2 and out == ""
        assert f"n <= {cli.REFEREE_MAX_N}" in err and f"n = {n}" in err
        assert pmatrix_calls == []

    @pytest.mark.parametrize("cmd", ["sw", "verify"])
    def test_bound_is_inclusive(self, capsys, monkeypatch, cmd):
        monkeypatch.setattr(cli, "REFEREE_MAX_N", 4)
        assert run(capsys, cmd, "--matrix", "0011;0011;0000;0000")[0] == 0
        code, _, err = run(capsys, cmd, "--matrix", "00000;00000;00000;00000;00000")
        assert code == 2 and "n <= 4" in err

    def test_check_is_not_bounded(self, capsys):
        n = cli.REFEREE_MAX_N + 1
        code, doc, _ = run_json(capsys, "check", "--matrix", ";".join(["0" * n] * n))
        assert code == 0 and doc["dimension"] == n


class TestCheckBuildsNoSWData:
    """check reads every verdict from bitmasks: no P-matrix, no SW data."""

    @pytest.fixture()
    def pmatrix_calls(self, monkeypatch):
        calls = []
        real = bott.to_pmatrix

        def counting(A):
            calls.append(A)
            return real(A)

        monkeypatch.setattr(bott, "to_pmatrix", counting)
        return calls

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_paper_example(self, capsys, sw_calls, pmatrix_calls, json_flag):
        code, _, _ = run(capsys, "check", "--matrix", PAPER_SPEC, *json_flag)
        assert code == 0
        assert len(sw_calls) == len(pmatrix_calls) == 0

    def test_seeded_kahler_n12(self, capsys, sw_calls, pmatrix_calls, kahler12_spec):
        assert is_kahler(BottMatrix.from_inline(kahler12_spec))
        code, _, _ = run(capsys, "check", "--matrix", kahler12_spec, "--json")
        assert code == 0
        assert len(sw_calls) == len(pmatrix_calls) == 0

    def test_not_kahler(self, capsys, sw_calls, pmatrix_calls):
        code, doc, _ = run_json(capsys, "check", "--matrix", "011;001;000")
        assert code == 0 and doc["kahler"] is False
        assert len(sw_calls) == len(pmatrix_calls) == 0


class TestOneDocument:
    """Each per-matrix command builds one document; text mode only formats it."""

    COMMANDS = ("check", "sw", "pmatrix", "generators", "verify")

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_json_runs_no_renderer(self, capsys, monkeypatch, cmd):
        def refuse(doc):
            raise AssertionError("text renderer ran under --json")

        for name in self.COMMANDS:
            monkeypatch.setattr(cli, f"_render_{name}", refuse)
        code, doc, _ = run_json(capsys, cmd, "--matrix", PAPER_SPEC)
        assert code == 0 and doc["command"] == cmd

    @pytest.fixture()
    def calls(self, monkeypatch, sw_calls):
        """Calls per function that verify might make, counted by name."""
        counted = {"sw_data": sw_calls}
        targets = {
            "bott.reduce": (bott, "reduce"),
            "bott.is_kahler": (bott, "is_kahler"),
            "F2RowSpace.reduce": (F2RowSpace, "reduce"),
        }
        for label, (owner, name) in targets.items():
            counted[label] = log = []
            real = getattr(owner, name)

            def counting(*args, real=real, log=log):
                log.append(args)
                return real(*args)

            monkeypatch.setattr(owner, name, counting)
        return counted

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_verify_does_each_step_once(self, capsys, calls, json_flag, kahler12_spec):
        for spec in (PAPER_SPEC, kahler12_spec, "00;00"):
            for log in calls.values():
                log.clear()
            code, _, _ = run(capsys, "verify", "--matrix", spec, *json_flag)
            assert code == 0
            assert {name: len(log) for name, log in calls.items()} == {
                "sw_data": 1,
                "bott.reduce": 1,
                "bott.is_kahler": 0,
                "F2RowSpace.reduce": 0,
            }

    def test_verify_refuses_non_kahler_before_sw_data(self, capsys, calls):
        code, out, err = run(capsys, "verify", "--matrix", "011;001;000")
        assert (code, out) == (2, "")
        assert err == "error: matrix is not Kähler; verify needs a column pairing\n"
        assert calls["sw_data"] == []


def _parse_outcome(parse, argv):
    """(exit code or None, stdout, stderr, parsed namespace or None) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code = args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), args


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--json", "check"],
        ["-h"],
        ["--help"],
        ["check"],
        ["check", "-h"],
        ["check", "--he"],
        ["census", "-h"],
        ["check", "--bogus"],
        ["check", "--matrix"],
        ["check", "--matrix", "-0"],
        ["check", "--matrix", "01;00", "--json"],
        ["check", "--json", "--matrix=01;00"],
        ["check", "--mat", "01;00"],
        ["check", "--", "m.txt"],
        ["check", "--matrix", "01;00", "--"],
        ["check", "--", "--matrix"],
        ["check", "a.txt", "b.txt"],
        ["check", "a.txt", "--matrix", "01;00"],
        ["verify", "--matrix", "0", "extra"],
        ["sw", "--json", "--json", "--matrix", "0"],
        ["generators", "-"],
        ["census"],
        ["census", "--dim", "x"],
        ["census", "--dim", "4", "--no-oracle", "--workers", "2"],
        ["census", "--di", "4", "--out", "r.json"],
        ["census", "--dim", "4", "--ceiling", "5"],
    ],
)
def test_dispatch_matches_full_parser(argv):
    direct = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert _parse_outcome(cli._parse, argv) == direct


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["rbott", "check", "--matrix", "01;00", "--json"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 2


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
JSON_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
# strings made of the characters the encoder's output is framed by
BRACE_TEXT = st.text(alphabet='{}[],:" \n\\aé\u2028', max_size=8)
# lists of dicts holding only scalars, as sw's classes and verify's steps
FLAT_DICT_LISTS = st.lists(
    st.dictionaries(JSON_KEYS | BRACE_TEXT, JSON_SCALARS | BRACE_TEXT, max_size=4), max_size=4
)
JSON_DOCS = st.recursive(
    JSON_SCALARS | FLAT_DICT_LISTS,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(JSON_KEYS, kids, max_size=4),
    max_leaves=25,
)


class TestJsonWriter:
    """cli._dumps writes what json.dumps(document, indent=2) writes."""

    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    def test_matches_json_dumps(self, doc):
        assert cli._dumps(doc) == json.dumps(doc, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [[], {}, [[]], [{}], {"a": []}, {"a": {"b": {}}}, [[[1]], []], ("é\x00\u2028", [None])],
    )
    def test_empty_and_nested(self, doc):
        assert cli._dumps(doc) == json.dumps(doc, indent=2)

    def test_without_c_encoder(self, monkeypatch):
        monkeypatch.setattr(cli, "c_make_encoder", None)
        doc = {"a": [1, {"b": "\u00e9"}], "c": None}
        assert cli._dumps(doc) == json.dumps(doc, indent=2)

    def test_unserializable_value_raises_like_json(self):
        with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
            cli._dumps({"a": [1], "b": {1}})

    def test_every_cli_document(self, capsys, monkeypatch, kahler12_spec, tmp_path):
        written = []

        def checked(doc):
            text = writer(doc)
            assert text == json.dumps(doc, indent=2)
            written.append(doc["command"])
            return text

        writer = cli._dumps
        monkeypatch.setattr(cli, "_dumps", checked)
        rng = random.Random(48)
        spec48 = ";".join(
            "".join(str(rng.getrandbits(1)) if j > i else "0" for j in range(48))
            for i in range(48)
        )
        for spec in (PAPER_SPEC, "01;00", kahler12_spec, spec48):
            for cmd in ("check", "sw", "pmatrix", "generators", "verify"):
                code, _, _ = run(capsys, cmd, "--matrix", spec, "--json")
                assert code in (0, 2)
        for extra in ([], ["--out", str(tmp_path / "r.json")]):
            assert run(capsys, "census", "--dim", "4", *extra)[0] == 0
        assert written.count("census") == 2
        assert written.count("check") == 4 and written.count("verify") == 2


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("command", ["sw", "verify"])
def test_referee_routes_print_from_bits(capsys, monkeypatch, command, json_flag):
    # sw and verify print every class from masks and vectors; the
    # polynomial printer and the vector-to-polynomial step must not run
    def refuse(*args):
        raise AssertionError("printed through a polynomial")

    monkeypatch.setattr(F2Polynomial, "__str__", refuse)
    monkeypatch.setattr(Deg2Vector, "to_poly", refuse)
    # a matrix whose w2 meets seven basis pivots, so verify prints steps
    kahler48 = ";".join(
        f"{row:048b}"[::-1] for row in samplers.kahler_rows(48, random.Random(57))
    )
    for spec in (PAPER_SPEC, kahler48):
        code, out, _ = run(capsys, command, "--matrix", spec, *json_flag)
        assert code == 0 and out
    assert command == "sw" or "remainder" in out


def test_parser_built_once_per_process(capsys):
    cli.build_parser.cache_clear()
    for argv in (["check", "--matrix", "01;00"], ["sw", "--matrix", "01;00", "--json"]):
        assert cli.main(argv) == 0
    assert cli.build_parser.cache_info().misses == 1


def test_python_m_rbott():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rbott", "check", "--matrix", "01;00"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "kahler:" in proc.stdout


class TestRoundTrip:
    def test_parse_print_parse(self, paper_example):
        from rbott.bott import BottMatrix

        text = paper_example.to_text(header=True)
        assert BottMatrix.from_text(text) == paper_example
