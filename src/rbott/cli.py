"""Command-line front door.

Commands: check, sw, pmatrix, generators, census, verify.  Exit codes:
0 success, 2 input error, 3 mathematical inconsistency between the
combinatorial spin criterion and the cohomological oracle (never
expected).

Each per-matrix command computes every result once, into one document.
With --json the document is printed as JSON; in text mode its
_render_<command> function formats it and computes nothing.

main dispatches on the first word: when it names a command, that
command's sub-parser parses the rest (parse_known_args) and main sets
args.command itself, so a request pays for one parser, not two.  The full
parser of build_parser() runs only when the first word is not a command
(no words, -h, an unknown command) or when words are left over; it then
prints the usage, help and errors ("invalid choice", "unrecognized
arguments") that argparse gives.  Errors inside a command's own options
come from the same sub-parser either way.

--json documents are written by _dumps, byte for byte what
json.dumps(document, indent=2) writes, but through the C encoder, which
the json module skips whenever indent is set.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii

from . import bott, census as census_mod, pmatrix as pmx
# deg2_to_vector is not called here, but perfbench's tracer wraps it in
# this namespace by name (perfbench/tracing.py), so it stays imported
from .f2poly import deg2_text, deg2_to_vector, linear_text  # noqa: F401

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3

# sw and verify run the generic referee, whose cost grows 4-7x per
# doubling of n; at n = 512 sw takes under half a second and verify under
# a fifth of one (README, "Cost of the generic route").  Larger matrices
# are refused before any work.
REFEREE_MAX_N = 512


class InputError(Exception):
    pass


def _load_matrix(args) -> bott.BottMatrix:
    if args.matrix is not None and args.file is not None:
        raise InputError(f"two matrices given, the file {args.file} and --matrix: pass one")
    if args.matrix is not None:
        source, text = "--matrix", args.matrix.replace(";", "\n")
    elif args.file is not None:
        try:
            with open(args.file) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.file}: {exc}")
        source = args.file
    else:
        raise InputError("no matrix given: pass a file or --matrix")
    try:
        return bott.BottMatrix.from_text(text)
    except bott.NotStrictlyUpperTriangular as exc:
        raise InputError(f"{source}: not strictly upper triangular at ({exc.i},{exc.j})")
    except ValueError as exc:
        raise InputError(f"{source}: {exc}")


def _load_referee_matrix(args) -> bott.BottMatrix:
    """The matrix of sw or verify, refused above REFEREE_MAX_N."""
    A = _load_matrix(args)
    if A.n > REFEREE_MAX_N:
        raise InputError(
            f"{args.command} runs the generic referee, bounded at n <= {REFEREE_MAX_N}; "
            f"this matrix has n = {A.n} (check decides it in closed form)"
        )
    return A


_CONTAINERS = (list, tuple, dict)
_SCALARS = {str, int, float, bool, type(None)}


@functools.cache
def _level(depth: int):
    """(C encoder whose items sit at depth, newline + indent of depth)."""
    newline = "\n" + "  " * depth
    encoder = c_make_encoder(
        None, JSONEncoder().default, encode_basestring_ascii, None, ": ", "," + newline,
        False, False, True,
    )
    return encoder, newline


def _flat_dicts(items) -> bool:
    """True when items are nonempty dicts whose values are all scalars."""
    return all(type(item) is dict and item for item in items) and {
        type(v) for item in items for v in item.values()
    } <= _SCALARS


def _indented(obj, depth: int) -> str:
    """json.dumps(obj, indent=2) of a list, tuple or dict whose brackets sit at depth.

    A container that holds no container is one call of the C encoder, its
    item separator carrying the newline and indent.  So is a list of
    nonempty dicts that hold no container, at the dicts' depth, with the
    separators between the dicts widened afterwards.  Otherwise each
    nested container stands in as 0 for that call; no encoded key or
    scalar holds a raw newline, so splitting the text on the separator
    gives the items, and each 0 is replaced by its container's text.
    """
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    encode, newline = _level(depth + 1)
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    if set(map(type, values)) <= _SCALARS:
        body = "".join(encode(obj, 0))[1:-1]
    elif not is_dict and _flat_dicts(obj):
        # One call whose separator is the one inside the dicts.  No scalar's
        # text ends in "}" and every key's starts with a quote, so "}" +
        # separator + "{" occurs exactly between two dicts.
        inner, inner_newline = _level(depth + 2)
        items = "".join(inner(obj, 0))[2:-2]  # inside the outer "[{" and "}]"
        items = items.replace(
            "}," + inner_newline + "{", newline + "}," + newline + "{" + inner_newline
        )
        body = "{" + inner_newline + items + newline + "}"
    else:
        values = list(values)
        nested = [i for i, v in enumerate(values) if isinstance(v, _CONTAINERS)]
        flat = values.copy()
        for i in nested:
            flat[i] = 0
        items = "".join(encode(dict(zip(obj, flat)) if is_dict else flat, 0))[1:-1]
        items = items.split("," + newline)
        for i in nested:
            items[i] = items[i][:-1] + _indented(values[i], depth + 1)
        body = ("," + newline).join(items)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{newline}{body}{_level(depth)[1]}{closing}"


def _dumps(document) -> str:
    """json.dumps(document, indent=2), through the C encoder where there is one."""
    if c_make_encoder is None or not isinstance(document, _CONTAINERS):
        return json.dumps(document, indent=2)
    return _indented(document, 0)


def _emit(args, document: dict, render) -> None:
    """Print the document as JSON, or in text mode the lines render(document)."""
    if args.json:
        print(_dumps({"schema_version": SCHEMA_VERSION, **document}))
    else:
        print("\n".join(render(document)))


def _fmt_tri(value) -> str:
    if value is None:
        return "n/a"
    return "true" if value else "false"


def cmd_check(args) -> int:
    """check's verdicts, read from the row and column bitmasks of the matrix.

    spin_oracle is the cohomological criterion in closed form
    (bott.spin_closed_form), so check builds no Stiefel-Whitney data;
    sw and verify run the generic referee.
    """
    A = _load_matrix(args)
    kahler = bott.is_kahler(A)
    reduced = bott.reduce(A) if kahler else None
    document = {
        "command": "check",
        "dimension": A.n,
        "strictly_upper": True,
        "kahler": kahler,
        "orientable": bott.is_orientable(A),
        "spin_theorem": bott.spin_main_theorem_on(A, reduced) if kahler else None,
        "spin_oracle": bott.spin_closed_form(A),
        "reduced_row_sums": list(reduced.row_sums) if kahler else None,
    }
    _emit(args, document, _render_check)
    theorem = document["spin_theorem"]
    if theorem is not None and theorem != document["spin_oracle"]:
        print("error: spin criterion and oracle disagree", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _render_check(doc: dict) -> list[str]:
    sums = doc["reduced_row_sums"]
    verdicts = ("strictly_upper", "kahler", "orientable", "spin_theorem", "spin_oracle")
    fields = {
        "dimension": doc["dimension"],
        **{key: _fmt_tri(doc[key]) for key in verdicts},
        "reduced_row_sums": "n/a" if sums is None else "".join(map(str, sums)),
    }
    return [f"{key + ':':<18}{value}" for key, value in fields.items()]


def cmd_sw(args) -> int:
    A = _load_referee_matrix(args)
    data = pmx.sw_data(bott.to_pmatrix(A))
    d = data.d
    document = {
        "command": "sw",
        "dimension": A.n,
        "classes": [
            {
                "j": j,
                "alpha": linear_text(beta ^ c, d),
                "beta": linear_text(beta, d),
                "theta": deg2_text(t, d),
            }
            for j, ((beta, c), t) in enumerate(zip(data.masks, data.thetas), start=1)
        ],
        "w1": linear_text(data.w1_mask, d),
        "w2": str(data.w2_vector),
        "ideal_deg2_rank": pmx.ideal_deg2(data).dimension,
    }
    _emit(args, document, _render_sw)
    return EXIT_OK


def _render_sw(doc: dict) -> list[str]:
    lines = []
    for c in doc["classes"]:
        j = c["j"]
        lines += [
            f"alpha_{j} = {c['alpha']}",
            f"beta_{j}  = {c['beta']}",
            f"theta_{j} = {c['theta']}",
        ]
    return lines + [
        f"w1 = {doc['w1']}",
        f"w2 = {doc['w2']}",
        f"ideal degree-2 rank = {doc['ideal_deg2_rank']}",
    ]


def cmd_pmatrix(args) -> int:
    E = bott.to_pmatrix(_load_matrix(args))
    document = {
        "command": "pmatrix",
        "d": E.d,
        "n": E.n,
        "rows": [list(row) for row in E.entries],
    }
    _emit(args, document, _render_pmatrix)
    return EXIT_OK


def _render_pmatrix(doc: dict) -> list[str]:
    return ["".join(map(str, row)) for row in doc["rows"]]


def cmd_generators(args) -> int:
    gens = bott.generators(_load_matrix(args))
    items = [
        {"name": f"s{i}", "signs": list(g.signs), "translation_halves": list(g.half_translation)}
        for i, g in enumerate(gens, start=1)
    ]
    _emit(args, {"command": "generators", "generators": items}, _render_generators)
    return EXIT_OK


def _fmt_half(t: int) -> str:
    if t % 2 == 0:
        return str(t // 2)
    return f"{t}/2"


def _render_generators(doc: dict) -> list[str]:
    lines = []
    for g in doc["generators"]:
        signs = ", ".join(f"{s:+d}"[0] + "1" for s in g["signs"])
        trans = ", ".join(_fmt_half(t) for t in g["translation_halves"])
        lines.append(f"{g['name']}: diag({signs}), t = ({trans})")
    return lines


def cmd_census(args) -> int:
    # a refused request must not create --out; ValueError covers DimensionTooLarge
    try:
        census_mod.check_request(args.dim, args.workers)
    except ValueError as exc:
        raise InputError(str(exc))
    # open --out before the sweep; mode "a" keeps an existing file as it
    # is until the report replaces it
    try:
        out = open(args.out, "a") if args.out else None
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    with out or contextlib.nullcontext():
        report = census_mod.run_census(args.dim, oracle=not args.no_oracle, workers=args.workers)
        document = {"schema_version": SCHEMA_VERSION, "command": "census", **report.to_dict()}
        payload = _dumps(document)
        if out:
            try:
                out.truncate(0)
                out.write(payload + "\n")
            except OSError as exc:
                raise InputError(f"cannot write {args.out}: {exc}")
        else:
            print(payload)
    print(
        f"census n={report.dimension}: total={report.total} "
        f"kahler={report.kahler_count} mismatches={report.mismatch_count} "
        f"backend={report.backend} elapsed={report.elapsed:.2f}s",
        file=sys.stderr,
    )
    if report.mismatch_count:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_verify(args) -> int:
    A = _load_referee_matrix(args)
    try:
        reduced = bott.reduce(A)
    except bott.NotKahler:
        raise InputError("matrix is not Kähler; verify needs a column pairing")
    data = pmx.sw_data(bott.to_pmatrix(A))
    w2_vec = data.w2_vector
    w2 = str(w2_vec)
    trace = pmx.ideal_deg2(data).reduction_trace(w2_vec)
    steps = [
        {"subtracted": str(basis_vec), "remainder": str(remainder)}
        for basis_vec, remainder in trace
    ]
    # w2 reduces to the last remainder, or stays as it is when no pivot meets it
    residual = trace[-1][1] if trace else w2_vec
    theorem = bott.spin_main_theorem_on(A, reduced)
    oracle = data.w1_mask == 0 and residual.is_zero()
    document = {
        "command": "verify",
        "dimension": A.n,
        "reduced_row_sums": list(reduced.row_sums),
        "odd_rows": [i for i, s in enumerate(reduced.row_sums, start=1) if s],
        "w2": w2,
        "thetas": [deg2_text(t, data.d) for t in data.thetas],
        "reduction_steps": steps,
        "residual": steps[-1]["remainder"] if steps else w2,
        "spin_theorem": theorem,
        "spin_oracle": oracle,
    }
    _emit(args, document, _render_verify)
    return EXIT_OK if theorem == oracle else EXIT_MISMATCH


def _render_verify(doc: dict) -> list[str]:
    J = doc["odd_rows"]
    lines = [
        f"row sums of reduced matrix: {''.join(map(str, doc['reduced_row_sums']))}",
        f"J = {{i : sum_i = 1}} = {set(J) if J else '{}'}",
        f"w2 = {doc['w2']}",
        "theta generators:",
        *(f"  theta_{j} = {t}" for j, t in enumerate(doc["thetas"], start=1)),
        "reduction of w2 against the theta span:",
    ]
    if not doc["reduction_steps"]:
        lines.append("  (w2 meets no basis pivot; left unchanged)")
    for step in doc["reduction_steps"]:
        lines.append(f"  - {step['subtracted']}  ->  remainder {step['remainder']}")
    lines += [
        f"residual: {doc['residual']}",
        f"spin by reduced-matrix criterion: {_fmt_tri(doc['spin_theorem'])}",
        f"spin by cohomological oracle:     {_fmt_tri(doc['spin_oracle'])}",
        "verdicts agree" if doc["spin_theorem"] == doc["spin_oracle"] else "VERDICTS DISAGREE",
    ]
    return lines


def _add_matrix_args(sub):
    sub.add_argument("file", nargs="?", help="matrix file (optional size header, then 0/1 rows)")
    sub.add_argument("--matrix", help='inline matrix, rows separated by ";" (e.g. "011;001;000")')
    sub.add_argument("--json", action="store_true", help="structured output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbott",
        description="Kähler and spin structure decisions for real Bott manifolds",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="Kähler / orientability / spin verdicts")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("sw", help="Stiefel-Whitney classes and ideal generators")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_sw)

    p = subs.add_parser("pmatrix", help="print the P-matrix of the action")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_pmatrix)

    p = subs.add_parser("generators", help="crystallographic generators of the fundamental group")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_generators)

    p = subs.add_parser("census", help="exhaustive sweep of one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-oracle", action="store_true", help="skip the cohomological oracle")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=cmd_census)

    p = subs.add_parser("verify", help="side-by-side theorem vs oracle with reduction trace")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_verify)

    parser.commands = subs.choices  # main's dispatch table: name -> sub-parser
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), through the command's own sub-parser
    when argv starts with a command and that parser uses every word."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
