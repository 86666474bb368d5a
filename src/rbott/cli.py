"""Command-line front door.

Commands: check, sw, pmatrix, generators, census, verify.  Exit codes:
0 success, 2 input error, 3 mathematical inconsistency between the
combinatorial spin criterion and the cohomological oracle (never
expected).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

from . import bott, census as census_mod, pmatrix as pmx
from .f2poly import deg2_to_vector

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3


class InputError(Exception):
    pass


def _load_matrix(args) -> bott.BottMatrix:
    if getattr(args, "matrix", None):
        source, text = "--matrix", args.matrix.replace(";", "\n")
    elif getattr(args, "file", None):
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


def _emit(args, document: dict, text_lines: list[str]) -> None:
    if args.json:
        document = {"schema_version": SCHEMA_VERSION, **document}
        print(json.dumps(document, indent=2))
    else:
        print("\n".join(text_lines))


def _fmt_tri(value) -> str:
    if value is None:
        return "n/a"
    return "true" if value else "false"


def _check_fields(A: bott.BottMatrix) -> dict:
    """The verdicts of ``check``, read from the row and column bitmasks of A.

    spin_oracle is the cohomological criterion in closed form
    (bott.spin_closed_form), so check builds no Stiefel-Whitney data;
    sw and verify run the generic referee.
    """
    kahler = bott.is_kahler(A)
    reduced = bott.reduce(A) if kahler else None
    return {
        "dimension": A.n,
        "strictly_upper": True,
        "kahler": kahler,
        "orientable": bott.is_orientable(A),
        "spin_theorem": bott.spin_main_theorem_on(A, reduced) if kahler else None,
        "spin_oracle": bott.spin_closed_form(A),
        "reduced_row_sums": list(reduced.row_sums) if kahler else None,
    }


def cmd_check(args) -> int:
    A = _load_matrix(args)
    fields = _check_fields(A)
    lines = [
        f"dimension:        {fields['dimension']}",
        f"strictly_upper:   {_fmt_tri(fields['strictly_upper'])}",
        f"kahler:           {_fmt_tri(fields['kahler'])}",
        f"orientable:       {_fmt_tri(fields['orientable'])}",
        f"spin_theorem:     {_fmt_tri(fields['spin_theorem'])}",
        f"spin_oracle:      {_fmt_tri(fields['spin_oracle'])}",
        "reduced_row_sums: "
        + (
            "".join(str(s) for s in fields["reduced_row_sums"])
            if fields["reduced_row_sums"] is not None
            else "n/a"
        ),
    ]
    _emit(args, {"command": "check", **fields}, lines)
    if fields["spin_theorem"] is not None and fields["spin_theorem"] != fields["spin_oracle"]:
        print("error: spin criterion and oracle disagree", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_sw(args) -> int:
    A = _load_matrix(args)
    data = pmx.sw_data(bott.to_pmatrix(A))
    space = pmx.ideal_deg2(data)
    per_column = []
    lines = []
    for j, (a, b, t) in enumerate(zip(data.alphas, data.betas, data.thetas), start=1):
        per_column.append(
            {"j": j, "alpha": str(a), "beta": str(b), "theta": str(t)}
        )
        lines.append(f"alpha_{j} = {a}")
        lines.append(f"beta_{j}  = {b}")
        lines.append(f"theta_{j} = {t}")
    lines.append(f"w1 = {data.w1}")
    lines.append(f"w2 = {data.w2}")
    lines.append(f"ideal degree-2 rank = {space.dimension}")
    document = {
        "command": "sw",
        "dimension": A.n,
        "classes": per_column,
        "w1": str(data.w1),
        "w2": str(data.w2),
        "ideal_deg2_rank": space.dimension,
    }
    _emit(args, document, lines)
    return EXIT_OK


def cmd_pmatrix(args) -> int:
    A = _load_matrix(args)
    E = bott.to_pmatrix(A)
    document = {
        "command": "pmatrix",
        "d": E.d,
        "n": E.n,
        "rows": [list(row) for row in E.entries],
    }
    _emit(args, document, [E.to_text()])
    return EXIT_OK


def _fmt_half(t: int) -> str:
    if t % 2 == 0:
        return str(t // 2)
    return f"{t}/2"


def cmd_generators(args) -> int:
    A = _load_matrix(args)
    gens = bott.generators(A)
    items = []
    lines = []
    for i, g in enumerate(gens, start=1):
        items.append(
            {
                "name": f"s{i}",
                "signs": list(g.signs),
                "translation_halves": list(g.half_translation),
            }
        )
        signs = ", ".join(f"{s:+d}"[0] + "1" for s in g.signs)
        trans = ", ".join(_fmt_half(t) for t in g.half_translation)
        lines.append(f"s{i}: diag({signs}), t = ({trans})")
    _emit(args, {"command": "generators", "generators": items}, lines)
    return EXIT_OK


def cmd_census(args) -> int:
    request = dict(
        n=args.dim, oracle=not args.no_oracle, workers=args.workers, ceiling=args.ceiling
    )
    # a refused request must not create --out; ValueError covers DimensionTooLarge
    try:
        census_mod.check_request(**request)
    except ValueError as exc:
        raise InputError(str(exc))
    # open --out before the sweep; mode "a" keeps an existing file as it
    # is until the report replaces it
    try:
        out = open(args.out, "a") if args.out else None
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}")
    with out or contextlib.nullcontext():
        report = census_mod.run_census(**request)
        document = {"schema_version": SCHEMA_VERSION, "command": "census", **report.to_dict()}
        payload = json.dumps(document, indent=2)
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
    A = _load_matrix(args)
    if not bott.is_kahler(A):
        raise InputError("matrix is not Kähler; verify needs a column pairing")
    data = pmx.sw_data(bott.to_pmatrix(A))
    reduced = bott.reduce(A)
    J = [i for i, s in enumerate(reduced.row_sums, start=1) if s == 1]
    theorem = bott.spin_main_theorem(A)

    space = pmx.ideal_deg2(data)
    w2_vec = deg2_to_vector(data.w2, data.d)
    trace = space.reduction_trace(w2_vec)
    residual = space.reduce(w2_vec)
    oracle = data.w1.is_zero() and residual.is_zero()

    lines = [
        f"row sums of reduced matrix: {''.join(str(s) for s in reduced.row_sums)}",
        f"J = {{i : sum_i = 1}} = {set(J) if J else '{}'}",
        f"w2 = {data.w2}",
        "theta generators:",
    ]
    for j, t in enumerate(data.thetas, start=1):
        lines.append(f"  theta_{j} = {t}")
    lines.append("reduction of w2 against the theta span:")
    if not trace:
        lines.append("  (w2 meets no basis pivot; left unchanged)")
    steps = []
    for basis_vec, remainder in trace:
        steps.append(
            {"subtracted": str(basis_vec.to_poly()), "remainder": str(remainder.to_poly())}
        )
        lines.append(
            f"  - {basis_vec.to_poly()}  ->  remainder {remainder.to_poly()}"
        )
    lines.append(f"residual: {residual.to_poly()}")
    lines.append(f"spin by reduced-matrix criterion: {_fmt_tri(theorem)}")
    lines.append(f"spin by cohomological oracle:     {_fmt_tri(oracle)}")
    document = {
        "command": "verify",
        "dimension": A.n,
        "reduced_row_sums": list(reduced.row_sums),
        "odd_rows": J,
        "w2": str(data.w2),
        "thetas": [str(t) for t in data.thetas],
        "reduction_steps": steps,
        "residual": str(residual.to_poly()),
        "spin_theorem": theorem,
        "spin_oracle": oracle,
    }
    agree = theorem == oracle
    if agree:
        lines.append("verdicts agree")
    else:
        lines.append("VERDICTS DISAGREE")
    _emit(args, document, lines)
    return EXIT_OK if agree else EXIT_MISMATCH


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
    p.add_argument("--ceiling", type=int, default=None, help="override the dimension ceiling")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.set_defaults(func=cmd_census)

    p = subs.add_parser("verify", help="side-by-side theorem vs oracle with reduction trace")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
