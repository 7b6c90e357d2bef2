"""Command-line front end.

Verbs: `gen` (emit algebra / family-module JSON), `check` (Lie axioms
plus declared-decomposition certificates), `verify` (full
representation pipeline), `enumerate` (valid parameter tuples),
`classify` (solution-space survey), `decompose` (degree stripes of a
triangular map). `-` stands for stdin/stdout; any other input path
must name a regular file, since a device such as /dev/zero could be
read without end. Exit codes: 0 all checks pass, 1 a verification check
failed (the report is still written), 2 malformed input or arguments,
or an input that needs more memory than the process has.

A report that would hold a computed number too long to write is
malformed input too. CPython converts no int of more than
`sys.get_int_max_str_digits()` digits to text, and that bound is kept,
since it also bounds int parsing, which is quadratic in the digits. The
walk that writes a report names the field of such a number:
`jsonio.dumps`, which writes every report but classify's in one walk
from its values, or `render_classification` for the classify scalars,
raises `jsonio.NumberTooLong`. Each report's text is built whole before
it is written, so `run` turns that into exit 2 with nothing written, on
stdout as on `-o`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .classify import classification_cells, render_classification
from .exact import rat
from .family import (
    ModuleParams,
    build_family_module,
    enumerate_params,
    verify_family,
)
from .graded import degree_components, is_triangular
from .jsonio import (
    NumberTooLong,
    algebra_to_json,
    algebra_from_json,
    array_field,
    dumps,
    graded_map_from_json,
    int_field,
    load_json,
    representation_from_json,
    representation_to_json,
)
from .liealg import build_sl2_lambda, check_axioms, verify_levi_data
from .rep import verify_representation


class InputError(Exception):
    """Malformed input or arguments (exit code 2)."""


# what parsing a malformed document raises: a missing key, a wrong type,
# a bad value, or a number too large for the call it reaches
_BAD_DOCUMENT = (KeyError, TypeError, ValueError, OverflowError)


def _read_json(path: str) -> dict:
    try:
        return json.load(sys.stdin) if path == "-" else load_json(path)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, over-long integer literals
        # and a path that names no regular file
        raise InputError(f"cannot read JSON from {path}: {exc}")


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        # a missing directory, a directory, a full disk: the report is
        # not written, so this is no check result
        raise InputError(f"cannot write {path}: {exc}")


def _parse_scalars(raw: str) -> tuple:
    if not raw:
        return ()
    try:
        return tuple(rat(part.strip()) for part in raw.split(","))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad scalar list {raw!r}: {exc}")


def _cmd_gen(args) -> int:
    if args.what == "sl2l":
        try:
            L, D = build_sl2_lambda(args.lam)
        except ValueError as exc:
            raise InputError(str(exc))
        _write(dumps(algebra_to_json(L, D)), args.output)
        return 0
    a = _parse_scalars(args.a)
    try:
        params = ModuleParams(args.lam, args.m, args.n, args.s, args.big_n, a)
    except ValueError as exc:
        raise InputError(f"invalid parameters: {exc}")
    rho = build_family_module(params, paper_literal=args.paper_literal)
    extra = {
        "family_params": {
            "lambda": params.lam,
            "m": params.m,
            "n": params.n,
            "s": params.s,
            "N": params.big_n,
            "a": params.a,
            "paper_literal": args.paper_literal,
        }
    }
    _write(dumps(representation_to_json(rho, extra)), args.output)
    return 0


def _cmd_check(args) -> int:
    doc = _read_json(args.input)
    try:
        L, D = algebra_from_json(doc)
    except _BAD_DOCUMENT as exc:
        raise InputError(f"bad algebra document: {exc}")
    axioms = check_axioms(L)
    levi = verify_levi_data(L, D)
    report = {
        "axioms": axioms,
        "levi_data": levi,
        "all_pass": axioms["all_pass"] and levi["all_pass"],
    }
    _write(dumps(report), args.output)
    return 0 if report["all_pass"] else 1


def _family_params_from_doc(doc: dict) -> ModuleParams:
    try:
        fp = doc["family_params"]
        a = array_field(fp["a"], "a")
        fields = [int_field(fp[key]) for key in ("lambda", "m", "n", "s", "N")]
        a = tuple(rat(x) for x in a)
    except _BAD_DOCUMENT as exc:
        raise InputError(f"document carries no usable family_params: {exc}")
    try:
        return ModuleParams(*fields, a)
    except ValueError as exc:
        raise InputError(f"invalid family_params: {exc}")


def _cmd_verify(args) -> int:
    doc = _read_json(args.input)
    if args.paper_literal:
        # re-derive the module from its parameters under the printed
        # e-action coefficient, rather than trusting the serialized
        # matrices (which may come from either reading)
        report = verify_family(_family_params_from_doc(doc), paper_literal=True)
    else:
        try:
            rho = representation_from_json(doc)
        except (*_BAD_DOCUMENT, OSError, RecursionError) as exc:
            raise InputError(f"bad representation document: {exc}")
        report = verify_representation(rho)
    _write(dumps(report), args.output)
    return 0 if report["all_pass"] else 1


def _cmd_enumerate(args) -> int:
    try:
        tuples = enumerate_params(args.lam, args.max_m, args.max_n)
    except ValueError as exc:
        raise InputError(str(exc))
    lines = "".join(f"{m} {n} {s} {big_n}\n" for m, n, s, big_n in tuples)
    _write(lines, args.output)
    return 0


def _cmd_classify(args) -> int:
    try:
        cells = list(classification_cells(args.lam, args.max_n, args.max_m))
    except ValueError as exc:
        raise InputError(str(exc))
    if args.table:
        width = 6
        lines = ["".join(h.rjust(width) for h in ("n", "m", "dim", "cg", "agree"))]
        for cell in cells:
            row = (cell.n, cell.m, cell.dim, cell.cg, cell.dim == cell.cg)
            lines.append("".join(str(v).rjust(width) for v in row))
        _write("\n".join(lines) + "\n", args.output)
    else:
        _write(render_classification(args.lam, args.max_n, args.max_m, cells), args.output)
    return 0 if all(cell.dim == cell.cg for cell in cells) else 1


def _cmd_decompose(args) -> int:
    doc = _read_json(args.input)
    try:
        g = graded_map_from_json(doc)
    except _BAD_DOCUMENT as exc:
        raise InputError(f"bad graded-map document: {exc}")
    ok, witness = is_triangular(g)
    if not ok:
        _write(
            dumps({"triangular": False, "witness": list(witness)}),
            args.output,
        )
        return 1
    comps = degree_components(g)
    components = {j: comps[j].matrix for j in sorted(comps)}
    _write(dumps({"triangular": True, "components": components}), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on first use, since parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="trilie",
        description="exact graded Lie representation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit algebra or module JSON")
    gensub = gen.add_subparsers(dest="what", required=True)
    g_alg = gensub.add_parser("sl2l", help="the sl2^Λ algebra")
    g_alg.add_argument("--lambda", dest="lam", type=int, required=True)
    g_alg.add_argument("-o", "--output", default="-")
    g_fam = gensub.add_parser("family", help="a family module representation")
    g_fam.add_argument("--lambda", dest="lam", type=int, required=True)
    g_fam.add_argument("--m", type=int, required=True)
    g_fam.add_argument("--n", type=int, required=True)
    g_fam.add_argument("--s", type=int, required=True)
    g_fam.add_argument("--bigN", dest="big_n", type=int, required=True)
    g_fam.add_argument("--a", default="", help="comma-separated rationals")
    g_fam.add_argument("--paper-literal", action="store_true")
    g_fam.add_argument("-o", "--output", default="-")

    c = sub.add_parser("check", help="Lie axioms + declared decomposition")
    c.add_argument("input", nargs="?", default="-")
    c.add_argument("-o", "--output", default="-")

    v = sub.add_parser("verify", help="full representation pipeline")
    v.add_argument("input", nargs="?", default="-")
    v.add_argument("--paper-literal", action="store_true")
    v.add_argument("-o", "--output", default="-")

    e = sub.add_parser("enumerate", help="valid parameter tuples")
    e.add_argument("--lambda", dest="lam", type=int, required=True)
    e.add_argument("--max-m", dest="max_m", type=int, required=True)
    e.add_argument("--max-n", dest="max_n", type=int, required=True)
    e.add_argument("-o", "--output", default="-")

    k = sub.add_parser("classify", help="solution-space survey")
    k.add_argument("--lambda", dest="lam", type=int, required=True)
    k.add_argument("--max-n", dest="max_n", type=int, required=True)
    k.add_argument("--max-m", dest="max_m", type=int, required=True)
    k.add_argument("--table", action="store_true")
    k.add_argument("-o", "--output", default="-")

    d = sub.add_parser("decompose", help="degree stripes of a triangular map")
    d.add_argument("input", nargs="?", default="-")
    d.add_argument("-o", "--output", default="-")

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "check": _cmd_check,
    "verify": _cmd_verify,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except InputError as exc:
        message = str(exc)
    except NumberTooLong as exc:
        message = (
            f"{exc.field or 'the report'} holds a number of more than "
            f"{sys.get_int_max_str_digits()} digits, too long to write"
        )
    except MemoryError:
        # a valid input may still ask for more than the process has (a
        # family module of dimension 10^8): no report, nothing written
        message = "the input needs more memory than this process has"
    print(f"error: {message}", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(run())
