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
CLI catches the refusal where it turns a report into text, names the
field, and writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import reprlib
import sys
from typing import Any, Callable

from .classify import classification_cells, render_classification
from .exact import RatMatrix, rat
from .family import (
    ModuleParams,
    build_family_module,
    enumerate_params,
    validate_params,
    verify_family,
)
from .graded import degree_components, is_triangular
from .jsonio import (
    algebra_to_json,
    algebra_from_json,
    dumps,
    graded_map_from_json,
    int_field,
    jsonable,
    load_json,
    matrix_to_json,
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


def _unprintable(value: Any, field: str = "") -> str | None:
    """The field of the first number under `value` that is too long to
    write, or None; a matrix is walked by its stored entries."""
    if isinstance(value, dict):
        items = ((f"{field}.{k}" if field else str(k), v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{field}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, RatMatrix):
        items = (
            (f"{field}[{r}][{c}]", x)
            for r, row in enumerate(value.maps)
            for c, x in row.items()
        )
    else:
        try:
            str(value)
        except ValueError:
            return field
        return None
    return next(filter(None, (_unprintable(v, f) for f, v in items)), None)


def _render(make: Callable[[], Any], locate: Callable[[], str | None]) -> Any:
    """make(), which turns a report into text. If it meets a number too
    long to write, that is exit 2 naming the field `locate()` finds;
    `locate` runs only then, so a report pays nothing per entry."""
    try:
        return make()
    except ValueError as exc:
        # how CPython refuses str() of an int past the digit bound
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        raise InputError(
            f"{locate() or 'the report'} holds a number of more than {limit} "
            "digits, too long to write"
        )


def _report_text(report: dict) -> str:
    return _render(lambda: dumps(jsonable(report)), lambda: _unprintable(report))


def _parse_scalars(raw: str) -> tuple:
    if not raw:
        return ()
    try:
        return tuple(rat(part.strip()) for part in raw.split(","))
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad scalar list {raw!r}: {exc}")


def _cmd_gen(args) -> int:
    if args.what == "sl2l":
        if args.lam < 1:
            raise InputError("--lambda must be >= 1")
        L, D = build_sl2_lambda(args.lam)
        _write(dumps(algebra_to_json(L, D)), args.output)
        return 0
    params = ModuleParams(
        args.lam, args.m, args.n, args.s, args.big_n, _parse_scalars(args.a)
    )
    ok, problems = validate_params(params)
    if not ok:
        raise InputError("invalid parameters: " + "; ".join(problems))
    rho = build_family_module(params, paper_literal=args.paper_literal)
    extra = {
        "family_params": {
            "lambda": params.lam,
            "m": params.m,
            "n": params.n,
            "s": params.s,
            "N": params.big_n,
            "a": [jsonable(x) for x in params.a],
            "paper_literal": args.paper_literal,
        }
    }
    text = _render(
        lambda: dumps(representation_to_json(rho, extra)),
        lambda: _unprintable(
            {"images": {label: im.matrix for label, im in zip(rho.algebra.basis_labels, rho.images)}}
        ),
    )
    _write(text, args.output)
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
    _write(_report_text(report), args.output)
    return 0 if report["all_pass"] else 1


def _family_params_from_doc(doc: dict) -> ModuleParams:
    try:
        fp = doc["family_params"]
        if not isinstance(fp["a"], list):
            raise ValueError(f"a must be a JSON array, got {reprlib.repr(fp['a'])}")
        params = ModuleParams(
            int_field(fp["lambda"]),
            int_field(fp["m"]),
            int_field(fp["n"]),
            int_field(fp["s"]),
            int_field(fp["N"]),
            tuple(rat(x) for x in fp["a"]),
        )
    except _BAD_DOCUMENT as exc:
        raise InputError(f"document carries no usable family_params: {exc}")
    ok, problems = validate_params(params)
    if not ok:
        raise InputError("invalid family_params: " + "; ".join(problems))
    return params


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
    _write(_report_text(report), args.output)
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
    if args.lam < 1 or args.max_n < 0 or args.max_m < 0:
        raise InputError("need --lambda >= 1 and nonnegative bounds")
    cells = list(classification_cells(args.lam, args.max_n, args.max_m))
    if args.table:
        width = 6
        lines = ["".join(h.rjust(width) for h in ("n", "m", "dim", "cg", "agree"))]
        for cell in cells:
            row = (cell.n, cell.m, cell.dim, cell.cg, cell.dim == cell.cg)
            lines.append("".join(str(v).rjust(width) for v in row))
        _write("\n".join(lines) + "\n", args.output)
    else:
        # the scalars are the report's only computed numbers, written as
        # the text is built
        text = _render(
            lambda: render_classification(args.lam, args.max_n, args.max_m, cells),
            lambda: "cells.family_matches.scalar",
        )
        _write(text, args.output)
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
    text = _render(
        lambda: dumps({
            "triangular": True,
            "components": {
                str(j): matrix_to_json(comps[j].matrix) for j in sorted(comps)
            },
        }),
        lambda: _unprintable({"components": {str(j): comps[j].matrix for j in sorted(comps)}}),
    )
    _write(text, args.output)
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
    except MemoryError:
        # a valid input may still ask for more than the process has (a
        # family module of dimension 10^8): no report, nothing written
        message = "the input needs more memory than this process has"
    print(f"error: {message}", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(run())
