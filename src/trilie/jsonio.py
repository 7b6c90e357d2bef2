"""Canonical JSON serialization for all artifact types.

Rationals serialize as strings "p/q" (or "p" when the denominator is
1); matrices as row-major arrays of such strings; dictionaries are
built in a fixed key order and never re-sorted, so identical inputs
produce byte-identical files. Readers take an integer field only as a
JSON integer and a list field only as a JSON array, and parse each
distinct entry string of a document once: an optional "-" and ASCII
digits by int(), any other spelling through Fraction. A matrix row that
is all "0" costs one C count; other rows one str compare per entry.

Every artifact and report is written by `dumps`, in one walk from the
report value to its text: byte for byte `json.dumps(jsonable(value),
indent=2)` and a newline. The walk takes exactly the values the verbs
emit: str, exact int, bool, None, Fraction (as `rat_str` writes it),
list, tuple, dict with str or int keys, and `RatMatrix` (its
stored-entry listing, `matrix_to_json`). Any other type raises
TypeError. It returns one whole string per value and joins each
container's members, with strings and keys through json's C
`encode_basestring_ascii`; an indent would switch json to its
pure-Python encoder, one small string per token. `jsonable` is the
plain JSON document of a value, read back from that text. Classify
reports equal `json.dumps(report, indent=2)` too, but are written by
the template renderer of `trilie.classify`, from the cells, with no
report dict and no call here.

The walk raises `NumberTooLong` at a Fraction too long to write, and
names its field as it unwinds. A report's ints are indices and
dimensions, and go unchecked.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
import stat
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii
from typing import Any, Callable

from .exact import RatMatrix, rat, rat_str, scalar
from .graded import GradedMap, GradedSpace
from .liealg import LeviData, LieAlgebra
from .rep import Representation


def int_field(value: Any) -> int:
    """An integer field of a JSON document, which must be a JSON integer:
    int() would truncate a float and parse a string such as "1_0". A JSON
    true is a Python bool, itself an int, and is refused too. Error
    messages quote a value through reprlib, so their length is bounded."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {reprlib.repr(value)}")
    return value


def array_field(value: Any, name: str) -> list:
    """A list field of a JSON document, which must be a JSON array: a
    string would be read character by character, and an object key by
    key."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {reprlib.repr(value)}")
    return value


class NumberTooLong(ValueError):
    """A number of more digits than CPython writes as text
    (`sys.get_int_max_str_digits()`). Its args are the dict keys (str)
    and list indices (int) above it, top down, each added by the walk
    as it unwinds; `field` joins them as `witnesses.faithful[0]`."""

    @property
    def field(self) -> str:
        field = ""
        for part in self.args:
            if type(part) is int:
                field += f"[{part}]"
            else:
                field = f"{field}.{part}" if field else part
        return field


def _key(k: Any) -> str:
    if type(k) is str:
        return _ascii(k)
    if type(k) is int:
        return '"' + int.__repr__(k) + '"'
    raise TypeError(f"a report key is a str or an int, not {type(k).__name__}")


def _write(value: Any, nl: str) -> str:
    """`value` as json.dumps(jsonable(value), indent=2) writes it, where
    `nl` is the newline and indent of the line `value` starts on."""
    t = type(value)
    if t is str:
        return _ascii(value)
    if t is int:
        return int.__repr__(value)
    if t is Fraction:
        # str(Fraction) is rat_str's "p/q" or "p"
        try:
            return '"' + str(value) + '"'
        except ValueError:
            raise NumberTooLong() from None
    if t is RatMatrix:
        value, t = matrix_to_json(value), list
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        items: list[str] = []
        try:
            for v in value:
                items.append(_ascii(v) if type(v) is str else _write(v, inner))
        except NumberTooLong as exc:
            exc.args = (len(items), *exc.args)
            raise
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        items = []
        try:
            for k, v in value.items():
                items.append(_key(k) + ": " + _write(v, inner))
        except NumberTooLong as exc:
            exc.args = (str(k), *exc.args)
            raise
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"a report holds no {t.__name__}")


def dumps(value: Any) -> str:
    """The text of a report value: json.dumps(jsonable(value), indent=2)
    and a newline, written in one walk."""
    return _write(value, "\n") + "\n"


def load_json(path: str) -> Any:
    """The JSON document in the file at `path`. A device or a pipe
    (/dev/zero) could be read without end, so a path that names no
    regular file raises ValueError("not a regular file"), unopened."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError("not a regular file")
    with open(path) as fh:
        return json.load(fh)


def matrix_to_json(m: RatMatrix) -> list[list[str]]:
    # "0" fills each row; only the stored entries are formatted, as
    # rat_str's "p/q" or "p" of x over the row's denominator d. The row
    # being built when an entry is too long to write is row len(out)
    out = []
    try:
        for i in range(m.rows):
            line = ["0"] * m.cols
            d = m.dens.get(i)
            for j, x in m.maps.get(i, {}).items():
                if d is None:
                    line[j] = str(x)
                else:
                    g = math.gcd(x, d)
                    line[j] = str(x // g) if g == d else f"{x // g}/{d // g}"
            out.append(line)
    except ValueError:
        raise NumberTooLong(len(out), j) from None
    return out


def _parser(read: Callable[[Any], int | Fraction] | None = None) -> Callable[[Any], int | Fraction]:
    """`read` (scalar() if None) for one document, called once per
    distinct string. With scalar() an integer spelling gives an int,
    which a matrix row stores as it is. Only strings are kept: 1, 1.0
    and True hash alike, and True must stay a TypeError."""
    read = read or scalar
    memo: dict[str, int | Fraction] = {}

    def parse(x: Any) -> int | Fraction:
        if type(x) is not str:
            return read(x)
        q = memo.get(x)
        if q is None:
            q = memo[x] = read(x)
        return q

    return parse


def matrix_from_json(
    rows: list[list[str]],
    shape: tuple[int, int] | None = None,
    parse: Callable[[Any], int | Fraction] | None = None,
) -> RatMatrix:
    """A matrix from its row listing; `parse` reads the entries (a fresh
    one-document parser if None)."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("a matrix must be a list of rows, each a list of entries")
    if not rows and shape is not None and shape[0] == 0:
        # a 0-row listing carries no column count; only `shape` does
        return RatMatrix.zeros(*shape)
    m = RatMatrix.from_rows(rows, parse or _parser())
    if shape is not None and (m.rows, m.cols) != shape:
        raise ValueError(f"matrix shape {m.rows}x{m.cols}, expected {shape}")
    return m


def algebra_to_json(L: LieAlgebra, D: LeviData) -> dict:
    brackets = []
    for (i, j) in sorted(L.structure):
        coeffs = L.structure[(i, j)]
        brackets.append(
            [i, j, [[k, rat_str(coeffs[k])] for k in sorted(coeffs)]]
        )
    return {
        "dim": L.dim,
        "labels": list(L.basis_labels),
        "brackets": brackets,
        "levi": list(D.levi_indices),
        "radical": list(D.radical_indices),
        "nilradical": list(D.nilrad_indices),
    }


def algebra_from_json(
    doc: dict, parse: Callable[[Any], int | Fraction] | None = None
) -> tuple[LieAlgebra, LeviData]:
    """An algebra and its Levi data; `parse` reads the bracket
    coefficients (rat() if None). Each distinct coefficient string is
    read once and made one Fraction of the table."""
    coefficient = _parser(rat if parse is None else lambda x: rat(parse(x)))
    structure = {}
    # a field of exact type int is taken as it stands; any other goes to
    # int_field, and an error text is built only when it is raised
    for entry in array_field(doc["brackets"], "brackets"):
        i, j, coeffs = entry
        if type(i) is not int or type(j) is not int:
            i, j = int_field(i), int_field(j)
        pair = (i, j)
        if pair in structure:
            raise ValueError(f"bracket pair {pair} listed twice")
        if type(coeffs) is not list:
            array_field(coeffs, f"the terms of bracket pair {pair}")
        terms = structure[pair] = {}
        for k, c in coeffs:
            if type(k) is not int:
                k = int_field(k)
            if k in terms:
                raise ValueError(f"bracket pair {pair} lists target {k} twice")
            terms[k] = coefficient(c)
    L = LieAlgebra(int_field(doc["dim"]), [str(x) for x in array_field(doc["labels"], "labels")], structure)
    index_lists = []
    for key in ("levi", "radical", "nilradical"):
        indices = tuple(int_field(x) for x in array_field(doc[key], key))
        for x in indices:
            if not 0 <= x < L.dim:
                raise ValueError(f"{key} index {x} out of range for dim {L.dim}")
        index_lists.append(indices)
    return L, LeviData(*index_lists)


def graded_map_from_json(doc: dict) -> GradedMap:
    # the declared dims fix the shape, and name it when the matrix differs
    dims = tuple(int_field(d) for d in array_field(doc["dims"], "dims"))
    m = matrix_from_json(doc["matrix"], (sum(dims), sum(dims)))
    return GradedMap(GradedSpace(dims), m)


def representation_to_json(rho: Representation, extra: dict | None = None) -> dict:
    """The document of rho as a report value, images as `RatMatrix`:
    `dumps` writes it, and `jsonable` of it is the plain document."""
    doc = {
        "algebra": algebra_to_json(rho.algebra, rho.levi),
        "dims": list(rho.space.component_dims),
        "images": {
            rho.algebra.basis_labels[i]: rho.images[i].matrix
            for i in range(rho.algebra.dim)
        },
    }
    if extra:
        doc.update(extra)
    return doc


def representation_from_json(doc: dict) -> Representation:
    algebra_doc = doc["algebra"]
    if isinstance(algebra_doc, str):
        try:
            algebra_doc = load_json(algebra_doc)
        except ValueError as exc:
            raise ValueError(f"algebra path {algebra_doc!r}: {exc}") from None
    # one parser for the whole document: images repeat the algebra's
    # coefficients and each other's entries
    parse = _parser()
    L, D = algebra_from_json(algebra_doc, parse)
    dims = tuple(int_field(d) for d in array_field(doc["dims"], "dims"))
    seen = set(doc["images"])
    expected = set(L.basis_labels)
    if seen != expected:
        raise ValueError(
            f"images keyed by {sorted(seen)}, algebra has {sorted(expected)}"
        )
    shape = (sum(dims), sum(dims))  # each image is checked against it
    images = tuple(
        matrix_from_json(doc["images"][label], shape, parse) for label in L.basis_labels
    )
    return Representation(L, D, GradedSpace(dims), images)


def jsonable(value: Any) -> Any:
    """A report value as plain JSON values: the document `dumps` writes."""
    return json.loads(dumps(value))
