"""Canonical JSON serialization for all artifact types.

Rationals serialize as strings "p/q" (or "p" when the denominator is
1); matrices as row-major arrays of such strings; dictionaries are
built in a fixed key order and never re-sorted, so identical inputs
produce byte-identical files. Readers take an integer field only as a
JSON integer and a list field only as a JSON array, and parse each
distinct entry string of a document once.

Every artifact is written as `json.dumps(doc, indent=2)` writes it, by
`encode_indented` on every CPython. Up to 3.12 an indent switches json
to its pure-Python encoder, which yields one small string per token;
`encode_indented` writes the same bytes by returning one whole string
per value and joining each container's members, with strings and keys
through json's C `encode_basestring_ascii`, so it costs about half as
much. The writer handles the JSON types the verbs emit (str, int, list,
dict with str keys, None and the bools); `json.dumps` handles every
other document. Classify reports still equal `json.dumps(report,
indent=2)`, but are written by the template renderer of
`trilie.classify`, from the cells, with no report dict and no call here.
"""

from __future__ import annotations

import json
import os
import reprlib
import stat
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _ascii
from typing import Any, Callable

from .exact import RatMatrix, rat, rat_str
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


def _array(value: Any, name: str) -> list:
    """A list field of a JSON document, which must be a JSON array: a
    string would be read character by character, and an object key by
    key."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {reprlib.repr(value)}")
    return value


def _encode(value: Any, nl: str) -> str:
    """`value` as json.dumps(indent=2) writes it, where `nl` is the newline
    and indent of the line `value` starts on. Only the JSON types the
    verbs emit are written here: exact str, int, list, and dict with str
    keys, None and the bools. Anything else raises TypeError, and
    `encode_indented` leaves the document to json.dumps."""
    t = type(value)
    if t is str:
        return _ascii(value)
    if t is int:
        return int.__repr__(value)
    if t is not list and t is not dict:
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        raise TypeError(f"{t.__name__} is left to json.dumps")
    if not value:
        return "[]" if t is list else "{}"
    inner = nl + "  "
    if t is list:
        items = [_ascii(v) if type(v) is str else _encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    # encode_basestring_ascii raises TypeError for a key that is not a str
    items = [_ascii(k) + ": " + _encode(v, inner) for k, v in value.items()]
    return "{" + inner + ("," + inner).join(items) + nl + "}"


def encode_indented(doc: Any) -> str:
    """json.dumps(doc, indent=2), written by joining whole strings. What
    the writer refuses (a type the verbs do not emit, a key that is not a
    str, an int too long to write, a cycle or nesting past the recursion
    limit) goes to json.dumps(indent=2), which returns or raises as json
    does."""
    try:
        return _encode(doc, "\n")
    except (TypeError, ValueError, RecursionError):
        return json.dumps(doc, indent=2)


def dumps(doc: Any) -> str:
    return encode_indented(doc) + "\n"


def load_json(path: str) -> Any:
    """The JSON document in the file at `path`. A device or a pipe
    (/dev/zero) could be read without end, so a path that names no
    regular file raises ValueError("not a regular file"), unopened."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError("not a regular file")
    with open(path) as fh:
        return json.load(fh)


def matrix_to_json(m: RatMatrix) -> list[list[str]]:
    # "0" fills each row; only the stored entries are formatted, and
    # str(Fraction) is rat_str's "p/q" or "p"
    out = []
    for row in m.maps:
        line = ["0"] * m.cols
        for j, x in row.items():
            line[j] = str(x)
        out.append(line)
    return out


def _parser() -> Callable[[Any], Fraction]:
    """rat() for one document, parsing each distinct string once. Only
    strings are kept: 1, 1.0 and True hash alike, and True must stay a
    TypeError."""
    memo: dict[str, Fraction] = {}

    def parse(x: Any) -> Fraction:
        if type(x) is not str:
            return rat(x)
        q = memo.get(x)
        if q is None:
            q = memo[x] = rat(x)
        return q

    return parse


def matrix_from_json(
    rows: list[list[str]],
    shape: tuple[int, int] | None = None,
    parse: Callable[[Any], Fraction] | None = None,
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
    doc: dict, parse: Callable[[Any], Fraction] | None = None
) -> tuple[LieAlgebra, LeviData]:
    """An algebra and its Levi data; `parse` reads the bracket
    coefficients (a fresh one-document parser if None)."""
    parse = parse or _parser()
    structure = {}
    for entry in _array(doc["brackets"], "brackets"):
        i, j, coeffs = entry
        pair = (int_field(i), int_field(j))
        if pair in structure:
            raise ValueError(f"bracket pair {pair} listed twice")
        terms = structure[pair] = {}
        for k, c in _array(coeffs, f"the terms of bracket pair {pair}"):
            k = int_field(k)
            if k in terms:
                raise ValueError(f"bracket pair {pair} lists target {k} twice")
            terms[k] = parse(c)
    L = LieAlgebra(int_field(doc["dim"]), [str(x) for x in _array(doc["labels"], "labels")], structure)
    index_lists = []
    for key in ("levi", "radical", "nilradical"):
        indices = tuple(int_field(x) for x in _array(doc[key], key))
        for x in indices:
            if not 0 <= x < L.dim:
                raise ValueError(f"{key} index {x} out of range for dim {L.dim}")
        index_lists.append(indices)
    return L, LeviData(*index_lists)


def graded_map_from_json(doc: dict) -> GradedMap:
    # the declared dims fix the shape, and name it when the matrix differs
    dims = tuple(int_field(d) for d in _array(doc["dims"], "dims"))
    m = matrix_from_json(doc["matrix"], (sum(dims), sum(dims)))
    return GradedMap(GradedSpace(dims), m)


def representation_to_json(rho: Representation, extra: dict | None = None) -> dict:
    doc = {
        "algebra": algebra_to_json(rho.algebra, rho.levi),
        "dims": list(rho.space.component_dims),
        "images": {
            rho.algebra.basis_labels[i]: matrix_to_json(rho.images[i].matrix)
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
    dims = tuple(int_field(d) for d in _array(doc["dims"], "dims"))
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
    """Recursively convert report structures (Fractions, tuples, dict
    keys) into plain JSON-serializable values, preserving key order."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value
