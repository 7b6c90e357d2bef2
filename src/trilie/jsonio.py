"""Canonical JSON serialization for all artifact types.

Rationals serialize as strings "p/q" (or "p" when the denominator is
1); matrices as row-major arrays of such strings; dictionaries are
built in a fixed key order and never re-sorted, so identical inputs
produce byte-identical files. Readers take an integer field only as a
JSON integer and a list field only as a JSON array.
"""

from __future__ import annotations

import json
import os
import reprlib
import stat
from fractions import Fraction
from typing import Any

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


def dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


def matrix_to_json(m: RatMatrix) -> list[list[str]]:
    return [[rat_str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_json(rows: list[list[str]], shape: tuple[int, int] | None = None) -> RatMatrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("a matrix must be a list of rows, each a list of entries")
    if not rows and shape is not None and shape[0] == 0:
        # a 0-row listing carries no column count; only `shape` does
        return RatMatrix.zeros(*shape)
    m = RatMatrix.from_rows(rows)
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


def algebra_from_json(doc: dict) -> tuple[LieAlgebra, LeviData]:
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
            terms[k] = rat(c)
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
        # a device or a pipe (/dev/zero) could be read without end
        if not stat.S_ISREG(os.stat(algebra_doc).st_mode):
            raise ValueError(f"algebra path {algebra_doc!r} is not a regular file")
        with open(algebra_doc) as fh:
            algebra_doc = json.load(fh)
    L, D = algebra_from_json(algebra_doc)
    dims = tuple(int_field(d) for d in _array(doc["dims"], "dims"))
    seen = set(doc["images"])
    expected = set(L.basis_labels)
    if seen != expected:
        raise ValueError(
            f"images keyed by {sorted(seen)}, algebra has {sorted(expected)}"
        )
    shape = (sum(dims), sum(dims))  # each image is checked against it
    images = tuple(matrix_from_json(doc["images"][label], shape) for label in L.basis_labels)
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
