"""Round-trip and determinism checks for the JSON layer."""

import enum
import json
import math
import sys
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilie.exact as exact
import trilie.jsonio as jsonio
from trilie.exact import RatMatrix, rat, rat_str
from trilie.family import ModuleParams, build_family_module
from trilie.graded import GradedMap, GradedSpace
from trilie.jsonio import (
    algebra_from_json,
    algebra_to_json,
    dumps,
    encode_indented,
    graded_map_from_json,
    jsonable,
    matrix_from_json,
    matrix_to_json,
    representation_from_json,
    representation_to_json,
)
from trilie.liealg import adjoint_grading, adjoint_representation, build_sl2_lambda

from helpers import graded_map_to_json


@pytest.fixture(scope="module")
def sl2_1():
    return build_sl2_lambda(1)


@pytest.fixture(scope="module")
def adjoint_1(sl2_1):
    L, D = sl2_1
    return adjoint_representation(L, adjoint_grading(L, D))


def test_matrix_round_trip():
    m = RatMatrix.from_rows(
        [[rat("1/2"), rat(-3)], [rat(0), rat("7/5")]]
    )
    doc = matrix_to_json(m)
    assert doc == [["1/2", "-3"], ["0", "7/5"]]
    assert matrix_from_json(doc) == m


def test_matrix_shape_guard():
    with pytest.raises(ValueError):
        matrix_from_json([["1"], ["2"]], shape=(1, 2))


def test_empty_matrix_round_trip():
    m = RatMatrix.zeros(0, 3)
    assert matrix_from_json(matrix_to_json(m), shape=(0, 3)) == m


def test_algebra_round_trip(sl2_1):
    L, D = sl2_1
    doc = algebra_to_json(L, D)
    L2, D2 = algebra_from_json(doc)
    assert L2.dim == L.dim
    assert L2.basis_labels == L.basis_labels
    assert L2.structure == L.structure
    assert D2 == D


def test_algebra_doc_is_plain_json(sl2_1):
    L, D = sl2_1
    text = dumps(algebra_to_json(L, D))
    doc = json.loads(text)
    assert doc["dim"] == 5
    assert doc["labels"] == ["f", "h", "e", "z0", "z1"]
    assert doc["levi"] == [0, 1, 2]
    # brackets are (i, j, terms) with i < j and string coefficients
    for i, j, terms in doc["brackets"]:
        assert i < j
        for k, c in terms:
            assert isinstance(k, int) and isinstance(c, str)


def test_graded_map_round_trip():
    sp = GradedSpace((2, 1))
    g = GradedMap(
        sp,
        RatMatrix.from_rows(
            [
                [rat(1), rat(2), rat(0)],
                [rat(0), rat(1), rat(0)],
                [rat("5/2"), rat(0), rat(3)],
            ]
        ),
    )
    g2 = graded_map_from_json(graded_map_to_json(g))
    assert g2.space.component_dims == sp.component_dims
    assert g2.matrix == g.matrix


def test_representation_round_trip(adjoint_1):
    doc = representation_to_json(adjoint_1)
    rho = representation_from_json(doc)
    assert rho.algebra.structure == adjoint_1.algebra.structure
    assert rho.space.component_dims == adjoint_1.space.component_dims
    assert all(a.matrix == b.matrix for a, b in zip(rho.images, adjoint_1.images))


def test_representation_extra_fields_survive(adjoint_1):
    doc = representation_to_json(adjoint_1, extra={"family_params": {"m": 1}})
    assert doc["family_params"] == {"m": 1}
    # extras don't confuse the loader
    representation_from_json(doc)


def test_representation_label_mismatch_rejected(adjoint_1):
    doc = representation_to_json(adjoint_1)
    doc["images"]["bogus"] = doc["images"].pop("f")
    with pytest.raises(ValueError):
        representation_from_json(doc)


def test_serialization_is_byte_stable(adjoint_1):
    text = dumps(representation_to_json(adjoint_1))
    again = dumps(representation_to_json(representation_from_json(json.loads(text))))
    assert text == again


def test_family_module_byte_stable():
    p = ModuleParams(1, 2, 1, 0, 0, (rat(1),))
    t1 = dumps(representation_to_json(build_family_module(p)))
    t2 = dumps(representation_to_json(build_family_module(p)))
    assert t1 == t2


def test_jsonable_converts_nested_values():
    out = jsonable(
        {
            "x": rat("1/3"),
            "v": (rat(1), rat(2)),
            "plain": [True, None, "s", 4],
        }
    )
    assert out == {
        "x": "1/3",
        "v": ["1", "2"],
        "plain": [True, None, "s", 4],
    }
    json.dumps(out)  # must be serializable as-is


# --- the writer: byte for byte what json.dumps(indent=2) writes ---------

# text with non-ASCII and surrogate-free code points, control characters,
# quotes and backslashes
_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀')),
    max_size=8,
)
_FLOATS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324])
)
_INTS = st.one_of(st.integers(-5, 5), st.integers(-(2**200), 2**200))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
_KEYS = st.one_of(_TEXT, _INTS, _FLOATS, st.booleans(), st.none())
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_writer_matches_json_dumps(doc):
    expected = json.dumps(doc, indent=2)
    # called directly too: on CPython 3.13+ dumps does not select it
    assert encode_indented(doc) == expected
    assert dumps(doc) == expected + "\n"


class _Level(enum.IntEnum):
    LOW = 1


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):
        return "not used by json"


_Pair = namedtuple("_Pair", "x y")


@pytest.mark.parametrize("doc", [
    {"level": _Level.LOW, _Level.LOW: [_Level.LOW]},
    [_Str("a\"b"), {_Str("k"): _Str("\u00e9")}],
    [_Float(1.5), {_Float(2.5): _Float(-0.0)}],
    OrderedDict([("b", 1), ("a", OrderedDict())]),
    _Pair(1, [_Pair((), {})]),
    [[[[]]], {}, [{}], ((),)],
    {True: 1, None: 2, 3.0: 4, 10**30: 5, "": ""},
    "top-level string",
    7,
    None,
])
def test_writer_encodes_subclasses_and_keys_as_json(doc):
    assert encode_indented(doc) == json.dumps(doc, indent=2)
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"


def _cycle():
    loop = [1]
    loop.append({"again": loop})
    return loop


def _deep(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


@pytest.mark.parametrize("make", [
    lambda: Fraction(1, 2),
    lambda: {"scalar": [Fraction(1, 3)]},
    lambda: [1, {2, 3}],
    lambda: {(1, 2): "tuple key"},
    lambda: {"nested": {frozenset(): 0}},
    _cycle,
])
@pytest.mark.parametrize("encode", [dumps, encode_indented])
def test_writer_refuses_what_json_refuses(make, encode):
    with pytest.raises(Exception) as expected:
        json.dumps(make(), indent=2)
    with pytest.raises(type(expected.value)) as got:
        encode(make())
    assert str(got.value) == str(expected.value)


def test_writer_hands_deep_nesting_to_json():
    # past the writer's own recursion limit json.dumps takes over
    doc = _deep(sys.getrecursionlimit() // 2 + 50)
    try:
        expected = json.dumps(doc, indent=2)
    except RecursionError:
        with pytest.raises(RecursionError):
            encode_indented(doc)
    else:
        assert encode_indented(doc) == expected


def test_dumps_uses_the_writer(monkeypatch):
    doc = {"a": [1, "b"], "c": {}}
    assert dumps(doc) == json.dumps(doc, indent=2) + "\n"
    monkeypatch.setattr(jsonio, "encode_indented", lambda doc: "joined")
    assert dumps(doc) == "joined\n"


# --- matrices out: stored entries only ----------------------------------

_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(max_denominator=12).filter(lambda q: abs(q) < 50),
    st.integers(-(2**70), 2**70).map(Fraction),
)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = draw(st.lists(_RATIONALS, min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, data)


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_matrix_to_json_is_the_dense_listing(m):
    dense = [[rat_str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]
    assert matrix_to_json(m) == dense


# --- matrices and documents in: one parse per distinct string -----------

# canonical and non-canonical spellings; "1_0" only where Fraction reads
# it (CPython 3.11+)
_SPELLINGS = [
    s for s in ["0", "1", "-1", "1/2", "2/4", "-0", "+3", " 5 ", "1_0", "0/7", "00",
                "-3/9", "7", "12345678901234567890/3", "-2"]
    if not (s == "1_0" and sys.version_info < (3, 11))
]
_ENTRIES = st.sampled_from(_SPELLINGS)


def _plain(rows):
    """Each row's {column: Fraction} map, every entry but "0" parsed by
    Fraction(str), zeros dropped."""
    return [{j: Fraction(x) for j, x in enumerate(r) if x != "0" and Fraction(x)} for r in rows]


@st.composite
def _listings(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 30)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    return [draw(st.lists(_ENTRIES, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(_listings())
def test_matrix_from_json_matches_plain_parse(rows):
    m = matrix_from_json(rows)
    assert (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else 0)
    assert m.maps == _plain(rows)


@st.composite
def _documents(draw):
    """A representation document whose algebra coefficients and images
    draw from one small pool of spellings, so strings repeat."""
    dim = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    brackets = [
        [i, j, [[k, draw(_ENTRIES)] for k in draw(st.sets(st.integers(0, dim - 1), max_size=3))]]
        for i, j in chosen
    ]
    n = draw(st.integers(1, 12))
    labels = [f"b{i}" for i in range(dim)]
    algebra = {"dim": dim, "labels": labels, "brackets": brackets,
               "levi": [], "radical": list(range(dim)), "nilradical": []}
    images = {label: draw(_listings(n, n)) for label in labels}
    return {"algebra": algebra, "dims": [n], "images": images}


def _plain_structure(brackets):
    table = {}
    for i, j, terms in brackets:
        coeffs = {k: Fraction(c) for k, c in terms if Fraction(c)}
        if coeffs:
            table[(i, j)] = coeffs
    return table


def _counting_rat(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return rat(value)

    monkeypatch.setattr(exact, "rat", counted)
    monkeypatch.setattr(jsonio, "rat", counted)
    return calls


@settings(max_examples=100, deadline=None)
@given(_documents())
def test_representation_from_json_matches_plain_parse(doc):
    rho = representation_from_json(doc)
    assert {k: dict(v) for k, v in rho.algebra.structure.items()} == _plain_structure(
        doc["algebra"]["brackets"]
    )
    for label, image in zip(rho.algebra.basis_labels, rho.images):
        assert image.matrix.maps == _plain(doc["images"][label])


@settings(max_examples=100, deadline=None)
@given(_documents())
def test_each_distinct_entry_string_is_parsed_once(doc):
    # image listings skip the literal "0" unparsed; coefficients list
    # only what the bracket stores, so each is parsed
    strings = {x for rows in doc["images"].values() for r in rows for x in r} - {"0"}
    strings |= {c for _, _, terms in doc["algebra"]["brackets"] for _, c in terms}
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting_rat(monkeypatch)
        representation_from_json(doc)
    assert sorted(calls) == sorted(strings)


def test_repeated_entries_parse_once_per_document(monkeypatch):
    doc = {
        "algebra": {"dim": 2, "labels": ["x", "y"], "brackets": [[0, 1, [[0, "1/2"]]]],
                    "levi": [], "radical": [0, 1], "nilradical": []},
        "dims": [3],
        "images": {"x": [["1/2", "0", "1/2"]] * 3, "y": [["0", "-1", "0"]] * 3},
    }
    calls = _counting_rat(monkeypatch)
    representation_from_json(doc)
    representation_from_json(doc)
    # the memo lives for one document: the second read parses again
    assert sorted(calls) == ["-1", "-1", "1/2", "1/2"]


# what the reader raised for each bad entry before the memo and the C
# iterators, in an image and in a bracket coefficient
_BAD_ENTRIES = [
    (True, TypeError, "not a rational: True"),
    (1.5, TypeError, "not a rational: 1.5"),
    (None, TypeError, "not a rational: None"),
    ([], TypeError, "not a rational: []"),
    ({}, TypeError, "not a rational: {}"),
    ("1e3", ValueError, "exponent notation in '1e3'; write p/q"),
    ("1/0", ValueError, "zero denominator in '1/0'"),
    ("x", ValueError, "Invalid literal for Fraction: 'x'"),
]


@pytest.mark.parametrize("bad, error, message", _BAD_ENTRIES)
def test_bad_matrix_entry_errors_are_unchanged(bad, error, message):
    # "1" first, so a memo holding 1 under a key True hashes to would show
    with pytest.raises(error) as got:
        matrix_from_json([["1", "0"], ["0", bad]])
    assert str(got.value) == message


@pytest.mark.parametrize("bad, error, message", _BAD_ENTRIES)
@pytest.mark.parametrize("where", ["image", "bracket"])
def test_bad_document_entry_errors_are_unchanged(bad, error, message, where):
    doc = {
        "algebra": {"dim": 2, "labels": ["x", "y"], "brackets": [[0, 1, [[0, "1"]]]],
                    "levi": [], "radical": [0, 1], "nilradical": []},
        "dims": [2],
        "images": {"x": [["1", "0"], ["0", "1"]], "y": [["1", "1"], ["0", "1"]]},
    }
    if where == "image":
        doc["images"]["y"][1][0] = bad
    else:
        doc["algebra"]["brackets"][0][2].append([1, bad])
    with pytest.raises(error) as got:
        representation_from_json(doc)
    assert str(got.value) == message
