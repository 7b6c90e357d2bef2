"""Round-trip and determinism checks for the JSON layer."""

import enum
import json
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
    NumberTooLong,
    algebra_from_json,
    algebra_to_json,
    dumps,
    graded_map_from_json,
    jsonable,
    matrix_from_json,
    matrix_to_json,
    representation_from_json,
    representation_to_json,
)
from trilie.liealg import adjoint_grading, adjoint_representation, build_sl2_lambda

from helpers import assert_clean, brute_jsonable, brute_unprintable, graded_map_to_json


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
    doc = jsonable(representation_to_json(adjoint_1))
    rho = representation_from_json(doc)
    assert rho.algebra.structure == adjoint_1.algebra.structure
    assert rho.space.component_dims == adjoint_1.space.component_dims
    assert all(a.matrix == b.matrix for a, b in zip(rho.images, adjoint_1.images))


def test_representation_extra_fields_survive(adjoint_1):
    doc = jsonable(representation_to_json(adjoint_1, extra={"family_params": {"m": 1}}))
    assert doc["family_params"] == {"m": 1}
    # extras don't confuse the loader
    representation_from_json(doc)


def test_representation_label_mismatch_rejected(adjoint_1):
    doc = jsonable(representation_to_json(adjoint_1))
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


# --- a number too long to write: the walk names its field --------------

_LONG = 10**4999  # times 1..9: 5000 digits, past CPython's 4300


def _too_long(value):
    with pytest.raises(NumberTooLong) as caught:
        dumps(value)
    with pytest.raises(NumberTooLong) as again:
        jsonable(value)
    assert again.value.field == caught.value.field
    return caught.value.field


def test_too_long_number_is_named_by_its_path():
    big = Fraction(_LONG)
    assert _too_long(big) == ""
    assert _too_long([0, [big]]) == "[1][0]"
    assert _too_long([0, {"key": big}]) == "[1].key"
    assert _too_long({"witnesses": {"faithful": (Fraction(1, _LONG), 1)}}) == (
        "witnesses.faithful[0]")
    matrix = RatMatrix.from_rows([[0, 0, 0], [0, 0, big]])
    assert _too_long({"components": {0: matrix}}) == "components.0[1][2]"
    with pytest.raises(NumberTooLong) as caught:
        matrix_to_json(matrix)
    assert caught.value.field == "[1][2]"


_SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def _small_matrices(draw):
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    data = draw(st.lists(st.sampled_from([0, 0, 1, Fraction(-2, 3)]),
                         min_size=rows * cols, max_size=rows * cols))
    return RatMatrix(rows, cols, data)


# text with non-ASCII and surrogate-free code points, control characters,
# quotes and backslashes
_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀')),
    max_size=8,
)
_KEYS = st.one_of(st.text(max_size=2), _TEXT, st.integers(0, 3))

# the values a report holds; a dict's keys are distinct as text, as in
# every report (json.dumps writes {1: x, "1": y} with the key twice)
_REPORTS = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.text(max_size=2), _TEXT,
              _SMALL, _small_matrices()),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.lists(st.tuples(_KEYS, kids), max_size=3, unique_by=lambda kv: str(kv[0])).map(dict),
    ),
    max_leaves=12,
)


def _plant(value, slot, big):
    """value with its Fraction number slot[0] (counting a matrix's stored
    entries, in walk order) replaced by big. Each Fraction visited lowers
    slot[0] by one, so from 0 it ends at minus their count."""
    if isinstance(value, Fraction):
        slot[0] -= 1
        return big if slot[0] == -1 else value
    if isinstance(value, dict):
        return {k: _plant(v, slot, big) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plant(v, slot, big) for v in value)
    if isinstance(value, RatMatrix):
        data = [_plant(value[r, c], slot, big) if value[r, c] else 0
                for r in range(value.rows) for c in range(value.cols)]
        return RatMatrix(value.rows, value.cols, data)
    return value


@settings(max_examples=300, deadline=None)
@given(_REPORTS, st.data())
def test_jsonable_names_the_field_the_oracle_finds(value, data):
    """At most one numerator or denominator of 5000 digits, planted in a
    Fraction leaf or a stored matrix entry: dumps, and jsonable through
    it, name the field the plain walk finds, and return normally where
    that finds none."""
    visited = [0]
    _plant(value, visited, Fraction(0))
    slot = data.draw(st.integers(0, -visited[0]))  # the last value plants nothing
    long = data.draw(st.integers(1, 9)) * _LONG
    small = data.draw(st.integers(1, 9))
    big = data.draw(st.sampled_from([Fraction(long, small), Fraction(-small, long)]))
    value = _plant(value, [slot], big)
    expected = brute_unprintable(value)
    if expected is None:
        assert dumps(value) == json.dumps(brute_jsonable(value), indent=2) + "\n"
    else:
        assert _too_long(value) == expected


# --- the writer: one walk, byte for byte json.dumps of the plain form ----


@settings(max_examples=300, deadline=None)
@given(_REPORTS)
def test_writer_matches_json_dumps(value):
    # brute_jsonable is the old first walk; json.dumps the old second
    assert dumps(value) == json.dumps(brute_jsonable(value), indent=2) + "\n"
    assert jsonable(value) == brute_jsonable(value)


class _Level(enum.IntEnum):
    LOW = 1


class _Str(str):
    pass


class _Float(float):
    def __repr__(self):
        return "not used by json"


_Pair = namedtuple("_Pair", "x y")


@pytest.mark.parametrize("doc", [
    # (a document json.dumps writes but the walk refuses, the same
    # document in the exact types the verbs emit), or a plain value
    ({"level": _Level.LOW, _Level.LOW: [_Level.LOW]}, {"level": 1, 1: [1]}),
    ([_Str("a\"b"), {_Str("k"): _Str("\u00e9")}], ["a\"b", {"k": "\u00e9"}]),
    ([_Float(1.5), {"x": _Float(-0.0)}], [Fraction(3, 2), {"x": Fraction(0)}]),
    (OrderedDict([("b", 1), ("a", OrderedDict())]), {"b": 1, "a": {}}),
    (_Pair(1, [_Pair((), {})]), (1, [((), {})])),
    ([[[[]]], {}, [{}], ((), 0.5)], [[[[]]], {}, [{}], ((),)]),
    ({True: 1, None: 2, 3.0: 4, 10**30: 5, "": ""}, {1: 1, 0: 2, 3: 4, 10**30: 5, "": ""}),
    "top-level string",
    7,
    None,
])
def test_writer_encodes_subclasses_and_keys_as_json(doc):
    # a subclass of a JSON type, a float or a key that is neither str nor
    # int is refused; int and str keys are written as json.dumps writes
    # the plain form
    refused, plain = doc if type(doc) is tuple else (None, doc)
    assert dumps(plain) == json.dumps(brute_jsonable(plain), indent=2) + "\n"
    if refused is not None:
        with pytest.raises(TypeError):
            dumps(refused)


def _cycle():
    loop = [1]
    loop.append({"again": loop})
    return loop


@pytest.mark.parametrize("make", [
    lambda: b"bytes",
    lambda: {"scalar": [object()]},
    lambda: [1, {2, 3}],
    lambda: {(1, 2): "tuple key"},
    lambda: {"nested": {frozenset(): 0}},
    _cycle,
])
@pytest.mark.parametrize("encode", [dumps, jsonable])
def test_writer_refuses_what_json_refuses(make, encode):
    # there is no fallback: a cycle runs out of recursion, anything else
    # json.dumps refuses is a TypeError
    with pytest.raises((TypeError, ValueError)):
        json.dumps(make(), indent=2)
    with pytest.raises(RecursionError if make is _cycle else TypeError):
        encode(make())


def test_dumps_uses_the_writer(monkeypatch):
    # dumps is the one walk and a newline, with json.dumps barred; jsonable
    # reads back what dumps writes
    def barred(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", barred)
    doc = {"a": [1, "b"], "c": {}, "q": (Fraction(1, 3),)}
    assert dumps(doc) == '{\n  "a": [\n    1,\n    "b"\n  ],\n  "c": {},\n  "q": [\n    "1/3"\n  ]\n}\n'
    monkeypatch.setattr(jsonio, "dumps", lambda value: '{"joined": 1}')
    assert jsonable(doc) == {"joined": 1}


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
# it (CPython 3.11+). rat reads an optional "-" and ASCII digits by int();
# the spellings after "-2" sit next to that form: a sign alone or doubled,
# "+", non-ASCII digits (int() reads "\u0663" but not "\u00b2"), hex,
# exponent notation, and 5000 digits, past CPython's bound. rat raises
# for those in _REFUSED
_BIG = "9" * 5000
_SPELLINGS = [
    s for s in ["0", "1", "-1", "1/2", "2/4", "-0", "+3", " 5 ", "1_0", "0/7", "00",
                "-3/9", "7", "12345678901234567890/3", "-2", "-", "--1", "-00", "+0",
                "\u0663", "\u00b2", "0x10", "1e3", _BIG, "-" + _BIG]
    if not (s == "1_0" and sys.version_info < (3, 11))
]
_REFUSED = {"-", "--1", "\u00b2", "0x10", "1e3", _BIG, "-" + _BIG}
_ENTRIES = st.sampled_from([s for s in _SPELLINGS if s not in _REFUSED])


@pytest.mark.parametrize(
    "s", _SPELLINGS, ids=lambda s: repr(s) if len(s) <= 40 else f"{s[:3]}...{len(s)}chars"
)
def test_rat_reads_each_spelling_as_fraction_does(s):
    # Fraction(str) is the oracle: the same value, or the same exception
    # type and text; exponent notation alone is refused by rat itself
    if s == "1e3":
        with pytest.raises(ValueError, match="exponent notation"):
            rat(s)
        return
    try:
        want = Fraction(s)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            rat(s)
        assert str(got.value) == str(exc)
        assert s in _REFUSED
    else:
        assert rat(s) == want and type(rat(s)) is Fraction
        assert s not in _REFUSED


def _plain(rows):
    """Each row's {column: Fraction} map, every entry but "0" parsed by
    Fraction(str), zeros dropped."""
    return {i: row for i, r in enumerate(rows)
            if (row := {j: Fraction(x) for j, x in enumerate(r) if x != "0" and Fraction(x)})}


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
    assert_clean(m)


class _Unwalkable(list):
    """A row that fails if it is iterated entry by entry."""

    def __iter__(self):
        raise AssertionError("an all-zero row was iterated")


def test_all_zero_rows_are_never_iterated():
    # 50 rows of 1000 entries with one stored entry: only that row is
    # scanned, and only its stored entry is parsed
    rows = [_Unwalkable(["0"] * 1000) for _ in range(50)]
    rows[7] = ["0"] * 999 + ["3/4"]
    parsed = []

    def parse(x):
        parsed.append(x)
        return rat(x)

    m = RatMatrix.from_rows(rows, parse)
    assert m.maps == {7: {999: Fraction(3, 4)}}
    assert parsed == ["3/4"]
    assert matrix_from_json(rows, (50, 1000)).maps == m.maps


@st.composite
def _sparse_listings(draw):
    """Mostly all-"0" rows, with a few entries of any spelling anywhere."""
    rows, cols = draw(st.integers(0, 60)), draw(st.integers(0, 40))
    listing = [["0"] * cols for _ in range(rows)]
    if rows and cols:
        for _ in range(draw(st.integers(0, 5))):
            listing[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(_ENTRIES)
    return listing


@settings(max_examples=150, deadline=None)
@given(_sparse_listings())
def test_sparse_listing_matches_plain_parse(rows):
    m = RatMatrix.from_rows(rows)
    assert (m.rows, m.cols) == (len(rows), len(rows[0]) if rows else 0)
    assert m.maps == _plain(rows)
    assert_clean(m)


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
        assert_clean(image.matrix)


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
    ("-", ValueError, "Invalid literal for Fraction: '-'"),
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
