"""Fuzz the document-reading verbs `check`, `verify` and `decompose`.

Documents have dimension at most 4 and are built well-typed first (from
the real builders or at random), then some are corrupted: a field is
dropped or replaced by a value of the wrong type, or a scalar becomes a
huge integer. Whatever the input, the exit code is 0, 1 or 2, nothing
escapes `run()` (the CLI would print a traceback), and each call
answers within 2 s.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trilie.cli import run
from trilie.exact import rat_str
from trilie.jsonio import algebra_to_json, matrix_to_json
from trilie.liealg import build_sl2, build_sl2_lambda
from trilie.sl2theory import build_irreducible

HUGE = [10**30, -(10**40), str(10**60), f"{10**25}/7", f"1/{10**45}"]
WRONG = [None, 1.5, True, "x", "1/0", "1e400", "", [], {}, [[]], -1, 10**30]

small_scalars = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(rat_str),
    st.integers(-3, 3),
)
scalars = st.one_of(small_scalars, small_scalars, small_scalars,
                    st.sampled_from(HUGE))


def matrices(n):
    return st.lists(st.lists(scalars, min_size=n, max_size=n),
                    min_size=n, max_size=n)


@st.composite
def algebras(draw):
    """An algebra document of dimension <= 4: sl2, sl2 on its 2-dim
    module, or random structure constants and index lists."""
    kind = draw(st.sampled_from(["sl2", "sl2l", "random"]))
    if kind != "random":
        return algebra_to_json(*(build_sl2() if kind == "sl2" else build_sl2_lambda(1)))
    dim = draw(st.integers(0, 4))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = []
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
            targets = sorted(draw(st.sets(st.integers(0, dim - 1))))
            brackets.append([i, j, [[k, draw(scalars)] for k in targets]])
    indices = st.lists(st.integers(0, dim - 1), unique=True) if dim else st.just([])
    return {
        "dim": dim,
        "labels": [f"b{i}" for i in range(dim)],
        "brackets": brackets,
        "levi": draw(indices),
        "radical": draw(indices),
        "nilradical": draw(indices),
    }


component_dims = st.lists(st.integers(0, 4), max_size=3).filter(lambda d: sum(d) <= 4)


@st.composite
def representations(draw, paths):
    """A representation document: sl2 on an irreducible of dim <= 4
    (some entries redrawn), or random images on a random graded space;
    the algebra may be inline or a path (present, missing or garbage)."""
    if draw(st.booleans()):
        m = build_irreducible(draw(st.integers(0, 3)))
        algebra = algebra_to_json(*build_sl2())
        dims = [m.dim]
        images = {"f": matrix_to_json(m.f_mat), "h": matrix_to_json(m.h_mat),
                  "e": matrix_to_json(m.e_mat)}
        for _ in range(draw(st.integers(0, 2))):
            label = draw(st.sampled_from("fhe"))
            i, j = draw(st.integers(0, m.dim - 1)), draw(st.integers(0, m.dim - 1))
            images[label][i][j] = draw(scalars)
    else:
        algebra = draw(algebras())
        dims = draw(component_dims)
        n = sum(dims)
        images = {label: draw(matrices(n)) for label in algebra["labels"]}
    if draw(st.integers(0, 4)) == 0:
        algebra = draw(st.sampled_from(paths))
    return {"algebra": algebra, "dims": dims, "images": images}


@st.composite
def graded_maps(draw):
    dims = draw(component_dims)
    return {"dims": dims, "matrix": draw(matrices(sum(dims)))}


@st.composite
def corrupted(draw, documents):
    """A document, sometimes with one field dropped or retyped, or one
    nested list element replaced."""
    doc = draw(documents)
    action = draw(st.sampled_from(["keep", "keep", "drop", "retype", "nested"]))
    if action == "keep":
        return doc
    key = draw(st.sampled_from(sorted(doc)))
    if action == "drop":
        del doc[key]
    elif action == "retype":
        doc[key] = draw(st.sampled_from(WRONG))
    elif isinstance(doc[key], list) and doc[key]:
        doc[key][draw(st.integers(0, len(doc[key]) - 1))] = draw(st.sampled_from(WRONG))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "algebra.json").write_text(json.dumps(algebra_to_json(*build_sl2())))
    (d / "garbage.json").write_text("{not json")
    return d


def _paths(workdir):
    return [str(workdir / name) for name in ("algebra.json", "garbage.json", "missing.json")]


def _check_call(workdir, verb, doc):
    src = workdir / "input.json"
    src.write_text(json.dumps(doc))
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run([verb, str(src), "-o", str(workdir / "report.json")])
    elapsed = time.perf_counter() - start
    assert code in (0, 1, 2), code
    assert "Traceback" not in err.getvalue()
    assert elapsed < 2.0, f"{verb} took {elapsed:.2f} s"


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.function_scoped_fixture])


@FUZZ
@given(data=st.data())
def test_check_fuzz(workdir, data):
    _check_call(workdir, "check", data.draw(corrupted(algebras())))


@FUZZ
@given(data=st.data())
def test_verify_fuzz(workdir, data):
    doc = data.draw(corrupted(representations(_paths(workdir))))
    _check_call(workdir, "verify", doc)


@FUZZ
@given(data=st.data())
def test_decompose_fuzz(workdir, data):
    _check_call(workdir, "decompose", data.draw(corrupted(graded_maps())))
