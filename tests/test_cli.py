"""End-to-end tests for the command-line front end.

Each test drives `run()` directly with an argv list; stdin is swapped
via monkeypatch for the `-` input paths so pipes behave like the shell.
"""

import builtins
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import trilie
import trilie.classify as classify
import trilie.cli as cli
import trilie.family as family
import trilie.rep as rep
import trilie.sl2theory as sl2theory
from trilie.cli import run
from trilie.exact import RatMatrix
from trilie.family import ModuleParams, build_family_module
from trilie.graded import GradedMap, GradedSpace
from trilie.jsonio import algebra_to_json, matrix_to_json, representation_from_json
from trilie.liealg import build_sl2
from trilie.rep import Representation, verify_representation
from trilie.sl2theory import build_irreducible


def _run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = _silent_run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _silent_run(argv):
    return run(argv)


def test_gen_sl2l_emits_algebra(capsys):
    code, out, _ = _run(capsys, ["gen", "sl2l", "--lambda", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 6
    assert doc["labels"] == ["f", "h", "e", "z0", "z1", "z2"]
    assert doc["nilradical"] == [3, 4, 5]


def test_gen_then_check_pipe(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["gen", "sl2l", "--lambda", "1"])
    assert code == 0
    code, out, _ = _run(capsys, ["check", "-"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_check_flags_broken_bracket(capsys, monkeypatch, tmp_path):
    _run(capsys, ["gen", "sl2l", "--lambda", "1", "-o", str(tmp_path / "a.json")])
    doc = json.loads((tmp_path / "a.json").read_text())
    # corrupt [e, z1]: 1*z0 -> 2*z0 breaks Jacobi but not antisymmetry
    for entry in doc["brackets"]:
        if entry[0] == 2 and entry[1] == 4:
            entry[2] = [[3, "2"]]
    code, out, _ = _run(
        capsys, ["check", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 1
    report = json.loads(out)
    assert report["axioms"]["jacobi"] is False
    assert report["axioms"]["witnesses"]["jacobi"] is not None


def test_check_rejects_garbage(capsys, monkeypatch):
    code, _, err = _run(capsys, ["check", "-"], stdin="not json", monkeypatch=monkeypatch)
    assert code == 2
    assert "error:" in err


def test_check_rejects_wrong_schema(capsys, monkeypatch):
    code, _, err = _run(
        capsys, ["check", "-"], stdin='{"dim": 2}', monkeypatch=monkeypatch
    )
    assert code == 2
    assert "error:" in err


def test_gen_family_and_verify_pass(capsys, monkeypatch):
    argv = "gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1".split()
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["family_params"]["a"] == ["1"]
    code, out, _ = _run(capsys, ["verify", "-"], stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert report["irreducible_components"] == [True, True]


def test_verify_reports_hom_failure_with_witness(capsys, monkeypatch):
    argv = "gen family --lambda 1 --m 2 --n 1 --s 1 --bigN 1".split()
    code, out, _ = _run(capsys, argv)
    assert code == 0
    code, out, _ = _run(capsys, ["verify", "-"], stdin=out, monkeypatch=monkeypatch)
    assert code == 1
    report = json.loads(out)
    assert report["homomorphism"] is False
    assert report["witnesses"]["homomorphism"] == [0, 4]


def test_gen_family_rejects_bad_params(capsys):
    argv = "gen family --lambda 1 --m 1 --n 0 --s 1 --bigN 0".split()
    code, _, err = _run(capsys, argv)
    assert code == 2
    assert "invalid parameters" in err


def test_gen_family_rejects_bad_scalars(capsys):
    argv = "gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1/0".split()
    code, _, err = _run(capsys, argv)
    assert code == 2


def test_verify_paper_literal_needs_family_params(capsys, monkeypatch):
    code, out, _ = _run(capsys, ["gen", "sl2l", "--lambda", "1"])
    code, _, err = _run(
        capsys, ["verify", "-", "--paper-literal"], stdin=out, monkeypatch=monkeypatch
    )
    assert code == 2
    assert "family_params" in err


def test_verify_paper_literal_rebuilds(capsys, monkeypatch, tmp_path):
    path = tmp_path / "fam.json"
    argv = [
        "gen", "family", "--lambda", "1", "--m", "2", "--n", "1",
        "--s", "0", "--bigN", "0", "--a", "1", "-o", str(path),
    ]
    assert _silent_run(argv) == 0
    capsys.readouterr()
    # m != n: the literal e-coefficient breaks the string relations
    code, out, _ = _run(capsys, ["verify", str(path), "--paper-literal"])
    assert code == 1
    report = json.loads(out)
    assert report["homomorphism"] is False
    assert report["all_pass"] is False


def test_enumerate_lists_tuples_without_header(capsys):
    code, out, _ = _run(capsys, ["enumerate", "--lambda", "1", "--max-m", "2", "--max-n", "2"])
    assert code == 0
    assert out.splitlines() == [
        "1 0 0 0",
        "2 1 0 0",
        "0 1 1 0",
        "2 1 1 1",
        "1 2 1 0",
        "1 2 2 1",
    ]


def test_classify_json_cells_agree(capsys):
    code, out, _ = _run(
        capsys, ["classify", "--lambda", "1", "--max-n", "2", "--max-m", "2"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["cells"]) == 9
    assert all(cell["agree"] for cell in report["cells"])
    by_nm = {(c["n"], c["m"]): c["dim"] for c in report["cells"]}
    assert by_nm[(1, 2)] == 1
    assert by_nm[(1, 1)] == 0


def test_classify_table_layout(capsys):
    code, out, _ = _run(
        capsys, ["classify", "--lambda", "1", "--max-n", "1", "--max-m", "1", "--table"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "m", "dim", "cg", "agree"]
    assert len(lines) == 5
    assert lines[2].split() == ["0", "1", "1", "1", "True"]


def test_decompose_round_trip(capsys, monkeypatch):
    doc = {"dims": [1, 2], "matrix": [["1", "0", "0"], ["2", "1", "0"], ["0", "0", "1"]]}
    code, out, _ = _run(
        capsys, ["decompose", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 0
    report = json.loads(out)
    assert report["triangular"] is True
    assert sorted(report["components"]) == ["0", "1"]
    assert report["components"]["1"][1][0] == "2"


def test_decompose_rejects_raising_map(capsys, monkeypatch):
    doc = {"dims": [1, 1], "matrix": [["0", "3"], ["0", "0"]]}
    code, out, _ = _run(
        capsys, ["decompose", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch
    )
    assert code == 1
    report = json.loads(out)
    assert report["triangular"] is False
    assert report["witness"] == [1, 0]


def test_gen_sl2l_rejects_lambda_zero(capsys):
    code, _, err = _run(capsys, ["gen", "sl2l", "--lambda", "0"])
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        _silent_run([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = _run(
        capsys, ["gen", "sl2l", "--lambda", "3", "-o", str(path)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(path.read_text())["dim"] == 7


@pytest.mark.parametrize("argv", [
    ["gen", "sl2l", "--lambda", "1"],
    ["classify", "--lambda", "1", "--max-n", "2", "--max-m", "2"],
])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv, where):
    # an output that cannot be written is an input error, not a failed check
    path = tmp_path / "absent" / "out.json" if where == "missing directory" else tmp_path
    code, out, err = _run(capsys, [*argv, "-o", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_gen_output_is_deterministic(capsys):
    argv = "gen family --lambda 2 --m 3 --n 1 --s 0 --bigN 0 --a=-1/2".split()
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


@pytest.mark.parametrize(
    "argv,expected_code",
    [
        ("gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1", 0),
        ("gen family --lambda 1 --m 2 --n 1 --s 1 --bigN 1", 1),
    ],
)
def test_library_gate_matches_cli(capsys, monkeypatch, argv, expected_code):
    _, doc, _ = _run(capsys, argv.split())
    code, out, _ = _run(capsys, ["verify", "-"], stdin=doc, monkeypatch=monkeypatch)
    assert code == expected_code
    library = verify_representation(representation_from_json(json.loads(doc)))
    assert library["all_pass"] is json.loads(out)["all_pass"]


def _sl2l_doc(capsys):
    _, out, _ = _run(capsys, ["gen", "sl2l", "--lambda", "1"])
    return json.loads(out)


def _assert_input_error(capsys, monkeypatch, argv, doc):
    code, out, err = _run(capsys, argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_check_rejects_zero_denominator(capsys, monkeypatch):
    doc = _sl2l_doc(capsys)
    doc["brackets"][0][2] = [[0, "1/0"]]
    _assert_input_error(capsys, monkeypatch, ["check", "-"], doc)


def test_check_rejects_out_of_range_levi_index(capsys, monkeypatch):
    doc = _sl2l_doc(capsys)
    doc["levi"] = [0, 1, 9]
    _assert_input_error(capsys, monkeypatch, ["check", "-"], doc)


def test_verify_rejects_missing_algebra_file(capsys, monkeypatch, tmp_path):
    _, out, _ = _run(capsys, "gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1".split())
    doc = json.loads(out)
    doc["algebra"] = str(tmp_path / "missing.json")
    _assert_input_error(capsys, monkeypatch, ["verify", "-"], doc)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_verify_rejects_algebra_path_to_a_device(capsys, monkeypatch):
    # /dev/zero never ends: only a regular file may be read
    real_open = builtins.open

    def guarded(path, *args, **kwargs):
        assert path != "/dev/zero", "opened /dev/zero"
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded)
    _, out, _ = _run(capsys, "gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1".split())
    doc = json.loads(out)
    doc["algebra"] = "/dev/zero"
    t0 = time.monotonic()
    code, out, err = _run(capsys, ["verify", "-"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert time.monotonic() - t0 < 2
    assert (code, out) == (2, "")
    assert err == (
        "error: bad representation document: algebra path '/dev/zero': "
        "not a regular file\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("verb", ["check", "verify", "decompose"])
def test_input_path_to_a_device_is_refused_unread(capsys, monkeypatch, verb):
    # /dev/zero never ends: an input path must name a regular file
    real_open = builtins.open

    def guarded(path, *args, **kwargs):
        assert path != "/dev/zero", "opened /dev/zero"
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", guarded)
    t0 = time.monotonic()
    code, out, err = _run(capsys, [verb, "/dev/zero"])
    assert time.monotonic() - t0 < 2
    assert (code, out) == (2, "")
    assert err == "error: cannot read JSON from /dev/zero: not a regular file\n"


_ONE_CELL = {"family_params": {"lambda": 1, "m": 1, "n": 0, "s": 0, "N": 0, "a": []}}


@pytest.mark.parametrize("argv,stdin", [
    ("gen family --lambda 1 --m 1 --n 0 --s 0 --bigN 0".split(), None),
    (["verify", "--paper-literal", "-"], json.dumps(_ONE_CELL)),
], ids=["gen-family", "verify-paper-literal"])
def test_running_out_of_memory_is_exit_2_and_writes_nothing(
        capsys, monkeypatch, tmp_path, argv, stdin):
    # a valid tuple with m = 10^8 asks for a module of that dimension;
    # the string builder raising stands in for that allocation
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(family, "string_action", exhausted)
    target = tmp_path / "out.json"
    code, out, err = _run(capsys, argv + ["-o", str(target)], stdin=stdin,
                          monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: the input needs more memory than this process has\n"
    assert not target.exists()


@pytest.mark.parametrize("verb", ["check", "verify"])
def test_duplicate_basis_labels_exit_2(capsys, monkeypatch, verb):
    # images are keyed by label, so ["a", "a"] would give both basis
    # elements the one image
    algebra = {"dim": 2, "labels": ["a", "a"], "brackets": [], "levi": [],
               "radical": [], "nilradical": []}
    doc = algebra if verb == "check" else {
        "algebra": algebra, "dims": [1], "images": {"a": [["0"]]}}
    _assert_input_error(capsys, monkeypatch, [verb, "-"], doc)


def test_verify_paper_literal_rejects_broken_constraint(capsys, monkeypatch):
    _, out, _ = _run(capsys, "gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1".split())
    doc = json.loads(out)
    doc["family_params"]["m"] = 3
    _assert_input_error(capsys, monkeypatch, ["verify", "-", "--paper-literal"], doc)


def _sl2_on_v3_doc(edit):
    """verify document of sl2 on its 4-dimensional irreducible, after
    `edit(images, doc)` has changed it."""
    m = build_irreducible(3)
    images = {"f": matrix_to_json(m.f_mat), "h": matrix_to_json(m.h_mat),
              "e": matrix_to_json(m.e_mat)}
    doc = {"algebra": algebra_to_json(*build_sl2()), "dims": [4], "images": images}
    edit(images, doc)
    return doc


def _bounded_irreducibility(monkeypatch):
    """At most 4 ranks, in `rep` and `sl2theory`, and no `recognize_sl2`."""
    calls = []

    def bounded(real):
        def rank(a):
            calls.append(1)
            if len(calls) > 4:
                raise AssertionError("more than dim ranks for a 4x4 component")
            return real(a)
        return rank

    def forbidden(*args):
        raise AssertionError("recognize_sl2 called on a report that is no Levi module")

    monkeypatch.setattr(sl2theory, "rank", bounded(sl2theory.rank))
    monkeypatch.setattr(rep, "rank", bounded(rep.rank))
    monkeypatch.setattr(rep, "recognize_sl2", forbidden)


def test_verify_huge_weight_decided_in_dimension_many_ranks(capsys, monkeypatch):
    # h[0][0] = 2,000,000 breaks [h, e] = 2e: a weight scan would take
    # one rank per integer up to that bound, and no irreducibility
    # answer means anything for a map that is no homomorphism
    def edit(images, doc):
        images["h"][0][0] = "2000000"

    _bounded_irreducibility(monkeypatch)
    code, out, err = _run(capsys, ["verify", "-"], stdin=json.dumps(_sl2_on_v3_doc(edit)),
                          monkeypatch=monkeypatch)
    assert code == 1
    report = json.loads(out)
    assert report["homomorphism"] is False
    assert report["irreducible_components"] is None
    assert "homomorphism" in report["witnesses"]["irreducibility"]
    assert "Traceback" not in err


def test_verify_condition_i_failure_leaves_irreducibility_undecided(capsys, monkeypatch):
    # the grading [2, 2] splits the string, so f and e change degree
    def edit(images, doc):
        doc["dims"] = [2, 2]

    _bounded_irreducibility(monkeypatch)
    code, out, err = _run(capsys, ["verify", "-"], stdin=json.dumps(_sl2_on_v3_doc(edit)),
                          monkeypatch=monkeypatch)
    assert code == 1
    report = json.loads(out)
    assert report["homomorphism"] is True
    assert report["condition_i"] is False
    assert report["irreducible_components"] is None
    assert "condition_i" in report["witnesses"]["irreducibility"]
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "verb,text",
    [
        # a 5000-digit integer literal: json raises a bare ValueError
        ("check", '{"dim": ' + "1" * 5000 + "}"),
        # nesting deeper than the JSON decoder's recursion limit
        ("check", "[" * 100000 + "]" * 100000),
        # JSON's Infinity and 1e400 are floats that int() cannot convert
        ("decompose", '{"dims": [Infinity], "matrix": []}'),
        ("decompose", '{"dims": [1e400], "matrix": []}'),
        ("verify", '{"algebra": {"dim": 1e400, "labels": [], "brackets": []}, '
                   '"dims": [], "images": {}}'),
        # exponent notation would let a short coefficient ask for any size
        ("check", json.dumps({
            "dim": 2, "labels": ["a", "b"], "brackets": [[0, 1, [[0, "1e400"]]]],
            "levi": [], "radical": [0, 1], "nilradical": [1],
        })),
    ],
    ids=["long-int", "deep-nesting", "infinity-dims", "1e400-dims",
         "1e400-algebra-dim", "exponent-coefficient"],
)
def test_malformed_documents_exit_2(capsys, monkeypatch, verb, text):
    code, out, err = _run(capsys, [verb, "-"], stdin=text, monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "error:" in err


# two 1-dim images, 10^4000 and 10^-4000: the faithful witness is
# (-1/10^8000, 1), and CPython writes no int of more than 4300 digits
_LONG_WITNESS_DOC = {
    "algebra": {"dim": 2, "labels": ["a", "b"], "brackets": [], "levi": [],
                "radical": [0, 1], "nilradical": []},
    "dims": [1],
    "images": {"a": [["1" + "0" * 4000]], "b": [["1/1" + "0" * 4000]]},
}


def test_number_too_long_to_write_exits_2(capsys, monkeypatch, tmp_path):
    target = tmp_path / "report.json"
    for argv in (["verify", "-"], ["verify", "-", "-o", str(target)]):
        code, out, err = _run(capsys, argv, stdin=json.dumps(_LONG_WITNESS_DOC),
                              monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("error: witnesses.faithful[0] holds a number of more than")
    assert not target.exists()


_HUGE = 10**5000


def _long_family_image(monkeypatch):
    rho = build_family_module(ModuleParams(1, 2, 1, 0, 0, (1,)))
    images = list(rho.images)
    images[3] = images[3].matrix.scale(_HUGE)
    long = Representation(rho.algebra, rho.levi, rho.space, tuple(images))
    monkeypatch.setattr(cli, "build_family_module", lambda p, paper_literal: long)
    return "gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1".split(), "images.z0["


def _long_component(monkeypatch):
    big = GradedMap(GradedSpace((2,)), RatMatrix.from_rows([[0, _HUGE], [0, 0]]))
    monkeypatch.setattr(cli, "degree_components", lambda g: {0: big})
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"dims": [2], "matrix": [["0", "1"], ["0", "0"]]})))
    return ["decompose", "-"], "components.0[0][1]"


def _long_scalar(monkeypatch):
    # a 5001-digit scalar on the last cell (1, 2) only: every cell before
    # it is rendered, and still nothing is written
    real = classify._closed_verdict

    def long_on_last_cell(m, n, s, big_n, a):
        if (n, m) == (1, 2):
            return True, Fraction(_HUGE)
        return real(m, n, s, big_n, a)

    monkeypatch.setattr(classify, "_closed_verdict", long_on_last_cell)
    return "classify --lambda 1 --max-n 1 --max-m 2".split(), "cells.family_matches.scalar"


@pytest.mark.parametrize("setup", [_long_family_image, _long_component, _long_scalar],
                         ids=["gen-family", "decompose", "classify"])
def test_every_verb_refuses_a_number_too_long_to_write(capsys, monkeypatch, tmp_path, setup):
    argv, field = setup(monkeypatch)
    target = tmp_path / "out.json"
    code, out, err = _run(capsys, argv + ["-o", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}")
    assert not target.exists()


def test_classify_builds_its_whole_text_before_writing(capsys, monkeypatch):
    argv, field = _long_scalar(monkeypatch)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} holds a number of more than")


def test_zero_algebra_on_large_space_returns_at_once(capsys, monkeypatch):
    # no images means no live column: kernel returns with no elimination
    # and no sweep of the 10^12 positions of a 10^6-dimensional space
    swept = []

    def record(a):
        swept.append((a.rows, a.cols))
        return []

    monkeypatch.setattr(rep, "nullspace_basis", record)
    doc = {
        "algebra": _ZERO_DIM_ALGEBRA,
        "dims": [1_000_000],
        "images": {},
    }
    code, out, _ = _run(capsys, ["verify", "-"], stdin=json.dumps(doc),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["faithful"] is True
    assert swept == []


def test_verify_nilradical_on_space_without_components(capsys, monkeypatch):
    # "dims": [] has no degree-0 stripe to inspect; condition (ii) holds
    doc = {
        "algebra": {"dim": 2, "labels": ["b0", "b1"], "brackets": [],
                    "levi": [], "radical": [], "nilradical": [0]},
        "dims": [],
        "images": {"b0": [], "b1": []},
    }
    code, out, _ = _run(capsys, ["verify", "-"], stdin=json.dumps(doc),
                        monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["condition_ii"] is True
    assert report["irreducible_components"] is None


def _family_doc(capsys):
    _, out, _ = _run(capsys, "gen family --lambda 1 --m 2 --n 1 --s 0 --bigN 0 --a 1".split())
    return json.loads(out)


def _replace_zeros(rows, value):
    return [[value if x == "0" else x for x in row] for row in rows]


@pytest.mark.parametrize("value", [0.0, 1.5])
def test_verify_rejects_float_image_entry(capsys, monkeypatch, value):
    doc = _family_doc(capsys)
    doc["images"]["z0"][0][0] = value
    code, out, err = _run(capsys, ["verify", "-"], stdin=json.dumps(doc),
                          monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert f"not a rational: {value}" in err


@pytest.mark.parametrize("value", [0.0, 1.5])
def test_decompose_rejects_float_entry(capsys, monkeypatch, value):
    doc = {"dims": [1, 2], "matrix": [["1", "0", "0"], ["2", "1", value], ["0", "0", "1"]]}
    code, out, err = _run(capsys, ["decompose", "-"], stdin=json.dumps(doc),
                          monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert f"not a rational: {value}" in err


def test_verify_accepts_integer_and_string_zeros(capsys, monkeypatch):
    doc = _family_doc(capsys)
    code, expected, _ = _run(capsys, ["verify", "-"], stdin=json.dumps(doc),
                             monkeypatch=monkeypatch)
    assert code == 0
    doc["images"] = {k: _replace_zeros(m, 0) for k, m in doc["images"].items()}
    code, out, _ = _run(capsys, ["verify", "-"], stdin=json.dumps(doc),
                        monkeypatch=monkeypatch)
    assert code == 0
    assert out == expected


def test_decompose_accepts_integer_and_string_zeros(capsys, monkeypatch):
    rows = [["1", "0", "0"], ["2", "1", "0"], ["0", "0", "1"]]
    outputs = []
    for matrix in (rows, _replace_zeros(rows, 0), _replace_zeros(rows, "0/7")):
        code, out, _ = _run(capsys, ["decompose", "-"],
                            stdin=json.dumps({"dims": [1, 2], "matrix": matrix}),
                            monkeypatch=monkeypatch)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]



# each document is valid but for one JSON float or boolean in an integer
# field; int() would truncate it to the value the field held
@pytest.mark.parametrize(
    "argv,make,path,value",
    [
        (["check", "-"], _sl2l_doc, ("dim",), 5.0),
        (["check", "-"], _sl2l_doc, ("brackets", 0, 0), False),
        (["check", "-"], _sl2l_doc, ("radical", 0), 3.5),
        (["verify", "-"], _family_doc, ("dims", 0), 2.9),
        (["verify", "-"], _family_doc, ("algebra", "nilradical", 0), 3.0),
        (["verify", "-", "--paper-literal"], _family_doc, ("family_params", "n"), 1.0),
        (["verify", "-", "--paper-literal"], _family_doc, ("family_params", "s"), False),
        (["decompose", "-"], lambda capsys: {"dims": [1], "matrix": [["0"]]},
         ("dims", 0), 1.5),
        (["decompose", "-"], lambda capsys: {"dims": [1], "matrix": [["0"]]},
         ("dims", 0), True),
    ],
    ids=["check-dim", "check-bracket-index", "check-radical", "verify-dims",
         "verify-nilradical", "paper-literal-n", "paper-literal-s",
         "decompose-dims", "decompose-bool-dims"],
)
def test_integer_fields_reject_floats_and_booleans(capsys, monkeypatch, argv, make,
                                                   path, value):
    doc = make(capsys)
    *parents, last = path
    field = doc
    for key in parents:
        field = field[key]
    assert field[last] == int(value)
    field[last] = value
    code, out, err = _run(capsys, argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "error: " in err and f"expected an integer, got {value}" in err


_ONE_DIM_ALGEBRA = {"dim": 1, "labels": ["x"], "brackets": [], "levi": [],
                    "radical": [0], "nilradical": [0]}
_ZERO_DIM_ALGEBRA = {"dim": 0, "labels": [], "brackets": [], "levi": [],
                     "radical": [], "nilradical": []}
_SL2_BRACKETS = [[0, 1, [[0, "2"]]], [0, 2, [[1, "-1"]]], [1, 2, [[2, "2"]]]]


def _sl2_algebra(**changes):
    return {"dim": 3, "labels": ["f", "h", "e"], "brackets": _SL2_BRACKETS,
            "levi": [0, 1, 2], "radical": [], "nilradical": [], **changes}


_ZEROS_2X2 = [["0", "0"], ["0", "0"]]


# each document was read without complaint: string rows character by
# character, a string matrix as its characters, JSON true as 1, a
# bracket pair or target listed twice as its last value, a string list
# field as its characters, and a string integer field through int(); the
# error quotes a long value in bounded length
@pytest.mark.parametrize(
    "verb,doc,message",
    [
        ("decompose", {"dims": [2], "matrix": ["00", "10"]}, "list of rows"),
        ("decompose", {"dims": [1], "matrix": "0"}, "list of rows"),
        ("verify", {"algebra": _ONE_DIM_ALGEBRA, "dims": [2], "images": {"x": ["00", "10"]}},
         "list of rows"),
        ("decompose", {"dims": [1], "matrix": [[True]]}, "not a rational: True"),
        ("verify", {"algebra": _ONE_DIM_ALGEBRA, "dims": [1], "images": {"x": [[True]]}},
         "not a rational: True"),
        ("check", {"dim": 2, "labels": ["a", "b"], "brackets": [[0, 1, [[0, True]]]],
                   "levi": [], "radical": [0, 1], "nilradical": [1]},
         "not a rational: True"),
        ("check", {"dim": 2, "labels": ["a", "b"],
                   "brackets": [[0, 1, [[1, "1"]]], [0, 1, [[1, "5"]]]],
                   "levi": [], "radical": [0, 1], "nilradical": [1]},
         "bracket pair (0, 1) listed twice"),
        ("verify", {"algebra": {"dim": 2, "labels": ["a", "b"],
                                "brackets": [[0, 1, [[1, "1"], [1, "2"]]]],
                                "levi": [], "radical": [0, 1], "nilradical": [1]},
                    "dims": [1], "images": {"a": [["0"]], "b": [["0"]]}},
         "bracket pair (0, 1) lists target 1 twice"),
        ("verify", {"algebra": _ONE_DIM_ALGEBRA, "dims": "11", "images": {"x": _ZEROS_2X2}},
         "dims must be a JSON array, got '11'"),
        ("decompose", {"dims": "11", "matrix": _ZEROS_2X2},
         "dims must be a JSON array, got '11'"),
        ("decompose", {"dims": {"1": 0, "2": 0}, "matrix": [["0"] * 3] * 3},
         "dims must be a JSON array, got {'1': 0, '2': 0}"),
        ("check", _sl2_algebra(levi="012"), "levi must be a JSON array, got '012'"),
        ("check", _sl2_algebra(levi=[], radical="012", nilradical="0"),
         "radical must be a JSON array, got '012'"),
        ("check", _sl2_algebra(levi=[], radical=[0, 1, 2], nilradical="0"),
         "nilradical must be a JSON array, got '0'"),
        ("check", _sl2_algebra(labels="fhe"), "labels must be a JSON array, got 'fhe'"),
        ("verify --paper-literal",
         {"family_params": {"lambda": 1, "m": 3, "n": 2, "s": 0, "N": 0, "a": "12"}},
         "a must be a JSON array, got '12'"),
        ("check", _sl2_algebra(dim="3"), "expected an integer, got '3'"),
        ("check", _sl2_algebra(brackets=[[0, "0_1", [[0, "2"]]], *_SL2_BRACKETS[1:]]),
         "expected an integer, got '0_1'"),
        ("check", _sl2_algebra(brackets=[[0, 1, [[0.0, "2"]]], *_SL2_BRACKETS[1:]]),
         "expected an integer, got 0.0"),
        ("check", _sl2_algebra(brackets=[[0, 1, [[True, "2"]]], *_SL2_BRACKETS[1:]]),
         "expected an integer, got True"),
        ("verify", {"algebra": _ZERO_DIM_ALGEBRA, "dims": ["1_0"], "images": {}},
         "expected an integer, got '1_0'"),
        ("check", _sl2_algebra(levi=[], radical=[0, 1, 2], nilradical=[0, 1, 2],
                               brackets={}),
         "brackets must be a JSON array, got {}"),
        ("check", _sl2_algebra(brackets=[[0, 1, ""], *_SL2_BRACKETS[1:]]),
         "the terms of bracket pair (0, 1) must be a JSON array, got ''"),
        ("decompose", {"dims": "1" * 10**6, "matrix": []},
         "dims must be a JSON array, got '111111111111...1111111111111'"),
    ],
    ids=["string-rows", "string-matrix", "verify-string-rows", "true-entry",
         "verify-true-entry", "true-coefficient", "repeated-pair", "verify-repeated-target",
         "verify-string-dims", "decompose-string-dims", "decompose-object-dims",
         "string-levi", "string-radical", "string-nilradical", "string-labels",
         "paper-literal-string-a", "string-dim", "underscore-bracket-index",
         "float-bracket-target", "true-bracket-target",
         "verify-underscore-dims", "object-brackets", "string-bracket-terms",
         "long-string-dims"],
)
def test_documents_read_silently_before_exit_2(capsys, monkeypatch, verb, doc, message):
    # verb may carry flags: "verify --paper-literal"
    code, out, err = _run(capsys, [*verb.split(), "-"], stdin=json.dumps(doc),
                          monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert "error: " in err and message in err
    assert "Traceback" not in err


def _limit_memory():
    # a runaway allocation fails here instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "verb,doc",
    [
        ("decompose", {"dims": [10**30], "matrix": []}),
        ("verify", {"algebra": _ONE_DIM_ALGEBRA, "dims": [10**30], "images": {"x": []}}),
        ("verify", {"algebra": _ONE_DIM_ALGEBRA, "dims": [10**30, -(10**30)],
                    "images": {"x": []}}),
    ],
    ids=["decompose", "verify", "verify-negative"],
)
def test_huge_declared_dims_exit_2_without_allocating(verb, doc):
    # each matrix is checked against the sum(dims) x sum(dims) shape
    # before it is read; run in a child process under a memory limit
    # and a timeout, since a regression allocates without end
    proc = _run_limited(verb, doc)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error: " in proc.stderr and "Traceback" not in proc.stderr


def test_huge_declared_dims_without_images_verify_in_bounded_memory():
    # a dim-0 algebra has no image to bound the dims by, so the graded
    # space itself must cost its number of components, not its dimension
    proc = _run_limited("verify", {"algebra": _ZERO_DIM_ALGEBRA, "dims": [10**30],
                                   "images": {}})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True
    assert "Traceback" not in proc.stderr


def test_verify_levi_span_not_closed_is_a_witness():
    # [a, b] = d leaves the declared Levi span {a, b, c}: sl2 recognition
    # refuses it before it builds the restricted ad matrices, which need
    # a closed span
    algebra = {"dim": 4, "labels": ["a", "b", "c", "d"], "brackets": [[0, 1, [[3, "1"]]]],
               "levi": [0, 1, 2], "radical": [3], "nilradical": [3]}
    proc = _run_limited("verify", {"algebra": algebra, "dims": [1],
                                   "images": {label: [["0"]] for label in "abcd"}})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["witnesses"]["irreducibility"] == "Levi span not closed"
    assert report["irreducible_components"] is None
    assert "Traceback" not in proc.stderr


def test_classify_time_does_not_grow_with_lambda():
    # no cell's work depends on Λ: the solver and the family tuples read
    # the one weight diagonal, and the tensor weights are counted in
    # closed form instead of pair by pair
    proc = _run_limited("classify", argv=["--lambda", str(10**9), "--max-n", "2",
                                          "--max-m", "2"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    cells = json.loads(proc.stdout)["cells"]
    assert len(cells) == 9
    assert all((c["dim"], c["cg"], c["agree"]) == (0, 0, True) for c in cells)


def _run_limited(verb, doc=None, argv=("-",)):
    # `trilie verb argv` with doc as JSON on stdin, under the 1 GiB limit
    src = os.path.dirname(os.path.dirname(trilie.__file__))
    return subprocess.run(
        [sys.executable, "-m", "trilie", verb, *argv],
        input="" if doc is None else json.dumps(doc), capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_memory,
    )
