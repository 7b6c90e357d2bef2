"""Round-trip and determinism checks for the JSON layer."""

import json

import pytest

from trilie.exact import RatMatrix, rat
from trilie.family import ModuleParams, build_family_module
from trilie.graded import GradedMap, GradedSpace
from trilie.jsonio import (
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
