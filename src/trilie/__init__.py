"""Exact toolkit for graded Lie algebra representations.

Builds Lie algebras from structure constants, grades them along a
nilradical filtration, checks block-triangular representation
conditions, and classifies the modules arising from equivariant
extension systems — all over exact rational arithmetic.
"""

from .classify import (
    ExtensionProblem,
    assemble_representation,
    classification_report,
    solve_extensions,
)
from .exact import RatMatrix, rat, rat_str
from .family import (
    ModuleParams,
    build_family_module,
    enumerate_params,
    verify_family,
)
from .graded import GradedMap, GradedSpace, degree_components, is_triangular
from .liealg import (
    LeviData,
    LieAlgebra,
    adjoint_grading,
    adjoint_representation,
    build_sl2,
    build_sl2_lambda,
    check_axioms,
    verify_levi_data,
)
from .rep import Representation, conjugate_levi_check, verify_representation
from .sl2theory import build_irreducible, tensor_multiplicity

__all__ = [
    "ExtensionProblem",
    "GradedMap",
    "GradedSpace",
    "LeviData",
    "LieAlgebra",
    "ModuleParams",
    "RatMatrix",
    "Representation",
    "adjoint_grading",
    "adjoint_representation",
    "assemble_representation",
    "build_family_module",
    "build_irreducible",
    "build_sl2",
    "build_sl2_lambda",
    "check_axioms",
    "classification_report",
    "conjugate_levi_check",
    "degree_components",
    "enumerate_params",
    "is_triangular",
    "rat",
    "rat_str",
    "solve_extensions",
    "tensor_multiplicity",
    "verify_family",
    "verify_levi_data",
    "verify_representation",
]
