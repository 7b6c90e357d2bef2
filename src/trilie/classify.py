"""Desk-scale classification of 2-irreducible triangular modules.

Fix the two irreducible component weights (n for degree 0, m for
degree 1). The only unknown in a triangular module over sl2^Λ is then
the block Z_0: V_0 → V_1 through which z_0 acts, and the bracket table
makes the constraints on it linear:

    [h, z_0] = Λ z_0   →  H_m Z_0 - Z_0 H_n = Λ Z_0
    [e, z_0] = 0       →  E_m Z_0 - Z_0 E_n = 0

Every remaining generator is forced: Z_{j+1} = F_m Z_j - Z_j F_n, and
Z_{Λ+1} = 0 comes out of the computation rather than being imposed.
Solving one exact nullspace per (n, m) cell therefore classifies all
candidate modules independently of the family formulas; the two are
compared by testing the family's z_0 block for membership in the
solution span. Tensor-product multiplicities provide a second,
character-theoretic prediction of each cell's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    ONE,
    RatMatrix,
    columns_matrix,
    nullspace_basis,
    rat_str,
    solve,
    sylvester_system,
)
from .family import (
    ModuleParams,
    build_family_module,
    enumerate_params,
    two_block_representation,
)
from .rep import Representation, verify_homomorphism, verify_triangular_conditions
from .sl2theory import build_irreducible, tensor_multiplicity


@dataclass(frozen=True)
class ExtensionProblem:
    lam: int
    n: int
    m: int

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lam must be >= 1, got {self.lam}")
        if self.n < 0 or self.m < 0:
            raise ValueError("component weights must be nonnegative")


@dataclass(frozen=True)
class SolutionSpace:
    problem: ExtensionProblem
    basis: tuple[RatMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, block: RatMatrix) -> tuple[bool, Fraction | None]:
        """Membership of an (m+1) x (n+1) block in the span; also the
        proportionality scalar when the span is a line (0 for the zero
        block)."""
        p = self.problem
        if block.rows != p.m + 1 or block.cols != p.n + 1:
            raise ValueError(
                f"block is {block.rows}x{block.cols}, expected "
                f"{p.m + 1}x{p.n + 1}"
            )
        if block.is_zero():
            return True, Fraction(0)
        if not self.basis:
            return False, None
        stacked = columns_matrix(
            [b.data for b in self.basis], block.rows * block.cols
        )
        coeffs = solve(stacked, block.data)
        if coeffs is None:
            return False, None
        return True, coeffs[0] if len(coeffs) == 1 else None


def _residual(p: ExtensionProblem, z0: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    u = build_irreducible(p.n)
    w = build_irreducible(p.m)
    r1 = w.h_mat @ z0 - z0 @ u.h_mat - z0.scale(p.lam)
    r2 = w.e_mat @ z0 - z0 @ u.e_mat
    return r1, r2


def solve_extensions(p: ExtensionProblem) -> SolutionSpace:
    """Exact basis of the highest-weight-Λ intertwiner space."""
    u = build_irreducible(p.n)
    w = build_irreducible(p.m)
    unknowns = (p.n + 1) * (p.m + 1)
    shifted_h = w.h_mat - RatMatrix.identity(p.m + 1).scale(p.lam)
    system = RatMatrix.from_blocks(
        2 * unknowns,
        unknowns,
        [
            (0, 0, sylvester_system(shifted_h, u.h_mat)),
            (unknowns, 0, sylvester_system(w.e_mat, u.e_mat)),
        ],
    )
    basis = [
        RatMatrix(p.m + 1, p.n + 1, list(v)) for v in nullspace_basis(system)
    ]
    return SolutionSpace(p, tuple(basis))


def z_tower(p: ExtensionProblem, z0: RatMatrix) -> list[RatMatrix]:
    """Z_0 … Z_Λ plus the trailing Z_{Λ+1}, generated by ad(f)."""
    u = build_irreducible(p.n)
    w = build_irreducible(p.m)
    tower = [z0]
    for _ in range(p.lam + 1):
        zj = tower[-1]
        tower.append(w.f_mat @ zj - zj @ u.f_mat)
    return tower


def assemble_representation(p: ExtensionProblem, z0: RatMatrix) -> Representation:
    """Full sl2^Λ representation generated by a solution block."""
    r1, r2 = _residual(p, z0)
    if not (r1.is_zero() and r2.is_zero()):
        raise ValueError("z0 block violates the constraint system")
    tower = z_tower(p, z0)
    if not tower[p.lam + 1].is_zero():
        raise RuntimeError(
            "tower does not terminate: Z_{Λ+1} != 0 for a constraint solution"
        )
    u = build_irreducible(p.n)
    w = build_irreducible(p.m)
    rho = two_block_representation(
        p.lam,
        (u.f_mat, u.h_mat, u.e_mat),
        (w.f_mat, w.h_mat, w.e_mat),
        tower[: p.lam + 1],
    )

    hom_ok, hom_witness = verify_homomorphism(rho)
    if not hom_ok:
        raise RuntimeError(f"assembled representation fails bracket {hom_witness}")
    tri = verify_triangular_conditions(rho)
    if not tri["all_pass"]:
        raise RuntimeError(f"assembled representation fails structure: {tri}")
    return rho


def valid_sn_tuples(lam: int, n: int, m: int) -> list[tuple[int, int]]:
    """(s, N) pairs making (m, n, s, N) satisfy the parameter constraint."""
    return [
        (s, big_n)
        for m2, n2, s, big_n in enumerate_params(lam, m, n)
        if (m2, n2) == (m, n)
    ]


def match_family(
    p: ExtensionProblem, space: SolutionSpace, params: ModuleParams
) -> dict:
    """Is the family module's z_0 block inside the solver's span?"""
    if (params.lam, params.n, params.m) != (p.lam, p.n, p.m):
        raise ValueError(
            f"params {(params.lam, params.n, params.m)} do not match "
            f"problem {(p.lam, p.n, p.m)}"
        )
    module = build_family_module(params)
    block = module.z_block(0)
    member, scalar = space.contains(block)
    return {"member": member, "scalar": scalar, "block_is_zero": block.is_zero()}


def classification_report(lam: int, n_max: int, m_max: int) -> dict:
    """Cell-by-cell survey of the (n, m) grid.

    Each cell records the solver dimension, the character-theoretic
    prediction, the parameter tuples landing on the cell, and the
    membership verdict of the family block at the all-ones scalar
    sample. Mismatches in either direction are flagged per cell."""
    cells = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            problem = ExtensionProblem(lam, n, m)
            space = solve_extensions(problem)
            cg = tensor_multiplicity(lam, n, m)
            matches = []
            any_nonzero_member = False
            any_family_outside = False
            for s, big_n in valid_sn_tuples(lam, n, m):
                a = tuple(ONE for _ in range(n - s))
                params = ModuleParams(lam, m, n, s, big_n, a)
                verdict = match_family(problem, space, params)
                matches.append(
                    {
                        "s": s,
                        "N": big_n,
                        "a": [rat_str(x) for x in a],
                        "member": verdict["member"],
                        "scalar": None
                        if verdict["scalar"] is None
                        else rat_str(verdict["scalar"]),
                    }
                )
                if verdict["member"] and not verdict["block_is_zero"]:
                    any_nonzero_member = True
                if not verdict["member"]:
                    any_family_outside = True
            flags = []
            if space.dimension != cg:
                flags.append("solver-vs-character-mismatch")
            if space.dimension > 0 and matches and not any_nonzero_member:
                flags.append("solution-unreached-by-family-sample")
            if any_family_outside:
                flags.append("family-block-outside-solution-space")
            cells.append(
                {
                    "n": n,
                    "m": m,
                    "dim": space.dimension,
                    "cg": cg,
                    "agree": space.dimension == cg,
                    "family_matches": matches,
                    "flags": flags,
                }
            )
    return {
        "lam": lam,
        "n_max": n_max,
        "m_max": m_max,
        "cells": cells,
        "notes": [
            "family blocks sampled at a_i = 1; free scalars a_1..a_{n-s} "
            "exceed the <= 1-dimensional solution space per cell",
        ],
    }
