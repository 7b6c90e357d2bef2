"""Desk-scale classification of 2-irreducible triangular modules.

Fix the two irreducible component weights (n for degree 0, m for
degree 1). The only unknown in a triangular module over sl2^Λ is then
the block Z_0: V_0 → V_1 through which z_0 acts, and the bracket table
makes the constraints on it linear:

    [h, z_0] = Λ z_0   →  H_m Z_0 - Z_0 H_n = Λ Z_0
    [e, z_0] = 0       →  E_m Z_0 - Z_0 E_n = 0

Every remaining generator is forced: Z_{j+1} = F_m Z_j - Z_j F_n, and
Z_{Λ+1} = 0 comes out of the computation rather than being imposed.
Solving the two equations per (n, m) cell therefore classifies all
candidate modules independently of the family formulas. h acts
diagonally, so the first equation confines Z_0 to the one weight
diagonal t - i = (m - n - Λ)/2, and on it the second is a two-term
recurrence between neighbouring cells. The diagonal is a line unless
one of its ends is forced to 0 by the row just past it, and no
elimination runs.
The family is compared by testing its z_0 block, read straight from
the z-rules, for membership in the solution span. Tensor-product
multiplicities provide a second, character-theoretic prediction of
each cell's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ONE, RatMatrix, combination, rat_str
from .family import ModuleParams, two_block_representation, z_blocks
from .rep import Representation, verify_homomorphism, verify_triangular_conditions
from .sl2theory import Sl2Module, build_irreducible, tensor_multiplicity


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
    """The span of `basis`, as `solve_extensions` reduces it: basis[k]
    is 1 on its own free cell, 0 on every other basis matrix's free
    cell, and stores nothing after its free cell in row-major order."""

    problem: ExtensionProblem
    basis: tuple[RatMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, block: RatMatrix) -> tuple[bool, Fraction | None]:
        """Membership of an (m+1) x (n+1) block in the span; also the
        proportionality scalar when the span is a line (0 for the zero
        block). A member's coordinates are its entries on the free
        cells, so the block is a member iff it equals that combination."""
        p = self.problem
        if block.rows != p.m + 1 or block.cols != p.n + 1:
            raise ValueError(
                f"block is {block.rows}x{block.cols}, expected "
                f"{p.m + 1}x{p.n + 1}"
            )
        if block.is_zero():
            return True, Fraction(0)
        coeffs = []
        for b in self.basis:
            t = max(r for r, row in enumerate(b.maps) if row)
            coeffs.append(block[t, max(b.maps[t])])
        if combination(self.basis, enumerate(coeffs)) != block:
            return False, None
        return True, coeffs[0] if len(coeffs) == 1 else None


def solve_extensions(p: ExtensionProblem) -> SolutionSpace:
    """Exact basis of the highest-weight-Λ intertwiner space.

    h is diagonal, so the h-equation leaves Z_0 free only on the one
    weight diagonal t - i = c, c = (m - n - Λ)/2. There the e-equation
    row (t-1, i) links only two cells of that diagonal:

        t(m-t+1) Z[t][i] = i(n-i+1) Z[t-1][i-1],

    both coefficients nonzero inside the block. A diagonal starting at
    i = 0 with t > 0 is forced to 0 by the row (t-1, 0), and one ending
    at t = m with i < n by the row (m, i+1). So the space is a line
    exactly when m - n - Λ is even, c <= 0 and 0 <= n + c <= m. Its
    vector is 1 at (n+c, n), the last cell in row-major order, as in
    the rref kernel of the dense system."""
    lam, n, m = p.lam, p.n, p.m
    c, odd = divmod(m - n - lam, 2)
    if odd or c > 0 or not 0 <= n + c <= m:
        return SolutionSpace(p, ())
    block: list[dict] = [{} for _ in range(m + 1)]
    t, i, x = n + c, n, ONE
    block[t][i] = x
    while t:
        x *= Fraction(t * (m - t + 1), i * (n - i + 1))
        t, i = t - 1, i - 1
        block[t][i] = x
    return SolutionSpace(p, (RatMatrix._from_maps(m + 1, n + 1, block),))


def _f_tower(u: Sl2Module, w: Sl2Module, z0: RatMatrix, length: int) -> list[RatMatrix]:
    # Z_0 … Z_{length-1}, Z_{j+1} = F_m Z_j - Z_j F_n
    tower = [z0]
    for _ in range(length - 1):
        zj = tower[-1]
        tower.append(w.f_mat @ zj - zj @ u.f_mat)
    return tower


def z_tower(p: ExtensionProblem, z0: RatMatrix) -> list[RatMatrix]:
    """Z_0 … Z_Λ plus the trailing Z_{Λ+1}, generated by ad(f)."""
    return _f_tower(build_irreducible(p.n), build_irreducible(p.m), z0, p.lam + 2)


def assemble_representation(p: ExtensionProblem, z0: RatMatrix) -> Representation:
    """Full sl2^Λ representation generated by a solution block.

    The homomorphism check of the assembled module decides whether z0
    is a solution: its pairs (h, z_0) and (e, z_0) are the two
    constraint equations, and (f, z_Λ) is Z_{Λ+1} = 0. A block that
    fails raises ValueError naming the failing pair."""
    if (z0.rows, z0.cols) != (p.m + 1, p.n + 1):
        raise ValueError(
            f"z0 is {z0.rows}x{z0.cols}, expected {p.m + 1}x{p.n + 1}"
        )
    u = build_irreducible(p.n)
    w = build_irreducible(p.m)
    rho = two_block_representation(
        p.lam,
        (u.f_mat, u.h_mat, u.e_mat),
        (w.f_mat, w.h_mat, w.e_mat),
        _f_tower(u, w, z0, p.lam + 1),
    )

    hom_ok, hom_witness = verify_homomorphism(rho)
    if not hom_ok:
        i, j = (rho.algebra.basis_labels[k] for k in hom_witness)
        raise ValueError(f"z0 is not a constraint solution: pair ({i}, {j}) fails")
    tri = verify_triangular_conditions(rho)
    if not tri["all_pass"]:
        raise RuntimeError(f"assembled representation fails structure: {tri}")
    return rho


def valid_sn_tuples(lam: int, n: int, m: int) -> list[tuple[int, int]]:
    """(s, N) pairs making (m, n, s, N) satisfy the parameter constraint
    m + 2s = lam + n + 2N with 0 <= N <= m, ordered by s: for each s the
    constraint fixes N."""
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    if m < 0 or n < 0:
        raise ValueError("bounds must be nonnegative")
    return [
        (s, (m + 2 * s - lam - n) // 2)
        for s in range(n + 1)
        if m + 2 * s - lam - n in range(0, 2 * m + 1, 2)
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
    block = z_blocks(params, 0)[0][0]
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
