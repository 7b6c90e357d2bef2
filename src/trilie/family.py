"""The two-component module family over sl2^Λ.

A parameter tuple (Λ, m, n, s, N) subject to

    m + 2s = Λ + n + 2N,   n >= s >= 0,   m >= N >= 0,

together with n-s free scalars a_1 … a_{n-s} (a_0 fixed at 1) defines a
module on u_0 … u_n (degree 0) and w_0 … w_m (degree 1): the sl2 triple
acts on each string by the standard irreducible formulas, z_j kills all
w's, and z_j·u_i is given by three displayed rules split by the value of
i + j — an initial zero range, a middle alternating sum landing in
w_{θ+N}, and a tail sum landing in w_{n-s+θ+N}.

The builder is deliberately literal about those three rules: each rule
is evaluated on its own published index range, every assignment is
recorded, and any pair of rules that disagree on the same (j, i) cell is
reported as a conflict instead of being resolved silently. Two symbol
readings are baked in and surfaced in every report: the displayed v_i is
read as u_i and the lowercase λ bound as Λ. The e-action coefficient on
the w-string is printed as k(n-k+1); the default build uses k(m-k+1),
the unique coefficient satisfying [e, f] = h on an (m+1)-dimensional
string, and `paper_literal=True` keeps the printed one for fidelity
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    ONE,
    ZERO,
    RatMatrix,
    binomial,
    rat,
    rat_str,
)
from .graded import GradedSpace
from .liealg import build_sl2_lambda
from .rep import Representation, verify_representation
from .sl2theory import string_action


@dataclass(frozen=True)
class ModuleParams:
    lam: int
    m: int
    n: int
    s: int
    big_n: int
    a: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(rat(x) for x in self.a))

    def a_scalar(self, idx: int) -> Fraction:
        """a_idx with a_0 = 1 and a vanishing outside 0..n-s."""
        if idx == 0:
            return ONE
        if 1 <= idx <= self.n - self.s:
            return self.a[idx - 1]
        return ZERO

    def label(self) -> str:
        a_part = ",".join(rat_str(x) for x in self.a)
        return (
            f"M[m={self.m},n={self.n};s={self.s},N={self.big_n}]"
            f"({a_part})"
        )


def validate_params(p: ModuleParams) -> tuple[bool, list[str]]:
    problems = []
    if p.lam < 1:
        problems.append(f"lam must be >= 1, got {p.lam}")
    if min(p.m, p.n, p.s, p.big_n) < 0:
        problems.append("m, n, s, N must be nonnegative")
    if p.m + 2 * p.s != p.lam + p.n + 2 * p.big_n:
        problems.append(
            f"m + 2s = {p.m + 2 * p.s} but lam + n + 2N = "
            f"{p.lam + p.n + 2 * p.big_n}"
        )
    if not (p.n >= p.s >= 0):
        problems.append(f"need n >= s >= 0, got n={p.n}, s={p.s}")
    if not (p.m >= p.big_n >= 0):
        problems.append(f"need m >= N >= 0, got m={p.m}, N={p.big_n}")
    if len(p.a) != max(p.n - p.s, 0):
        problems.append(
            f"need {max(p.n - p.s, 0)} scalars a_1..a_(n-s), got {len(p.a)}"
        )
    return not problems, problems


def enumerate_params(lam: int, m_max: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """All (m, n, s, N) within bounds satisfying the constraint, ordered
    by n, then s, then N (m is determined by the other three)."""
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    if m_max < 0 or n_max < 0:
        raise ValueError("bounds must be nonnegative")
    out = []
    for n in range(n_max + 1):
        for s in range(n + 1):
            for big_n in range(m_max + 1):
                m = lam + n + 2 * big_n - 2 * s
                if 0 <= m <= m_max and m >= big_n:
                    out.append((m, n, s, big_n))
    return out


_RULE_ZERO = "zero-range"
_RULE_MIDDLE = "middle-sum"
_RULE_TAIL = "tail-sum"


def _z_rule_assignments(p: ModuleParams, last_j: int) -> dict[tuple[int, int], list]:
    """Evaluate each displayed z-action rule on its own index range,
    for z_0 … z_{last_j}.

    Returns (j, i) → list of (rule name, {w index: coefficient}); the
    basis conventions u_i = 0 outside 0..n and w_k = 0 outside 0..m are
    applied here (out-of-range u rows are skipped, out-of-range w
    targets make the whole assignment zero)."""
    lam, m, n, s, big_n = p.lam, p.m, p.n, p.s, p.big_n
    cells: dict[tuple[int, int], list] = {}

    def record(j: int, i: int, rule: str, value: dict[int, Fraction]):
        cells.setdefault((j, i), []).append((rule, value))

    for j in range(last_j + 1):
        # the zero range is i + j <= s - 1
        for i in range(min(s - j, n + 1)):
            record(j, i, _RULE_ZERO, {})

    for theta in range(n - s + 1):
        for j in range(min(s + theta, last_j) + 1):
            i = s - j + theta
            if not 0 <= i <= n:
                continue
            target = theta + big_n
            if target > m:
                record(j, i, _RULE_MIDDLE, {})
                continue
            coeff = ZERO
            # binomial(j, k) vanishes past k = j
            for k in range(min(theta, j) + 1):
                a = p.a_scalar(theta - k)
                coeff += Fraction(
                    (-1) ** (j - k)
                    * binomial(j, k)
                    * math.factorial(m - big_n - theta + k)
                    * a.numerator,
                    math.factorial(big_n + theta - k)
                    * math.factorial(m)
                    * a.denominator,
                )
            record(j, i, _RULE_MIDDLE, {target: coeff} if coeff != 0 else {})

    for theta in range(1, lam + 1):
        for j in range(theta, last_j + 1):
            i = n - j + theta
            if not 0 <= i <= n:
                continue
            target = n - s + theta + big_n
            if target > m:
                record(j, i, _RULE_TAIL, {})
                continue
            coeff = ZERO
            for k in range(j - theta + 1):
                a_idx = n - s - k
                if a_idx < 0:
                    continue
                a = p.a_scalar(a_idx)
                coeff += Fraction(
                    (-1) ** (j - theta - k)
                    * binomial(j, theta + k)
                    * math.factorial(m - big_n - n + s + k)
                    * a.numerator,
                    math.factorial(big_n + n - s - k)
                    * math.factorial(m)
                    * a.denominator,
                )
            record(j, i, _RULE_TAIL, {target: coeff} if coeff != 0 else {})

    return cells


@dataclass(frozen=True)
class FamilyModule:
    params: ModuleParams
    representation: Representation
    conflicts: tuple = ()
    uncovered: tuple = ()
    paper_literal: bool = False

    def z_block(self, j: int) -> RatMatrix:
        """(m+1) x (n+1) block of the z_j action, w rows by u columns."""
        return self.representation.images[3 + j].block(0, 1)


def two_block_representation(
    lam: int,
    u_triple: tuple[RatMatrix, RatMatrix, RatMatrix],
    w_triple: tuple[RatMatrix, RatMatrix, RatMatrix],
    z_mats: Sequence[RatMatrix],
) -> Representation:
    """sl2^Λ on V_0 ⊕ V_1 with the (f, h, e) triples acting on each
    component and z_j acting by the block z_mats[j]: V_0 → V_1."""
    algebra, levi = build_sl2_lambda(lam)
    n1, m1 = u_triple[0].rows, w_triple[0].rows
    total = n1 + m1
    images = [
        RatMatrix.from_blocks(total, total, [(0, 0, u_mat), (n1, n1, w_mat)])
        for u_mat, w_mat in zip(u_triple, w_triple)
    ]
    images += [RatMatrix.from_blocks(total, total, [(n1, 0, z)]) for z in z_mats]
    return Representation(algebra, levi, GradedSpace((n1, m1)), tuple(images))


def z_blocks(p: ModuleParams, last_j: int) -> tuple[list[RatMatrix], tuple, tuple]:
    """The (m+1) x (n+1) blocks z_0 … z_{last_j} read off the z-rule
    table, with the rule conflicts and the uncovered (j, i) cells. Where
    rules conflict the first recorded value is kept; the conflict is
    reported."""
    ok, problems = validate_params(p)
    if not ok:
        raise ValueError("; ".join(problems))
    m, n = p.m, p.n

    cells = _z_rule_assignments(p, last_j)
    conflicts = []
    uncovered = []
    z_maps = [[{} for _ in range(m + 1)] for _ in range(last_j + 1)]
    for j in range(last_j + 1):
        for i in range(n + 1):
            assigned = cells.get((j, i), [])
            if not assigned:
                uncovered.append((j, i))
                continue
            values = [v for _, v in assigned]
            first = values[0]
            for rule, v in assigned[1:]:
                if v != first:
                    conflicts.append(
                        {
                            "j": j,
                            "i": i,
                            "rules": [r for r, _ in assigned],
                            "values": values,
                        }
                    )
                    break
            for w_idx, c in first.items():
                z_maps[j][w_idx][i] = c
    blocks = [RatMatrix._from_maps(m + 1, n + 1, maps) for maps in z_maps]
    return blocks, tuple(conflicts), tuple(uncovered)


def build_family_module(p: ModuleParams, paper_literal: bool = False) -> FamilyModule:
    blocks, conflicts, uncovered = z_blocks(p, p.lam)
    rho = two_block_representation(
        p.lam,
        string_action(p.n, p.n),
        string_action(p.m, p.n if paper_literal else p.m),
        blocks,
    )
    return FamilyModule(p, rho, conflicts, uncovered, paper_literal)


def weight_compatibility(module: FamilyModule) -> tuple[bool, tuple | None]:
    """Every nonzero z_j·u_i must land on the w of matching h-weight:
    m - 2t = (Λ - 2j) + (n - 2i)."""
    p = module.params
    for j in range(p.lam + 1):
        for t, row in enumerate(module.z_block(j).maps):
            for i in sorted(row):
                if p.m - 2 * t != (p.lam - 2 * j) + (p.n - 2 * i):
                    return False, (j, i, t)
    return True, None


CONVENTIONS = {
    "symbol_readings": {"v_i": "u_i", "lambda_bound": "Lambda"},
    "a_0": "1",
    "out_of_range": "u_i, w_k, a_idx vanish outside their index ranges",
}


def verify_family(p: ModuleParams, paper_literal: bool = False) -> dict:
    """Build the module and run the whole verification pipeline.

    `all_pass` tightens the gate of `verify_representation` to exactly
    the advertised structure: homomorphism, triangularity with
    conditions (i)/(ii), irreducibility of both components, internal
    weight compatibility, and no rule conflicts or uncovered cells.
    Faithfulness and a nonzero radical action are informational flags
    (the latter marks the hypothesis under which the classification
    statement applies)."""
    module = build_family_module(p, paper_literal=paper_literal)
    rho = module.representation
    report = verify_representation(rho)
    weight_ok, weight_witness = weight_compatibility(module)
    radical_nonzero = any(
        not rho.images[3 + j].is_zero() for j in range(p.lam + 1)
    )
    irr = report["irreducible_components"]
    report.update(
        {
            "params": {
                "lam": p.lam,
                "m": p.m,
                "n": p.n,
                "s": p.s,
                "N": p.big_n,
                "a": [rat_str(x) for x in p.a],
            },
            "conventions": {
                **CONVENTIONS,
                "e_w_coefficient": "k(n-k+1) as printed"
                if paper_literal
                else "k(m-k+1)",
            },
            "weight_compatible": weight_ok,
            "rule_conflicts": list(module.conflicts),
            "uncovered_cells": list(module.uncovered),
            "radical_acts_nonzero": radical_nonzero,
            "two_irreducible": bool(irr) and all(irr),
        }
    )
    if weight_witness:
        report["witnesses"]["weight_compatible"] = weight_witness
    report["all_pass"] = (
        report.pop("all_pass")
        and report["two_irreducible"]
        and weight_ok
        and not module.conflicts
        and not module.uncovered
    )
    return report
