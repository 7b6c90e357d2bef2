"""The two-component module family over sl2^Λ.

A parameter tuple (Λ, m, n, s, N) subject to

    m + 2s = Λ + n + 2N,   n >= s >= 0,   m >= N >= 0,   Λ >= 1,

together with n-s free scalars a_1 … a_{n-s} (a_0 fixed at 1) defines a
module on u_0 … u_n (degree 0) and w_0 … w_m (degree 1): the sl2 triple
acts on each string by the standard irreducible formulas, z_j kills all
w's, and z_j·u_i is given by three displayed rules split by the value of
i + j — an initial zero range, a middle alternating sum landing in
w_{θ+N}, and a tail sum landing in w_{n-s+θ+N}.

The printed ranges partition the (j, i) cells by i + j: the zero range
is i + j <= s - 1, the middle sum s <= i + j <= n (θ = i + j - s) and
the tail sum i + j >= n + 1 (θ = i + j - n), so no cell has two rules
and none has none. `z_blocks` evaluates each cell by the one rule its
i + j selects; the literal per-range evaluation, each sum over its
whole printed range, lives on as the test oracle. Every report keeps
`rule_conflicts` and `uncovered_cells`, as empty lists. Two symbol
readings are baked in and surfaced in every report: the displayed v_i is
read as u_i and the lowercase λ bound as Λ. The e-action coefficient on
the w-string is printed as k(n-k+1); the default build uses k(m-k+1),
the unique coefficient satisfying [e, f] = h on an (m+1)-dimensional
string, and `paper_literal=True` keeps the printed one for fidelity
experiments.

A `ModuleParams` is such a tuple: it refuses any other when it is
built, with one ValueError naming every broken condition, so no
function here checks its params again. The survey lists its tuples as
plain integers, valid by construction, and builds none.

`build_family_module` returns the module as a plain `Representation`:
z_j acts by block (0, 1) of images[3 + j], and `weight_compatibility`
reads its witnesses off those blocks, given the params.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence

from .exact import ONE, ZERO, RatMatrix, rat, rat_str
from .graded import GradedSpace
from .liealg import build_sl2_lambda, lambda_error
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
        """Refuse a tuple outside the family: one ValueError, every
        problem found, joined by "; "."""
        a = tuple(rat(x) for x in self.a)
        object.__setattr__(self, "a", a)
        lam, m, n, s, big_n = self.lam, self.m, self.n, self.s, self.big_n
        problems = []
        if lam_error := lambda_error(lam):
            problems.append(lam_error)
        if min(m, n, s, big_n) < 0:
            problems.append("m, n, s, N must be nonnegative")
        if m + 2 * s != lam + n + 2 * big_n:
            problems.append(f"m + 2s = {m + 2 * s} but lam + n + 2N = {lam + n + 2 * big_n}")
        if not (n >= s >= 0):
            problems.append(f"need n >= s >= 0, got n={n}, s={s}")
        if not (m >= big_n >= 0):
            problems.append(f"need m >= N >= 0, got m={m}, N={big_n}")
        if len(a) != max(n - s, 0):
            problems.append(f"need {max(n - s, 0)} scalars a_1..a_(n-s), got {len(a)}")
        if problems:
            raise ValueError("; ".join(problems))


def check_bounds(lam: int, m_max: int, n_max: int) -> None:
    """Raise ValueError unless Λ >= 1 and both bounds are nonnegative."""
    if lam_error := lambda_error(lam):
        raise ValueError(lam_error)
    if m_max < 0 or n_max < 0:
        raise ValueError("bounds must be nonnegative")


def enumerate_params(lam: int, m_max: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """All (m, n, s, N) within bounds satisfying the constraint, ordered
    by n, then s, then N (m is determined by the other three).

    With k = Λ + n - 2s, m = k + 2N is at least N exactly when
    N >= -k, and at most m_max exactly when N <= (m_max - k)/2; that
    range of N holds a value exactly when |k| <= m_max. So each n
    visits only the at most m_max + 1 values of s with |k| <= m_max,
    and each (n, s) lists its range of N directly."""
    check_bounds(lam, m_max, n_max)
    out = []
    for n in range(n_max + 1):
        # |Λ + n - 2s| <= m_max
        s_lo = max(0, (lam + n - m_max + 1) // 2)
        for s in range(s_lo, min(n, (lam + n + m_max) // 2) + 1):
            k = lam + n - 2 * s
            out += [
                (k + 2 * big_n, n, s, big_n)
                for big_n in range(max(0, -k), (m_max - k) // 2 + 1)
            ]
    return out


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


def z_blocks(p: ModuleParams) -> list[RatMatrix]:
    """The (m+1) x (n+1) blocks z_0 … z_Λ.

    The printed ranges partition the (j, i) cells by i + j, and every
    rule lands z_j·u_i on w_t, t = i + j - s + N. Writing the middle
    sum's k, and the tail sum's θ + k, as q, a cell is

        Σ_q (-1)^(j-q) C(j, q) (m-t+q)! a_{i+j-s-q} / ((t-q)! m!)

    over q from lo to min(i + j - s, j), where i + j selects the rule:
    - i + j <= s - 1: the zero range, an empty sum, stores nothing;
    - s <= i + j <= n: the middle sum, θ = i + j - s, lo = 0;
    - i + j >= n + 1: the tail sum, θ = i + j - n, lo = θ.
    A target t > m is zero. The terms are summed as integers over the
    common denominator (t - lo)! m! and the denominators of the a's, so
    each stored cell costs one Fraction. At j = 0 a cell is the single
    term a_θ (m-N-θ)! / ((N+θ)! m!)."""
    m, n, s, big_n = p.m, p.n, p.s, p.big_n
    a = (ONE, *p.a)
    fact = list(accumulate(range(1, m + 1), mul, initial=1))
    z_maps = [{} for _ in range(p.lam + 1)]
    for j, maps in enumerate(z_maps):
        for i in range(max(s - j, 0), min(n, m + s - big_n - j) + 1):
            t = i + j - s + big_n
            lo = max(0, i + j - n)
            num, den = 0, 1
            scale = 1  # (t - lo)! / (t - q)!
            for q in range(lo, min(i + j - s, j) + 1):
                x = a[i + j - s - q]
                c = (-1) ** (j - q) * math.comb(j, q) * fact[m - t + q] * scale
                num = num * x.denominator + c * x.numerator * den
                den *= x.denominator
                scale *= t - q
            if num:
                maps.setdefault(t, {})[i] = Fraction(num, den * fact[t - lo] * fact[m])
    return [RatMatrix._from_maps(m + 1, n + 1, maps) for maps in z_maps]


def z0_entry(
    m: int, n: int, s: int, big_n: int, a: Sequence[Fraction], t: int, i: int
) -> Fraction:
    """Cell (t, i) of z_0 for the valid tuple (m, n, s, N) with scalars
    a_1 … a_{n-s} = a[0] … a[n-s-1], the z-rules at j = 0: a_θ (m-t)! /
    (t! m!) where t = i - s + N with s <= i <= min(n, m + s - N), θ =
    i - s and a_0 = 1, and 0 on every other cell. a may run past n - s;
    only its first n - s entries are read."""
    theta = i - s
    if t != theta + big_n or not 0 <= theta <= min(n - s, m - big_n):
        return ZERO
    x = a[theta - 1] if theta else ONE
    return Fraction(
        x.numerator * math.factorial(m - t),
        x.denominator * math.factorial(t) * math.factorial(m),
    )


def build_family_module(p: ModuleParams, paper_literal: bool = False) -> Representation:
    """The family module of p: z_j = images[3 + j] acts by its block
    (0, 1), w rows by u columns."""
    return two_block_representation(
        p.lam,
        string_action(p.n, p.n),
        string_action(p.m, p.n if paper_literal else p.m),
        z_blocks(p),
    )


def weight_compatibility(p: ModuleParams, rho: Representation) -> tuple[bool, tuple | None]:
    """Every nonzero z_j·u_i of the family module rho of p must land on
    the w of matching h-weight: m - 2t = (Λ - 2j) + (n - 2i)."""
    for j in range(p.lam + 1):
        for t, row in sorted(rho.images[3 + j].block(0, 1).maps.items()):
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
    conditions (i)/(ii), irreducibility of both components and internal
    weight compatibility. The z-rules partition the cells, so
    `rule_conflicts` and `uncovered_cells` are always empty.
    Faithfulness and a nonzero radical action are informational flags
    (the latter marks the hypothesis under which the classification
    statement applies)."""
    rho = build_family_module(p, paper_literal=paper_literal)
    report = verify_representation(rho)
    weight_ok, weight_witness = weight_compatibility(p, rho)
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
            "rule_conflicts": [],
            "uncovered_cells": [],
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
    )
    return report
