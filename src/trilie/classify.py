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
elimination runs. `_diagonal_line` walks that recurrence once, in
integers: it lists the line's cells (t, i, X, Y), the cell holding
X/Y, and `solve_extensions` stores each as the integer X over Y.
Membership in a line is decided by one walk, `_line_verdict`, over
the line's cells: a block's entry on each cell is compared with the
first cell's by cross-multiplying integers. `SolutionSpace.contains`
reads the block's stored entries, and `match_family`, for any span,
reads the family's z_0 through `z0_entry` after checking that its
valid `ModuleParams` has the problem's (Λ, n, m). The survey walks
nothing: the family's z_0 lies on the same diagonal, N - s = c, so a
cell's tuples are read off it as plain integers, N = s + c for each s
with 0 <= s <= n and 0 <= N <= m, valid by construction and unchecked.
A cell whose c is not whole has no tuple and builds none. `_has_line`
decides whether the cell has a line, `_closed_verdict` decides each
tuple on it, and no `ModuleParams`, `ExtensionProblem`, `SolutionSpace`,
line or matrix is built per cell or tuple.
Tensor-product multiplicities, counted in closed form, provide a
second, character-theoretic prediction of each cell's dimension.
Nothing in a cell costs in Λ.

The survey is written cell by cell. `classification_cells` yields each
cell's plain values, and `render_classification` turns them into the
report text, byte for byte `json.dumps(report, indent=2)`, with one
%-template per report level; no report dict is built on the way, so the
text is the only thing that grows with the Θ(N⁴) sample lists. A cell's
two sample flags come from the loop that renders its matches. The text
is built whole before anything is written: a scalar too long for str()
raises `jsonio.NumberTooLong` naming `cells.family_matches.scalar`
while it is rendered, and the CLI then writes nothing and exits 2, on
stdout as on `-o`. `classification_report` reads the text back
into the dict it encodes, so the schema lives in the templates alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .exact import ONE, RatMatrix, rat_str
from .family import ModuleParams, check_bounds, two_block_representation, z0_entry
from .jsonio import NumberTooLong
from .liealg import lambda_error
from .rep import Representation, verify_homomorphism, verify_triangular_conditions
from .sl2theory import string_action, tensor_multiplicity


@dataclass(frozen=True)
class ExtensionProblem:
    lam: int
    n: int
    m: int

    def __post_init__(self):
        if lam_error := lambda_error(self.lam):
            raise ValueError(lam_error)
        if self.n < 0 or self.m < 0:
            raise ValueError("component weights must be nonnegative")


@dataclass(frozen=True)
class SolutionSpace:
    """The span of `basis`, as `solve_extensions` reduces it. The span
    is at most a line: its one basis matrix, when there is one, is 1 on
    its free cell, the last cell it stores in row-major order."""

    problem: ExtensionProblem
    basis: tuple[RatMatrix, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, block: RatMatrix) -> tuple[bool, Fraction | None]:
        """Membership of an (m+1) x (n+1) block in the span, and the
        proportionality scalar (0 for the zero block): the verdict of
        `_line_verdict` on the cells of the basis, reading the block's
        stored entries."""
        p = self.problem
        if block.rows != p.m + 1 or block.cols != p.n + 1:
            raise ValueError(
                f"block is {block.rows}x{block.cols}, expected "
                f"{p.m + 1}x{p.n + 1}"
            )
        if block.is_zero():
            return True, Fraction(0)
        return _line_verdict(
            _line_cells(self), lambda t, i: block[t, i], lambda: sum(map(len, block.maps.values()))
        )


def _line_cells(space: SolutionSpace) -> list[tuple[int, int, int, int]]:
    """The cells (t, i, X, Y) the basis of `space` stores, row by row,
    the cell (t, i) holding X/Y; [] for the zero span."""
    return [
        (t, i, x, block.dens.get(t, 1))
        for block in space.basis
        for t, row in sorted(block.maps.items())
        for i, x in sorted(row.items())
    ]


def _has_line(n: int, m: int, c: int) -> bool:
    # the cell (n, m) whose diagonal t - i = c is whole holds a line (`_diagonal_line`)
    return c <= 0 and 0 <= n + c <= m


def _diagonal_line(lam: int, n: int, m: int) -> list[tuple[int, int, int, int]]:
    """The solution line of the cell (Λ, n, m), Λ >= 1 and n, m >= 0, as
    its cells (t, i, X, Y) in row-major order, the cell (t, i) holding
    X/Y; [] when the cell has none.

    h is diagonal, so the h-equation leaves Z_0 free only on the one
    weight diagonal t - i = c, c = (m - n - Λ)/2. There the e-equation
    row (t-1, i) links only two cells of that diagonal:

        t(m-t+1) Z[t][i] = i(n-i+1) Z[t-1][i-1],

    both coefficients nonzero inside the block. A diagonal starting at
    i = 0 with t > 0 is forced to 0 by the row (t-1, 0), and one ending
    at t = m with i < n by the row (m, i+1). So the space is a line
    exactly when m - n - Λ is even and `_has_line` holds. Its
    vector is 1 at (n+c, n), the last cell in row-major order, as in
    the rref kernel of the dense system, and the recurrence walks down
    from there, X and Y the unreduced products of its two coefficients."""
    c, odd = divmod(m - n - lam, 2)
    if odd or not _has_line(n, m, c):
        return []
    t, i, x, y = n + c, n, 1, 1
    line = [(t, i, x, y)]
    while t:
        x *= t * (m - t + 1)
        y *= i * (n - i + 1)
        t, i = t - 1, i - 1
        line.append((t, i, x, y))
    line.reverse()
    return line


def solve_extensions(p: ExtensionProblem) -> SolutionSpace:
    """Exact basis of the highest-weight-Λ intertwiner space: the line
    `_diagonal_line` lists for p, one stored integer per cell, or no basis
    when p has none."""
    line = _diagonal_line(p.lam, p.n, p.m)
    if not line:
        return SolutionSpace(p, ())
    # the line holds one cell per row, X/Y stored over Y
    block = RatMatrix.from_int_rows(
        p.m + 1, p.n + 1, {t: {i: x} for t, i, x, _ in line}, {t: y for t, _, _, y in line}
    )
    return SolutionSpace(p, (block,))


def _f_tower(f_n: RatMatrix, f_m: RatMatrix, z0: RatMatrix, length: int) -> list[RatMatrix]:
    # Z_0 … Z_{length-1}, Z_{j+1} = F_m Z_j - Z_j F_n
    tower = [z0]
    for _ in range(length - 1):
        zj = tower[-1]
        tower.append(f_m @ zj - zj @ f_n)
    return tower


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
    u = string_action(p.n, p.n)
    w = string_action(p.m, p.m)
    rho = two_block_representation(p.lam, u, w, _f_tower(u[0], w[0], z0, p.lam + 1))

    hom_ok, hom_witness = verify_homomorphism(rho)
    if not hom_ok:
        i, j = (rho.algebra.basis_labels[k] for k in hom_witness)
        raise ValueError(f"z0 is not a constraint solution: pair ({i}, {j}) fails")
    tri = verify_triangular_conditions(rho)
    if not tri["all_pass"]:
        raise RuntimeError(f"assembled representation fails structure: {tri}")
    return rho


def match_family(
    p: ExtensionProblem, space: SolutionSpace, params: ModuleParams
) -> dict:
    """Is the family module's z_0 block inside the span of `space`?

    params, valid since it was built, must have p's (Λ, n, m), or
    ValueError is raised. The verdict is `_line_verdict`'s on the cells
    space stores, solver's or not, reading z_0 through `z0_entry`, as
    {"member": bool, "scalar": Fraction | None}; nothing is built."""
    if (params.lam, params.n, params.m) != (p.lam, p.n, p.m):
        raise ValueError(
            f"params {(params.lam, params.n, params.m)} do not match "
            f"problem {(p.lam, p.n, p.m)}"
        )
    m, n, s, big_n, a = params.m, params.n, params.s, params.big_n, params.a
    member, scalar = _line_verdict(
        _line_cells(space),
        partial(z0_entry, m, n, s, big_n, a),
        # the cell of a_0 = 1 and of each nonzero a_θ in range
        lambda: 1 + sum(map(bool, a[:min(n - s, m - big_n)])),
    )
    return {"member": member, "scalar": scalar}


def _closed_verdict(
    m: int, n: int, s: int, big_n: int, a: Sequence[Fraction]
) -> tuple[bool, Fraction | None]:
    """`match_family`'s verdict for the valid tuple (m, n, s, N), scalars
    a_1 … a_{n-s} = a[0] … a[n-s-1], on a cell with a line (N = s + c,
    c <= 0): a member iff N = 0 and a_θ = Π_{t=1..θ} (s+t)(n-s-t+1) for
    θ = 1 … n-s, scalar n!(m-n+s)!/(s! m!); else (False, None).

    - For N > 0, the line's first cell (0, s-N) is one where z_0 stores
      nothing, as z_0's cells have t = θ + N > 0.
    - For N = 0, the recurrence t(m-t+1) Z[t][i] = i(n-i+1) Z[t-1][i-1],
      applied to z_0 = a_θ (m-θ)!/(θ! m!) on the line's cells (θ, s+θ),
      forces a_θ = a_{θ-1} (s+θ)(n-s-θ+1), a_0 = 1.
    - z_0 then stores exactly the n-s+1 cells of the line; the scalar
      is its entry on the last, (n-s, n), where the line holds 1."""
    if big_n:
        return False, None
    x = 1
    for theta in range(1, n - s + 1):
        x *= (s + theta) * (n - s - theta + 1)
        if a[theta - 1] != x:
            return False, None
    f = math.factorial
    return True, Fraction(f(n) * f(m - n + s), f(s) * f(m))


def _line_verdict(
    line: Sequence[tuple[int, int, int, int]],
    entry: Callable[[int, int], Fraction | None],
    stored: Callable[[], int],
) -> tuple[bool, Fraction | None]:
    """(member, scalar) of a nonzero block, which stores `stored()` cells
    and whose cell (t, i) is `entry(t, i)` (falsy if not stored), in the
    span of the line whose cells are `line`: (t, i, X, Y), the cell
    holding X/Y, and no cell for the zero span.

    A member is nonzero on each line cell, z/x is the same on all of
    them, and it stores no other cell, so no nonzero block is a member
    of the zero span. The cells are read in order up
    to the first zero or mismatch, comparing z/x with the first cell's
    by cross-multiplying integers: with z = P/Q, z/x is PY/(QX). The
    scalar, z/x on the first cell, is one Fraction, for a member alone."""
    num = den = 0
    for t, i, x, y in line:
        z = entry(t, i)
        if not z:
            return False, None
        if not den:
            num, den = z.numerator * y, z.denominator * x
        elif z.numerator * y * den != num * z.denominator * x:
            return False, None
    if stored() != len(line):
        return False, None
    return True, Fraction(num, den)


class Cell(NamedTuple):
    """One (n, m) cell of the survey: the solver dimension, the tensor
    count, and for each parameter tuple of the cell, in order of s, the
    record (s, N, n - s, member, scalar), the verdict of
    `_closed_verdict` on the family block at the all-ones sample a_1 …
    a_{n-s}, or (False, None) on a cell with no line."""

    n: int
    m: int
    dim: int
    cg: int
    matches: tuple[tuple[int, int, int, bool, Fraction | None], ...]


def classification_cells(lam: int, n_max: int, m_max: int) -> Iterator[Cell]:
    """The cells of the (n, m) grid, n and then m ascending. A cell's
    dimension is whether `_has_line` holds, and its parameter tuples lie
    on its diagonal: N = s + c, c = (m - n - Λ)/2, for each s with 0 <= s
    <= n and 0 <= N <= m. A cell with c not whole has no tuple and builds
    none; the others list theirs in one pass. Valid by construction, on a
    cell with a line each goes to `_closed_verdict` as its integers."""
    check_bounds(lam, m_max, n_max)
    ones = (ONE,) * n_max  # a_1 … a_{n-s}, read up to n - s <= n_max
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            c, odd = divmod(m - n - lam, 2)
            if odd:
                yield Cell(n, m, 0, tensor_multiplicity(lam, n, m), ())
                continue
            line = _has_line(n, m, c)
            matches = tuple([
                (s, s + c, n - s,
                 *(_closed_verdict(m, n, s, s + c, ones) if line else (False, None)))
                for s in range(max(0, -c), min(n, m - c) + 1)
            ])
            yield Cell(n, m, int(line), tensor_multiplicity(lam, n, m), matches)


# The report, one %-template per level, as json.dumps(report, indent=2)
# writes it: the cells go between _HEAD and _TAIL, each at indent 4.
_HEAD = '{\n  "lam": %d,\n  "n_max": %d,\n  "m_max": %d,\n  "cells": ['
_TAIL = (
    '\n  ],\n  "notes": [\n    "family blocks sampled at a_i = 1; free scalars '
    'a_1..a_{n-s} exceed the <= 1-dimensional solution space per cell"\n  ]\n}\n'
)
_CELL = (
    '{\n      "n": %d,\n      "m": %d,\n      "dim": %d,\n      "cg": %d,\n'
    '      "agree": %s,\n      "family_matches": %s,\n      "flags": %s\n    }'
)
_MATCH = (
    '{\n          "s": %d,\n          "N": %d,\n          "a": %s,\n'
    '          "member": %s,\n          "scalar": %s\n        }'
)


def _listing(items: list[str]) -> str:
    # a list valued key of a cell, its members at indent 8
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def render_classification(lam: int, n_max: int, m_max: int, cells: Iterable[Cell]) -> str:
    """The classify report of `cells` as text, byte for byte
    `json.dumps(report, indent=2) + "\\n"`. The grid holds at least one
    cell. The loop that renders a cell's matches also notes whether some
    match is a member and whether some is not, and the two sample flags
    are read from those notes. Each scalar goes through `rat_str`, so a
    numerator or denominator too long for str() raises NumberTooLong
    here, naming the field `cells.family_matches.scalar`."""
    ones = {0: "[]"}  # the "a" listing of k "1" entries, built once per k
    out = [_HEAD % (lam, n_max, m_max)]
    sep = "\n    "
    for n, m, dim, cg, matches in cells:
        texts = []
        reached = outside = False  # some match is a member; some is not
        for s, big_n, k, member, scalar in matches:
            a = ones.get(k)
            if a is None:
                a = ones[k] = "[\n" + ",\n".join(['            "1"'] * k) + "\n          ]"
            try:
                scalar = "null" if scalar is None else '"' + rat_str(scalar) + '"'
            except ValueError:
                raise NumberTooLong("cells.family_matches.scalar") from None
            if member:
                reached = True
            else:
                outside = True
            texts.append(_MATCH % (s, big_n, a, "true" if member else "false", scalar))
        flags = []
        if dim != cg:
            flags.append('"solver-vs-character-mismatch"')
        # a member is a nonzero block: a_0 = 1 stores z_0's cell (N, s)
        if dim > 0 and outside and not reached:
            flags.append('"solution-unreached-by-family-sample"')
        if outside:
            flags.append('"family-block-outside-solution-space"')
        out.append(sep)
        out.append(_CELL % (
            n, m, dim, cg, "true" if dim == cg else "false",
            _listing(texts), _listing(flags),
        ))
        sep = ",\n    "
    out.append(_TAIL)
    return "".join(out)


def classification_report(lam: int, n_max: int, m_max: int) -> dict:
    """Cell-by-cell survey of the (n, m) grid, as the dict the classify
    text encodes.

    Each cell records the solver dimension, the character-theoretic
    prediction, the parameter tuples landing on the cell, and the
    membership verdict of the family block at the all-ones scalar
    sample. Mismatches in either direction are flagged per cell."""
    cells = classification_cells(lam, n_max, m_max)
    return json.loads(render_classification(lam, n_max, m_max, cells))
