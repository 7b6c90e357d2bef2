"""Shared test utilities and independent oracles.

Oracles here are deliberately written against plain lists and Fractions
(not the package's own types) wherever feasible, so a bug in the library
cannot silently agree with itself.
"""

from __future__ import annotations

import random
from fractions import Fraction

from trilie.exact import RatMatrix
from trilie.graded import GradedMap, GradedSpace


def clebsch_gordan_count(a: int, b: int, c: int) -> int:
    """Multiplicity of the (c+1)-dimensional irreducible inside the
    tensor product of the (a+1)- and (b+1)-dimensional ones: 1 exactly
    when |a-b| <= c <= a+b with c = a+b (mod 2), else 0."""
    if abs(a - b) <= c <= a + b and (a + b - c) % 2 == 0:
        return 1
    return 0


def mask_triangular(space: GradedSpace, matrix: RatMatrix) -> GradedMap:
    """Zero out every degree-lowering block of `matrix`."""
    n = space.total_dim
    data = list(matrix.data)
    for k_from in range(space.num_components):
        for k_to in range(k_from):
            for i in space.component_range(k_to):
                for c in space.component_range(k_from):
                    data[i * n + c] = Fraction(0)
    return GradedMap(space, RatMatrix(n, n, data))


def seeded_rational_matrix(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    data = [
        Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        for _ in range(rows * cols)
    ]
    return RatMatrix(rows, cols, data)


def seeded_triangular_map(rng: random.Random, max_components: int = 5,
                          max_total: int = 12) -> GradedMap:
    """Deterministic random triangular map on a random graded space."""
    while True:
        ncomp = rng.randint(1, max_components)
        dims = [rng.randint(0, 4) for _ in range(ncomp)]
        if 0 < sum(dims) <= max_total:
            break
    space = GradedSpace(dims)
    raw = seeded_rational_matrix(rng, space.total_dim, space.total_dim)
    return mask_triangular(space, raw)


def brute_matrix_bracket(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Plain-list commutator, used to cross-check RatMatrix arithmetic."""
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def brute_sylvester(a: list[list[Fraction]], c: list[list[Fraction]],
                    x: list[list[Fraction]]) -> list[Fraction]:
    """Plain-list AX - XC, flattened row-major."""
    r, k = len(a), len(c)
    return [
        sum(a[p][t] * x[t][q] for t in range(r))
        - sum(x[p][t] * c[t][q] for t in range(k))
        for p in range(r)
        for q in range(k)
    ]


def brute_fill_blocks(rows: int, cols: int, blocks) -> list[list[Fraction]]:
    """Plain-list matrix filled entry by entry from (r0, c0, block rows)."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
    return out


def brute_rank(rows: list[list[Fraction]]) -> int:
    """Plain-list Gauss-Jordan rank over Fractions."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def brute_extend_independent(base: list, candidates: list) -> list:
    """Keep each candidate, in order, that raises the rank of everything
    kept so far (base included): one rank per candidate."""
    kept = list(base)
    chosen = []
    for c in candidates:
        if brute_rank(kept + [c]) > brute_rank(kept):
            kept.append(c)
            chosen.append(c)
    return chosen
