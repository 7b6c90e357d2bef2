"""Shared test utilities and independent oracles.

Oracles here are deliberately written against plain lists and Fractions
(not the package's own types) wherever feasible, so a bug in the library
cannot silently agree with itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from trilie.classify import (
    ExtensionProblem,
    match_family,
    solve_extensions,
)
from trilie.exact import ONE, RatMatrix, ShapeError, combination, rank, rat_str
from trilie.family import ModuleParams, enumerate_params, z0_entry
from trilie.graded import GradedMap, GradedSpace
from trilie.jsonio import matrix_to_json
from trilie.liealg import LeviData, LieAlgebra
from trilie.sl2theory import build_irreducible, tensor_multiplicity


def clebsch_gordan_count(a: int, b: int, c: int) -> int:
    """Multiplicity of the (c+1)-dimensional irreducible inside the
    tensor product of the (a+1)- and (b+1)-dimensional ones: 1 exactly
    when |a-b| <= c <= a+b with c = a+b (mod 2), else 0."""
    if abs(a - b) <= c <= a + b and (a + b - c) % 2 == 0:
        return 1
    return 0


def tensor_weight_counts(a: int, b: int) -> dict[int, int]:
    """Weight → number of basis pairs (x_i, y_j) of V_a ⊗ V_b of that
    weight, by visiting every pair."""
    counts: dict[int, int] = {}
    for i in range(a + 1):
        for j in range(b + 1):
            w = (a - 2 * i) + (b - 2 * j)
            counts[w] = counts.get(w, 0) + 1
    return counts


def mask_triangular(space: GradedSpace, matrix: RatMatrix) -> GradedMap:
    """Zero out every degree-lowering block of `matrix`."""
    n = space.total_dim
    dims, offsets = space.component_dims, space.offsets
    zero_blocks = [
        (offsets[k_to], offsets[k_from], RatMatrix.zeros(dims[k_to], dims[k_from]))
        for k_from in range(space.num_components)
        for k_to in range(k_from)
    ]
    return GradedMap(space, RatMatrix.from_blocks(n, n, [(0, 0, matrix)] + zero_blocks))


def graded_map_to_json(g: GradedMap) -> dict:
    """The document `trilie decompose` reads for g."""
    return {
        "dims": list(g.space.component_dims),
        "matrix": matrix_to_json(g.matrix),
    }


def mat_power(a: RatMatrix, k: int) -> RatMatrix:
    """A^k by k products; A^0 = I."""
    if a.rows != a.cols:
        raise ShapeError("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative matrix power")
    out = RatMatrix.identity(a.rows)
    for _ in range(k):
        out = out @ a
    return out


def dense_rows(m: RatMatrix) -> list[list[Fraction]]:
    """The entries of m as plain lists, one per row, zeros included."""
    return [[m.maps.get(i, {}).get(j, Fraction(0)) for j in range(m.cols)]
            for i in range(m.rows)]


def assert_clean(m: RatMatrix) -> None:
    """m has the one row-map shape: `maps` is {row: {column: nonzero
    Fraction}} with each row key in range(rows) and each column key in
    range(cols), and no row is empty (a row that cancelled is dropped)."""
    assert type(m.maps) is dict
    for i, row in m.maps.items():
        assert type(i) is int and 0 <= i < m.rows, i
        assert row, f"row {i} is stored empty"
        for j, x in row.items():
            assert type(j) is int and 0 <= j < m.cols, (i, j)
            assert type(x) is Fraction and x != 0, (i, j, x)


def mat_vec(a: RatMatrix, x) -> tuple[Fraction, ...]:
    """A x over the dense rows of A."""
    if len(x) != a.cols:
        raise ShapeError("vector length does not match matrix columns")
    return tuple(sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in dense_rows(a))


def brute_block_support(dims: list[int], rows: list[list]) -> set[tuple[int, int]]:
    """The (from_degree, to_degree) pairs of blocks with a nonzero entry,
    scanning the dense rows block by block against the component ranges."""
    ranges, pos = [], 0
    for d in dims:
        ranges.append(range(pos, pos + d))
        pos += d
    return {
        (k_from, k_to)
        for k_to, row_range in enumerate(ranges)
        for k_from, col_range in enumerate(ranges)
        if any(rows[r][c] != 0 for r in row_range for c in col_range)
    }


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


def primes_from(start: int, count: int) -> list[int]:
    """The first `count` primes >= start, by Miller-Rabin over the first
    twelve prime bases, which decides every n < 3.3e24 exactly."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

    def is_prime(n):
        if n < 2:
            return False
        for p in bases:
            if n % p == 0:
                return n == p
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in bases:
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    out, n = [], start
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def brute_matrix_bracket(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Plain-list commutator, used to cross-check RatMatrix arithmetic;
    products with a zero factor are left out of each sum."""
    n = len(a)

    def product(x, y):
        return [
            [sum((x[i][k] * y[k][j] for k in range(n) if x[i][k] and y[k][j]), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]

    ab, ba = product(a, b), product(b, a)
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


def printed_rule_cells(lam: int, n: int, s: int):
    """(rule, j, i, θ) for every (j, i) of z_0 … z_Λ that a printed
    z-rule range covers, rule by rule in print order: the zero range
    i + j <= s - 1; the middle sum, θ = 0 … n-s, j = 0 … s+θ, i = s-j+θ;
    the tail sum, θ = 1 … Λ, j = θ … Λ, i = n-j+θ. Cells with i outside
    0 … n are left out."""
    for j in range(lam + 1):
        for i in range(n + 1):
            if s - 1 >= i + j:
                yield "zero", j, i, None
    for theta in range(n - s + 1):
        for j in range(min(s + theta, lam) + 1):
            if 0 <= s - j + theta <= n:
                yield "middle", j, s - j + theta, theta
    for theta in range(1, lam + 1):
        for j in range(theta, lam + 1):
            if 0 <= n - j + theta <= n:
                yield "tail", j, n - j + theta, theta


def z_rule_cover_counts(lam: int, n: int, s: int) -> dict:
    """(j, i) -> the number of printed rule ranges covering the cell,
    for every cell of z_0 … z_Λ, uncovered cells included as 0."""
    counts = {(j, i): 0 for j in range(lam + 1) for i in range(n + 1)}
    for _, j, i, _ in printed_rule_cells(lam, n, s):
        counts[j, i] += 1
    return counts


def brute_z_blocks(lam: int, m: int, n: int, s: int, big_n: int,
                   a: tuple) -> list[list[list[Fraction]]]:
    """z_0 … z_Λ as plain (m+1) x (n+1) lists from the three printed
    rules over `printed_rule_cells`, each sum taken over its whole
    printed range; where two rules cover one (j, i) the first (zero
    range, middle, tail) is kept."""

    def a_(idx):
        if idx == 0:
            return Fraction(1)
        return a[idx - 1] if 1 <= idx <= n - s else Fraction(0)

    def term(sign_exp, binom, top, bottom, scalar):
        return Fraction(
            (-1 if sign_exp % 2 else 1) * binom * math.factorial(top),
            math.factorial(bottom) * math.factorial(m),
        ) * scalar

    z = [[[Fraction(0)] * (n + 1) for _ in range(m + 1)] for _ in range(lam + 1)]
    covered = set()
    for rule, j, i, theta in printed_rule_cells(lam, n, s):
        if (j, i) in covered:
            continue
        covered.add((j, i))
        if rule == "middle" and theta + big_n <= m:
            z[j][theta + big_n][i] = sum(
                term(j - k, math.comb(j, k), m - big_n - theta + k,
                     big_n + theta - k, a_(theta - k))
                for k in range(theta + 1)
            )
        elif rule == "tail" and n - s + theta + big_n <= m:
            z[j][n - s + theta + big_n][i] = sum(
                term(j - theta - k, math.comb(j, theta + k),
                     m - big_n - n + s + k, big_n + n - s - k,
                     a_(n - s - k))
                for k in range(j - theta + 1)
                if n - s - k >= 0
            )
    return z


def brute_weight_witness(lam: int, m: int, n: int, blocks: list) -> tuple | None:
    """First (j, i, t), with j, then t, then i ascending over the plain
    (m+1) x (n+1) lists blocks[j], where z_j·u_i has a nonzero w_t
    coefficient though m - 2t != (lam - 2j) + (n - 2i); None if none."""
    for j, block in enumerate(blocks):
        for t in range(m + 1):
            for i in range(n + 1):
                if block[t][i] != 0 and m - 2 * t != (lam - 2 * j) + (n - 2 * i):
                    return (j, i, t)
    return None


def brute_fill_blocks(rows: int, cols: int, blocks) -> list[list[Fraction]]:
    """Plain-list matrix filled entry by entry from (r0, c0, block rows)."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for r0, c0, block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
    return out


def _brute_reduce(rows: list[list[Fraction]], ncols: int):
    """Plain-list Gauss-Jordan over Fractions: (reduced rows, pivot
    columns). A pivot row is subtracted on its nonzero entries only."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        support = [k for k, y in enumerate(rows[r]) if y != 0]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                for k in support:
                    rows[i][k] -= f * rows[r][k]
        pivots.append(c)
    return rows, pivots


def brute_product(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    """Plain-list matrix product; b needs a row to fix the column count."""
    cols = len(b[0]) if b else 0
    return [
        [sum((r[k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for r in a
    ]


def brute_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Plain-list inverse of a square matrix, by Gauss-Jordan on [A | I]."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    reduced, pivots = _brute_reduce(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[x / row[i] for x in row[n:]] for i, row in enumerate(reduced[:n])]


def brute_exp_nilpotent(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """sum_k A^k / k! over plain lists; ValueError when A^n != 0."""
    n = len(a)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = [row[:] for row in out]
    for k in range(1, n + 1):
        power = brute_product(power, a)
        out = [[x + y / math.factorial(k) for x, y in zip(u, v)] for u, v in zip(out, power)]
    if any(x for row in power for x in row):
        raise ValueError("matrix is not nilpotent")
    return out


def brute_rank(rows: list[list[Fraction]]) -> int:
    """Plain-list Gauss-Jordan rank over Fractions."""
    return len(_brute_reduce(rows, len(rows[0]) if rows else 0)[1])


def brute_in_span(basis: list, v: list) -> bool:
    """v lies in the span of the basis vectors (the zero vector always does)."""
    return brute_rank([list(b) for b in basis] + [list(v)]) == brute_rank(
        [list(b) for b in basis]
    )


def brute_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Kernel basis, one vector per free column in ascending order, with
    a 1 at its free column and 0 at the other free columns."""
    reduced, pivots = _brute_reduce(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][free] / reduced[r][pc]
        basis.append(v)
    return basis


def brute_extension_basis(lam: int, n: int, m: int) -> list[list[Fraction]]:
    """Kernel of the dense extension system H_m Z - Z H_n = lam Z,
    E_m Z - Z E_n = 0 on all (m+1)(n+1) entries of Z, row-major, with
    h·x_i = (d-2i)x_i and e·x_i = i(d-i+1)x_{i-1} on a string x_0 … x_d."""

    def h(d):
        return [[Fraction(d - 2 * i if i == j else 0) for j in range(d + 1)]
                for i in range(d + 1)]

    def e(d):
        return [[Fraction(j * (d - j + 1) if i == j - 1 else 0)
                 for j in range(d + 1)] for i in range(d + 1)]

    def sylvester_rows(a, c, shift):
        # row (p, q) of Z -> AZ - ZC - shift·Z over unknowns (t, r)
        rows = []
        for p in range(m + 1):
            for q in range(n + 1):
                row = [Fraction(0)] * ((m + 1) * (n + 1))
                for t in range(m + 1):
                    row[t * (n + 1) + q] += a[p][t]
                for r in range(n + 1):
                    row[p * (n + 1) + r] -= c[r][q]
                row[p * (n + 1) + q] -= shift
                rows.append(row)
        return rows

    rows = sylvester_rows(h(m), h(n), lam) + sylvester_rows(e(m), e(n), 0)
    return brute_nullspace(rows, (m + 1) * (n + 1))


def brute_contains(basis, block: RatMatrix) -> tuple:
    """Membership of a block in the span of a reduced basis (each basis
    matrix 1 on its free cell, its last stored cell in row-major order,
    and 0 on the others'), and the scalar when the span is a line (0
    for the zero block): the block's free-cell entries are its
    coordinates, and it is a member iff it equals that combination."""
    if block.is_zero():
        return True, Fraction(0)
    coeffs = []
    for b in basis:
        t = max(b.maps)
        coeffs.append(block[t, max(b.maps[t])])
    if combination(basis, enumerate(coeffs)) != block:
        return False, None
    return True, coeffs[0] if len(coeffs) == 1 else None


def brute_jsonable(value):
    """A report value as plain JSON values, by a walk of its own:
    Fractions as rat_str, tuples as lists, dict keys through str(), and a
    RatMatrix as its dense row listing."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, dict):
        return {str(k): brute_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [brute_jsonable(v) for v in value]
    if isinstance(value, RatMatrix):
        return [[rat_str(value[r, c]) for c in range(value.cols)] for r in range(value.rows)]
    return value


def brute_unprintable(value, field: str = "") -> str | None:
    """The field of the first leaf under `value` that str() refuses, or
    None: dict keys joined by ".", list indices as "[i]", and a matrix
    walked by its stored entries as "[r][c]". "" names `value` itself."""
    if isinstance(value, dict):
        items = ((f"{field}.{k}" if field else str(k), v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{field}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, RatMatrix):
        items = (
            (f"{field}[{r}][{c}]", x)
            for r, row in sorted(value.maps.items())
            for c, x in row.items()
        )
    else:
        try:
            str(value)
        except ValueError:
            return field
        return None
    found = (brute_unprintable(v, f) for f, v in items)
    return next((f for f in found if f is not None), None)


def brute_family_verdict(space, m: int, n: int, s: int, big_n: int, a) -> tuple:
    """(member, scalar) of the z_0 block of the valid tuple (m, n, s, N)
    with scalars a_1 … a_{n-s} in the span of `space`, walked in
    Fractions over the line's stored cells: the scalar is the first
    cell's z over the line's there, each later z must be that multiple,
    and z_0 may store no cell off the line."""
    if not space.basis:
        return False, None
    (line,) = space.basis
    scalar = None
    for t, row in sorted(line.maps.items()):
        for i, x in row.items():
            z = z0_entry(m, n, s, big_n, a, t, i)
            if not z:
                return False, None
            if scalar is None:
                scalar = z / x
            elif z != scalar * x:
                return False, None
    in_range = min(n - s, m - big_n)
    if 1 + sum(map(bool, a[:in_range])) != sum(map(len, line.maps.values())):
        return False, None
    return True, scalar


def brute_param_problems(lam: int, m: int, n: int, s: int, big_n: int, a) -> list[str]:
    """Every condition of the family that the tuple (Λ, m, n, s, N) with
    scalars a breaks, one text each, in a fixed order; [] for a tuple of
    the family."""
    problems = []
    if lam < 1:
        problems.append(f"lam must be >= 1, got {lam}")
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
    return problems


def brute_enumerate_params(lam: int, m_max: int, n_max: int) -> list[tuple[int, int, int, int]]:
    """Every (m, n, s, N) of the box n <= n_max, s <= n, N <= m_max that
    the family constraint admits with m <= m_max, filtered one by one,
    in order of n, then s, then N."""
    out = []
    for n in range(n_max + 1):
        for s in range(n + 1):
            for big_n in range(m_max + 1):
                m = lam + n + 2 * big_n - 2 * s
                if 0 <= m <= m_max and m >= big_n:
                    out.append((m, n, s, big_n))
    return out


def z_tower(p, z0: RatMatrix) -> list[RatMatrix]:
    """Z_0 … Z_Λ plus the trailing Z_{Λ+1} of an extension problem p,
    generated by ad(f): Z_{j+1} = F_m Z_j - Z_j F_n."""
    f_n, f_m = build_irreducible(p.n).f_mat, build_irreducible(p.m).f_mat
    tower = [z0]
    for _ in range(p.lam + 1):
        tower.append(f_m @ tower[-1] - tower[-1] @ f_n)
    return tower


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


def brute_bracket(dim: int, structure: dict, x: list, y: list) -> list[Fraction]:
    """Plain-list bilinear bracket from a table {(i, j): {k: c}} stored
    for i < j, with [b_j, b_i] = -[b_i, b_j] and [b_i, b_i] = 0."""
    out = [Fraction(0)] * dim
    for i in range(dim):
        for j in range(dim):
            if i == j or x[i] == 0 or y[j] == 0:
                continue
            sign = 1 if i < j else -1
            for k, c in structure.get((min(i, j), max(i, j)), {}).items():
                out[k] += sign * Fraction(c) * x[i] * y[j]
    return out


def brute_homomorphism_witness(dim: int, structure: dict, images: list) -> tuple:
    """(True, None) when [rho(b_i), rho(b_j)] = rho([b_i, b_j]) for every
    pair i < j, else (False, (i, j)) for the first failing pair in
    lexicographic order. images[i] is rho(b_i) as a plain n x n list;
    [b_i, b_j] comes from brute_bracket and the commutator from
    brute_matrix_bracket."""
    n = len(images[0]) if images else 0
    for i in range(dim):
        for j in range(i + 1, dim):
            coeffs = brute_bracket(dim, structure, _unit(dim, i), _unit(dim, j))
            terms = [(c, images[k]) for k, c in enumerate(coeffs) if c != 0]
            want = [
                [sum((c * m[r][q] for c, m in terms if m[r][q]), Fraction(0))
                 for q in range(n)]
                for r in range(n)
            ]
            if brute_matrix_bracket(images[i], images[j]) != want:
                return False, (i, j)
    return True, None


def brute_jacobi_witness(dim: int, structure: dict):
    """First basis triple i < j < k, in lexicographic order, where
    [[b_i, b_j], b_k] + [[b_j, b_k], b_i] + [[b_k, b_i], b_j] != 0,
    computed with plain lists; None when Jacobi holds."""

    def unit(i):
        return [Fraction(int(p == i)) for p in range(dim)]

    def br(x, y):
        return brute_bracket(dim, structure, x, y)

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                bi, bj, bk = unit(i), unit(j), unit(k)
                terms = (br(br(bi, bj), bk), br(br(bj, bk), bi), br(br(bk, bi), bj))
                if any(sum(t[q] for t in terms) != 0 for q in range(dim)):
                    return (i, j, k)
    return None


def brute_span(vectors: list, dim: int) -> list[list[Fraction]]:
    """Rows of the reduced row echelon form of the vectors (pivots scaled
    to 1, zero rows dropped): a canonical basis of their span."""
    reduced, pivots = _brute_reduce([[Fraction(x) for x in v] for v in vectors], dim)
    return [[x / reduced[r][pc] for x in reduced[r]] for r, pc in enumerate(pivots)]


def brute_derived_series(dim: int, structure: dict, basis: list) -> list:
    """D^1 = span(basis), D^{k+1} = [D^k, D^k], until 0 or until a term
    repeats, each term a brute_span; brackets from brute_bracket."""
    series = [brute_span(basis, dim)]
    while series[-1]:
        cur = series[-1]
        nxt = brute_span([brute_bracket(dim, structure, a, b) for a in cur for b in cur], dim)
        if nxt == cur:
            break
        series.append(nxt)
    return series


def brute_lower_central_series(dim: int, structure: dict, basis: list) -> list:
    """N^1 = span(basis), N^{k+1} = [N^1, N^k], until 0 or until a term
    repeats, each term a brute_span; brackets from brute_bracket."""
    first = brute_span(basis, dim)
    series = [first]
    while series[-1]:
        nxt = brute_span(
            [brute_bracket(dim, structure, a, b) for a in first for b in series[-1]], dim
        )
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def corrupt_bracket(rng: random.Random, structure: dict, dim: int) -> dict:
    """A copy of a table {(i, j): {k: c}} (i < j) with the bracket of one
    random pair replaced by zero or by one or two random terms."""
    out = {pair: dict(coeffs) for pair, coeffs in structure.items()}
    i, j = sorted(rng.sample(range(dim), 2))
    out[i, j] = {
        rng.randrange(dim): Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        for _ in range(rng.randint(0, 2))
    }
    return out


def rebased(structure: dict, perm, scales) -> dict:
    """The table of the basis b'_p = scales[p] b_perm[p], from a table of
    the b_i: [b'_p, b'_q] = s_p s_q [b_perm[p], b_perm[q]], with each b_k
    written as b'_p' / s_p' where perm[p'] = k."""
    where = {old: p for p, old in enumerate(perm)}
    out = {}
    for (a, b), coeffs in structure.items():
        p, q = where[a], where[b]
        sign = 1 if p < q else -1
        out[min(p, q), max(p, q)] = {
            where[k]: sign * scales[p] * scales[q] * c / scales[where[k]]
            for k, c in coeffs.items()
        }
    return out


def _unit(dim: int, i: int) -> list[Fraction]:
    return [Fraction(int(p == i)) for p in range(dim)]


def brute_index_escape(dim: int, structure: dict, pairs, span) -> tuple | None:
    """First (i, j, k), over the pairs in order and then k ascending,
    where [b_i, b_j] has a nonzero b_k coefficient with k not in span."""
    for i, j in pairs:
        v = brute_bracket(dim, structure, _unit(dim, i), _unit(dim, j))
        for k in range(dim):
            if v[k] != 0 and k not in span:
                return (i, j, k)
    return None


def brute_restricted_ad(dim: int, structure: dict, indices) -> list:
    """ad(b_g) on span{b_g : g in indices}, one plain len x len list per
    listed g: column q holds [b_g, b_indices[q]], with each b_k written
    at the last position of k in the list. The span must be closed."""
    pos = {g: p for p, g in enumerate(indices)}
    out = []
    for g in indices:
        m = [[Fraction(0)] * len(indices) for _ in indices]
        for q, g2 in enumerate(indices):
            for k, c in enumerate(brute_bracket(dim, structure, _unit(dim, g), _unit(dim, g2))):
                if c != 0:
                    m[pos[k]][q] = c
        out.append(m)
    return out


def brute_killing_rank(dim: int, structure: dict, indices) -> int:
    """Rank of the Killing form of span{b_g : g in indices}, one row and
    one column per listed index: tr(ad_p ad_q) over the
    brute_restricted_ad matrices, multiplied by brute_product. The span
    must be closed."""
    ads = brute_restricted_ad(dim, structure, indices)
    return brute_rank([
        [sum((row[t] for t, row in enumerate(brute_product(p, q))), Fraction(0)) for q in ads]
        for p in ads
    ])


def brute_levi_witnesses(dim: int, structure: dict, levi, radical, nilrad) -> dict:
    """The witness, or None when the check passes, of the five checks of
    a Levi declaration, from plain lists:
    - partition: the three lists, when the Levi and radical lists
      together are not each index once, or the nilradical holds an
      index outside the radical;
    - levi_closed: the index escape over pairs i < j, both taken from
      the Levi list in its order;
    - levi_killing_nondegenerate: "rank deficient", unless the Levi span
      is closed and brute_killing_rank is the length of the Levi list;
    - radical_solvable_ideal and nilradical_nilpotent_ideal: the index
      escape over i in range(dim) and j in the list, then the derived
      (lower central) series of the span of the listed unit vectors,
      which must end at 0."""
    units = lambda idx: [_unit(dim, i) for i in idx]  # noqa: E731
    ideal = lambda idx: [(i, j) for i in range(dim) for j in idx]  # noqa: E731
    rad = brute_index_escape(dim, structure, ideal(radical), radical)
    if rad is None and brute_derived_series(dim, structure, units(radical))[-1]:
        rad = "derived series stabilizes nonzero"
    nil = brute_index_escape(dim, structure, ideal(nilrad), nilrad)
    if nil is None and brute_lower_central_series(dim, structure, units(nilrad))[-1]:
        nil = "lower central series stabilizes nonzero"
    closed = brute_index_escape(
        dim, structure, [(i, j) for i in levi for j in levi if i < j], levi
    )
    full = closed is None and brute_killing_rank(dim, structure, levi) == len(levi)
    each_once = sorted(list(levi) + list(radical)) == list(range(dim))
    return {
        "partition": None if each_once and set(nilrad) <= set(radical) else {
            "levi": list(levi), "radical": list(radical), "nilradical": list(nilrad)
        },
        "levi_closed": closed,
        "levi_killing_nondegenerate": None if full else "rank deficient",
        "radical_solvable_ideal": rad,
        "nilradical_nilpotent_ideal": nil,
    }


def brute_sl2_triple(dim: int, structure: dict, levi) -> tuple | str:
    """(f, h, e) for a Levi list, or the text of the error that rejects
    it, from the definition with plain lists:
    - the Levi list has three entries, and its span is closed;
    - candidates h = b_g are tried in Levi order; m is ad(h) on the
      span, in local coordinates that put b_k at the last position of k
      in the list;
    - m has the eigenvalues 2, 0, -2, each on a line, with eigenvectors
      e and f for 2 and -2;
    - e is divided by the h-coordinate c != 0 of [e, f], and the triple
      is kept when [h, e] = 2e, [h, f] = -2f and [e, f] = h all hold."""
    if len(levi) != 3:
        return f"irreducibility test supports only 3-dimensional Levi factors, got {len(levi)}"
    pos = {g: p for p, g in enumerate(levi)}

    def br(x, y):
        return brute_bracket(dim, structure, x, y)

    def ambient(v):
        out = [Fraction(0)] * dim
        for p, c in enumerate(v):
            out[levi[p]] += c
        return out

    ads = []
    for g in levi:
        m = [[Fraction(0)] * 3 for _ in range(3)]
        for q, g2 in enumerate(levi):
            for k, c in enumerate(br(_unit(dim, g), _unit(dim, g2))):
                if c != 0:
                    if k not in pos:
                        return "Levi span not closed"
                    m[pos[k]][q] = c
        ads.append(m)
    for g, m in zip(levi, ads):
        lines = []
        for w in (2, -2, 0):
            shifted = [[m[r][c] - (w if r == c else 0) for c in range(3)] for r in range(3)]
            lines.append(brute_nullspace(shifted, 3))
            if len(lines[-1]) != 1:
                break
        else:
            e, f, h = ambient(lines[0][0]), ambient(lines[1][0]), _unit(dim, g)
            c = br(e, f)[g]
            if c == 0:
                continue
            e = [x / c for x in e]
            if (br(h, e) == [2 * x for x in e] and br(h, f) == [-2 * x for x in f]
                    and br(e, f) == h):
                return tuple(f), tuple(h), tuple(e)
    return "no Levi basis element acts with eigenvalues {2, 0, -2}"


def is_weight_string(h: RatMatrix, e: RatMatrix) -> bool:
    """One sl2 weight string on a d-dimensional space: rank(h - wI) = d-1
    at each weight w = d-1, d-3, …, 1-d, and a 1-dimensional e-kernel.

    d distinct weights, each on a line, fill the space, so the answer is
    that of `weight_decomposition(h) == {d-1: 1, d-3: 1, …}` (False where
    that call raises), from d + 1 ranks whatever the size of the entries.
    The weight-scanning oracle for the one-rank irreducibility test.
    """
    d = h.rows
    return all(
        rank(h - RatMatrix.diagonal([Fraction(d - 1 - 2 * i)] * d)) == d - 1
        for i in range(d)
    ) and rank(e) == d - 1


def sl2_heisenberg_skewed():
    """sl2 ⋉ Heisenberg: x0, x1 a doublet with [x0, x1] = c central, in
    the basis f, h, e, x0 + c, x1, c, where x0 + c spans no invariant line."""
    structure = {
        (0, 1): {0: 2}, (0, 2): {1: -1}, (1, 2): {2: 2},
        (0, 3): {4: 1}, (1, 3): {3: 1, 5: -1}, (1, 4): {4: -1},
        (2, 4): {3: 1, 5: -1}, (3, 4): {5: 1},
    }
    L = LieAlgebra(6, ("f", "h", "e", "b3", "b4", "c"), structure)
    return L, LeviData((0, 1, 2), (3, 4, 5), (3, 4, 5))


def brute_classification_report(lam: int, n_max: int, m_max: int) -> dict:
    """The classify report as a dict, built field by field from the
    solver, the tensor count and `match_family`: the oracle for the
    classify text renderer.

    Each cell records the solver dimension, the character-theoretic
    prediction, the parameter tuples landing on the cell (those of
    `enumerate_params` with that (n, m), in order of s), and the
    membership verdict of the family block at the all-ones scalar
    sample. Mismatches in either direction are flagged per cell."""
    tuples: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m, n, s, big_n in enumerate_params(lam, m_max, n_max):
        tuples.setdefault((n, m), []).append((s, big_n))
    cells = []
    for n in range(n_max + 1):
        for m in range(m_max + 1):
            problem = ExtensionProblem(lam, n, m)
            space = solve_extensions(problem)
            cg = tensor_multiplicity(lam, n, m)
            matches = []
            any_nonzero_member = False
            any_family_outside = False
            for s, big_n in tuples.get((n, m), ()):
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
                if verdict["member"]:
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
