"""Exact rational scalars and dense exact linear algebra.

Everything downstream runs on `fractions.Fraction`: results are exact,
equality tests are exact, and there is deliberately no floating-point
path. Matrices are small and dense; elimination is fraction-free over
integer-cleared rows, with pivots normalized to 1 only at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class ShapeError(ValueError):
    """Operands with incompatible dimensions."""


def rat(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a canonical Fraction.
    Strings in exponent notation are rejected: their size is unbounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value.lower():
            # "1e999999999" would take a dozen bytes to ask for gigabytes
            raise ValueError(f"exponent notation in {value!r}; write p/q")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not a rational: {value!r}")


def rat_str(value) -> str:
    """Canonical form used in all JSON artifacts: "p/q", or "p" when q = 1."""
    q = rat(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative argument {n}")
    return math.factorial(n)


def binomial(j: int, k: int) -> int:
    """j over k, extended by 0 outside 0 <= k <= j."""
    if j < 0:
        raise ValueError(f"binomial with negative upper index {j}")
    if k < 0 or k > j:
        return 0
    return math.comb(j, k)


Vector = tuple[Fraction, ...]


def vector(entries: Sequence) -> Vector:
    return tuple(rat(x) for x in entries)


def zero_vector(dim: int) -> Vector:
    return (ZERO,) * dim


def unit_vector(dim: int, i: int) -> Vector:
    if not 0 <= i < dim:
        raise IndexError(f"unit vector index {i} out of range for dim {dim}")
    return tuple(ONE if j == i else ZERO for j in range(dim))


def vec_add(x: Vector, y: Vector) -> Vector:
    if len(x) != len(y):
        raise ShapeError("vector length mismatch")
    return tuple(a + b for a, b in zip(x, y))


def vec_scale(x: Vector, c) -> Vector:
    c = rat(c)
    return tuple(c * a for a in x)


def vec_is_zero(x: Vector) -> bool:
    return all(a == 0 for a in x)


class RatMatrix:
    """Dense matrix of Fractions, stored row-major.

    Instances are treated as immutable; all operations return new
    matrices. Zero-row and zero-column shapes are allowed.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        data = [rat(x) for x in data]
        if len(data) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        data = [ZERO] * (n * n)
        for i in range(n):
            data[i * n + i] = ONE
        return cls(n, n, data)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RatMatrix":
        n = len(entries)
        data = [ZERO] * (n * n)
        for i, x in enumerate(entries):
            data[i * n + i] = rat(x)
        return cls(n, n, data)

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks) -> "RatMatrix":
        """rows x cols matrix, zero except for each (r0, c0, block) placed
        with its top-left entry at (r0, c0); later blocks overwrite."""
        data = [ZERO] * (rows * cols)
        for r0, c0, block in blocks:
            if min(r0, c0) < 0 or r0 + block.rows > rows or c0 + block.cols > cols:
                raise ShapeError(
                    f"{block.rows}x{block.cols} block at ({r0}, {c0}) "
                    f"overflows {rows}x{cols}"
                )
            for i in range(block.rows):
                start = (r0 + i) * cols + c0
                data[start : start + block.cols] = block.data[
                    i * block.cols : (i + 1) * block.cols
                ]
        return cls(rows, cols, data)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return tuple(self.data[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> Vector:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(rat_str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"add shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return RatMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.data, other.data)]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"sub shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return RatMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.data, other.data)]
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, [-a for a in self.data])

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix(self.rows, self.cols, [c * a for a in self.data])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"matmul shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        out = [ZERO] * (n * p)
        a, b = self.data, other.data
        for i in range(n):
            for k in range(m):
                aik = a[i * m + k]
                if aik == 0:
                    continue
                off = k * p
                base = i * p
                for j in range(p):
                    bkj = b[off + j]
                    if bkj != 0:
                        out[base + j] += aik * bkj
        return RatMatrix(n, p, out)

    def apply(self, x: Vector) -> Vector:
        if len(x) != self.cols:
            raise ShapeError("vector length does not match matrix columns")
        out = [ZERO] * self.rows
        for j, xj in enumerate(x):
            if xj == 0:
                continue
            for i in range(self.rows):
                aij = self.data[i * self.cols + j]
                if aij != 0:
                    out[i] += aij * xj
        return tuple(out)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ShapeError("trace of a non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), ZERO)

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "RatMatrix":
        data = [self[i, j] for i in row_indices for j in col_indices]
        return RatMatrix(len(row_indices), len(col_indices), data)


def commutator(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """AB - BA for square matrices of equal size."""
    if a.rows != a.cols or b.rows != b.cols or a.rows != b.rows:
        raise ShapeError("commutator needs square matrices of equal size")
    return a @ b - b @ a


def sylvester_system(a: RatMatrix, c: RatMatrix) -> RatMatrix:
    """Matrix of X -> AX - XC acting on row-major vec(X), for square A
    (r x r) and C (k x k); X is r x k, entry (p, q) at index p*k + q."""
    if a.rows != a.cols or c.rows != c.cols:
        raise ShapeError("Sylvester system needs square matrices")
    r, k = a.rows, c.rows
    n = r * k
    data = [ZERO] * (n * n)
    for p in range(r):
        for q in range(k):
            base = (p * k + q) * n
            for t in range(r):
                data[base + t * k + q] += a.data[p * r + t]
            for t in range(k):
                data[base + p * k + t] -= c.data[t * k + q]
    return RatMatrix(n, n, data)


def mat_power(a: RatMatrix, k: int) -> RatMatrix:
    if a.rows != a.cols:
        raise ShapeError("power of a non-square matrix")
    if k < 0:
        raise ValueError("negative matrix power")
    out = RatMatrix.identity(a.rows)
    for _ in range(k):
        out = out @ a
    return out


def exp_nilpotent(a: RatMatrix) -> RatMatrix:
    """exp(A) as the finite sum sum_k A^k / k!; A must be nilpotent."""
    if a.rows != a.cols:
        raise ShapeError("exp of a non-square matrix")
    n = a.rows
    if n == 0:
        return RatMatrix.identity(0)
    out = RatMatrix.identity(n)
    power = RatMatrix.identity(n)
    for k in range(1, n + 1):
        power = power @ a
        if power.is_zero():
            return out
        out = out + power.scale(Fraction(1, math.factorial(k)))
    raise ValueError("matrix is not nilpotent")


def _integer_rows(a: RatMatrix) -> list[list[int]]:
    # scale each row to a primitive integer vector (row scaling is a
    # legal row operation, so rank / rref / nullspace are unaffected)
    out = []
    for i in range(a.rows):
        row = a.row(i)
        denom_lcm = 1
        for x in row:
            denom_lcm = denom_lcm * x.denominator // math.gcd(denom_lcm, x.denominator)
        ints = [x.numerator * (denom_lcm // x.denominator) for x in row]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _forward_eliminate(rows: list[list[int]], cols: int) -> list[int]:
    # fraction-free forward pass: cross-multiplied row updates with gcd
    # renormalization to bound entry growth; pivot = first row holding a
    # nonzero entry in column order (deterministic)
    pivots: list[int] = []
    pr = 0
    nrows = len(rows)
    for pc in range(cols):
        pivot = None
        for r in range(pr, nrows):
            if rows[r][pc] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != pr:
            rows[pr], rows[pivot] = rows[pivot], rows[pr]
        pv = rows[pr][pc]
        for r in range(pr + 1, nrows):
            x = rows[r][pc]
            if x == 0:
                continue
            new = [pv * a - x * b for a, b in zip(rows[r], rows[pr])]
            g = 0
            for v in new:
                g = math.gcd(g, v)
            rows[r] = [v // g for v in new] if g > 1 else new
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    return pivots


def rref(a: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    rows = _integer_rows(a)
    pivots = _forward_eliminate(rows, a.cols)
    frows = []
    for r, pc in enumerate(pivots):
        pv = rows[r][pc]
        frows.append([Fraction(v, pv) for v in rows[r]])
    for idx in range(len(pivots) - 1, -1, -1):
        pc = pivots[idx]
        for r2 in range(idx):
            f = frows[r2][pc]
            if f != 0:
                frows[r2] = [x - f * y for x, y in zip(frows[r2], frows[idx])]
    data: list[Fraction] = []
    for fr in frows:
        data.extend(fr)
    data.extend([ZERO] * ((a.rows - len(frows)) * a.cols))
    return RatMatrix(a.rows, a.cols, data), tuple(pivots)


def rank(a: RatMatrix) -> int:
    rows = _integer_rows(a)
    return len(_forward_eliminate(rows, a.cols))


def nullspace_basis(a: RatMatrix) -> list[Vector]:
    """Exact kernel basis, one vector per free column (ascending order)."""
    reduced, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(a.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * a.cols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r, free]
        basis.append(tuple(v))
    return basis


def solve(a: RatMatrix, b: Sequence) -> Vector | None:
    """One exact solution of Ax = b (free variables set to 0), or None."""
    b = vector(b)
    if len(b) != a.rows:
        raise ShapeError("right-hand side length does not match matrix rows")
    data = []
    for i in range(a.rows):
        data.extend(a.row(i))
        data.append(b[i])
    aug = RatMatrix(a.rows, a.cols + 1, data)
    reduced, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r, a.cols]
    return tuple(x)


def invert(a: RatMatrix) -> RatMatrix:
    if a.rows != a.cols:
        raise ShapeError("inverse of a non-square matrix")
    n = a.rows
    data = []
    for i in range(n):
        data.extend(a.row(i))
        data.extend(ONE if j == i else ZERO for j in range(n))
    reduced, pivots = rref(RatMatrix(n, 2 * n, data))
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return reduced.submatrix(range(n), range(n, 2 * n))


def columns_matrix(vectors: Sequence[Vector], dim: int) -> RatMatrix:
    """dim x len(vectors) matrix whose columns are the given vectors."""
    data = [ZERO] * (dim * len(vectors))
    for j, v in enumerate(vectors):
        if len(v) != dim:
            raise ShapeError("vector length does not match dim")
        for i, x in enumerate(v):
            data[i * len(vectors) + j] = x
    return RatMatrix(dim, len(vectors), data)


def span_basis(vectors: Sequence[Vector], dim: int) -> list[Vector]:
    """Canonical (rref-row) basis of the span; equal spans give equal lists."""
    if not vectors:
        return []
    reduced, pivots = rref(RatMatrix.from_rows([list(v) for v in vectors]))
    return [reduced.row(r) for r in range(len(pivots))]


def span_contains(basis: Sequence[Vector], v: Vector, dim: int) -> bool:
    if vec_is_zero(v):
        return True
    if not basis:
        return False
    return solve(columns_matrix(basis, dim), v) is not None


def extend_independent(
    base: Sequence[Vector], candidates: Sequence[Vector], dim: int
) -> list[Vector]:
    """Greedily pick candidates (in order) that grow the span of `base`:
    the candidates that are pivot columns of [base | candidates], since
    a column is a pivot iff it lies outside the span of those before it."""
    if not candidates:
        return []
    columns = list(base) + list(candidates)
    pivots = _forward_eliminate(
        _integer_rows(columns_matrix(columns, dim)), len(columns)
    )
    return [columns[p] for p in pivots if p >= len(base)]
