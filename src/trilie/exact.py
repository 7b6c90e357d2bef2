"""Exact rational scalars and sparse exact linear algebra.

Everything downstream runs on `fractions.Fraction`: results are exact,
equality tests are exact, and there is deliberately no floating-point
path. A matrix stores only its nonempty rows, as {row: {column: nonzero
entry}}, since triangular representations are mostly zero; arithmetic
touches only the stored entries, and a row that cancels is dropped, so
equal matrices have equal maps. Elimination runs row by row on the same
sparse maps, cleared to primitive integer rows: it is fraction-free,
and its pivots do not depend on the row order; it stops once the rows
seen reach full column rank. Fractions appear only in rref's reduced
rows, one per stored entry. For a family of equal-shape matrices M_k,
`combination` sums c_k M_k. Every sparse sum, products included, adds
scaled rows with `add_scaled_row`, except where a row is reused as it
stands: a sum shares the rows the other operand does not store, and a
product shares the right factor's row for a left row that is one entry
equal to 1, since rows are never changed after construction. So a
change of basis by unit vectors multiplies no Fraction. Checks that
read only zero patterns, which a positive scale keeps, run on integer
row maps of the same shape (`add_product`), each image or bracket
cleared by its own denominator; `exp_nilpotent_rows` gives E exp(±A)
over one integer E, and `exp_nilpotent` is built on it.
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
    A string that is an optional "-" and ASCII digits only is read by
    int(), in a third of the time of Fraction's regex, and with the same
    ValueError past CPython's digit bound; other spellings go to Fraction.
    Strings in exponent notation are rejected: their size is unbounded.
    A bool (JSON's true or false) is no number, though Python's int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if value.removeprefix("-").isdigit() and value.isascii():
            return Fraction(int(value))
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


Vector = tuple[Fraction, ...]


def vector(entries: Sequence) -> Vector:
    return tuple(rat(x) for x in entries)


def unit_vector(dim: int, i: int) -> Vector:
    if not 0 <= i < dim:
        raise IndexError(f"unit vector index {i} out of range for dim {dim}")
    return tuple(ONE if j == i else ZERO for j in range(dim))


class RatMatrix:
    """Sparse matrix of Fractions: `maps` is {row: {column: nonzero
    Fraction}}, holding the nonempty rows alone.

    The maps never hold a zero or an empty row, so equality is map
    equality and every operation costs time in the number of nonzero
    entries, not in the shape. Instances are treated as immutable (row
    maps are never changed after construction); all operations return
    new matrices. Zero-row and zero-column shapes are allowed. `data`
    is a dense row-major copy, for callers that want plain entries.
    """

    __slots__ = ("rows", "cols", "maps")

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
        self.maps = {
            i: row
            for i in range(rows)
            if (row := {j: x for j, x in enumerate(data[i * cols : (i + 1) * cols]) if x})
        }

    @classmethod
    def _from_maps(cls, rows: int, cols: int, maps: dict) -> "RatMatrix":
        """Trusted constructor: `maps` must be {row: {column: entry}} with
        rows in range(rows), columns in range(cols), no empty row, and
        nonzero Fraction entries; a row that cancelled must have been
        dropped. Nothing is coerced or checked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.maps = maps
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], parse=None) -> "RatMatrix":
        """Matrix from a list of rows, each entry coerced by `parse` (rat()
        if None); the literal "0" that fills JSON artifacts is skipped
        unparsed. A row that is all "0" is found by one C `count`, and never
        iterated; any other row is scanned by a plain loop, and only its
        other entries are parsed. Per entry, on rows of width 128 down to
        8 (CPython 3.11): count 1-10 ns, the loop 23-42 ns, against 34-87
        ns for the C iterator chain compress(count(), map(ne, ...))."""
        parse = parse or rat
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        maps = {}
        for i, r in enumerate(rows):
            if r.count("0") != ncols:
                row = {}
                for j, x in enumerate(r):
                    if x != "0" and (x := parse(x)):
                        row[j] = x
                if row:
                    maps[i] = row
        return cls._from_maps(nrows, ncols, maps)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        return cls._from_maps(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        if n < 0:
            raise ShapeError(f"negative matrix shape {n}x{n}")
        return cls._from_maps(n, n, {i: {i: ONE} for i in range(n)})

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RatMatrix":
        n = len(entries)
        diag = [rat(x) for x in entries]
        return cls._from_maps(n, n, {i: {i: x} for i, x in enumerate(diag) if x})

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks) -> "RatMatrix":
        """rows x cols matrix, zero except for each (r0, c0, block) placed
        with its top-left entry at (r0, c0); later blocks overwrite, also
        where they store nothing."""
        maps: dict[int, dict] = {}
        for r0, c0, block in blocks:
            if min(r0, c0) < 0 or r0 + block.rows > rows or c0 + block.cols > cols:
                raise ShapeError(
                    f"{block.rows}x{block.cols} block at ({r0}, {c0}) "
                    f"overflows {rows}x{cols}"
                )
            c1 = c0 + block.cols
            for i in range(block.rows):
                old = maps.pop(r0 + i, None)
                row = {j: x for j, x in old.items() if not c0 <= j < c1} if old else {}
                for j, x in block.maps.get(i, {}).items():
                    row[c0 + j] = x
                if row:
                    maps[r0 + i] = row
        return cls._from_maps(rows, cols, maps)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        return self.maps.get(i, {}).get(j, ZERO)

    @property
    def data(self) -> list[Fraction]:
        """Dense row-major copy of the entries."""
        out = [ZERO] * (self.rows * self.cols)
        for i, row in self.maps.items():
            base = i * self.cols
            for j, x in row.items():
                out[base + j] = x
        return out

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        row = self.maps.get(i, {})
        return tuple(row.get(j, ZERO) for j in range(self.cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.maps == other.maps
        )

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(rat_str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def is_zero(self) -> bool:
        return not self.maps

    def _combine(self, other: "RatMatrix", sign: int, op: str) -> "RatMatrix":
        # self + sign * other, row map by row map; rows that other does
        # not store are shared, not copied
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"{op} shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )
        maps = dict(self.maps)
        for i, b in other.maps.items():
            row = dict(maps.pop(i, ()))
            for j, x in b.items():
                y = row.pop(j, ZERO) + x if sign > 0 else row.pop(j, ZERO) - x
                if y:
                    row[j] = y
            if row:
                maps[i] = row
        return RatMatrix._from_maps(self.rows, self.cols, maps)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1, "add")

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1, "sub")

    def __neg__(self) -> "RatMatrix":
        maps = {i: {j: -x for j, x in row.items()} for i, row in self.maps.items()}
        return RatMatrix._from_maps(self.rows, self.cols, maps)

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        if not c:
            return RatMatrix.zeros(self.rows, self.cols)
        maps = {i: {j: c * x for j, x in row.items()} for i, row in self.maps.items()}
        return RatMatrix._from_maps(self.rows, self.cols, maps)

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"matmul shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        b = other.maps
        maps = {}
        for i, arow in self.maps.items():
            if len(arow) == 1:
                (k, x), = arow.items()
                if x == 1:
                    # a unit row picks b[k]: shared, as rows never change
                    if k in b:
                        maps[i] = b[k]
                    continue
            row: dict[int, Fraction] = {}
            for k, x in arow.items():
                if k in b:
                    add_scaled_row(row, b[k], x)
            if row:
                maps[i] = row
        return RatMatrix._from_maps(self.rows, other.cols, maps)

    def transpose(self) -> "RatMatrix":
        maps: dict[int, dict] = {}
        for i, row in self.maps.items():
            for j, x in row.items():
                maps.setdefault(j, {})[i] = x
        return RatMatrix._from_maps(self.cols, self.rows, maps)

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "RatMatrix":
        """The rows and columns at the given indices, in their order; the
        first index out of range, rows before columns, raises IndexError.
        A step-1 range is checked by its ends, and a row range longer
        than the stored rows is cut from the stored rows inside it."""
        for indices, n, name in ((row_indices, self.rows, "row"),
                                 (col_indices, self.cols, "column")):
            bad = _first_outside(indices, n)
            if bad is not None:
                raise IndexError(f"{name} {bad} out of range")
        if (isinstance(row_indices, range) and row_indices.step == 1
                and len(row_indices) > len(self.maps)):
            r0, r1 = row_indices.start, row_indices.stop
            stored = [(i - r0, row) for i, row in self.maps.items() if r0 <= i < r1]
        else:
            stored = [(p, self.maps[i]) for p, i in enumerate(row_indices) if i in self.maps]
        if isinstance(col_indices, range) and col_indices.step == 1:
            c0, c1 = col_indices.start, col_indices.stop
            cut = ({j - c0: x for j, x in row.items() if c0 <= j < c1} for _, row in stored)
        else:
            cut = ({q: row[j] for q, j in enumerate(col_indices) if j in row} for _, row in stored)
        maps = {p: row for (p, _), row in zip(stored, cut) if row}
        return RatMatrix._from_maps(len(row_indices), len(col_indices), maps)


def _first_outside(indices: Sequence[int], n: int) -> int | None:
    """The first index outside range(n), or None; a step-1 range is read
    by its ends."""
    if isinstance(indices, range) and indices.step == 1:
        if not indices or (indices.start >= 0 and indices.stop <= n):
            return None
        return indices.start if not 0 <= indices.start < n else n
    return next((i for i in indices if not 0 <= i < n), None)


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
    c_cols = c.transpose().maps
    maps = {}
    for p in range(r):
        a_row = a.maps.get(p, {})
        for q in range(k):
            row = {t * k + q: x for t, x in a_row.items()}
            for t, x in c_cols.get(q, {}).items():
                y = row.pop(p * k + t, ZERO) - x
                if y:
                    row[p * k + t] = y
            if row:
                maps[p * k + q] = row
    return RatMatrix._from_maps(r * k, r * k, maps)


def add_scaled_row(out: dict, row: dict, c) -> None:
    """out += c * row on {column: entry} maps, in place; a sum that
    cancels is dropped, so out stores no zero."""
    for j, x in row.items():
        y = c * x + out.pop(j) if j in out else c * x
        if y:
            out[j] = y


def add_scaled_rows(out: dict, rows: dict, c) -> None:
    """out += c * rows on {row: {column: entry}} maps, in place, row by
    row with `add_scaled_row`; a row that cancels is dropped."""
    for r, row in rows.items():
        acc = out.setdefault(r, {})
        add_scaled_row(acc, row, c)
        if not acc:
            del out[r]


def add_product(out: dict, a: dict, b: dict, c) -> None:
    """out += c * a b on {row: {column: entry}} maps, in place, visiting
    only the entries a stores; a row that cancels is dropped."""
    for r, row in a.items():
        acc = None
        for k, x in row.items():
            if k in b:
                if acc is None:
                    acc = out.setdefault(r, {})
                add_scaled_row(acc, b[k], c * x)
        if acc is not None and not acc:
            del out[r]


def combination(mats: Sequence[RatMatrix], coeffs) -> RatMatrix:
    """sum c * mats[i] over the (i, c) pairs, in one pass over the stored
    entries, dropping sums that cancel; an empty family is 0 x 0."""
    rows, cols = (mats[0].rows, mats[0].cols) if mats else (0, 0)
    acc: dict[int, dict] = {}
    for i, c in coeffs:
        if not c:
            continue
        m = mats[i]
        if (m.rows, m.cols) != (rows, cols):
            raise ShapeError(f"combination of {rows}x{cols} and {m.rows}x{m.cols}")
        add_scaled_rows(acc, m.maps, c)
    return RatMatrix._from_maps(rows, cols, acc)


def integral_rows(m: RatMatrix) -> tuple[int, dict[int, dict[int, int]]]:
    """(d, rows): d is the least common denominator of m's entries and
    rows are the rows of d·m as {row: {column: int}}. Products of these
    maps build no Fraction, and since each matrix is cleared by its own
    d, an integral matrix keeps the size of its entries."""
    d = math.lcm(*{x.denominator for row in m.maps.values() for x in row.values()})
    if d == 1:
        return 1, {
            i: {j: x.numerator for j, x in row.items()} for i, row in m.maps.items()
        }
    return d, {
        i: {j: x.numerator * (d // x.denominator) for j, x in row.items()}
        for i, row in m.maps.items()
    }


def exp_nilpotent_rows(a: RatMatrix) -> tuple[int, dict, dict]:
    """(E, N, N') with E exp(A) = E I + N and E exp(-A) = E I + N', both
    as integer row maps. With A = M / d (`integral_rows`) and A^(K+1) = 0,
    E = d^K K! and N = sum_k d^(K-k) K!/k! M^k for k = 1..K; N' flips the
    sign of the odd powers. Raises ValueError if A is not nilpotent."""
    if a.rows != a.cols:
        raise ShapeError("exp of a non-square matrix")
    d, m = integral_rows(a)
    powers, power = [], m
    while power:
        powers.append(power)
        if len(powers) == a.rows:
            raise ValueError("matrix is not nilpotent")
        power = {}
        add_product(power, powers[-1], m, 1)
    e = w = d ** len(powers) * math.factorial(len(powers))
    plus, minus = {}, {}
    for k, power in enumerate(powers, 1):
        w //= d * k
        add_scaled_rows(plus, power, w)
        add_scaled_rows(minus, power, -w if k % 2 else w)
    return e, plus, minus


def exp_nilpotent(a: RatMatrix) -> RatMatrix:
    """exp(A) as the finite sum sum_k A^k / k!; A must be nilpotent."""
    e, plus, _ = exp_nilpotent_rows(a)
    add_scaled_rows(plus, {i: {i: 1} for i in range(a.rows)}, e)  # E exp(A) = E I + N
    maps = {i: {j: Fraction(x, e) for j, x in row.items()} for i, row in plus.items()}
    return RatMatrix._from_maps(a.rows, a.cols, maps)


def _primitive(row: dict) -> dict[int, int]:
    """The row map scaled to integers with content 1 (row scaling leaves
    the row space, hence rank, rref and pivots, unchanged). Entries p/q
    in lowest terms have content gcd(p) / lcm(q)."""
    # plain loops: most rows are short, and a comprehension costs a call
    g, d = 0, 1
    for x in row.values():
        g = math.gcd(g, x.numerator)
        d = math.lcm(d, x.denominator)
    ints = {}
    for j, x in row.items():
        ints[j] = x.numerator // g * (d // x.denominator)
    return ints


def _cancel(v: dict[int, int], p: dict[int, int], c: int) -> dict[int, int]:
    """p[c]·v − v[c]·p with its content divided out; column c cancels."""
    a, b = p[c], v[c]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    out = {}
    for j, x in v.items():
        out[j] = a * x
    for j, y in p.items():
        z = out.pop(j, 0) - b * y
        if z:
            out[j] = z
    g = math.gcd(*out.values())
    if g > 1:
        for j in out:
            out[j] //= g
    return out


def _echelon(a: RatMatrix) -> dict[int, dict[int, int]]:
    """Fraction-free echelon form of the row space: pivot column -> a
    primitive integer row map with that leading column. Each row of `a`
    is reduced against the stored row of its leading column until that
    column is new. The pivot columns are rref's whatever the row order:
    they are the leading columns of the row space's vectors."""
    echelon: dict[int, dict[int, int]] = {}
    for row in a.maps.values():
        if len(echelon) == a.cols:
            # full column rank: every remaining row lies in the span
            break
        v = _primitive(row)
        while v:
            pc = min(v)
            p = echelon.get(pc)
            if p is None:
                echelon[pc] = v
                break
            v = _cancel(v, p, pc)
    return echelon


def rref(a: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form together with the pivot column indices."""
    echelon = _echelon(a)
    pivots = sorted(echelon)
    # clear the other pivot columns from each pivot row, last pivot
    # first, so every row it is cleared with is already reduced
    maps = {}
    for r in reversed(range(len(pivots))):
        pc = pivots[r]
        v = echelon[pc]
        for q in [q for q in v if q != pc and q in echelon]:
            v = _cancel(v, echelon[q], q)
        echelon[pc] = v
        maps[r] = {j: Fraction(x, v[pc]) for j, x in v.items()}
    return RatMatrix._from_maps(a.rows, a.cols, maps), tuple(pivots)


def rank(a: RatMatrix) -> int:
    return len(_echelon(a))


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
    maps = dict(a.maps)
    for i, x in enumerate(b):
        if x:
            maps[i] = {**maps.get(i, {}), a.cols: x}
    reduced, pivots = rref(RatMatrix._from_maps(a.rows, a.cols + 1, maps))
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
    maps = {i: {**a.maps.get(i, {}), n + i: ONE} for i in range(n)}
    reduced, pivots = rref(RatMatrix._from_maps(n, 2 * n, maps))
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return reduced.submatrix(range(n), range(n, 2 * n))
