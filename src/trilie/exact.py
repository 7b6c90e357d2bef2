"""Exact rational scalars and sparse exact linear algebra.

Results are exact, equality tests are exact, and there is deliberately
no floating-point path. Scalars enter and leave as `fractions.Fraction`
(`rat`, `m[i, j]`, `row`, `data`, `nullspace_basis`, `solve`), but a
matrix stores integers: only its nonempty rows, as {row: {column:
nonzero int}}, since triangular representations are mostly zero, and
beside them {row: denominator} for the rows whose denominator is not 1.
Each row is kept in lowest terms, gcd(denominator, row) = 1, and a row
that cancels is dropped, so equal matrices have equal maps. Arithmetic
touches only the stored entries, in integers: a sum or a product brings
the rows it combines to the lcm of their denominators, and a result row
is divided by its gcd with its denominator (`_put`). For a family of
equal-shape matrices M_k, `combination` sums c_k M_k over the lcm of
each row's denominators; sums, differences and scalings are such
combinations. Every sparse sum, products included, adds scaled rows
with `add_scaled_row`, except where a row is reused as it stands: a
product shares the right factor's row for a left row that is one entry
equal to 1, since rows are never changed after construction.

The denominator is per row, not per matrix. A matrix whose rows hold
coprime denominators would need their product as one denominator, and
every entry scaled by it: the ad matrices of sl2^4096 in the basis
b_t / q_t, over distinct 64-bit primes q_t, hold about 4096 brackets
each with its own denominator q_i q_j. Clearing each to one denominator
took 2.97 s and 272 MB more, against 0.35 s and 53 MB for a whole
`trilie check`, and grew ×4 per doubling; per row, each bracket keeps
its own.

Elimination runs row by row on the stored rows, which it reads up to
scale, divided by their content: it is fraction-free, and its pivots do
not depend on the row order; it stops once the rows seen reach full
column rank. rref's reduced rows are primitive, so each is stored over
its pivot entry. Checks that read only zero patterns, which a positive
scale keeps, run on the integer row maps of `integral_rows`, one lcm of
the row denominators per matrix, which an integral matrix returns with
no copy; `exp_nilpotent_rows` gives E exp(±A) over one integer E, and
`exp_nilpotent` is built on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class ShapeError(ValueError):
    """Operands with incompatible dimensions."""


def scalar(value: int | str | Fraction) -> int | Fraction:
    """An int, Fraction, or "p/q" string as an exact number: an int as it
    stands, a Fraction as it stands, and a string that is an optional "-"
    and ASCII digits only as an int, read by int() in a third of the time
    of Fraction's regex and with the same ValueError past CPython's digit
    bound; other spellings go to Fraction. Strings in exponent notation
    are rejected: their size is unbounded. A bool (JSON's true or false)
    is no number, though Python's int."""
    # exact types first: isinstance against Fraction, an ABC, is slow
    t = type(value)
    if t is int or t is Fraction:
        return value
    if t is not str:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    if isinstance(value, str):
        if value.removeprefix("-").isdigit() and value.isascii():
            return int(value)
        if "e" in value.lower():
            # "1e999999999" would take a dozen bytes to ask for gigabytes
            raise ValueError(f"exponent notation in {value!r}; write p/q")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not a rational: {value!r}")


def rat(value: int | str | Fraction) -> Fraction:
    """`scalar(value)` as a canonical Fraction."""
    x = scalar(value)
    return x if type(x) is Fraction or isinstance(x, Fraction) else Fraction(x)


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


def integer_row(row: dict) -> tuple[dict[int, int], int]:
    """(ints, d): a map of nonzero rationals (ints or Fractions, each in
    lowest terms) as integers over d, the least common denominator. It
    is the stored form, gcd(d, ints) = 1: a prime's highest power in d
    divides some entry's denominator, which is coprime to its numerator,
    and d over that denominator is prime to it."""
    # plain loops, one as_integer_ratio() per entry: Fraction's numerator
    # and denominator are each a Python-level property
    ints, d = {}, 1
    for j, x in row.items():
        p, q = x.as_integer_ratio()
        ints[j] = p
        if q != 1:
            d = math.lcm(d, q)
    if d > 1:
        for j, x in row.items():
            p, q = x.as_integer_ratio()
            ints[j] = p * (d // q)
    return ints, d


def _put(maps: dict, dens: dict, i: int, row: dict[int, int], den: int) -> None:
    """Store the nonempty integer row / den at i in the stored form:
    divided by gcd(den, row), with its denominator kept only if > 1."""
    if den > 1:
        g = math.gcd(den, *row.values())
        if g > 1:
            row = {j: x // g for j, x in row.items()}
            den //= g
        if den > 1:
            dens[i] = den
    maps[i] = row


def put_row(maps: dict, dens: dict, i: int, row: dict) -> None:
    """Store the nonempty map of rationals `row` at i in the stored form,
    cleared by `integer_row`."""
    maps[i], d = integer_row(row)
    if d > 1:
        dens[i] = d


class RatMatrix:
    """Sparse matrix of rationals, stored in integers: `maps` is {row:
    {column: nonzero int}}, holding the nonempty rows alone, and `dens`
    is {row: denominator > 1}, so entry (i, j) is maps[i][j] / dens[i],
    the denominator 1 where `dens` has no entry.

    Each row is stored in lowest terms, gcd(denominator, row) = 1, and
    the maps never hold a zero or an empty row, so equality is map
    equality and every operation costs time in the number of nonzero
    entries, not in the shape. Instances are treated as immutable (row
    maps are never changed after construction); all operations return
    new matrices. Zero-row and zero-column shapes are allowed. Entries
    are read as Fractions (`m[i, j]`, `row`, and `data`, a dense
    row-major copy).
    """

    __slots__ = ("rows", "cols", "maps", "dens")

    def __init__(self, rows: int, cols: int, data: Sequence):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        data = [scalar(x) for x in data]
        if len(data) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self.maps, self.dens = {}, {}
        for i in range(rows):
            row = {j: x for j, x in enumerate(data[i * cols : (i + 1) * cols]) if x}
            if row:
                put_row(self.maps, self.dens, i, row)

    @classmethod
    def _from_maps(cls, rows: int, cols: int, maps: dict, dens: dict | None = None) -> "RatMatrix":
        """Trusted constructor: `maps` must be {row: {column: nonzero
        int}} with rows in range(rows), columns in range(cols) and no
        empty row, and `dens` {row: denominator > 1} for stored rows in
        lowest terms; a row that cancelled must have been dropped.
        Nothing is coerced or checked."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m.maps = maps
        m.dens = {} if dens is None else dens
        return m

    @classmethod
    def from_int_rows(cls, rows: int, cols: int, maps: dict, dens: dict) -> "RatMatrix":
        """The matrix whose row i is maps[i] / dens[i] (1 where `dens` has
        no entry), for nonempty integer row maps and positive
        denominators; each row is brought to lowest terms."""
        out_maps: dict[int, dict] = {}
        out_dens: dict[int, int] = {}
        for i, row in maps.items():
            _put(out_maps, out_dens, i, row, dens.get(i, 1))
        return cls._from_maps(rows, cols, out_maps, out_dens)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], parse=None) -> "RatMatrix":
        """Matrix from a list of rows, each entry read by `parse` (scalar()
        if None); the literal "0" that fills JSON artifacts is skipped
        unparsed. A row that is all "0" is found by one C `count`, and never
        iterated; any other row is scanned by a plain loop, and only its
        other entries are parsed. Per entry, on rows of width 128 down to
        8 (CPython 3.11): count 1-10 ns, the loop 23-42 ns, against 34-87
        ns for the C iterator chain compress(count(), map(ne, ...)). A
        row of ints is stored as it is read; a row with a Fraction goes
        to `put_row`."""
        parse = parse or scalar
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ShapeError("ragged rows")
        maps, dens = {}, {}
        for i, r in enumerate(rows):
            if r.count("0") != ncols:
                row, ints = {}, True
                for j, x in enumerate(r):
                    if x != "0" and (x := parse(x)):
                        row[j] = x
                        if type(x) is not int:
                            ints = False
                if row:
                    if ints:
                        maps[i] = row
                    else:
                        put_row(maps, dens, i, row)
        return cls._from_maps(nrows, ncols, maps, dens)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix shape {rows}x{cols}")
        return cls._from_maps(rows, cols, {})

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        if n < 0:
            raise ShapeError(f"negative matrix shape {n}x{n}")
        return cls._from_maps(n, n, {i: {i: 1} for i in range(n)})

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RatMatrix":
        n = len(entries)
        diag = [scalar(x) for x in entries]
        maps = {i: {i: x.numerator} for i, x in enumerate(diag) if x}
        dens = {i: x.denominator for i, x in enumerate(diag) if x.denominator > 1}
        return cls._from_maps(n, n, maps, dens)

    @classmethod
    def from_blocks(cls, rows: int, cols: int, blocks) -> "RatMatrix":
        """rows x cols matrix, zero except for each (r0, c0, block) placed
        with its top-left entry at (r0, c0); later blocks overwrite, also
        where they store nothing."""
        maps: dict[int, dict] = {}
        dens: dict[int, int] = {}
        for r0, c0, block in blocks:
            if min(r0, c0) < 0 or r0 + block.rows > rows or c0 + block.cols > cols:
                raise ShapeError(
                    f"{block.rows}x{block.cols} block at ({r0}, {c0}) "
                    f"overflows {rows}x{cols}"
                )
            c1 = c0 + block.cols
            for i in range(block.rows):
                old = maps.pop(r0 + i, None)
                d_old = dens.pop(r0 + i, 1)
                new = block.maps.get(i)
                if new and c0:
                    new = {c0 + j: x for j, x in new.items()}
                kept = old and {j: x for j, x in old.items() if not c0 <= j < c1}
                if kept:
                    if new:
                        # disjoint columns, over the lcm of the denominators
                        d_new = block.dens.get(i, 1)
                        d = math.lcm(d_old, d_new)
                        kept = {j: x * (d // d_old) for j, x in kept.items()}
                        kept.update((j, x * (d // d_new)) for j, x in new.items())
                        d_old = d
                    _put(maps, dens, r0 + i, kept, d_old)
                elif new:
                    # a whole stored row, in lowest terms: shared if not moved
                    maps[r0 + i] = new
                    if i in block.dens:
                        dens[r0 + i] = block.dens[i]
        return cls._from_maps(rows, cols, maps, dens)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) out of range")
        x = self.maps.get(i, {}).get(j)
        return ZERO if x is None else Fraction(x, self.dens.get(i, 1))

    @property
    def data(self) -> list[Fraction]:
        """Dense row-major copy of the entries."""
        out = [ZERO] * (self.rows * self.cols)
        for i, row in self.maps.items():
            base, d = i * self.cols, self.dens.get(i, 1)
            for j, x in row.items():
                out[base + j] = Fraction(x, d)
        return out

    def row(self, i: int) -> Vector:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        row, d = self.maps.get(i, {}), self.dens.get(i, 1)
        return tuple(Fraction(row[j], d) if j in row else ZERO for j in range(self.cols))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.maps == other.maps
            and self.dens == other.dens
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
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(
                f"{op} shape mismatch {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )
        return combination((self, other), ((0, 1), (1, sign)))

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1, "add")

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1, "sub")

    def __neg__(self) -> "RatMatrix":
        maps = {i: {j: -x for j, x in row.items()} for i, row in self.maps.items()}
        return RatMatrix._from_maps(self.rows, self.cols, maps, self.dens)

    def scale(self, c) -> "RatMatrix":
        return combination((self,), ((0, scalar(c)),))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ShapeError(
                f"matmul shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        b, b_dens, a_dens = other.maps, other.dens, self.dens
        maps, dens = {}, {}
        for i, arow in self.maps.items():
            if len(arow) == 1 and i not in a_dens:
                (k, x), = arow.items()
                if x == 1:
                    # a unit row picks b[k]: shared, as rows never change
                    if k in b:
                        maps[i] = b[k]
                        if k in b_dens:
                            dens[i] = b_dens[k]
                    continue
            # row i is (1 / (a_i d)) sum_k x_k (d / b_k) B_k, d the lcm of
            # the b_k it meets
            d = math.lcm(*[b_dens[k] for k in arow if k in b_dens]) if b_dens else 1
            row: dict[int, int] = {}
            for k, x in arow.items():
                if k in b:
                    add_scaled_row(row, b[k], x if d == 1 else x * (d // b_dens.get(k, 1)))
            if row:
                _put(maps, dens, i, row, d * a_dens.get(i, 1))
        return RatMatrix._from_maps(self.rows, other.cols, maps, dens)

    def transpose(self) -> "RatMatrix":
        maps: dict[int, dict] = {}
        for i, row in self.maps.items():
            for j, x in row.items():
                maps.setdefault(j, {})[i] = x
        if not self.dens:
            return RatMatrix._from_maps(self.cols, self.rows, maps)
        # column j holds entries over their own rows' denominators
        src, dens = self.dens, {}
        for j, row in maps.items():
            d = math.lcm(*[src[i] for i in row if i in src])
            if d > 1:
                for i, x in row.items():
                    row[i] = x * (d // src.get(i, 1))
                _put(maps, dens, j, row, d)
        return RatMatrix._from_maps(self.cols, self.rows, maps, dens)

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
            stored = [(i - r0, i) for i in self.maps if r0 <= i < r1]
        else:
            stored = [(p, i) for p, i in enumerate(row_indices) if i in self.maps]
        if isinstance(col_indices, range) and col_indices.step == 1:
            c0, c1 = col_indices.start, col_indices.stop
            cut = ({j - c0: x for j, x in self.maps[i].items() if c0 <= j < c1}
                   for _, i in stored)
        else:
            cut = ({q: row[j] for q, j in enumerate(col_indices) if j in row}
                   for row in (self.maps[i] for _, i in stored))
        maps, dens = {}, {}
        for (p, i), row in zip(stored, cut):
            if row:
                _put(maps, dens, p, row, self.dens.get(i, 1))
        return RatMatrix._from_maps(len(row_indices), len(col_indices), maps, dens)


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
    ct = c.transpose()
    # A ⊗ I and I ⊗ C^T: row p*k + q is row p of A, or row q of C^T,
    # spread over the columns of X it meets, over its own denominator
    a_i = RatMatrix._from_maps(
        r * k, r * k,
        {p * k + q: {t * k + q: x for t, x in row.items()} for p, row in a.maps.items() for q in range(k)},
        {p * k + q: d for p, d in a.dens.items() for q in range(k)})
    i_c = RatMatrix._from_maps(
        r * k, r * k,
        {p * k + q: {p * k + t: x for t, x in row.items()} for q, row in ct.maps.items() for p in range(r)},
        {p * k + q: d for q, d in ct.dens.items() for p in range(r)})
    return a_i - i_c


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
    """sum c * mats[i] over the (i, c) pairs, c an int or a Fraction, in
    one pass over the stored entries, dropping sums that cancel; an
    empty family is 0 x 0. Row r is summed over the lcm of its terms'
    denominators."""
    rows, cols = (mats[0].rows, mats[0].cols) if mats else (0, 0)
    terms = []
    lcd: dict[int, int] = {}  # row -> the lcm of its terms' denominators
    for i, c in coeffs:
        if not c:
            continue
        m = mats[i]
        if (m.rows, m.cols) != (rows, cols):
            raise ShapeError(f"combination of {rows}x{cols} and {m.rows}x{m.cols}")
        q = c.denominator
        terms.append((c.numerator, q, m))
        if q > 1 or m.dens:
            for r in m.maps:
                lcd[r] = math.lcm(lcd.get(r, 1), q * m.dens.get(r, 1))
    acc: dict[int, dict] = {}
    for p, q, m in terms:
        for r, row in m.maps.items():
            d = lcd.get(r, 1)
            out = acc.setdefault(r, {})
            add_scaled_row(out, row, p if d == 1 else p * (d // (q * m.dens.get(r, 1))))
            if not out:
                del acc[r]
    maps, dens = {}, {}
    for r, row in acc.items():
        _put(maps, dens, r, row, lcd.get(r, 1))
    return RatMatrix._from_maps(rows, cols, maps, dens)


def integral_rows(m: RatMatrix) -> tuple[int, dict[int, dict[int, int]]]:
    """(d, rows): d is the least common denominator of m's entries, the
    lcm of its row denominators, and rows are the rows of d·m as {row:
    {column: int}}. An integral matrix is returned as it is stored, and
    a row with denominator d is shared. Products of these maps build no
    Fraction, and since each matrix is cleared by its own d, an integral
    matrix keeps the size of its entries."""
    if not m.dens:
        return 1, m.maps
    d = math.lcm(*m.dens.values())
    dens = m.dens
    return d, {
        i: row if (s := d // dens.get(i, 1)) == 1 else {j: x * s for j, x in row.items()}
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
    return RatMatrix.from_int_rows(a.rows, a.cols, plus, dict.fromkeys(plus, e))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The integer row divided by its content (row scaling leaves the
    row space, hence rank, rref and pivots, unchanged)."""
    g = math.gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


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
    primitive integer row map with that leading column. Each stored row
    of `a` (its denominator does not change the row space) is reduced
    against the stored row of its leading column until that column is
    new. The pivot columns are rref's whatever the row order: they are
    the leading columns of the row space's vectors."""
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
    # first, so every row it is cleared with is already reduced; a
    # reduced row is primitive, so it is stored over its pivot entry
    maps, dens = {}, {}
    for r in reversed(range(len(pivots))):
        pc = pivots[r]
        v = echelon[pc]
        for q in [q for q in v if q != pc and q in echelon]:
            v = _cancel(v, echelon[q], q)
        if v[pc] < 0:
            v = {j: -x for j, x in v.items()}
        echelon[pc] = maps[r] = v
        if v[pc] > 1:
            dens[r] = v[pc]
    return RatMatrix._from_maps(a.rows, a.cols, maps, dens), tuple(pivots)


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
    # rref reads only the row space, so row i of [A | b] is passed times
    # its denominator and b_i's, in integers
    maps = dict(a.maps)
    for i, x in enumerate(b):
        if x:
            row, q = maps.get(i, {}), x.denominator
            if q > 1:
                row = {j: y * q for j, y in row.items()}
            maps[i] = {**row, a.cols: x.numerator * a.dens.get(i, 1)}
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
    # [A | I] with each row times its denominator: rref reads the row space
    maps = {i: {**a.maps.get(i, {}), n + i: a.dens.get(i, 1)} for i in range(n)}
    reduced, pivots = rref(RatMatrix._from_maps(n, 2 * n, maps))
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return reduced.submatrix(range(n), range(n, 2 * n))
