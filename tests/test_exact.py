import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilie.exact import (
    ONE,
    ZERO,
    RatMatrix,
    ShapeError,
    combination,
    commutator,
    exp_nilpotent,
    integral_rows,
    invert,
    nullspace_basis,
    rank,
    rat,
    rat_str,
    rref,
    solve,
    sylvester_system,
    vector,
)
import trilie.exact as exact
from trilie.sl2theory import string_action

from helpers import (
    assert_clean,
    brute_extend_independent,
    brute_exp_nilpotent,
    brute_fill_blocks,
    brute_inverse,
    brute_matrix_bracket,
    brute_nullspace,
    brute_rank,
    brute_span,
    brute_sylvester,
    dense_rows,
    mat_power,
    mat_vec,
    rational_maps,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def matrices(rows, cols):
    return st.lists(
        rationals, min_size=rows * cols, max_size=rows * cols
    ).map(lambda d: RatMatrix(rows, cols, d))


def square(n):
    return matrices(n, n)


F = Fraction


class TestScalars:
    def test_rat_coercions(self):
        assert rat(3) == F(3)
        assert rat("2/4") == F(1, 2)
        assert rat(F(-3, 6)) == F(-1, 2)

    def test_rat_rejects_float(self):
        with pytest.raises(TypeError):
            rat(0.5)

    @pytest.mark.parametrize("text", ["1e400", "2E-3", "-3e99999"])
    def test_rat_rejects_exponent_notation(self, text):
        # a few more exponent digits ask for any size of integer
        with pytest.raises(ValueError):
            rat(text)

    def test_rat_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            rat("1/0")

    def test_rat_str_canonical(self):
        assert rat_str(F(1, 2)) == "1/2"
        assert rat_str(F(-2, 4)) == "-1/2"
        assert rat_str(F(4, 2)) == "2"
        assert rat_str(0) == "0"

    def test_fraction_arithmetic_is_exact(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)

    def test_factorial(self):
        # family's Clebsch-Gordan coefficients call math.factorial directly
        assert math.factorial(0) == 1
        assert math.factorial(5) == 120
        with pytest.raises(ValueError):
            math.factorial(-1)


class TestMatrixOps:
    def test_add_sub_scale(self):
        a = RatMatrix.from_rows([[1, 2], [3, 4]])
        b = RatMatrix.from_rows([[F(1, 2), 0], [0, F(1, 2)]])
        assert (a + b)[0, 0] == F(3, 2)
        assert (a - b)[1, 1] == F(7, 2)
        assert RatMatrix.identity(2).scale(F(3, 2))[1, 1] == F(3, 2)

    def test_matmul(self):
        a = RatMatrix.from_rows([[1, 2], [3, 4]])
        b = RatMatrix.from_rows([[0, 1], [1, 0]])
        assert a @ b == RatMatrix.from_rows([[2, 1], [4, 3]])

    def test_shape_errors(self):
        a = RatMatrix.zeros(2, 3)
        b = RatMatrix.zeros(2, 3)
        with pytest.raises(ShapeError):
            a @ b
        with pytest.raises(ShapeError):
            a + RatMatrix.zeros(3, 2)

    def test_commutator_on_sl2_pair(self):
        e = RatMatrix.from_rows([[0, 1], [0, 0]])
        f = RatMatrix.from_rows([[0, 0], [1, 0]])
        h = RatMatrix.from_rows([[1, 0], [0, -1]])
        assert commutator(e, f) == h
        assert commutator(h, e) == e.scale(2)
        assert commutator(h, f) == f.scale(-2)

    def test_apply(self):
        # the tests' matrix-vector product, against a product with a column
        a = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert mat_vec(a, vector([1, 0])) == (F(1), F(3))
        x = vector([F(1, 2), -3])
        assert mat_vec(a, x) == tuple((a @ RatMatrix.from_rows([[v] for v in x])).data)

    def test_zero_dimensional_shapes(self):
        z = RatMatrix.zeros(0, 3)
        assert z.rows == 0
        assert (z @ RatMatrix.zeros(3, 2)).cols == 2
        assert RatMatrix.identity(0).is_zero()


class TestElimination:
    def test_rref_pivot_normalization(self):
        a = RatMatrix.from_rows([[2, 4], [1, 3]])
        r, pivots = rref(a)
        assert r == RatMatrix.identity(2)
        assert pivots == (0, 1)

    def test_rank(self):
        assert rank(RatMatrix.identity(4)) == 4
        assert rank(RatMatrix.zeros(3, 5)) == 0
        assert rank(RatMatrix.from_rows([[1, 1], [2, 2]])) == 1

    def test_nullspace_of_zero_matrix(self):
        basis = nullspace_basis(RatMatrix.zeros(2, 2))
        assert basis == [(ONE, ZERO), (ZERO, ONE)]

    def test_nullspace_rank_one(self):
        basis = nullspace_basis(RatMatrix.from_rows([[1, 1], [2, 2]]))
        assert basis == [(-ONE, ONE)]

    def test_nullspace_of_full_rank_is_empty(self):
        assert nullspace_basis(RatMatrix.identity(3)) == []

    def test_solve_unique(self):
        a = RatMatrix.from_rows([[2, 0], [0, 4]])
        assert solve(a, [1, 1]) == (F(1, 2), F(1, 4))

    def test_solve_underdetermined_sets_free_to_zero(self):
        a = RatMatrix.from_rows([[1, 1]])
        assert solve(a, [3]) == (F(3), F(0))

    def test_solve_inconsistent(self):
        a = RatMatrix.from_rows([[1, 1], [1, 1]])
        assert solve(a, [0, 1]) is None

    def test_invert(self):
        a = RatMatrix.from_rows([[2, 1], [1, 1]])
        assert invert(a) @ a == RatMatrix.identity(2)
        with pytest.raises(ValueError):
            invert(RatMatrix.from_rows([[1, 1], [2, 2]]))


class TestNilpotentExp:
    def test_exp_strictly_upper(self):
        a = RatMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        expa = exp_nilpotent(a)
        assert expa == RatMatrix.from_rows(
            [[1, 1, F(1, 2)], [0, 1, 1], [0, 0, 1]]
        )

    def test_exp_zero_is_identity(self):
        assert exp_nilpotent(RatMatrix.zeros(2, 2)) == RatMatrix.identity(2)

    def test_exp_rejects_non_nilpotent(self):
        with pytest.raises(ValueError):
            exp_nilpotent(RatMatrix.identity(2))

    def test_exp_inverse_is_exp_of_negation(self):
        a = RatMatrix.from_rows([[0, F(1, 3), 5], [0, 0, -2], [0, 0, 0]])
        assert exp_nilpotent(a) @ exp_nilpotent(-a) == RatMatrix.identity(3)
        # exp of [[1, 1], [-1, -1]] is I + A, whose diagonal entry 1 - 1 cancels
        b = RatMatrix.from_rows([[1, 1], [-1, -1]])
        for m in (exp_nilpotent(a), exp_nilpotent(b)):
            assert_clean(m)
        assert exp_nilpotent(b) == RatMatrix.from_rows([[2, 1], [-1, 0]])


class TestProperties:
    @given(square(3), square(3))
    def test_commutator_antisymmetry(self, a, b):
        assert commutator(a, b) == -commutator(b, a)

    @given(square(3), square(3), square(3))
    @settings(max_examples=30)
    def test_matmul_associativity(self, a, b, c):
        assert (a @ b) @ c == a @ (b @ c)

    @given(matrices(3, 4))
    def test_rank_plus_nullity(self, a):
        assert rank(a) + len(nullspace_basis(a)) == a.cols

    @given(matrices(3, 4))
    def test_rref_is_idempotent(self, a):
        r1, p1 = rref(a)
        r2, p2 = rref(r1)
        assert r1 == r2 and p1 == p2

    @given(matrices(3, 4))
    def test_nullspace_vectors_annihilate(self, a):
        for v in nullspace_basis(a):
            assert all(x == 0 for x in mat_vec(a, v))

    @given(matrices(2, 3))
    def test_add_then_sub_roundtrip(self, a):
        b = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (a + b) - b == a

    @given(square(3))
    def test_solve_consistent_system(self, a):
        b = mat_vec(a, vector([1, 2, 3]))
        x = solve(a, b)
        assert x is not None
        assert mat_vec(a, x) == b

    @given(square(2), st.integers(min_value=0, max_value=4))
    @settings(max_examples=30)
    def test_mat_power_matches_repeated_product(self, a, k):
        expected = RatMatrix.identity(2)
        for _ in range(k):
            expected = expected @ a
        assert mat_power(a, k) == expected


def placed_blocks(rows, cols):
    """(r0, c0, block) triples that fit inside a rows x cols matrix. Half
    the lists start with a block that stores every entry, and half the
    later blocks have an empty row, so that a later block's empty rows
    often lie over stored ones and must overwrite them."""
    def one(draw):
        r0 = draw(st.integers(0, rows))
        c0 = draw(st.integers(0, cols))
        h = draw(st.integers(0, rows - r0))
        w = draw(st.integers(0, cols - c0))
        block = draw(sparse_matrices(h, w))
        if h and draw(st.booleans()):
            cut = draw(st.integers(0, h - 1))
            block = RatMatrix._from_maps(h, w, {i: row for i, row in block.maps.items() if i != cut},
                                         {i: d for i, d in block.dens.items() if i != cut})
        return r0, c0, block

    full = st.lists(rationals.filter(bool), min_size=rows * cols, max_size=rows * cols).map(
        lambda d: [(0, 0, RatMatrix(rows, cols, d))])
    return st.tuples(st.one_of(st.just([]), full), st.lists(st.composite(one)(), max_size=3)).map(
        lambda parts: parts[0] + parts[1])


class TestKernels:
    @given(
        st.integers(0, 3).flatmap(square),
        st.integers(0, 3).flatmap(square),
        st.data(),
    )
    @settings(max_examples=50)
    def test_sylvester_system_matches_oracle(self, a, c, data):
        x = data.draw(matrices(a.rows, c.rows))
        system = sylvester_system(a, c)
        assert_clean(system)
        got = mat_vec(system, x.data)
        assert list(got) == brute_sylvester(dense_rows(a), dense_rows(c), dense_rows(x))

    def test_sylvester_system_rejects_non_square(self):
        with pytest.raises(ShapeError):
            sylvester_system(RatMatrix.zeros(2, 3), RatMatrix.identity(2))

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=50)
    def test_from_blocks_matches_oracle(self, rows, cols, data):
        blocks = data.draw(placed_blocks(rows, cols))
        expected = brute_fill_blocks(
            rows, cols, [(r0, c0, dense_rows(b)) for r0, c0, b in blocks]
        )
        got = RatMatrix.from_blocks(rows, cols, blocks)
        assert dense_rows(got) == expected
        assert_clean(got)

    def test_a_later_block_clears_its_empty_rows(self):
        # the zero row of the second block overwrites row 0 of the first
        m = RatMatrix.from_blocks(2, 2, [(0, 0, RatMatrix.identity(2)), (0, 0, RatMatrix.zeros(1, 2))])
        assert dense_rows(m) == [[0, 0], [0, 1]]
        assert_clean(m)

    @pytest.mark.parametrize("r0,c0", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_from_blocks_rejects_overflow(self, r0, c0):
        with pytest.raises(ShapeError):
            RatMatrix.from_blocks(3, 3, [(r0, c0, RatMatrix.identity(2))])


# entries drawn so that about half are zero, as in the representation
# matrices the package works on
sparse_entries = st.one_of(st.just(ZERO), st.just(ZERO), rationals)


def sparse_matrices(rows, cols):
    return st.lists(
        sparse_entries, min_size=rows * cols, max_size=rows * cols
    ).map(lambda d: RatMatrix(rows, cols, d))


def plain_product(a, b, cols):
    inner = len(b)
    return [
        [sum((r[k] * b[k][j] for k in range(inner)), F(0)) for j in range(cols)]
        for r in a
    ]


class TestSparseStorage:
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=80)
    def test_ops_match_plain_lists(self, r, c, k, data):
        a = data.draw(sparse_matrices(r, c))
        b = data.draw(sparse_matrices(r, c))
        d = data.draw(sparse_matrices(c, k))
        s = data.draw(sparse_entries)
        for m in (a, b, d, RatMatrix.zeros(r, c), RatMatrix.identity(r),
                  RatMatrix.diagonal([s] * r)):
            assert_clean(m)
        al, bl, dl = dense_rows(a), dense_rows(b), dense_rows(d)
        assert a.data == [v for row in al for v in row]
        assert a.is_zero() == all(v == 0 for row in al for v in row)
        assert (a == b) == (al == bl)
        assert [list(a.row(i)) for i in range(r)] == al
        assert [list(a.transpose().row(j)) for j in range(c)] == [[row[j] for row in al] for j in range(c)]
        assert all(a[i, j] == al[i][j] for i in range(r) for j in range(c))
        results = {
            "add": (a + b, [[p + q for p, q in zip(u, v)] for u, v in zip(al, bl)]),
            "sub": (a - b, [[p - q for p, q in zip(u, v)] for u, v in zip(al, bl)]),
            "neg": (-a, [[-p for p in u] for u in al]),
            "scale": (a.scale(s), [[s * p for p in u] for u in al]),
            "matmul": (a @ d, plain_product(al, dl, k)),
            "transpose": (a.transpose(), [[u[j] for u in al] for j in range(c)]),
        }
        for name, (got, expected) in results.items():
            assert dense_rows(got) == expected, name
            assert_clean(got)
        if r == c:
            bracket = commutator(a, b)
            assert dense_rows(bracket) == brute_matrix_bracket(al, bl)
            assert_clean(bracket)

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=100)
    def test_every_operation_returns_the_stored_form(self, r, c, data):
        # each result equals its plain-list oracle and is stored as
        # `assert_clean` states: int entries, a denominator only where it
        # is > 1, each row in lowest terms, no empty row. Entries over
        # 1..6 make rows such as [1/2, 1], which a cut column, a sum or a
        # product leaves over a smaller denominator
        a, b = data.draw(sparse_matrices(r, c)), data.draw(sparse_matrices(r, c))
        sq, x = data.draw(sparse_matrices(c, c)), data.draw(sparse_matrices(c, c))
        s, t = data.draw(sparse_entries), data.draw(sparse_entries)
        al, bl, sl = dense_rows(a), dense_rows(b), dense_rows(sq)
        cols = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
        off = data.draw(st.integers(0, c))
        upper = [[v if j > i else F(0) for j, v in enumerate(row)] for i, row in enumerate(sl)]
        scaled = {i: {j: 6 * v for j, v in row.items()} for i, row in a.maps.items()}
        xl = dense_rows(x)
        results = {
            "dense": (RatMatrix(r, c, a.data), al),
            "identity": (RatMatrix.identity(c), [[F(int(i == j)) for j in range(c)] for i in range(c)]),
            "add": (a + b, [[p + q for p, q in zip(u, v)] for u, v in zip(al, bl)]),
            "sub": (a - b, [[p - q for p, q in zip(u, v)] for u, v in zip(al, bl)]),
            "neg": (-a, [[-p for p in u] for u in al]),
            "scale": (a.scale(s), [[s * p for p in u] for u in al]),
            "matmul": (a @ sq, plain_product(al, sl, c)),
            "transpose": (a.transpose(), [[row[j] for row in al] for j in range(c)]),
            "commutator": (commutator(sq, x), brute_matrix_bracket(sl, xl)),
            "from_rows": (RatMatrix.from_rows([[rat_str(v) for v in row] for row in al]), al),
            "from_int_rows": (RatMatrix.from_int_rows(
                r, c, scaled, {i: 6 * a.dens.get(i, 1) for i in a.maps}), al),
            "diagonal": (RatMatrix.diagonal([s, t] * c), [
                [[s, t][i % 2] if i == j else F(0) for j in range(2 * c)] for i in range(2 * c)]),
            "combination": (combination([a, b], [(0, s), (1, t)]),
                            [[s * p + t * q for p, q in zip(u, v)] for u, v in zip(al, bl)]),
            "submatrix": (a.submatrix(range(r), cols), [[row[j] for j in cols] for row in al]),
            "from_blocks": (RatMatrix.from_blocks(r, c + off, [(0, 0, a), (0, off, b)]),
                            brute_fill_blocks(r, c + off, [(0, 0, al), (0, off, bl)])),
            "exp_nilpotent": (exp_nilpotent(RatMatrix.from_rows(upper)) if c else
                              RatMatrix.zeros(0, 0), brute_exp_nilpotent(upper)),
            "sylvester": (sylvester_system(sq, x), None),
        }
        if c and brute_rank(sl) == c:
            results["invert"] = (invert(sq), brute_inverse(sl))
        reduced, pivots = rref(a)
        # a reduced form is its own: its rows are canonical for the span
        assert rref(reduced) == (reduced, pivots) and len(pivots) == brute_rank(al)
        results["rref"] = (reduced, None)
        for name, (got, expected) in results.items():
            assert_clean(got)
            if expected is not None:
                assert dense_rows(got) == expected, name
        got = mat_vec(results["sylvester"][0], sq.data)
        assert list(got) == brute_sylvester(sl, xl, sl)

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=60)
    def test_submatrix_matches_plain_lists(self, r, c, data):
        a = data.draw(sparse_matrices(r, c))
        al = dense_rows(a)
        rows = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
        if c and data.draw(st.booleans()):
            lo = data.draw(st.integers(0, c))
            cols = range(lo, data.draw(st.integers(lo, c)))
        else:
            # arbitrary order, repeats allowed
            cols = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
        got = a.submatrix(rows, cols)
        assert dense_rows(got) == [[al[i][j] for j in cols] for i in rows]
        assert_clean(got)

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=80)
    def test_submatrix_ranges_match_index_lists(self, r, c, data):
        # ranges read by their ends and, when longer than the stored rows,
        # cut from those; empty and out-of-range ranges too, where the
        # first index out of range, rows before columns, names the error
        a = data.draw(st.one_of(sparse_matrices(r, c), st.just(RatMatrix.zeros(r, c))))
        bounds = st.integers(-2, 6)
        rows = range(data.draw(bounds), data.draw(bounds))
        cols = range(data.draw(bounds), data.draw(bounds))

        def outcome(row_indices, col_indices):
            try:
                got = a.submatrix(row_indices, col_indices)
            except IndexError as exc:
                return str(exc)
            assert_clean(got)
            return got

        want = outcome(list(rows), list(cols))
        assert outcome(rows, cols) == outcome(rows, list(cols)) == outcome(list(rows), cols) == want

    def test_transpose_brings_a_column_to_one_denominator(self):
        # rows over 2 and 3 make column 0 a row over 6
        t = RatMatrix(2, 2, [Fraction(1, 2), 1, Fraction(1, 3), 0]).transpose()
        assert dense_rows(t) == [[Fraction(1, 2), Fraction(1, 3)], [1, 0]]
        assert_clean(t)

    def test_submatrix_rejects_out_of_range(self):
        a = RatMatrix.identity(2)
        with pytest.raises(IndexError):
            a.submatrix([0], range(1, 3))
        with pytest.raises(IndexError, match="row 2 out of range"):
            a.submatrix(range(3), [0])
        with pytest.raises(IndexError):
            a.submatrix([2], [0])

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=60)
    def test_cancellation_stores_no_zero(self, r, c, data):
        a = data.draw(sparse_matrices(r, c))
        zero = RatMatrix.zeros(r, c)
        for got in (a - a, a + (-a), a.scale(0), -a + a):
            assert got.maps == {}
            assert got == zero and got.is_zero()
        # a times a basis of its kernel: every product term cancels
        kernel = nullspace_basis(a)
        if kernel:
            product = a @ RatMatrix.from_rows(kernel).transpose()
            assert product.maps == {}

    def test_product_with_cancelling_terms_stores_no_zero(self):
        a = RatMatrix.from_rows([[1, 1], [2, 0]])
        b = RatMatrix.from_rows([[1, 0], [-1, 3]])
        product = a @ b
        assert product.maps == {0: {1: F(3)}, 1: {0: F(2)}}
        assert product == RatMatrix.from_rows([[0, 3], [2, 0]])

    @given(st.integers(0, 6), st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=60)
    def test_matmul_with_empty_rows_and_cancelling_terms(self, r, c, k, data):
        # a = [a0 | a0] with most rows of a0 emptied and b = [d; e - d]:
        # every term through d cancels exactly, so a @ b = a0 @ e
        a0 = dense_rows(data.draw(sparse_matrices(r, c)))
        kept = data.draw(st.lists(st.integers(0, 3), min_size=r, max_size=r))
        a0 = [row if q == 0 else [F(0)] * c for row, q in zip(a0, kept)]
        a0 = RatMatrix(r, c, [x for row in a0 for x in row])
        d = data.draw(sparse_matrices(c, k))
        e = data.draw(sparse_matrices(c, k))
        a = RatMatrix.from_blocks(r, 2 * c, [(0, 0, a0), (0, c, a0)])
        got = a @ RatMatrix.from_blocks(2 * c, k, [(0, 0, d), (c, 0, e - d)])
        assert dense_rows(got) == plain_product(dense_rows(a0), dense_rows(e), k)
        assert_clean(got)
        # a row that a0 does not store is not stored in the product
        assert set(got.maps) <= set(a0.maps)
        zero = a @ RatMatrix.from_blocks(2 * c, k, [(0, 0, d), (c, 0, -d)])
        assert zero.maps == {}

    @given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=100)
    def test_matmul_shares_the_right_row_for_a_unit_row(self, r, c, k, data):
        # left rows: empty, one entry equal to 1 in three spellings, one
        # entry -1, 2 or 1/2 (stored as 1 over 2, which is no unit row),
        # or a random sparse row
        one_entry = st.tuples(
            st.integers(0, c - 1),
            st.sampled_from([ONE, rat("1"), rat("2/2"), F(-1), F(2), F(1, 2)]),
        ).map(lambda t: {t[0]: t[1]})
        dense = st.lists(sparse_entries, min_size=c, max_size=c).map(
            lambda v: {j: x for j, x in enumerate(v) if x})
        row = st.one_of(st.just({}), one_entry, dense) if c else st.just({})
        # the row 1/2 stores the int 1 too, over 2: it halves the row it picks
        half = RatMatrix.from_rows([["1/2", "0"]]) @ RatMatrix.from_rows([[2, 4], [0, 1]])
        assert half == RatMatrix.from_rows([[1, 2]])
        drawn = data.draw(st.lists(row, min_size=r, max_size=r))
        a = RatMatrix(r, c, [arow.get(j, 0) for arow in drawn for j in range(c)])
        b = data.draw(sparse_matrices(c, k))
        before = (rational_maps(a), rational_maps(b))
        got = a @ b
        assert dense_rows(got) == plain_product(dense_rows(a), dense_rows(b), k)
        assert_clean(got)
        assert (rational_maps(a), rational_maps(b)) == before
        for i, arow in enumerate(drawn):
            if len(arow) == 1 and list(arow.values()) == [1]:
                (j,) = arow
                assert got.maps.get(i) is b.maps.get(j)
                assert got.dens.get(i) == b.dens.get(j)

    @given(st.data())
    def test_integer_row_clears_to_the_least_common_denominator(self, data):
        # a row's stored form: integers over the lcm of its entries'
        # denominators, in lowest terms; [1/3, 1/2] needs 6, not 3
        entries = st.one_of(wide_entries, st.integers(-9, 9)).filter(bool)
        row = data.draw(st.dictionaries(st.integers(0, 9), entries, min_size=1))
        ints, d = exact.integer_row(row)
        assert d == math.lcm(*(F(x).denominator for x in row.values()))
        assert all(type(x) is int for x in ints.values())
        assert {j: Fraction(x, d) for j, x in ints.items()} == row
        assert math.gcd(d, *ints.values()) == 1
        assert exact.integer_row({0: F(1, 3), 1: F(1, 2), 2: 4}) == ({0: 2, 1: 3, 2: 24}, 6)

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=60)
    def test_integral_rows_clear_the_least_common_denominator(self, r, c, data):
        flat = data.draw(st.lists(wide_entries, min_size=r * c, max_size=r * c))
        a = RatMatrix(r, c, flat)
        d, rows = integral_rows(a)
        assert d == math.lcm(*(x.denominator for x in flat))
        assert sorted(rows) == sorted(a.maps)
        for i, row in rows.items():
            assert all(type(x) is int for x in row.values())
            assert {j: Fraction(x, d) for j, x in row.items()} == rational_maps(a)[i]
        # an integral matrix is returned as it is stored, with no copy
        numerators = RatMatrix(r, c, [x.numerator for x in flat])
        assert integral_rows(numerators) == (1, numerators.maps)
        assert integral_rows(numerators)[1] is numerators.maps

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=60)
    def test_dense_data_with_zeros_equals_ops(self, r, c, data):
        a = data.draw(sparse_matrices(r, c))
        b = data.draw(sparse_matrices(r, c))
        dense = [p + q for p, q in zip(a.data, b.data)]
        assert RatMatrix(r, c, dense) == a + b
        assert RatMatrix(r, c, [0] * (r * c)) == a - a
        spelled = ["0", 0, F(0), "0/5", "-0"]
        assert RatMatrix(r, c, [spelled[q % 5] for q in range(r * c)]) == a.scale(0)

    def test_from_blocks_later_blocks_overwrite(self):
        base = RatMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        got = RatMatrix.from_blocks(3, 3, [
            (0, 0, base),
            (1, 1, RatMatrix.zeros(2, 1)),  # zeros over nonzeros
            (0, 2, RatMatrix.from_rows([[0], [F(1, 2)]])),
        ])
        assert dense_rows(got) == [[1, 2, 0], [4, 0, F(1, 2)], [7, 0, 9]]
        assert_clean(got)
        assert got == RatMatrix.from_rows([[1, 2, 0], [4, 0, F(1, 2)], [7, 0, 9]])

    @given(st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=60)
    def test_elimination_matches_plain_lists(self, r, c, data):
        a = data.draw(sparse_matrices(r, c))
        al = dense_rows(a)
        assert rank(a) == brute_rank(al)
        assert [list(v) for v in nullspace_basis(a)] == brute_nullspace(al, c)
        reduced, pivots = rref(a)
        assert_clean(reduced)
        assert len(pivots) == brute_rank(al)
        b = data.draw(st.lists(sparse_entries, min_size=r, max_size=r))
        x = solve(a, b)
        consistent = brute_rank([row + [v] for row, v in zip(al, b)]) == brute_rank(al)
        assert (x is not None) == (consistent or r == 0)
        if x is not None:
            assert list(mat_vec(a, x)) == b

    @given(st.integers(0, 4).flatmap(lambda n: sparse_matrices(n, n)))
    @settings(max_examples=60)
    def test_invert_matches_rank(self, a):
        n = a.rows
        if brute_rank(dense_rows(a)) < n:
            with pytest.raises(ValueError):
                invert(a)
        else:
            inv = invert(a)
            assert_clean(inv)
            assert inv @ a == RatMatrix.identity(n) == a @ inv

    def test_public_constructor_keeps_coercion_and_errors(self):
        m = RatMatrix(1, 2, ["1/2", 3])
        assert rational_maps(m) == {0: {0: F(1, 2), 1: F(3)}}
        assert (m.maps, m.dens) == ({0: {0: 1, 1: 6}}, {0: 2})
        with pytest.raises(ShapeError):
            RatMatrix(2, 2, [1, 2, 3])
        with pytest.raises(ShapeError):
            RatMatrix(-1, 0, [])
        with pytest.raises(TypeError):
            RatMatrix(1, 1, [0.0])
        with pytest.raises(ValueError):
            RatMatrix(1, 1, ["1/0"])


# zeros, small rationals, and fractions whose numerator or denominator
# (or both) lies near 2^64
near_2_64 = st.integers(2**64 - 2**16, 2**64 + 2**16)
wide_entries = st.one_of(
    st.just(ZERO),
    rationals,
    st.builds(Fraction, near_2_64, st.integers(1, 6)),
    st.builds(Fraction, st.integers(-6, 6), near_2_64),
    st.builds(lambda p, q, sign: sign * Fraction(p, q),
              near_2_64, near_2_64, st.sampled_from((1, -1))),
)


def wide_matrices():
    """Matrices up to 8x8 of wide_entries, with rows drawn from a small
    pool so that repeated rows are common."""
    def build(shape):
        r, c = shape
        row = st.lists(wide_entries, min_size=c, max_size=c)
        rows = st.lists(row, min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool) | row, min_size=r, max_size=r)
        )
        return rows.map(lambda rs: RatMatrix(r, c, [x for each in rs for x in each]))

    return st.tuples(st.integers(0, 8), st.integers(0, 8)).flatmap(build)


class TestSparseElimination:
    @given(wide_matrices())
    @settings(max_examples=80, deadline=None)
    def test_rref_rows_match_brute_span(self, a):
        reduced, pivots = rref(a)
        expected = brute_span(dense_rows(a), a.cols)
        k = len(expected)
        assert [list(reduced.row(r)) for r in range(k)] == expected
        assert sorted(reduced.maps) == list(range(k))
        assert list(pivots) == [next(j for j, x in enumerate(row) if x) for row in expected]
        assert rank(a) == k
        assert_clean(reduced)

    @given(wide_matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_row_order_and_repeats_change_nothing(self, a, rnd):
        repeats = [rnd.randrange(a.rows) for _ in range(3)] if a.rows else []
        order = list(range(a.rows)) + repeats
        rnd.shuffle(order)
        b = a.submatrix(order, range(a.cols))
        reduced_a, pivots_a = rref(a)
        reduced_b, pivots_b = rref(b)
        assert rank(b) == rank(a) == len(pivots_a)
        assert pivots_b == pivots_a
        k = len(pivots_a)
        assert reduced_b.maps == reduced_a.maps
        # a column is a pivot iff it lies outside the span of those before it
        columns = [a.transpose().row(j) for j in range(a.cols)]
        assert [columns[p] for p in pivots_a] == brute_extend_independent([], columns)

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_after_full_column_rank_are_not_reduced(self, c, data):
        # c independent rows (a triangle with a nonzero diagonal, rows
        # shuffled) reach full column rank; the rows after them change
        # nothing, and none of them is even made primitive
        nonzero = wide_entries.filter(bool)
        head = [
            [data.draw(nonzero) if q == p else data.draw(wide_entries) if q < p else ZERO
             for q in range(c)]
            for p in range(c)
        ]
        head = data.draw(st.permutations(head))
        tail = data.draw(st.lists(st.lists(wide_entries, min_size=c, max_size=c), max_size=4))
        rows = head + tail
        a = RatMatrix(len(rows), c, [x for row in rows for x in row])
        with mock.patch.object(exact, "_primitive", wraps=exact._primitive) as primitive:
            assert rank(a) == brute_rank(rows) == c
        assert primitive.call_count == c
        reduced, pivots = rref(a)
        assert pivots == tuple(range(c))
        assert [list(reduced.row(q)) for q in range(c)] == brute_span(rows, c)
        assert sorted(reduced.maps) == list(range(c))
        assert nullspace_basis(a) == [tuple(v) for v in brute_nullspace(rows, c)] == []

    def test_rank_of_long_weight_strings(self):
        # a 2000-dimensional string: h - wI is diagonal, e has one entry
        # per row, and e + h - wI is bidiagonal; the ranks are known
        d = 2000
        _, h, e = string_action(d - 1, d - 1)
        ident = RatMatrix.identity(d)
        weights = set(range(1 - d, d, 2))
        for w in (d - 1, 1, -1, 1 - d, 0, 2, d, -d - 1):
            expected = d - 1 if w in weights else d
            assert rank(h - ident.scale(w)) == expected, w
            # the diagonal of e + h - wI is zero at most once, where
            # w is a weight; the superdiagonal of e is nonzero
            assert rank(e + h - ident.scale(w)) == expected, w
        assert rank(e) == d - 1


def sparse_family(data, r, c):
    """0-4 half-zero r x c matrices; when there are two or more, the last
    may be a combination of the first two, so that kernels are common."""
    mats = [data.draw(sparse_matrices(r, c)) for _ in range(data.draw(st.integers(0, 4)))]
    if len(mats) > 1 and data.draw(st.booleans()):
        mats[-1] = mats[0].scale(2) - mats[1]
    return mats


class TestFamilyHelpers:
    @given(st.integers(0, 3), st.integers(0, 3), st.data())
    @settings(max_examples=80)
    def test_combination_matches_plain_lists(self, r, c, data):
        mats = sparse_family(data, r, c)
        k = len(mats)
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, k - 1), sparse_entries), max_size=5)
        ) if k else []
        if pairs and data.draw(st.booleans()):
            i, x = pairs[0]
            pairs.append((i, -x))  # the two terms cancel to an exact 0
        got = combination(mats, pairs)
        assert_clean(got)
        if not mats:
            assert (got.rows, got.cols) == (0, 0)
            return
        lists = [dense_rows(m) for m in mats]
        assert dense_rows(got) == [
            [sum((x * lists[i][p][q] for i, x in pairs), F(0)) for q in range(c)]
            for p in range(r)
        ]
        assert combination(mats, []).maps == {}
        assert combination(mats, [(0, F(3)), (0, F(-3))]).maps == {}
        if k > 1:
            # rows that cancel across different matrices store nothing
            twice = mats + [mats[0].scale(2)]
            assert combination(twice, [(0, F(2)), (k, F(-1))]).maps == {}

    def test_combination_of_zero_size_matrices(self):
        empty = RatMatrix.zeros(0, 0)
        assert combination([empty, empty], [(1, F(2))]) == empty
        wide = RatMatrix.zeros(2, 0)
        assert combination([wide], [(0, F(1))]) == wide

    def test_combination_rejects_mixed_shapes(self):
        with pytest.raises(ShapeError):
            combination([RatMatrix.identity(2), RatMatrix.identity(3)], [(1, F(1))])
