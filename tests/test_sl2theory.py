from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilie.exact import RatMatrix, invert, nullspace_basis
from trilie.graded import GradedSpace
from trilie.liealg import build_sl2
from trilie.rep import Representation, verify_representation
from trilie.sl2theory import (
    _require_sl2_relations,
    build_irreducible,
    tensor_multiplicity,
    weight_decomposition,
)

from helpers import clebsch_gordan_count, is_weight_string, tensor_weight_counts

F = Fraction


def direct_sum(*mods):
    """Block-diagonal glue of module action matrices."""
    n = sum(m.dim for m in mods)

    def glue(pick):
        data = [F(0)] * (n * n)
        off = 0
        for m in mods:
            a = pick(m)
            for i in range(m.dim):
                for j in range(m.dim):
                    data[(off + i) * n + (off + j)] = a[i, j]
            off += m.dim
        return RatMatrix(n, n, data)

    return glue(lambda m: m.f_mat), glue(lambda m: m.h_mat), glue(lambda m: m.e_mat)


def gate_verdict(f, h, e):
    """The verification gate's irreducibility verdict on the sl2-module
    (f, h, e), as the one component of a representation of sl2 on basis
    (f, h, e)."""
    L, levi = build_sl2()
    rho = Representation(L, levi, GradedSpace((h.rows,)), (f, h, e))
    return verify_representation(rho)["irreducible_components"]


class TestBuild:
    def test_d1_matrices(self):
        m = build_irreducible(1)
        assert m.h_mat == RatMatrix.diagonal([1, -1])
        # e.x_1 = 1*(1-1+1) x_0 = x_0
        assert m.e_mat == RatMatrix.from_rows([[0, 1], [0, 0]])
        assert m.f_mat == RatMatrix.from_rows([[0, 0], [1, 0]])

    def test_d0_trivial(self):
        m = build_irreducible(0)
        assert m.f_mat.is_zero() and m.h_mat.is_zero() and m.e_mat.is_zero()

    def test_d2_e_coefficient(self):
        # e.x_2 = 2*(2-2+1) x_1 = 2 x_1
        m = build_irreducible(2)
        assert m.e_mat[1, 2] == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_irreducible(-1)

    @pytest.mark.parametrize("d", range(0, 13))
    def test_all_small_modules_are_irreducible(self, d):
        m = build_irreducible(d)
        assert gate_verdict(m.f_mat, m.h_mat, m.e_mat) == [True]

    @pytest.mark.parametrize("d", range(0, 9))
    def test_casimir_scalar(self, d):
        m = build_irreducible(d)
        casimir = (
            m.e_mat @ m.f_mat
            + m.f_mat @ m.e_mat
            + (m.h_mat @ m.h_mat).scale(F(1, 2))
        )
        assert casimir == RatMatrix.identity(d + 1).scale(F(d * (d + 2), 2))


class TestWeights:
    def test_d2_string(self):
        m = build_irreducible(2)
        assert weight_decomposition(m.h_mat) == {2: 1, 0: 1, -2: 1}

    def test_direct_sum_adds_multiplicities(self):
        _, h, _ = direct_sum(build_irreducible(1), build_irreducible(1))
        assert weight_decomposition(h) == {1: 2, -1: 2}

    def test_zero_space(self):
        assert weight_decomposition(RatMatrix.zeros(0, 0)) == {}

    def test_non_integer_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            weight_decomposition(RatMatrix.diagonal([F(1, 2)]))

    def test_defective_action_rejected(self):
        with pytest.raises(ValueError):
            weight_decomposition(RatMatrix.from_rows([[1, 1], [0, 1]]))

    @pytest.mark.parametrize("d", range(0, 9))
    def test_weight_symmetry(self, d):
        weights = weight_decomposition(build_irreducible(d).h_mat)
        assert all(weights[w] == weights[-w] for w in weights)


class TestIrreducibility:
    def test_two_highest_weight_lines_rejected(self):
        f, h, e = direct_sum(build_irreducible(1), build_irreducible(1))
        assert gate_verdict(f, h, e) == [False]

    def test_mixed_sum_rejected(self):
        f, h, e = direct_sum(build_irreducible(1), build_irreducible(3))
        assert gate_verdict(f, h, e) == [False]

    def test_relation_violation_raises(self):
        m = build_irreducible(1)
        with pytest.raises(ValueError):
            _require_sl2_relations(m.f_mat, m.h_mat.scale(2), m.e_mat)


def scanned_weight_string(h, e):
    """The predicate is_weight_string replaces: a full Gershgorin weight
    scan compared with the expected string, then the e-kernel."""
    d = h.rows
    try:
        weights = weight_decomposition(h)
    except ValueError:
        return False
    expected = {d - 1 - 2 * i: 1 for i in range(d)}
    return weights == expected and len(nullspace_basis(e)) == 1


small = st.fractions(min_value=-4, max_value=4, max_denominator=2)


def square(n):
    return st.lists(small, min_size=n * n, max_size=n * n).map(
        lambda d: RatMatrix(n, n, d)
    )


@st.composite
def sums_of_irreducibles(draw):
    """(h, e) of V_a, or of V_a + V_b, with dims a+1, b+1 <= 4; optionally
    moved to a non-diagonal basis by P = I + c E_ij, or with e replaced by
    a random matrix."""
    mods = [build_irreducible(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        mods.append(build_irreducible(draw(st.integers(0, 3))))
    _, h, e = direct_sum(*mods)
    n = h.rows
    if n > 1 and draw(st.booleans()):
        # an elementary P keeps the Gershgorin bound, and the scan, small
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        p = RatMatrix.from_blocks(n, n, [
            (0, 0, RatMatrix.identity(n)),
            (i, j, RatMatrix(1, 1, [draw(st.sampled_from((-1, 1, 2)))])),
        ])
        p_inv = invert(p)
        h, e = p_inv @ h @ p, p_inv @ e @ p
    if draw(st.booleans()):
        e = draw(square(n))
    return h, e


@st.composite
def random_actions(draw):
    """Small random (h, e): h diagonal with integer or half-integer
    entries, or a full random matrix; e random or an sl2 string's e."""
    n = draw(st.integers(0, 4))
    if draw(st.booleans()):
        h = RatMatrix.diagonal(draw(st.lists(small, min_size=n, max_size=n)))
    else:
        h = draw(square(n))
    if n and draw(st.booleans()):
        e = build_irreducible(n - 1).e_mat
    else:
        e = draw(square(n))
    return h, e


class TestWeightString:
    @given(sums_of_irreducibles())
    @settings(max_examples=60, deadline=None)
    def test_sums_of_irreducibles_match_weight_scan(self, he):
        h, e = he
        assert is_weight_string(h, e) == scanned_weight_string(h, e)

    @given(random_actions())
    @settings(max_examples=60, deadline=None)
    def test_random_actions_match_weight_scan(self, he):
        h, e = he
        assert is_weight_string(h, e) == scanned_weight_string(h, e)

    def test_zero_space_is_no_string(self):
        zero = RatMatrix.zeros(0, 0)
        assert not is_weight_string(zero, zero)
        assert not scanned_weight_string(zero, zero)


class TestTensorMultiplicity:
    def test_known_values(self):
        assert tensor_multiplicity(1, 1, 2) == 1
        assert tensor_multiplicity(1, 1, 0) == 1
        assert tensor_multiplicity(1, 1, 1) == 0  # parity mismatch

    def test_tensor_with_trivial(self):
        for a in range(5):
            for c in range(5):
                assert tensor_multiplicity(a, 0, c) == (1 if c == a else 0)

    def test_matches_closed_form(self):
        for a in range(7):
            for b in range(7):
                for c in range(14):
                    assert tensor_multiplicity(a, b, c) == clebsch_gordan_count(
                        a, b, c
                    )

    @pytest.mark.parametrize("abc", [(-1, 2, 1), (2, -1, 1), (2, 2, -2)])
    def test_rejects_negative_weights(self, abc):
        with pytest.raises(ValueError, match="nonnegative"):
            tensor_multiplicity(*abc)

    def test_matches_weight_count_oracle(self):
        # V_c's multiplicity is (# weights c) - (# weights c + 2), with
        # the weights counted pair by pair
        for a in range(31):
            for b in range(31):
                counts = tensor_weight_counts(a, b)
                for c in range(71):
                    want = counts.get(c, 0) - counts.get(c + 2, 0)
                    assert tensor_multiplicity(a, b, c) == want, (a, b, c)

    def test_dimension_bookkeeping(self):
        for a in range(9):
            for b in range(9):
                total = sum(
                    (c + 1) * tensor_multiplicity(a, b, c)
                    for c in range(a + b + 1)
                )
                assert total == (a + 1) * (b + 1)
