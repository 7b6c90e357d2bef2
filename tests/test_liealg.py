from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilie.liealg as liealg
from trilie.exact import unit_vector, vec_is_zero
from trilie.liealg import (
    LeviData,
    LieAlgebra,
    ad_matrix,
    adjoint_grading,
    bracket,
    build_sl2,
    build_sl2_lambda,
    check_axioms,
    derived_series,
    lower_central_series,
    verify_levi_data,
)

from helpers import brute_bracket, brute_jacobi_witness

F = Fraction


def sl2_lambda_with_corrupted_e_z1():
    L, levi = build_sl2_lambda(1)
    # overwrite [e, z1] = z0 with 2*z0
    L.structure[(2, 4)] = {3: F(2)}
    return L, levi


def central_extension_of_sl2():
    """sl2 plus one central generator c."""
    L_sl2, _ = build_sl2()
    structure = dict(L_sl2.structure)
    L = LieAlgebra(4, ("f", "h", "e", "c"), structure)
    return L, LeviData((0, 1, 2), (3,), (3,))


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


class TestBracket:
    def test_h_e_gives_2e(self):
        L, _ = build_sl2()
        h, e = unit_vector(3, 1), unit_vector(3, 2)
        assert bracket(L, h, e) == (F(0), F(0), F(2))

    def test_e_f_gives_h(self):
        L, _ = build_sl2()
        assert bracket(L, unit_vector(3, 2), unit_vector(3, 0)) == (
            F(0),
            F(1),
            F(0),
        )

    def test_bracket_with_itself_vanishes(self):
        L, _ = build_sl2()
        x = (F(1, 2), F(-3), F(7, 5))
        assert vec_is_zero(bracket(L, x, x))

    def test_e_z2_in_lambda_2(self):
        # [e, z_j] = j(lam - j + 1) z_{j-1} with j = lam = 2
        L, _ = build_sl2_lambda(2)
        e, z2 = unit_vector(6, 2), unit_vector(6, 5)
        result = bracket(L, e, z2)
        assert result == tuple(F(2) if k == 4 else F(0) for k in range(6))

    def test_h_z1_in_lambda_2_vanishes(self):
        L, _ = build_sl2_lambda(2)
        assert vec_is_zero(bracket(L, unit_vector(6, 1), unit_vector(6, 4)))

    def test_f_z_top_vanishes(self):
        # z_j := 0 outside 0..lam
        L, _ = build_sl2_lambda(2)
        assert vec_is_zero(bracket(L, unit_vector(6, 0), unit_vector(6, 5)))

    def test_bilinearity(self):
        L, _ = build_sl2_lambda(1)
        x = (F(1), F(2), F(0), F(1, 3), F(0))
        y = (F(0), F(-1), F(1), F(0), F(5))
        z = (F(2), F(0), F(0), F(1), F(1))
        lhs = bracket(L, x, tuple(a + b for a, b in zip(y, z)))
        rhs = tuple(
            a + b for a, b in zip(bracket(L, x, y), bracket(L, x, z))
        )
        assert lhs == rhs


class TestAxioms:
    def test_sl2_passes(self):
        L, _ = build_sl2()
        report = check_axioms(L)
        assert report["antisymmetry"] and report["jacobi"]

    @pytest.mark.parametrize("lam", range(1, 7))
    def test_sl2_lambda_passes(self, lam):
        L, _ = build_sl2_lambda(lam)
        assert check_axioms(L)["all_pass"]

    def test_corrupted_table_fails_jacobi_with_witness(self):
        L, _ = sl2_lambda_with_corrupted_e_z1()
        report = check_axioms(L)
        assert report["antisymmetry"]
        assert not report["jacobi"]
        assert report["witnesses"]["jacobi"] == (0, 2, 3)

    def test_antisymmetry_holds_by_construction(self):
        L, _ = sl2_lambda_with_corrupted_e_z1()
        report = check_axioms(L)
        assert report["antisymmetry"] is True
        assert report["witnesses"]["antisymmetry"] is None
        assert list(report) == ["antisymmetry", "jacobi", "witnesses", "all_pass"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LieAlgebra(2, ("a", "a"), {})

    def test_builder_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            build_sl2_lambda(0)


class TestLeviData:
    def test_builder_output_verifies(self):
        for lam in range(1, 5):
            L, levi = build_sl2_lambda(lam)
            assert verify_levi_data(L, levi)["all_pass"]

    def test_sl2_whole_algebra_as_levi(self):
        L, levi = build_sl2()
        assert verify_levi_data(L, levi)["all_pass"]

    def test_z_span_as_levi_fails_killing(self):
        L, _ = build_sl2_lambda(1)
        bad = LeviData((3, 4), (0, 1, 2), ())
        report = verify_levi_data(L, bad)
        assert not report["levi_killing_nondegenerate"]
        assert not report["all_pass"]

    def test_sl2_span_as_radical_fails(self):
        L, _ = build_sl2_lambda(1)
        bad = LeviData((4,), (0, 1, 2, 3), (3,))
        report = verify_levi_data(L, bad)
        assert not report["radical_solvable_ideal"]
        assert not report["all_pass"]


class TestSeries:
    def test_abelian_nilradical_terminates_immediately(self):
        for lam in (1, 3):
            L, levi = build_sl2_lambda(lam)
            units = [unit_vector(L.dim, i) for i in levi.nilrad_indices]
            series = lower_central_series(L, units)
            assert len(series) == 2
            assert series[1] == []

    def test_zero_ideal(self):
        L, _ = build_sl2()
        assert lower_central_series(L, []) == [[]]

    def test_full_sl2_stabilizes_nonzero(self):
        L, _ = build_sl2()
        units = [unit_vector(3, i) for i in range(3)]
        series = lower_central_series(L, units)
        assert len(series) == 1
        assert len(series[0]) == 3  # constant at the whole algebra

    def test_non_ideal_rejected(self):
        L, _ = build_sl2()
        with pytest.raises(ValueError):
            lower_central_series(L, [unit_vector(3, 2)])  # e-span

    def test_non_ideal_names_first_escape(self):
        # [b2, b3] = b0 on span{b1, b2}: v = b1 is central, and for v = b2
        # the brackets with b0, b1, b2 vanish, so the first escape is (3, b2)
        L = LieAlgebra(4, ("b0", "b1", "b2", "b3"), {(2, 3): {0: 1}})
        first = [unit_vector(4, 1), unit_vector(4, 2)]
        with pytest.raises(ValueError) as exc:
            lower_central_series(L, first)
        assert str(exc.value) == (
            f"input span is not an ideal: [b_3, v] escapes for v={first[1]}"
        )

    def test_derived_series_of_solvable_span(self):
        L, levi = build_sl2_lambda(2)
        units = [unit_vector(L.dim, i) for i in levi.radical_indices]
        series = derived_series(L, units)
        assert series[-1] == []


class TestAdjointGrading:
    @pytest.mark.parametrize("lam", range(1, 5))
    def test_sl2_lambda_degrees(self, lam):
        L, levi = build_sl2_lambda(lam)
        g = adjoint_grading(L, levi)
        degs = [g.degree_of_basis[i] for i in range(L.dim)]
        assert degs == [0, 0, 0] + [1] * (lam + 1)
        assert g.graded_basis() == [unit_vector(L.dim, i) for i in range(L.dim)]

    def test_sl2_all_degree_zero(self):
        L, levi = build_sl2()
        g = adjoint_grading(L, levi)
        assert set(g.degree_of_basis.values()) == {0}

    def test_central_element_gets_degree_one(self):
        L, levi = central_extension_of_sl2()
        assert verify_levi_data(L, levi)["all_pass"]
        g = adjoint_grading(L, levi)
        assert g.degree_of_basis[3] == 1
        assert len(g.component_bases) == 2

    def test_two_step_nilradical_section_in_one_solve(self, monkeypatch):
        L, levi = sl2_heisenberg_skewed()
        assert check_axioms(L)["all_pass"] and verify_levi_data(L, levi)["all_pass"]
        solves = []
        real_solve = liealg.solve

        def counted(a, b):
            solves.append((a.rows, a.cols))
            return real_solve(a, b)

        monkeypatch.setattr(liealg, "solve", counted)
        g = adjoint_grading(L, levi)
        assert [g.degree_of_basis[i] for i in range(L.dim)] == [0, 0, 0, 1, 1, 2]
        # the invariant section of N / [N, N] is x0 = b3 - c and x1 = b4
        assert g.component_bases[1] == (
            tuple(F(x) for x in (0, 0, 0, 1, 0, -1)),
            unit_vector(L.dim, 4),
        )
        # coordinates come from one elimination; the one solve is the
        # stacked Sylvester system of that section
        assert solves == [(3 * 2, 2)]

    @pytest.mark.parametrize("lam", (1, 2, 3))
    def test_levi_invariance_of_sections(self, lam):
        L, levi = build_sl2_lambda(lam)
        g = adjoint_grading(L, levi)
        from trilie.exact import span_contains

        for k, comp in enumerate(g.component_bases):
            for s in levi.levi_indices:
                for v in comp:
                    img = bracket(L, unit_vector(L.dim, s), v)
                    assert span_contains(list(comp), img, L.dim)

    @pytest.mark.parametrize("lam", (1, 2))
    def test_nilradical_raises_degree(self, lam):
        L, levi = build_sl2_lambda(lam)
        g = adjoint_grading(L, levi)
        from trilie.exact import span_contains

        for z in levi.nilrad_indices:
            for k, comp in enumerate(g.component_bases):
                higher = [
                    v
                    for k2, c2 in enumerate(g.component_bases)
                    if k2 >= k + 1
                    for v in c2
                ]
                for v in comp:
                    img = bracket(L, unit_vector(L.dim, z), v)
                    assert vec_is_zero(img) or span_contains(
                        higher, img, L.dim
                    )


class TestAdjointHomomorphism:
    @pytest.mark.parametrize("lam", (1, 2, 3))
    def test_ad_bracket_equals_matrix_commutator(self, lam):
        # equivalent to Jacobi; cross-checks check_axioms through matrices
        from trilie.exact import commutator

        L, _ = build_sl2_lambda(lam)
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                lhs = ad_matrix(L, L.bracket_basis(i, j))
                rhs = commutator(
                    ad_matrix(L, unit_vector(L.dim, i)),
                    ad_matrix(L, unit_vector(L.dim, j)),
                )
                assert lhs == rhs


small_coeffs = st.integers(-3, 3).map(Fraction)


@st.composite
def corrupted_tables(draw):
    """The sl2^Λ table (Λ <= 3) with a few brackets overwritten by random
    ones, removed, or added where the table had none."""
    lam = draw(st.integers(1, 3))
    L, _ = build_sl2_lambda(lam)
    table = {key: dict(v) for key, v in L.structure.items()}
    pairs = [(i, j) for i in range(L.dim) for j in range(i + 1, L.dim)]
    for key in draw(st.lists(st.sampled_from(pairs), max_size=3)):
        table[key] = draw(st.dictionaries(
            st.integers(0, L.dim - 1), small_coeffs, max_size=2))
    return L.dim, table


class TestStructureConstantOracles:
    @given(corrupted_tables())
    @settings(max_examples=80)
    def test_jacobi_witness_matches_plain_oracle(self, case):
        dim, table = case
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        report = check_axioms(L)
        witness = brute_jacobi_witness(dim, table)
        assert report["witnesses"]["jacobi"] == witness
        assert report["jacobi"] is (witness is None)

    @given(corrupted_tables(), st.data())
    @settings(max_examples=60)
    def test_bracket_and_ad_match_plain_oracle(self, case, data):
        dim, table = case
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        vectors = st.lists(st.one_of(st.just(F(0)), small_coeffs),
                           min_size=dim, max_size=dim)
        x, y = data.draw(vectors), data.draw(vectors)
        assert list(bracket(L, x, y)) == brute_bracket(dim, table, x, y)
        units = [[F(int(p == j)) for p in range(dim)] for j in range(dim)]
        assert ad_matrix(L, x).to_lists() == [
            [brute_bracket(dim, table, x, units[j])[k] for j in range(dim)]
            for k in range(dim)
        ]
