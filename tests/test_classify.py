import hashlib
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilie.classify as classify
import trilie.exact as exact
import trilie.family as family
from trilie.classify import (
    ExtensionProblem,
    ModuleParams,
    SolutionSpace,
    assemble_representation,
    classification_report,
    match_family,
    solve_extensions,
)
from trilie.cli import run
from trilie.exact import RatMatrix
from trilie.family import build_family_module
from trilie.rep import is_k_irreducible, verify_representation
from trilie.sl2theory import build_irreducible, tensor_multiplicity

from helpers import (
    brute_classification_report,
    brute_contains,
    brute_extension_basis,
    brute_family_verdict,
    brute_in_span,
    brute_param_problems,
    brute_z_blocks,
    clebsch_gordan_count,
    dense_rows,
    z_tower,
)

F = Fraction


def _line_data(line, n, m):
    # the cells (t, i, X, Y) of a line as the solver's basis list: one
    # dense row-major (m+1) x (n+1) block of the X/Y, or none
    if not line:
        return []
    data = [F(0)] * ((m + 1) * (n + 1))
    for t, i, x, y in line:
        data[t * (n + 1) + i] = F(x, y)
    return [data]


def _a_star(n, s):
    # a*_θ = ((θ + s)! / s!) ((n - s)! / (n - s - θ)!), θ = 1 … n - s, the
    # scalars at which the family's z_0 lies on the solver's line
    star = [F(1)]
    for theta in range(1, n - s + 1):
        star.append(star[-1] * (theta + s) * (n - s - theta + 1))
    return tuple(star[1:])


class TestSolutionSpaces:
    def test_lambda1_n1_m2_is_a_line(self):
        assert solve_extensions(ExtensionProblem(1, 1, 2)).dimension == 1

    def test_parity_obstruction(self):
        assert solve_extensions(ExtensionProblem(1, 0, 0)).dimension == 0

    def test_lambda2_n1_m1(self):
        assert solve_extensions(ExtensionProblem(2, 1, 1)).dimension == 1

    def test_basis_elements_satisfy_constraints(self):
        space = solve_extensions(ExtensionProblem(2, 2, 2))
        u = w = build_irreducible(2)
        assert space.basis
        for b in space.basis:
            assert w.h_mat @ b - b @ u.h_mat == b.scale(2)
            assert (w.e_mat @ b - b @ u.e_mat).is_zero()

    @pytest.mark.parametrize("lam", (1, 2, 3, 4, 5, 6, 7, 8))
    def test_dimension_matches_character_count(self, lam):
        for n in range(41):
            for m in range(41):
                dim = solve_extensions(ExtensionProblem(lam, n, m)).dimension
                assert dim == tensor_multiplicity(lam, n, m), (n, m)
                assert dim == clebsch_gordan_count(lam, n, m), (n, m)

    def test_dimension_never_exceeds_one(self):
        for n in range(4):
            for m in range(4):
                assert solve_extensions(ExtensionProblem(1, n, m)).dimension <= 1


class TestWeightBlockedSolver:
    @pytest.mark.parametrize("lam", (1, 2, 3, 4))
    def test_basis_matches_dense_oracle_on_acceptance_grid(self, lam):
        for n in range(5):
            for m in range(5):
                basis = solve_extensions(ExtensionProblem(lam, n, m)).basis
                assert all((b.rows, b.cols) == (m + 1, n + 1) for b in basis)
                assert [b.data for b in basis] == brute_extension_basis(lam, n, m)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=24),
    )
    @settings(max_examples=20, deadline=None)
    def test_basis_matches_dense_oracle(self, lam, n, m):
        basis = solve_extensions(ExtensionProblem(lam, n, m)).basis
        assert [b.data for b in basis] == brute_extension_basis(lam, n, m)

    def test_diagonal_line_matches_solver_and_dense_oracle(self):
        # the integer line, in row-major order, against the solver's
        # Fractions on every cell with n, m <= 20, and against the dense
        # kernel on every cell up to 8 x 8 and on seeded cells beyond it,
        # since the dense kernel of the whole grid takes minutes
        rng = random.Random(28)
        for lam in range(1, 7):
            for n in range(21):
                for m in range(21):
                    line = classify._diagonal_line(lam, n, m)
                    rows = [t for t, *_ in line]
                    assert rows == list(range(len(line))), (lam, n, m)
                    solved = solve_extensions(ExtensionProblem(lam, n, m)).basis
                    assert _line_data(line, n, m) == [b.data for b in solved], (lam, n, m)
            dense = [(n, m) for n in range(9) for m in range(9)]
            dense += [(rng.randint(9, 20), rng.randint(0, 20)),
                      (rng.randint(0, 20), rng.randint(9, 20))]
            for n, m in dense:
                line = classify._diagonal_line(lam, n, m)
                assert _line_data(line, n, m) == brute_extension_basis(lam, n, m), (lam, n, m)

    def test_runs_no_elimination(self, monkeypatch):
        lam, n, m = 1, 24, 25

        def forbidden(*args):
            raise AssertionError("solver ran an elimination or built a module")

        monkeypatch.setattr(exact, "rref", forbidden)
        monkeypatch.setattr(exact, "nullspace_basis", forbidden)
        monkeypatch.setattr(classify, "string_action", forbidden)
        space = solve_extensions(ExtensionProblem(lam, n, m))
        assert space.dimension == 1
        assert [b.data for b in space.basis] == brute_extension_basis(lam, n, m)


class TestContains:
    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.fractions(max_denominator=5),
        st.integers(min_value=0, max_value=48),
    )
    @settings(max_examples=40, deadline=None)
    def test_membership_and_scalar(self, lam, n, m, c, spot):
        space = solve_extensions(ExtensionProblem(lam, n, m))
        if space.dimension != 1:
            return
        base = space.basis[0]
        assert space.contains(base.scale(c)) == (True, c)
        zeros = [q for q, x in enumerate(base.data) if x == 0]
        if not zeros:
            return
        data = list(base.data)
        data[zeros[spot % len(zeros)]] = F(1)
        outside = RatMatrix(base.rows, base.cols, data)
        assert space.contains(outside) == (False, None)

    @pytest.mark.parametrize("lam", (1, 2, 3, 4))
    def test_matches_rank_oracle_on_grid(self, lam):
        for n in range(9):
            for m in range(9):
                space = solve_extensions(ExtensionProblem(lam, n, m))
                basis = [[x for row in dense_rows(b) for x in row] for b in space.basis]
                size = (m + 1) * (n + 1)
                support = [q for q in range(size) if any(v[q] for v in basis)]
                off = [q for q in range(size) if q not in support]
                blocks = [[F(0)] * size]
                blocks += [[F(-7, 3) * x for x in v] for v in basis]
                for v in blocks[:]:
                    if off:
                        # a cell no basis matrix stores
                        blocks.append([x + (q == off[-1]) for q, x in enumerate(v)])
                    if len([x for x in v if x]) >= 2:
                        # a stored cell, moved off the line through v
                        last = max(q for q, x in enumerate(v) if x)
                        blocks.append([x + (q == last) for q, x in enumerate(v)])
                for v in blocks:
                    member = brute_in_span(basis, v)
                    scalar = None
                    if member and not any(v):
                        scalar = F(0)
                    elif member and len(basis) == 1:
                        q = support[0]
                        scalar = v[q] / basis[0][q]
                    block = RatMatrix(m + 1, n + 1, v)
                    assert space.contains(block) == (member, scalar), (lam, n, m, v)


class TestContainsAgainstCombination:
    """`contains` against the membership rule it replaced: the block's
    free-cell entries as coordinates, then one combination matrix."""

    @pytest.mark.parametrize("sample", ("ones", "random"))
    def test_family_blocks_on_every_cell(self, sample):
        rng = random.Random(4)
        for lam in (1, 2, 3, 4):
            for m, n, s, big_n in family.enumerate_params(lam, 10, 10):
                space = solve_extensions(ExtensionProblem(lam, n, m))
                a = tuple(
                    F(1) if sample == "ones"
                    else F(rng.randint(-5, 5), rng.randint(1, 6))
                    for _ in range(n - s)
                )
                block = family.z_blocks(ModuleParams(lam, m, n, s, big_n, a))[0]
                assert space.contains(block) == brute_contains(space.basis, block), (
                    lam, n, m, s, big_n, a)

    def test_edge_blocks(self):
        line = solve_extensions(ExtensionProblem(1, 1, 2))
        empty = solve_extensions(ExtensionProblem(1, 0, 0))
        (base,) = line.basis
        assert dense_rows(base) == [[2, 0], [0, 1], [0, 0]]  # free cell (1, 1)
        # nonzero, but 0 on the free cell: on the line's support, and off it
        on_support = RatMatrix.from_rows([[1, 0], [0, 0], [0, 0]])
        off_support = RatMatrix.from_rows([[0, 0], [0, 0], [5, 0]])
        cases = [
            (line, RatMatrix.zeros(3, 2), (True, 0)),
            (empty, RatMatrix.zeros(1, 1), (True, 0)),
            (empty, RatMatrix.identity(1), (False, None)),
            (line, base.scale(F(-2, 3)), (True, F(-2, 3))),
            (line, on_support, (False, None)),
            (line, off_support, (False, None)),
        ]
        for space, block, want in cases:
            assert space.contains(block) == brute_contains(space.basis, block) == want
        for space, shape in ((line, (2, 3)), (empty, (1, 2))):
            with pytest.raises(ValueError, match="expected"):
                space.contains(RatMatrix.zeros(*shape))


class TestTower:
    def test_terminates_exactly_at_lambda_plus_one(self):
        problem = ExtensionProblem(1, 1, 2)
        space = solve_extensions(problem)
        tower = z_tower(problem, space.basis[0])
        assert len(tower) == problem.lam + 2
        assert not tower[1].is_zero()
        assert tower[2].is_zero()


class TestAssembly:
    def test_generator_assembles_to_full_representation(self):
        problem = ExtensionProblem(1, 1, 2)
        space = solve_extensions(problem)
        rho = assemble_representation(problem, space.basis[0])
        assert rho.algebra.dim == 5  # f, h, e, z0, z1
        assert rho.space.total_dim == 5  # (n+1) + (m+1)
        report = verify_representation(rho)
        assert report["homomorphism"]
        assert report["condition_i"] and report["condition_ii"]
        assert report["irreducible_components"] == [True, True]

    def test_zero_block_is_always_valid(self):
        problem = ExtensionProblem(1, 1, 2)
        rho = assemble_representation(problem, RatMatrix.zeros(3, 2))
        assert all(rho.images[3 + j].is_zero() for j in range(2))

    def test_scaled_generator_is_valid(self):
        problem = ExtensionProblem(2, 1, 1)
        space = solve_extensions(problem)
        rho = assemble_representation(problem, space.basis[0].scale(F(-7, 3)))
        assert verify_representation(rho)["homomorphism"]

    def test_invalid_block_rejected(self):
        problem = ExtensionProblem(1, 0, 0)
        ones = RatMatrix.from_rows([[1]])
        with pytest.raises(ValueError, match=re.escape("pair (h, z0) fails")):
            assemble_representation(problem, ones)

    # the homomorphism check visits (f, z_lam) before (h, z0) and (e, z0);
    # a weight-lam z0 whose tower ends at Z_lam is a highest-weight
    # vector, so a non-solution fails at (f, z_lam) or at (h, z0)
    @pytest.mark.parametrize(
        "lam,n,m,rows,pair",
        [
            (2, 1, 1, [[1, 0], [0, 0]], "(h, z0)"),
            (1, 1, 2, [[1, 0], [0, 0], [0, 0]], "(f, z1)"),
            (1, 1, 2, [[1, 1], [1, 1], [1, 1]], "(f, z1)"),
        ],
    )
    def test_non_solution_names_the_failing_pair(self, lam, n, m, rows, pair):
        problem = ExtensionProblem(lam, n, m)
        with pytest.raises(ValueError, match=re.escape(pair)):
            assemble_representation(problem, RatMatrix.from_rows(rows))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="expected 3x2"):
            assemble_representation(ExtensionProblem(1, 1, 2), RatMatrix.zeros(2, 3))

    def test_builds_each_component_once(self, monkeypatch):
        real, built = classify.string_action, []

        def counting(d, e_top):
            built.append((d, e_top))
            return real(d, e_top)

        monkeypatch.setattr(classify, "string_action", counting)
        problem = ExtensionProblem(1, 1, 2)
        assemble_representation(problem, solve_extensions(problem).basis[0])
        assert built == [(1, 1), (2, 2)]

    @pytest.mark.parametrize("lam,n,m", [(1, 1, 2), (2, 1, 1), (2, 2, 2), (3, 0, 3)])
    def test_assembled_is_2_irreducible(self, lam, n, m):
        problem = ExtensionProblem(lam, n, m)
        space = solve_extensions(problem)
        if not space.basis:
            pytest.skip("empty solution space")
        rho = assemble_representation(problem, space.basis[0])
        assert is_k_irreducible(rho) == [True, True]


class TestFamilyMatching:
    def test_straight_module_is_the_generator_up_to_scale(self):
        problem = ExtensionProblem(2, 0, 2)
        space = solve_extensions(problem)
        params = ModuleParams(2, 2, 0, 0, 0)
        verdict = match_family(problem, space, params)
        assert verdict["member"]
        assert verdict["scalar"] is not None and verdict["scalar"] != 0

    def test_family_with_unit_scalar_lands_in_space(self):
        problem = ExtensionProblem(1, 1, 2)
        space = solve_extensions(problem)
        params = ModuleParams(1, 2, 1, 0, 0, (F(1),))
        verdict = match_family(problem, space, params)
        assert verdict["member"]

    def test_broken_tuple_falls_outside(self):
        # (s, N) = (1, 1) carries the bracket violation: its block
        # cannot be a constraint solution
        problem = ExtensionProblem(1, 1, 2)
        space = solve_extensions(problem)
        params = ModuleParams(1, 2, 1, 1, 1)
        verdict = match_family(problem, space, params)
        assert not verdict["member"]

    def test_mismatched_shape_rejected(self):
        problem = ExtensionProblem(1, 1, 2)
        space = solve_extensions(problem)
        with pytest.raises(ValueError):
            match_family(problem, space, ModuleParams(1, 1, 0, 0, 0))

    @pytest.mark.parametrize("s,big_n,a", [(0, 0, ()), (1, 0, ()), (0, 3, (F(1),))])
    def test_invalid_params_rejected_as_z_blocks_rejects_them(self, s, big_n, a):
        # a missing scalar, m + 2s != Λ + n + 2N, N > m: the tuple is
        # refused where it is built, with the oracle's text, so neither
        # z_blocks nor match_family is ever handed it
        with pytest.raises(ValueError) as got:
            ModuleParams(1, 2, 1, s, big_n, a)
        assert str(got.value) == "; ".join(brute_param_problems(1, 2, 1, s, big_n, a))


class TestMatchFamilyReadsZRules:
    def test_no_module_or_algebra_is_built(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("match_family built a module")

        monkeypatch.setattr(family, "build_sl2_lambda", forbidden)
        monkeypatch.setattr(family, "two_block_representation", forbidden)
        problem = ExtensionProblem(1, 1, 2)
        verdict = match_family(
            problem, solve_extensions(problem), ModuleParams(1, 2, 1, 0, 0, (F(1),))
        )
        assert verdict["member"]

    def test_evaluates_only_the_z0_rules(self, monkeypatch):
        # every entry read is z_0's, read through `z0_entry` on a cell
        # the line stores; no z_j block of any j is built
        reads = []
        reader = classify.z0_entry

        def recording(m, n, s, big_n, a, t, i):
            z = reader(m, n, s, big_n, a, t, i)
            reads.append((t, i, z))
            return z

        def forbidden(*args):
            raise AssertionError("match_family built a z block")

        monkeypatch.setattr(classify, "z0_entry", recording)
        monkeypatch.setattr(family, "z_blocks", forbidden)
        for lam in (1, 2, 3):
            for m, n, s, big_n in family.enumerate_params(lam, 6, 5):
                a = tuple(F(k + 2, 3) for k in range(n - s))
                problem = ExtensionProblem(lam, n, m)
                space = solve_extensions(problem)
                match_family(problem, space, ModuleParams(lam, m, n, s, big_n, a))
                z0 = brute_z_blocks(lam, m, n, s, big_n, a)[0]
                stored = {(t, i) for t, row in space.basis[0].maps.items()
                          for i in row} if space.basis else set()
                assert reads or not stored
                for t, i, z in reads:
                    assert (t, i) in stored
                    assert z == z0[t][i]
                reads.clear()

    def test_builds_no_block_or_matrix(self, monkeypatch):
        # the verdicts of the old path, the whole z_0 block tested by
        # `contains`, with that path and every matrix constructor barred
        cases = []
        for lam in (1, 2, 3):
            for m, n, s, big_n in family.enumerate_params(lam, 6, 5):
                a = tuple(F(k + 2, 3) for k in range(n - s))
                params = ModuleParams(lam, m, n, s, big_n, a)
                problem = ExtensionProblem(lam, n, m)
                space = solve_extensions(problem)
                block = family.z_blocks(params)[0]
                member, scalar = space.contains(block)
                assert not block.is_zero()
                cases.append((problem, space, params, {"member": member, "scalar": scalar}))

        def forbidden(*args):
            raise AssertionError("match_family built a block")

        monkeypatch.setattr(family, "z_blocks", forbidden)
        monkeypatch.setattr(SolutionSpace, "contains", forbidden)
        monkeypatch.setattr(RatMatrix, "__init__", forbidden)
        monkeypatch.setattr(RatMatrix, "_from_maps", forbidden)
        for problem, space, params, want in cases:
            assert match_family(problem, space, params) == want, params

    def test_matches_brute_membership_on_grid(self):
        # the solver's line, the line of its free cell alone, the empty
        # span and the lines other λ give the same shape, each against
        # the printed-rule z_0 at a = 1, at
        # a*_θ = ((θ + s)! / s!) ((n - s)! / (n - s - θ)!), and at
        # seeded samples with zeros and negatives; match_family's integer
        # walk against the block's membership and the Fraction walk
        rng = random.Random(23)
        members = 0
        for lam in range(1, 6):
            for m, n, s, big_n in family.enumerate_params(lam, 9, 9):
                problem = ExtensionProblem(lam, n, m)
                spaces = [solve_extensions(problem), SolutionSpace(problem, ())]
                spaces += [
                    SolutionSpace(problem, other.basis)
                    for other in (solve_extensions(ExtensionProblem(k, n, m))
                                  for k in range(1, 6) if k != lam)
                    if other.basis
                ]
                if spaces[0].basis:
                    rows = dense_rows(spaces[0].basis[0])
                    free = max((t, i) for t, row in enumerate(rows)
                               for i, x in enumerate(row) if x)
                    rows = [[F((t, i) == free) for i in range(n + 1)]
                            for t in range(m + 1)]
                    spaces.append(SolutionSpace(problem, (RatMatrix.from_rows(rows),)))
                samples = [(F(1),) * (n - s), _a_star(n, s)]
                samples += [
                    tuple(F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 4))
                          for _ in range(n - s))
                    for _ in range(3)
                ]
                for a in samples:
                    params = ModuleParams(lam, m, n, s, big_n, a)
                    block = RatMatrix.from_rows(brute_z_blocks(lam, m, n, s, big_n, a)[0])
                    for space in spaces:
                        member, scalar = brute_contains(space.basis, block)
                        got = match_family(problem, space, params)
                        assert got == {"member": member, "scalar": scalar}, (lam, params, space)
                        walked = brute_family_verdict(space, m, n, s, big_n, a)
                        assert walked == (member, scalar), (lam, params, space)
                        members += member
                    # the survey's call: the closed form on a cell with a
                    # line, scalars read only up to n - s, and no call on one
                    # without
                    got = (classify._closed_verdict(m, n, s, big_n, a + (F(-9),))
                           if spaces[0].basis else (False, None))
                    assert got == brute_contains(spaces[0].basis, block), (lam, params)
        assert members > 0


class TestClosedVerdict:
    def test_matches_the_walk_and_the_oracle_on_grid(self):
        # every valid tuple on a cell with a line, n, m <= 14, for λ <= 8
        # and Λ = 10^9, whose diagonals all start outside the block; at the
        # all-ones sample, at a*_θ = Π_{t<=θ} (s+t)(n-s-t+1), at a* with
        # each entry in turn raised by 1, negated or set to 0, at 2·a*, and
        # at seeded samples with zeros: the closed form against the
        # Fraction walk over the solver's line and against match_family
        rng = random.Random(37)
        members, ones_members, with_line = set(), set(), set()
        for lam in (*range(1, 9), 10**9):
            for n in range(15):
                for m in range(15):
                    c, odd = divmod(m - n - lam, 2)
                    problem = ExtensionProblem(lam, n, m)
                    space = solve_extensions(problem)
                    assert bool(space.basis) == (not odd and classify._has_line(n, m, c))
                    if not space.basis:
                        continue
                    with_line.add(lam)
                    for s in range(max(0, -c), min(n, m - c) + 1):
                        big_n = s + c
                        star = _a_star(n, s)
                        samples = [(F(1),) * (n - s), star, tuple(2 * x for x in star)]
                        for k in range(n - s):
                            for x in (star[k] + 1, -star[k], F(0)):
                                samples.append(star[:k] + (x,) + star[k + 1:])
                        samples += [
                            tuple(F(rng.choice((0, 0, 1, -2, 3)), rng.randint(1, 4))
                                  for _ in range(n - s))
                            for _ in range(3)
                        ]
                        for a in samples:
                            got = classify._closed_verdict(m, n, s, big_n, a)
                            assert got == brute_family_verdict(space, m, n, s, big_n, a), (
                                lam, n, m, s, a)
                            params = ModuleParams(lam, m, n, s, big_n, a)
                            verdict = match_family(problem, space, params)
                            assert got == (verdict["member"], verdict["scalar"]), params
                            if got[0]:
                                members.add((s < n, a == star))
                                if a == (F(1),) * (n - s):
                                    ones_members.add((n, s, m, got[1]))
        assert with_line == set(range(1, 9))
        # every member is at a*, some with s < n and some with s = n
        assert members == {(True, True), (False, True)}
        # the all-ones members: s = n, scalar 1, and s = 0 with n = 1,
        # scalar 1/m
        assert {(n, s) for n, s, _, _ in ones_members} >= {(1, 0), (0, 0), (3, 3)}
        for n, s, m, scalar in ones_members:
            assert s == n and scalar == 1 or (s, n) == (0, 1) and scalar == F(1, m)


# sha256 of `trilie classify` stdout: the first two recorded before the
# solver was weight-blocked, the next two before it walked the diagonal,
# the last before the report was written from templates; a box "N" is
# N x N, "NxM" is n <= N, m <= M
@pytest.mark.parametrize(
    "lam,box,digest",
    [
        ("2", "12", "9b4cd4c9470e07a267076e093f85b1408ddc0168a693a320bda15df8764b80e3"),
        ("4", "10", "2081dd72c040d2110130f74c3d5292bd310178a8b8553aa4010ea1ada8aae737"),
        ("3", "24", "96a4df8900bb00975c3634b741ca23d58eb23e04355e3957c212a66376f957e4"),
        ("1", "40x41", "d6baab74e50768afd26641b3d632caa0184589608702a798262d647cf724f33c"),
        ("2", "100", "d8225ea0e751d5eff0289f827c049b0ddd5f1a790c2591b09bd1809c982247ba"),
    ],
)
def test_classify_output_matches_golden_digest(capsys, lam, box, digest):
    max_n, _, max_m = box.partition("x")
    code = run(["classify", "--lambda", lam, "--max-n", max_n, "--max-m", max_m or max_n])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _oracle_boxes():
    # every box up to 12 x 12 for lam <= 4, and seeded ones up to lam = 8
    # and 30 x 30, with the boxes of one row and of one column among them
    boxes = [(lam, n, m) for lam in range(1, 5) for n in range(13) for m in range(13)]
    rng = random.Random(26)
    for _ in range(12):
        boxes.append((rng.randint(1, 8), rng.randint(0, 30), rng.randint(0, 30)))
    for _ in range(4):
        lam, size = rng.randint(1, 8), rng.randint(13, 30)
        boxes += [(lam, 0, size), (lam, size, 0)]
    return boxes


def test_classify_text_and_report_match_the_dict_oracle(capsys):
    # the template renderer writes exactly what json.dumps writes of the
    # report built field by field, and the report reads back to it
    for lam, n_max, m_max in _oracle_boxes():
        brute = brute_classification_report(lam, n_max, m_max)
        code = run(["classify", "--lambda", str(lam), "--max-n", str(n_max),
                    "--max-m", str(m_max)])
        out = capsys.readouterr().out
        assert code == 0, (lam, n_max, m_max)
        assert out == json.dumps(brute, indent=2) + "\n", (lam, n_max, m_max)
        assert classification_report(lam, n_max, m_max) == brute, (lam, n_max, m_max)


def test_classify_builds_no_problem_space_or_matrix(monkeypatch):
    # each survey cell is read in integers on its weight diagonal: with
    # the solver, its types and both matrix constructors barred, the
    # report is still the dict oracle's
    boxes = _oracle_boxes()
    want = [brute_classification_report(*box) for box in boxes]

    def forbidden(*args, **kwargs):
        raise AssertionError("the survey built a problem, space or matrix")

    for name in ("ExtensionProblem", "solve_extensions", "SolutionSpace"):
        monkeypatch.setattr(classify, name, forbidden)
    monkeypatch.setattr(RatMatrix, "__init__", forbidden)
    monkeypatch.setattr(RatMatrix, "_from_maps", forbidden)
    for box, report in zip(boxes, want):
        assert classification_report(*box) == report, box


def test_classify_hands_the_verdict_walk_only_valid_tuples(monkeypatch):
    # classification_cells skips match_family's checks: each (s, N) it
    # lists for a cell with a line reaches the closed form as that cell's
    # valid tuple with the all-ones sample, a cell with no line makes no
    # call, and every verdict is match_family's
    closed = classify._closed_verdict
    calls = []

    def recording(m, n, s, big_n, a):
        got = closed(m, n, s, big_n, a)
        calls.append((m, n, s, big_n, a, got))
        return got

    monkeypatch.setattr(classify, "_closed_verdict", recording)
    for lam, n_max, m_max in _oracle_boxes():
        for cell in classify.classification_cells(lam, n_max, m_max):
            problem = ExtensionProblem(lam, cell.n, cell.m)
            space = solve_extensions(problem)
            assert cell.dim == space.dimension, (lam, cell)
            assert len(calls) == (len(cell.matches) if space.basis else 0), (lam, cell)
            for s, big_n, k, member, scalar in cell.matches:
                ones = (F(1),) * (cell.n - s)
                assert k == cell.n - s, (lam, cell)
                assert not brute_param_problems(lam, cell.m, cell.n, s, big_n, ones)
                params = ModuleParams(lam, cell.m, cell.n, s, big_n, ones)
                verdict = match_family(problem, space, params)
                assert (member, scalar) == (verdict["member"], verdict["scalar"]), params
            for (s, big_n, k, member, scalar), (*tup, a, got) in zip(cell.matches, calls):
                assert tup == [cell.m, cell.n, s, big_n], (lam, cell)
                assert tuple(a[:cell.n - s]) == (F(1),) * (cell.n - s), (lam, cell)
                assert got == (member, scalar), (lam, cell)
            calls.clear()


def test_classify_report_reads_no_line_and_walks_nothing(monkeypatch):
    # with the line, the z-rule reader and the verdict walk barred, the
    # survey's report is still the dict oracle's
    boxes = _oracle_boxes()
    want = [brute_classification_report(*box) for box in boxes]

    def forbidden(*args, **kwargs):
        raise AssertionError("the survey read a line, a z-rule entry or walked a line")

    for name in ("_diagonal_line", "z0_entry", "_line_verdict"):
        monkeypatch.setattr(classify, name, forbidden)
    for box, report in zip(boxes, want):
        assert classification_report(*box) == report, box


class TestReport:
    def test_lambda1_grid(self):
        report = classification_report(1, 2, 3)
        assert len(report["cells"]) == 3 * 4
        for cell in report["cells"]:
            assert cell["dim"] in (0, 1)
            assert cell["agree"], cell
            if cell["m"] > 1 + cell["n"]:
                assert cell["dim"] == 0
            if (cell["m"] + cell["n"]) % 2 == 0:  # m = lam + n + 1 parity
                assert cell["dim"] == 0

    def test_sn_tuples_match_enumeration(self):
        lam, box = 2, 4
        from_cells = {
            (cell["m"], cell["n"], match["s"], match["N"])
            for cell in classification_report(lam, box, box)["cells"]
            for match in cell["family_matches"]
        }
        assert from_cells == set(family.enumerate_params(lam, box, box))

    def test_sn_tuples_equal_filtered_enumeration(self):
        # each cell lists, in order of s, the tuples that the enumeration
        # bounded by the cell itself lists for it
        box = 10
        for lam in range(1, 5):
            for cell in classification_report(lam, box, box)["cells"]:
                n, m = cell["n"], cell["m"]
                listed = [
                    (s, big_n)
                    for m2, n2, s, big_n in family.enumerate_params(lam, m, n)
                    if (m2, n2) == (m, n)
                ]
                got = [(match["s"], match["N"]) for match in cell["family_matches"]]
                assert got == listed, (lam, n, m)

    @pytest.mark.parametrize("lam,n,m", [(0, 2, 2), (1, -1, 2), (1, 2, -1)])
    def test_sn_tuples_reject_what_enumeration_rejects(self, lam, n, m):
        with pytest.raises(ValueError) as expected:
            family.enumerate_params(lam, m, n)
        with pytest.raises(ValueError, match=str(expected.value)):
            classification_report(lam, n, m)

    def test_notes_flag_free_scalars(self):
        report = classification_report(1, 1, 1)
        assert any("free scalars" in note for note in report["notes"])
