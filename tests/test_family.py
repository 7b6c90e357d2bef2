import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilie.classify import ExtensionProblem, classification_cells
from trilie.exact import RatMatrix, commutator, unit_vector
from trilie.family import (
    ModuleParams,
    build_family_module,
    enumerate_params,
    two_block_representation,
    verify_family,
    weight_compatibility,
    z0_entry,
    z_blocks,
)
from trilie.cli import run
from trilie.liealg import build_sl2_lambda, lambda_error
from trilie.rep import conjugate_levi_check, verify_homomorphism
from trilie.sl2theory import string_action

from helpers import (
    assert_clean,
    brute_bracket,
    brute_enumerate_params,
    brute_param_problems,
    brute_weight_witness,
    brute_z_blocks,
    dense_rows,
    z_rule_cover_counts,
)

F = Fraction


def params(lam, m, n, s, big_n, a=()):
    return ModuleParams(lam, m, n, s, big_n, tuple(F(x) for x in a))


def z_block(rho, j):
    """(m+1) x (n+1) block of the z_j action, w rows by u columns."""
    return rho.images[3 + j].block(0, 1)


class TestValidation:
    def test_known_good_tuple(self):
        p = params(1, 2, 1, 1, 1)
        assert (p.lam, p.m, p.n, p.s, p.big_n, p.a) == (1, 2, 1, 1, 1, ())

    def test_sum_mismatch(self):
        with pytest.raises(ValueError, match=r"m \+ 2s"):
            params(1, 0, 0, 0, 0)

    def test_another_good_tuple(self):
        assert params(2, 2, 0, 0, 0).a == ()

    def test_scalar_count_enforced(self):
        with pytest.raises(ValueError, match="scalars"):
            params(1, 2, 1, 0, 0)  # needs one a

    def test_construction_matches_oracle(self):
        # a tuple is built exactly when Λ >= 1, the brute filter lists
        # it and it carries n - s scalars; otherwise the one ValueError
        # holds every problem the oracle names, in its order
        for lam in (-1, 0, 1, 2, 3):
            listed = set(brute_enumerate_params(lam, 6, 6))
            for m, n, s, big_n in itertools.product(range(-1, 7), repeat=4):
                for k in sorted({max(d, 0) for d in (n - s - 1, n - s, n - s + 1)}):
                    a = (F(1),) * k
                    problems = brute_param_problems(lam, m, n, s, big_n, a)
                    valid = lam >= 1 and (m, n, s, big_n) in listed and k == n - s
                    assert (not problems) == valid, (lam, m, n, s, big_n, k)
                    if valid:
                        assert ModuleParams(lam, m, n, s, big_n, a).a == a
                        continue
                    with pytest.raises(ValueError) as exc:
                        ModuleParams(lam, m, n, s, big_n, a)
                    assert str(exc.value) == "; ".join(problems), (lam, m, n, s, big_n, k)

    def test_builder_rejects_invalid(self):
        with pytest.raises(ValueError):
            build_family_module(params(1, 0, 0, 0, 0))

    @pytest.mark.parametrize("lam", (0, -3))
    def test_lambda_below_one_has_one_text(self, lam, capsys):
        # the tuple, the bounds, the extension problem, the algebra and
        # the CLI verbs report the same bytes, from one source; a negative
        # bound has its own one text
        text = f"lam must be >= 1, got {lam}"
        assert lambda_error(lam) == text and lambda_error(1) is None
        with pytest.raises(ValueError) as exc:
            params(lam, 0, 0, 0, 0)
        assert str(exc.value).split("; ")[0] == text
        for call in (lambda: enumerate_params(lam, 3, 3),
                     lambda: list(classification_cells(lam, 3, 3)),
                     lambda: ExtensionProblem(lam, 1, 1),
                     lambda: build_sl2_lambda(lam)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == text
        for argv, err in (
            (["gen", "sl2l", "--lambda", str(lam)], text),
            (["gen", "family", "--lambda", str(lam), "--m", "0", "--n", "0",
              "--s", "0", "--bigN", "0"],
             "invalid parameters: " + "; ".join(brute_param_problems(lam, 0, 0, 0, 0, ()))),
            (["enumerate", "--lambda", str(lam), "--max-m", "1", "--max-n", "1"], text),
            (["classify", "--lambda", str(lam), "--max-n", "1", "--max-m", "1"], text),
            (["classify", "--lambda", "1", "--max-n", "-1", "--max-m", "1"],
             "bounds must be nonnegative"),
        ):
            assert run(argv) == 2, argv
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {err}\n"), argv


class TestEnumeration:
    def test_lambda1_bound2(self):
        got = enumerate_params(1, 2, 2)
        assert got == [
            (1, 0, 0, 0),
            (2, 1, 0, 0),
            (0, 1, 1, 0),
            (2, 1, 1, 1),
            (1, 2, 1, 0),
            (1, 2, 2, 1),
        ]

    def test_zero_bounds_empty(self):
        assert enumerate_params(1, 0, 0) == []

    def test_parity(self):
        for lam in (1, 2, 3):
            for m, n, s, big_n in enumerate_params(lam, 5, 5):
                assert (m - lam - n) % 2 == 0

    def test_matches_brute_filter(self):
        # both bounds in 0..15, skewed pairs among them
        for lam in range(1, 6):
            for m_max in range(16):
                for n_max in range(16):
                    got = enumerate_params(lam, m_max, n_max)
                    assert got == brute_enumerate_params(lam, m_max, n_max), (lam, m_max, n_max)

    def test_skewed_bounds_cost_the_tuples_listed(self):
        # m_max = 0 leaves one s per odd n, where the filter over every
        # (n, s, N) would visit 2 * 10^10 triples
        start = time.perf_counter()
        got = enumerate_params(1, 0, 200000)
        assert time.perf_counter() - start < 2
        assert len(got) == 100000
        assert got[:2] == [(0, 1, 1, 0), (0, 3, 2, 0)]
        assert got[-1] == (0, 199999, 100000, 0)

    def test_agrees_with_validator(self):
        # independent filter over the full parameter box: a tuple is
        # listed exactly when its ModuleParams can be built
        for lam in (1, 2):
            listed = set(enumerate_params(lam, 4, 4))
            brute = set()
            for m, n, s, big_n in itertools.product(range(5), repeat=4):
                try:
                    ModuleParams(lam, m, n, s, big_n, (F(1),) * max(n - s, 0))
                except ValueError:
                    continue
                brute.add((m, n, s, big_n))
            assert listed == brute


class TestActionCoefficients:
    """Pinned values at (lam, m, n, s, N) = (1, 2, 1, 1, 1)."""

    @pytest.fixture()
    def rho(self):
        return build_family_module(params(1, 2, 1, 1, 1))

    def test_zero_range_cell(self, rho):
        # i = j = 0 is the only cell with s - 1 >= i + j
        assert z_block(rho, 0).transpose().row(0) == (F(0), F(0), F(0))

    def test_middle_sum_cells(self, rho):
        # z0·u1 = (1/2) w1,  z1·u0 = -(1/2) w1
        assert z_block(rho, 0).transpose().row(1) == (F(0), F(1, 2), F(0))
        assert z_block(rho, 1).transpose().row(0) == (F(0), F(-1, 2), F(0))

    def test_tail_sum_cell(self, rho):
        # z1·u1 = (1/2) w2
        assert z_block(rho, 1).transpose().row(1) == (F(0), F(0), F(1, 2))

    def test_z_kills_w(self, rho):
        for j in (0, 1):
            img = rho.images[3 + j]
            assert img.block(1, 1).is_zero()
            assert img.block(1, 0).is_zero()

    def test_rules_cover_every_cell_without_conflict(self):
        report = verify_family(params(1, 2, 1, 1, 1))
        assert report["rule_conflicts"] == []
        assert report["uncovered_cells"] == []


class TestZBlocks:
    @given(
        st.sampled_from(
            [(lam,) + t for lam in (1, 2, 3) for t in enumerate_params(lam, 7, 6)]
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_printed_rules(self, tpl, data):
        lam, m, n, s, big_n = tpl
        a = tuple(
            data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
            for _ in range(n - s)
        )
        blocks = z_blocks(params(lam, m, n, s, big_n, a))
        assert [dense_rows(b) for b in blocks] == brute_z_blocks(lam, m, n, s, big_n, a)
        # the strings the module is built from, the printed e on w included
        strings = [g for d, top in ((n, n), (m, m), (m, n)) for g in string_action(d, top)]
        for block in blocks + strings:
            assert_clean(block)

    GRID = [(lam,) + t for lam in (1, 2, 3, 4) for t in enumerate_params(lam, 10, 10)]

    def test_printed_ranges_partition_the_cells(self):
        for lam, m, n, s, big_n in self.GRID:
            counts = z_rule_cover_counts(lam, n, s)
            assert set(counts.values()) == {1}, (lam, m, n, s, big_n)

    @pytest.mark.parametrize("sample", ("ones", "random"))
    def test_every_prefix_matches_printed_rules_on_grid(self, sample):
        rng = random.Random(16)
        for lam, m, n, s, big_n in self.GRID:
            if sample == "ones":
                a = (F(1),) * (n - s)
            else:
                a = tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n - s))
            want = brute_z_blocks(lam, m, n, s, big_n, a)
            got = [dense_rows(b) for b in z_blocks(params(lam, m, n, s, big_n, a))]
            assert got == want, (lam, m, n, s, big_n, a)

    def test_module_is_built_from_the_blocks(self):
        p = params(2, 3, 3, 2, 1, (F(2, 3),))
        rho = build_family_module(p)
        assert [z_block(rho, j) for j in range(p.lam + 1)] == z_blocks(p)

    def test_rejects_invalid_params(self):
        with pytest.raises(ValueError):
            z_blocks(params(1, 0, 0, 0, 0))


class TestZ0Entry:
    @pytest.mark.parametrize("sample", ("ones", "random"))
    def test_every_cell_matches_printed_rules_on_grid(self, sample):
        # off-diagonal cells and a ring of cells outside the block read 0
        rng = random.Random(23)
        for lam, m, n, s, big_n in TestZBlocks.GRID:
            if sample == "ones":
                a = (F(1),) * (n - s)
            else:
                a = tuple(F(rng.choice((0, 0, 1, -3, 5)), rng.randint(1, 6))
                          for _ in range(n - s))
            want = brute_z_blocks(lam, m, n, s, big_n, a)[0]
            for t in range(-1, m + 2):
                for i in range(-1, n + 2):
                    inside = 0 <= t <= m and 0 <= i <= n
                    want_z = want[t][i] if inside else 0
                    assert z0_entry(m, n, s, big_n, a, t, i) == want_z, (
                        lam, m, n, s, big_n, a, t, i)


class TestStraightModule:
    """(m, n, s, N) = (lam, 0, 0, 0): z_j sends u_0 to w_j."""

    @pytest.mark.parametrize("lam", (1, 2, 3))
    def test_z_action_is_the_radical_string(self, lam):
        rho = build_family_module(params(lam, lam, 0, 0, 0))
        for j in range(lam + 1):
            col = z_block(rho, j).transpose().row(0)
            assert col == tuple(
                F(1) if k == j else F(0) for k in range(lam + 1)
            )

    @pytest.mark.parametrize("lam", (1, 2, 3))
    def test_full_verification_passes(self, lam):
        report = verify_family(params(lam, lam, 0, 0, 0))
        assert report["all_pass"], report
        assert report["radical_acts_nonzero"]
        assert report["two_irreducible"]

    @pytest.mark.parametrize("lam", (1, 2))
    def test_conjugation_stability(self, lam):
        rho = build_family_module(params(lam, lam, 0, 0, 0))
        for j in range(lam + 1):
            z = unit_vector(rho.algebra.dim, 3 + j)
            report = conjugate_levi_check(rho, z)
            assert report["all_pass"], (lam, j, report)


class TestHomOracle:
    """Brute-force bracket check against the built matrices."""

    def brute_check(self, rho):
        L = rho.algebra
        failures = []
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                b_ij = brute_bracket(L.dim, L.structure, unit_vector(L.dim, i),
                                     unit_vector(L.dim, j))
                expected = rho.image_of(b_ij).matrix
                actual = commutator(rho.images[i].matrix, rho.images[j].matrix)
                if expected != actual:
                    failures.append((i, j))
        return failures

    def test_straight_module_clean(self):
        rho = build_family_module(params(2, 2, 0, 0, 0))
        assert self.brute_check(rho) == []

    def test_1_2_1_1_1_fails_at_f_z1(self):
        # the printed middle/tail coefficients violate [f, z1] = z2 here;
        # the checker must surface that, not hide it
        rho = build_family_module(params(1, 2, 1, 1, 1))
        failures = self.brute_check(rho)
        assert failures, "expected at least one bracket violation"
        assert failures[0] == (0, 4)
        ok, witness = verify_homomorphism(rho)
        assert not ok and witness == (0, 4)

    def test_report_shows_failure_without_gating_errors(self):
        report = verify_family(params(1, 2, 1, 1, 1))
        assert not report["homomorphism"]
        assert not report["all_pass"]
        assert report["witnesses"]["homomorphism"] == (0, 4)
        # structure apart from the bracket defect is still intact
        assert report["triangular_all"]
        assert report["condition_i"]
        assert report["condition_ii"]
        assert report["weight_compatible"]

    def test_two_irreducible_false_when_irreducibility_undecided(self):
        # no homomorphism, so the components are no sl2-modules and
        # irreducibility is not asked; two_irreducible cannot hold
        report = verify_family(params(1, 2, 1, 1, 1))
        assert report["irreducible_components"] is None
        assert report["two_irreducible"] is False
        assert "homomorphism" in report["witnesses"]["irreducibility"]

    def test_corrupted_coefficient_detected(self):
        rho = build_family_module(params(2, 2, 0, 0, 0))
        images = list(rho.images)
        bad = list(images[3].matrix.data)
        bad[images[3].matrix.cols * 1 + 0] = F(7)  # z0·u0 += 7 w0 slot
        from trilie.rep import Representation

        spoiled = Representation(
            rho.algebra,
            rho.levi,
            rho.space,
            tuple(
                images[k].matrix if k != 3
                else RatMatrix(images[3].matrix.rows, images[3].matrix.cols, bad)
                for k in range(len(images))
            ),
        )
        ok, witness = verify_homomorphism(spoiled)
        assert not ok and witness is not None


class TestWeightCompatibility:
    @pytest.mark.parametrize(
        "tpl",
        [(1, 2, 1, 1, 1), (1, 1, 0, 0, 0), (2, 2, 0, 0, 0), (1, 2, 1, 0, 0)],
    )
    def test_targets_match_weights(self, tpl):
        lam, m, n, s, big_n = tpl
        a = (F(1),) * (n - s)
        p = params(lam, m, n, s, big_n, a)
        ok, witness = weight_compatibility(p, build_family_module(p))
        assert ok, witness

    def test_witness_matches_dense_scan(self):
        # every tuple of `trilie gen family` up to 5 x 5 for lam <= 3, as
        # built and as printed, then with one planted off-weight entry
        rng = random.Random(11)
        for lam in (1, 2, 3):
            for m, n, s, big_n in enumerate_params(lam, 5, 5):
                a = tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n - s))
                p = params(lam, m, n, s, big_n, a)
                for paper_literal in (False, True):
                    rho = build_family_module(p, paper_literal=paper_literal)
                    blocks = [dense_rows(z_block(rho, j)) for j in range(lam + 1)]
                    expected = brute_weight_witness(lam, m, n, blocks)
                    assert weight_compatibility(p, rho) == (expected is None, expected)
                off_weight = [
                    (j, t, i)
                    for j in range(lam + 1)
                    for t in range(m + 1)
                    for i in range(n + 1)
                    if m - 2 * t != (lam - 2 * j) + (n - 2 * i)
                ]
                if not off_weight:
                    continue
                j, t, i = rng.choice(off_weight)
                blocks[j][t][i] = F(rng.choice((1, -1)), rng.randint(1, 3))
                rho = two_block_representation(
                    lam, string_action(n, n), string_action(m, m),
                    [RatMatrix.from_rows(b) for b in blocks],
                )
                expected = brute_weight_witness(lam, m, n, blocks)
                assert expected is not None
                assert weight_compatibility(p, rho) == (False, expected)


class TestScalarDependence:
    def test_2_1_0_0_passes_only_at_unit_scalar(self):
        # [e, z0]·u0 = 0 forces a1 = 1 at (lam, m, n, s, N) = (1, 2, 1, 0, 0)
        good = verify_family(params(1, 2, 1, 0, 0, (F(1),)))
        assert good["homomorphism"]
        bad = verify_family(params(1, 2, 1, 0, 0, (F(2),)))
        assert not bad["homomorphism"]


class TestPaperLiteralMode:
    def test_w_string_e_coefficient_differs_when_m_ne_n(self):
        p = params(1, 2, 1, 1, 1)
        default = build_family_module(p)
        literal = build_family_module(p, paper_literal=True)
        assert default.images[2] != literal.images[2]

    def test_literal_w_string_breaks_sl2_relations_when_m_ne_n(self):
        p = params(1, 2, 1, 1, 1)
        literal = build_family_module(p, paper_literal=True)
        ok, witness = verify_homomorphism(literal)
        assert not ok

    def test_modes_agree_when_m_equals_n(self):
        p = params(2, 2, 2, 1, 0, (F(1),))  # a valid m = n tuple
        default = build_family_module(p)
        literal = build_family_module(p, paper_literal=True)
        assert default.images == literal.images

    def test_radical_action_never_vanishes_on_valid_params(self):
        # the middle rule at theta = 0, j = 0 always writes
        # (m-N)!/(N!·m!) into z0·u_s, so the zero-action flag can only
        # stay un-tripped
        for lam in (1, 2):
            for m, n, s, big_n in enumerate_params(lam, 3, 3):
                p = params(lam, m, n, s, big_n, (F(1),) * (n - s))
                rho = build_family_module(p)
                assert any(not z_block(rho, j).is_zero() for j in range(lam + 1))

    def test_n_gt_s_tuple_conflicts_with_equivariance(self):
        # m > lam + n leaves no room for a nonzero intertwiner, yet the
        # formulas still emit one; the bracket check must fail
        p = params(1, 3, 0, 0, 1)  # valid: building it raises nothing
        report = verify_family(p)
        assert report["radical_acts_nonzero"]
        assert not report["homomorphism"]
