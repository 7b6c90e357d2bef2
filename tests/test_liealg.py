import random
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trilie.liealg as liealg
from trilie.exact import RatMatrix, ShapeError, rat, unit_vector
from trilie.liealg import (
    GradingAssignment,
    LeviData,
    LieAlgebra,
    ad_matrix,
    adjoint_grading,
    adjoint_representation,
    bracket,
    bracket_defect,
    build_sl2,
    build_sl2_lambda,
    check_axioms,
    restricted_ad_matrices,
    span_escape,
    verify_levi_data,
)
from trilie.rep import conjugate_levi_check, verify_representation

from helpers import (
    assert_clean,
    brute_bracket,
    brute_derived_series,
    brute_extend_independent,
    brute_in_span,
    brute_index_escape,
    brute_inverse,
    brute_jacobi_witness,
    brute_killing_rank,
    brute_levi_witnesses,
    brute_lower_central_series,
    brute_product,
    brute_restricted_ad,
    corrupt_bracket,
    dense_rows,
    rebased,
    sl2_heisenberg_skewed,
)

F = Fraction


def sl2_lambda_with_corrupted_e_z1():
    L, levi = build_sl2_lambda(1)
    # overwrite [e, z1] = z0 with 2*z0
    L = LieAlgebra(L.dim, L.basis_labels, {**L.structure, (2, 4): {3: F(2)}})
    return L, levi


def central_extension_of_sl2():
    """sl2 plus one central generator c."""
    L_sl2, _ = build_sl2()
    structure = dict(L_sl2.structure)
    L = LieAlgebra(4, ("f", "h", "e", "c"), structure)
    return L, LeviData((0, 1, 2), (3,), (3,))


def shuffled(L, levi, perm):
    """The same algebra with b_i renamed b_perm[i]."""
    structure = {}
    for (i, j), coeffs in L.structure.items():
        a, b = perm[i], perm[j]
        sign = 1 if a < b else -1
        structure[min(a, b), max(a, b)] = {perm[k]: sign * c for k, c in coeffs.items()}
    labels = [None] * L.dim
    for i, label in enumerate(L.basis_labels):
        labels[perm[i]] = label
    move = lambda idx: tuple(perm[i] for i in idx)  # noqa: E731
    return LieAlgebra(L.dim, labels, structure), LeviData(
        move(levi.levi_indices), move(levi.radical_indices), move(levi.nilrad_indices)
    )


def strictly_upper_triangular(k):
    """n_k: strictly upper triangular k x k matrices on the basis E_ab
    (a < b), with [E_ab, E_cd] = [b = c] E_ad - [d = a] E_cb."""
    basis = [(a, b) for a in range(k) for b in range(a + 1, k)]
    index = {e: i for i, e in enumerate(basis)}
    structure = {}
    for i, (a, b) in enumerate(basis):
        for j, (c, d) in enumerate(basis):
            if i < j:
                coeffs = {}
                if b == c:
                    coeffs[index[a, d]] = 1
                if d == a:
                    coeffs[index[c, b]] = -1
                if coeffs:
                    structure[i, j] = coeffs
    labels = [f"E{a}{b}" for a, b in basis]
    return LieAlgebra(len(basis), labels, structure), basis


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

    def test_coerces_both_vectors_before_the_length_check(self):
        L, _ = build_sl2()
        with pytest.raises(ValueError, match="Invalid literal"):
            bracket(L, (1,), ("q",))
        for x, y in (((1, 2, 3), (1,)), ((1,), (1, 2, 3))):
            with pytest.raises(ValueError, match="vector length does not match algebra dim"):
                bracket(L, x, y)

    def test_bracket_with_itself_vanishes(self):
        L, _ = build_sl2()
        x = (F(1, 2), F(-3), F(7, 5))
        assert not any(bracket(L, x, x))

    def test_e_z2_in_lambda_2(self):
        # [e, z_j] = j(lam - j + 1) z_{j-1} with j = lam = 2
        L, _ = build_sl2_lambda(2)
        e, z2 = unit_vector(6, 2), unit_vector(6, 5)
        result = bracket(L, e, z2)
        assert result == tuple(F(2) if k == 4 else F(0) for k in range(6))

    def test_h_z1_in_lambda_2_vanishes(self):
        L, _ = build_sl2_lambda(2)
        assert not any(bracket(L, unit_vector(6, 1), unit_vector(6, 4)))

    def test_f_z_top_vanishes(self):
        # z_j := 0 outside 0..lam
        L, _ = build_sl2_lambda(2)
        assert not any(bracket(L, unit_vector(6, 0), unit_vector(6, 5)))

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

    @pytest.mark.parametrize("lam", range(1, 11))
    def test_sl2_lambda_table_is_the_documented_one(self, lam):
        # [f, h] = 2f, [f, e] = -h, [h, e] = 2e, [h, z_j] = (lam - 2j) z_j,
        # [f, z_j] = z_{j+1}, [e, z_j] = j (lam - j + 1) z_{j-1}
        want = {(0, 1): {0: 2}, (0, 2): {1: -1}, (1, 2): {2: 2}}
        for j in range(lam + 1):
            z = 3 + j
            if j < lam:
                want[(0, z)] = {z + 1: 1}
            if lam != 2 * j:
                want[(1, z)] = {z: lam - 2 * j}
            if j > 0:
                want[(2, z)] = {z - 1: j * (lam - j + 1)}
        L, _ = build_sl2_lambda(lam)
        assert {k: dict(v) for k, v in L.structure.items()} == want


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

    @pytest.mark.parametrize("bad", (9, -1))
    def test_out_of_range_nilradical_index_raises(self, bad):
        # the index check passes (nothing is stored for it), so the
        # series must still refuse the index rather than wrap around
        L, _ = build_sl2_lambda(1)
        with pytest.raises(IndexError, match=f"unit vector index {bad} out of range for dim 5"):
            verify_levi_data(L, LeviData((0, 1, 2), (3, 4), (bad,)))

    def test_sl2_span_as_radical_fails(self):
        L, _ = build_sl2_lambda(1)
        bad = LeviData((4,), (0, 1, 2, 3), (3,))
        report = verify_levi_data(L, bad)
        assert not report["radical_solvable_ideal"]
        assert not report["all_pass"]

    def test_each_ideal_is_checked_once(self, monkeypatch):
        # one closure scan decides Levi closure and one index scan each
        # ideal check, and the closure scan is an index scan too; each
        # series then runs once, with no closure test of its own
        calls = {"span_escape": 0, "_index_escape": 0, "_series": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(liealg, name, counted(name, getattr(liealg, name)))
        assert verify_levi_data(*build_sl2_lambda(8))["all_pass"]
        assert calls == {"span_escape": 1, "_index_escape": 3, "_series": 2}


def levi_declarations(seed, count):
    """sl2^lam (lam <= 3), half with one random bracket, declared with
    lists that are each kept, shuffled with a repeated index, cut short,
    replaced by every index, or drawn at random."""
    rng = random.Random(seed)
    for _ in range(count):
        L, levi = build_sl2_lambda(rng.randint(1, 3))
        table = L.structure
        if rng.random() < 0.5:
            table = corrupt_bracket(rng, table, L.dim)
        lists = []
        for declared in (levi.levi_indices, levi.radical_indices, levi.nilrad_indices):
            out = list(declared)
            kind = rng.randrange(5)
            if kind == 1:
                out.append(rng.choice(out))
                rng.shuffle(out)
            elif kind == 2:
                out.pop(rng.randrange(len(out)))
            elif kind == 3:
                out = rng.sample(range(L.dim), L.dim)
            elif kind == 4:
                out = [rng.randrange(L.dim) for _ in range(rng.randint(0, L.dim))]
            lists.append(tuple(out))
        yield LieAlgebra(L.dim, L.basis_labels, table), LeviData(*lists)


class TestLeviWitnessOracle:
    FIELDS = ("partition", "levi_closed", "levi_killing_nondegenerate",
              "radical_solvable_ideal", "nilradical_nilpotent_ideal")

    def test_witnesses_match_plain_oracle(self):
        seen = set()
        for L, D in levi_declarations(seed=7, count=400):
            report = verify_levi_data(L, D)
            expected = brute_levi_witnesses(
                L.dim, L.structure, D.levi_indices, D.radical_indices, D.nilrad_indices
            )
            for name in self.FIELDS:
                assert report[name] is (expected[name] is None), (name, L.structure, D)
                assert report["witnesses"].get(name) == expected[name], (name, L.structure, D)
                seen.add((name, type(expected[name]).__name__))
        # each check both passes and fails, and each series check fails
        # both at its index scan and at its series
        assert seen == {
            ("partition", "NoneType"), ("partition", "dict"),
            ("levi_closed", "NoneType"), ("levi_closed", "tuple"),
            ("levi_killing_nondegenerate", "NoneType"),
            ("levi_killing_nondegenerate", "str"),
            ("radical_solvable_ideal", "NoneType"), ("radical_solvable_ideal", "tuple"),
            ("radical_solvable_ideal", "str"),
            ("nilradical_nilpotent_ideal", "NoneType"),
            ("nilradical_nilpotent_ideal", "tuple"), ("nilradical_nilpotent_ideal", "str"),
        }


def direct_sum_of_sl2(k):
    """sl2^⊕k on the basis (f_0, h_0, e_0, f_1, …), declared with every
    index as its Levi factor."""
    sl2, _ = build_sl2()
    structure = {
        (3 * c + i, 3 * c + j): {3 * c + t: x for t, x in coeffs.items()}
        for c in range(k) for (i, j), coeffs in sl2.structure.items()
    }
    L = LieAlgebra(3 * k, [f"{x}{c}" for c in range(k) for x in "fhe"], structure)
    return L, LeviData(tuple(range(3 * k)), (), ())


class TestKillingForm:
    def test_matches_plain_oracle_on_closed_levi_spans(self):
        seen = set()
        for L, D in levi_declarations(seed=7, count=400):
            levi = D.levi_indices
            pairs = [(i, j) for i in levi for j in levi if i < j]
            if brute_index_escape(L.dim, L.structure, pairs, levi) is not None:
                continue
            want = brute_killing_rank(L.dim, L.structure, levi)
            assert liealg._subalgebra_killing_rank(L, levi) == want, (L.structure, levi)
            seen.add((len(set(levi)) < len(levi), want == len(levi)))
        # lists with and without a repeated index, and of the latter both
        # full and deficient ranks (a repeated index repeats its row)
        assert seen == {(False, True), (False, False), (True, False)}

    def test_levi_checks_multiply_no_matrix(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("matrix product or restricted ad matrix built")

        monkeypatch.setattr(RatMatrix, "__matmul__", forbidden)
        monkeypatch.setattr(liealg, "restricted_ad_matrices", forbidden)
        for L, levi in (build_sl2_lambda(16), direct_sum_of_sl2(4)):
            assert verify_levi_data(L, levi)["all_pass"]


class TestSeries:
    def test_abelian_nilradical_terminates_immediately(self):
        for lam in (1, 3):
            L, levi = build_sl2_lambda(lam)
            series = liealg._series(L, levi.nilrad_indices, lower=True)
            assert [term.rows for term in series] == [lam + 1, 0]

    def test_zero_ideal(self):
        L, _ = build_sl2()
        assert [term.rows for term in liealg._series(L, (), lower=True)] == [0]

    def test_full_sl2_stabilizes_nonzero(self):
        L, _ = build_sl2()
        series = liealg._series(L, range(3), lower=True)
        assert [term.rows for term in series] == [3]  # constant at the whole algebra

    def test_non_ideal_rejected(self):
        L, _ = build_sl2()
        with pytest.raises(ValueError, match="not an ideal"):
            adjoint_grading(L, LeviData((0, 1), (2,), (2,)))  # e-span

    def test_non_ideal_names_first_escape(self):
        # [b2, b3] = b0 on span{b1, b2}: v = b1 is central, and for v = b2
        # the brackets with b0, b1, b2 vanish, so the first escape is (3, b2)
        L = LieAlgebra(4, ("b0", "b1", "b2", "b3"), {(2, 3): {0: 1}})
        with pytest.raises(ValueError) as exc:
            adjoint_grading(L, LeviData((), (0, 1, 2, 3), (1, 2)))
        assert str(exc.value) == (
            f"input span is not an ideal: [b_3, v] escapes for v={unit_vector(4, 2)}"
        )

    def test_derived_series_of_solvable_span(self):
        L, levi = build_sl2_lambda(2)
        assert not liealg._series(L, levi.radical_indices, lower=False)[-1].rows


def series_cases():
    """(name, algebra, Levi indices, ideals as index tuples): sl2^lam in
    shuffled bases, the skewed sl2 ⋉ Heisenberg, and n_k for k <= 5."""
    cases = []
    for lam in range(1, 5):
        L, levi = build_sl2_lambda(lam)
        perm = list(range(L.dim))
        random.Random(lam).shuffle(perm)
        L, levi = shuffled(L, levi, perm)
        cases.append((f"sl2^{lam}", L, levi.levi_indices,
                      [levi.nilrad_indices, tuple(range(L.dim))]))
    L, levi = sl2_heisenberg_skewed()
    cases.append(("sl2+heis", L, levi.levi_indices,
                  [levi.nilrad_indices, (5,), tuple(range(L.dim))]))
    for k in range(2, 6):
        L, basis = strictly_upper_triangular(k)
        deep = tuple(i for i, (a, b) in enumerate(basis) if b - a >= 2)
        cases.append((f"n_{k}", L, (), [tuple(range(L.dim)), deep]))
    return cases


class TestSeriesOracles:
    """Both series, as the Levi checks and the grading run them, against
    plain-list oracles built from brute_bracket."""

    @staticmethod
    def grading_sizes(L, levi, ideal):
        """Component sizes of adjoint_grading with `ideal` as nilradical."""
        radical = tuple(i for i in range(L.dim) if i not in levi)
        grading = adjoint_grading(L, LeviData(levi, radical, ideal))
        return [len(comp) for comp in grading.component_bases]

    @pytest.mark.parametrize("case", series_cases(), ids=lambda case: case[0])
    def test_series_match_plain_oracles(self, case):
        name, L, levi, ideals = case
        for ideal in ideals:
            units = [unit_vector(L.dim, i) for i in ideal]
            oracle = {}
            for lower, brute in ((False, brute_derived_series),
                                 (True, brute_lower_central_series)):
                oracle[lower] = brute(L.dim, L.structure, units)
                terms = [[list(s.row(t)) for t in range(s.rows)]
                         for s in liealg._series(L, ideal, lower)]
                assert terms == oracle[lower], (name, ideal, lower)
            # the ideal as radical and nilradical runs both series on it
            report = verify_levi_data(L, LeviData(levi, ideal, ideal))
            expected = brute_levi_witnesses(L.dim, L.structure, levi, ideal, ideal)
            for field in ("radical_solvable_ideal", "nilradical_nilpotent_ideal"):
                assert report[field] is (expected[field] is None), (name, ideal, field)
                assert report["witnesses"].get(field) == expected[field], (name, ideal, field)
            if report["nilradical_nilpotent_ideal"]:
                # degree 0 completes the ideal, degree k holds N^k / N^{k+1}
                dims = [len(term) for term in oracle[True]]
                assert self.grading_sizes(L, levi, ideal) == (
                    [L.dim - dims[0]] + [a - b for a, b in zip(dims, dims[1:])]
                ), (name, ideal)

    def test_cases_reach_deeper_terms(self):
        # the comparison above is not only over series that stop at once
        depths = {
            name: max(len(self.grading_sizes(L, levi, ideal)) for ideal in ideals
                      if verify_levi_data(L, LeviData(levi, ideal, ideal))
                      ["nilradical_nilpotent_ideal"])
            for name, L, levi, ideals in series_cases()
        }
        assert depths["sl2+heis"] == 3 and depths["n_5"] == 5

    def test_levi_checks_and_grading_make_no_bracket_call(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("liealg.bracket called")

        monkeypatch.setattr(liealg, "bracket", forbidden)
        for L, levi in (build_sl2_lambda(8), sl2_heisenberg_skewed()):
            assert verify_levi_data(L, levi)["all_pass"]
            adjoint_grading(L, levi)

    def test_index_span_series_use_the_stored_ad_rows(self, monkeypatch):
        # every first term is an index span, whose rows' ad matrices are
        # L.ad_rows; the derived series of an abelian radical has no later term
        def forbidden(*args):
            raise AssertionError("liealg.combination called")

        monkeypatch.setattr(liealg, "combination", forbidden)
        L, levi = build_sl2_lambda(8)
        assert verify_levi_data(L, levi)["all_pass"]
        assert [len(c) for c in adjoint_grading(L, levi).component_bases] == [3, 9]

    @pytest.mark.parametrize("k", (1, 4, 16))
    def test_first_step_reads_the_stored_keys(self, k, monkeypatch):
        # [N, N] of sl2^k's abelian nilradical is read off the stored keys
        # inside it (there are none), so neither series multiplies; a
        # product per index would be k + 1 of them
        def forbidden(*args):
            raise AssertionError("RatMatrix.__matmul__ called")

        monkeypatch.setattr(RatMatrix, "__matmul__", forbidden)
        L, levi = build_sl2_lambda(k)
        for lower in (False, True):
            series = liealg._series(L, levi.nilrad_indices, lower)
            assert [term.rows for term in series] == [k + 1, 0]

    def test_deeper_derived_terms_agree_with_oracle(self, monkeypatch):
        # the radical of sl2 ⋉ Heisenberg has [R, R] = span{c}, a later term
        # whose ad matrices are combinations of the stored rows
        calls = []
        real = liealg.combination
        monkeypatch.setattr(liealg, "combination",
                            lambda *args: calls.append(args) or real(*args))
        L, levi = sl2_heisenberg_skewed()
        report = verify_levi_data(L, levi)
        expected = brute_levi_witnesses(L.dim, L.structure, levi.levi_indices,
                                        levi.radical_indices, levi.nilrad_indices)
        for field, witness in expected.items():
            assert report[field] is (witness is None), field
            assert report["witnesses"].get(field) == witness, field
        derived = brute_derived_series(L.dim, L.structure,
                                       [unit_vector(L.dim, i) for i in levi.radical_indices])
        assert [len(term) for term in derived] == [3, 1, 0]
        assert len(calls) == 1


def restriction_cases():
    """(name, algebra, index list) with a closed span: Levi, nilradical,
    an h-stable pair and every index (also reversed) of sl2^lam, lam <= 4,
    in its own and a shuffled basis; spans of the skewed sl2 ⋉
    Heisenberg; and sl2 listed with a repeated index."""
    cases = []
    for lam in range(1, 5):
        base = build_sl2_lambda(lam)
        perm = list(range(base[0].dim))
        random.Random(lam).shuffle(perm)
        for tag, (L, levi) in (("", base), ("shuffled ", shuffled(*base, perm))):
            h, z0 = levi.levi_indices[1], levi.nilrad_indices[0]
            everything = tuple(range(L.dim))
            for idx in (levi.levi_indices, levi.nilrad_indices, (z0, h),
                        everything, everything[::-1]):
                cases.append((f"{tag}sl2^{lam} {idx}", L, idx))
    L, levi = sl2_heisenberg_skewed()
    for idx in (levi.levi_indices, levi.nilrad_indices, (5,), (1, 3, 5), tuple(range(6))):
        cases.append((f"sl2+heis {idx}", L, idx))
    # h at positions 0 and 3: its coefficient goes to row 3 only, and
    # row 0 of every matrix stays zero
    L, _ = build_sl2()
    cases.append(("sl2 (1, 0, 2, 1)", L, (1, 0, 2, 1)))
    return cases


class TestRestrictedAdMatrices:
    @pytest.mark.parametrize("case", restriction_cases(), ids=lambda case: case[0])
    def test_matches_plain_oracle(self, case):
        name, L, idx = case
        pairs = [(i, j) for i in idx for j in idx if i < j]
        assert brute_index_escape(L.dim, L.structure, pairs, idx) is None, name
        got = [dense_rows(m) for m in restricted_ad_matrices(L, idx)]
        assert got == brute_restricted_ad(L.dim, L.structure, idx), name


small_coeffs = st.integers(-3, 3).map(Fraction)


@st.composite
def escape_cases(draw):
    """A random table on 2-7 basis elements, zero coefficients included,
    and a span list in any order with repeats."""
    dim = draw(st.integers(2, 7))
    keys = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    table = draw(st.dictionaries(
        st.sampled_from(keys),
        st.dictionaries(st.integers(0, dim - 1), small_coeffs, max_size=3),
        max_size=6,
    ))
    span = draw(st.lists(st.integers(0, dim - 1), max_size=dim + 2))
    return dim, table, span


def refusing_pairs():
    raise AssertionError("a pair was walked")
    yield  # pragma: no cover


class TestBracketOnTables:
    @given(escape_cases(), st.data())
    @settings(max_examples=200)
    def test_matches_plain_oracle(self, case, data):
        # the stored brackets summed over the nonzero coordinates
        dim, table, _ = case
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        vectors = st.lists(small_coeffs, min_size=dim, max_size=dim)
        x, y = data.draw(vectors), data.draw(vectors)
        assert list(bracket(L, x, y)) == brute_bracket(dim, L.structure, x, y)


class TestIndexEscape:
    @given(escape_cases())
    @settings(max_examples=300)
    def test_matches_plain_oracle_in_each_callers_order(self, case):
        dim, table, span = case
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        orders = {
            # verify_levi_data's ideal checks
            "ideal": [(i, j) for i in range(dim) for j in span],
            # adjoint_grading's precondition, on the raw list and on the
            # sorted distinct indices it passes
            "grading": [(i, j) for j in span for i in range(dim)],
            "grading sorted": [(i, j) for j in sorted(set(span)) for i in range(dim)],
            # span_escape
            "closure": [(i, j) for i in span for j in span if i < j],
        }
        for name, pairs in orders.items():
            want = brute_index_escape(dim, table, pairs, span)
            assert liealg._index_escape(L, iter(pairs), span) == want, name
        want = brute_index_escape(dim, table, orders["closure"], span)
        assert liealg._index_escape(L, iter(orders["closure"]), span, within=True) == want
        assert span_escape(L, span) == want

    def test_a_passing_ideal_check_walks_no_pair(self):
        cases = [build_sl2_lambda(lam) for lam in (1, 4)]
        cases += [sl2_heisenberg_skewed(), central_extension_of_sl2()]
        for L, levi in cases:
            for span in (levi.radical_indices, levi.nilrad_indices, range(L.dim)):
                assert liealg._index_escape(L, refusing_pairs(), span) is None
        # an ideal that fails walks the pairs to name its witness
        L, _ = build_sl2_lambda(2)
        with pytest.raises(AssertionError, match="a pair was walked"):
            liealg._index_escape(L, refusing_pairs(), (4, 5))

    def test_a_closed_span_walks_no_pair_when_a_bracket_leaves_it(self, monkeypatch):
        # sl2^⊕1000 with Levi = all 3000 indices, plus z and [h_0, z] = 2z:
        # that key leaves the span, but no pair of span indices names it
        structure = {}
        for c in range(1000):
            f, h, e = 3 * c, 3 * c + 1, 3 * c + 2
            structure.update({(f, h): {f: F(2)}, (f, e): {h: F(-1)}, (h, e): {e: F(2)}})
        structure[1, 3000] = {3000: F(2)}
        L = LieAlgebra(3001, [f"b{i}" for i in range(3001)], structure)
        visits = []
        real = liealg._index_escape

        def counting(L, pairs, *args, **kwargs):
            def counted():
                for pair in pairs:
                    visits.append(pair)
                    yield pair
            return real(L, counted(), *args, **kwargs)

        monkeypatch.setattr(liealg, "_index_escape", counting)
        assert span_escape(L, range(3000)) is None
        assert visits == []
        # a key inside the span that leaves it is still found by its pair
        L = LieAlgebra(3001, L.basis_labels, {**structure, (0, 2): {1: F(-1), 3000: F(1)}})
        assert span_escape(L, range(3000)) == (0, 2, 3000)
        assert visits == [(0, 1), (0, 2)]


class TestAdjointGrading:
    def test_non_ideal_nilradical_names_first_escape(self):
        # on sl2^2 (z_j = b_{3+j}), span{z1, z2} is no ideal: for v = z1,
        # [f, z1] = z2 stays and [h, z1] = 0, but [e, z1] = 2 z0 leaves
        L, levi = build_sl2_lambda(2)
        declared = LeviData(levi.levi_indices, levi.radical_indices, (5, 4))
        with pytest.raises(ValueError) as exc:
            adjoint_grading(L, declared)
        assert str(exc.value) == (
            f"input span is not an ideal: [b_2, v] escapes for v={unit_vector(6, 4)}"
        )

    @pytest.mark.parametrize("lam", range(1, 5))
    def test_sl2_lambda_degrees(self, lam):
        L, levi = build_sl2_lambda(lam)
        g = adjoint_grading(L, levi)
        assert [len(comp) for comp in g.component_bases] == [3, lam + 1]
        assert g.graded_basis() == [unit_vector(L.dim, i) for i in range(L.dim)]

    def test_sl2_all_degree_zero(self):
        L, levi = build_sl2()
        g = adjoint_grading(L, levi)
        assert [len(comp) for comp in g.component_bases] == [3]

    def test_central_element_gets_degree_one(self):
        L, levi = central_extension_of_sl2()
        assert verify_levi_data(L, levi)["all_pass"]
        g = adjoint_grading(L, levi)
        assert [len(comp) for comp in g.component_bases] == [3, 1]
        assert g.graded_basis()[3] == unit_vector(L.dim, 3)

    @pytest.mark.parametrize(
        "L,levi,radicals,nilradicals",
        [
            # [x1, y] = [x2, y] = y: the declared nilradical {y} leaves a
            # two-vector complement, whose order follows the radical list
            (LieAlgebra(3, ("x1", "x2", "y"), {(0, 2): {2: 1}, (1, 2): {2: 1}}), (),
             [(0, 1, 2), (1, 2, 0, 1), (2, 1, 2, 0, 0), (1, 0)], [(2,), (2, 2)]),
            # sl2 ⋉ doublet plus d acting on it by the identity
            (LieAlgebra(6, ("f", "h", "e", "z0", "z1", "d"),
                        {**build_sl2_lambda(1)[0].structure,
                         (3, 5): {3: -1}, (4, 5): {4: -1}}), (0, 1, 2),
             [(3, 4, 5), (5, 4, 3, 5), (4, 5, 5, 3)], [(3, 4), (4, 3, 4)]),
        ],
        ids=["solvable", "sl2-doublet-d"],
    )
    def test_degree_zero_complement_is_the_greedy_rank_choice(
        self, L, levi, radicals, nilradicals
    ):
        # repeated, unsorted and overlapping declarations; each radical
        # unit vector joins degree 0 iff it raises the rank
        for radical in radicals:
            for nilrad in nilradicals:
                g = adjoint_grading(L, LeviData(levi, radical, nilrad))
                complement = list(g.component_bases[0][len(levi):])
                assert complement == brute_extend_independent(
                    [unit_vector(L.dim, i) for i in nilrad],
                    [unit_vector(L.dim, i) for i in radical],
                ), (radical, nilrad)

    def test_basis_check_reads_only_stored_entries(self, monkeypatch):
        # the final rank check is built from the vectors' nonzero entries,
        # with no dense coercion; declaring z0 in the Levi list too gives
        # dim graded vectors of rank dim - 1, which it still refuses
        def refuse(*args):
            raise AssertionError("the basis check coerced dense rows")

        monkeypatch.setattr(RatMatrix, "from_rows", refuse)
        L, levi = build_sl2_lambda(16)
        g = adjoint_grading(L, levi)
        assert g.graded_basis() == [unit_vector(L.dim, i) for i in range(L.dim)]
        L, _ = build_sl2_lambda(1)
        with pytest.raises(RuntimeError, match="graded components do not form a basis"):
            adjoint_grading(L, LeviData((0, 1, 3), (3, 4), (3, 4)))

    @pytest.mark.parametrize(
        "declared,bad",
        [
            (LeviData((0, 1, 2), (3, 4), (9,)), 9),
            (LeviData((0, 1, 2), (3, 4, -1), (3, 4)), -1),
            (LeviData((0, 1, 7), (3, 8), (9, 4)), 9),  # nilradical first
            (LeviData((0, 1, 7), (3, 8), (4,)), 8),  # then radical, then Levi
            (LeviData((0, 1, 7), (3, 4), (3, 4)), 7),
        ],
    )
    def test_out_of_range_index_raises(self, declared, bad):
        L, _ = build_sl2_lambda(1)
        with pytest.raises(IndexError) as exc:
            adjoint_grading(L, declared)
        assert str(exc.value) == f"unit vector index {bad} out of range for dim 5"

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
        assert [len(comp) for comp in g.component_bases] == [3, 2, 1]
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
        for k, comp in enumerate(g.component_bases):
            for s in levi.levi_indices:
                for v in comp:
                    img = bracket(L, unit_vector(L.dim, s), v)
                    assert brute_in_span(comp, img)

    @pytest.mark.parametrize("lam", (1, 2))
    def test_nilradical_raises_degree(self, lam):
        L, levi = build_sl2_lambda(lam)
        g = adjoint_grading(L, levi)
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
                    assert brute_in_span(higher, img)


class TestAdjointRepresentation:
    @pytest.mark.parametrize("perm", [(0, 1, 2, 3, 4, 5), (5, 3, 0, 4, 1, 2), (2, 4, 1, 5, 0, 3)])
    def test_matches_dense_change_of_basis(self, perm):
        # the skewed Heisenberg grading has section vectors that are not
        # unit vectors; image i must be P^-1 ad(b_i) P with the graded
        # basis as the columns of P
        L, levi = shuffled(*sl2_heisenberg_skewed(), perm)
        grading = adjoint_grading(L, levi)
        basis = grading.graded_basis()
        assert any(sum(1 for x in v if x) > 1 for v in basis)
        dim = L.dim
        p = [[v[r] for v in basis] for r in range(dim)]
        p_inv = brute_inverse(p)
        units = [[F(int(q == i)) for q in range(dim)] for i in range(dim)]
        rho = adjoint_representation(L, grading)
        for i in range(dim):
            columns = [brute_bracket(dim, L.structure, units[i], units[k]) for k in range(dim)]
            ad = [[columns[k][r] for k in range(dim)] for r in range(dim)]
            want = brute_product(brute_product(p_inv, ad), p)
            assert dense_rows(rho.images[i].matrix) == want, i

    def test_grading_names_its_levi_data(self):
        # a grading without its declaration would build a representation
        # that no check could read
        L, levi = build_sl2_lambda(1)
        bases = adjoint_grading(L, levi).component_bases
        with pytest.raises(TypeError):
            GradingAssignment(bases)
        rho = adjoint_representation(L, GradingAssignment(bases, levi))
        assert verify_representation(rho)["all_pass"]

    def test_basis_vector_of_wrong_length_is_a_shape_error(self):
        L, levi = build_sl2()
        u = [unit_vector(3, i) for i in range(3)]
        for bad in ((u[0], u[1], u[2][:2]), (u[0][:2], u[1] + (F(0),), u[2])):
            with pytest.raises(ShapeError):
                adjoint_representation(L, GradingAssignment((bad,), levi=levi))


class TestAdjointHomomorphism:
    @pytest.mark.parametrize("lam", (1, 2, 3))
    def test_ad_bracket_equals_matrix_commutator(self, lam):
        # equivalent to Jacobi; cross-checks check_axioms through matrices
        from trilie.exact import commutator

        L, _ = build_sl2_lambda(lam)
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                b_ij = brute_bracket(L.dim, L.structure, unit_vector(L.dim, i),
                                     unit_vector(L.dim, j))
                lhs = ad_matrix(L, b_ij)
                rhs = commutator(
                    ad_matrix(L, unit_vector(L.dim, i)),
                    ad_matrix(L, unit_vector(L.dim, j)),
                )
                assert lhs == rhs


@st.composite
def corrupted_tables(draw):
    """The sl2^Λ table (Λ <= 6) with a few brackets overwritten by random
    ones, removed, or added where the table had none."""
    lam = draw(st.integers(1, 6))
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

    def test_jacobi_witness_is_least_column_of_first_failing_pair(self):
        # [b0, b1] = b3 + b4, [b3, b4] = b0 and [b2, b4] = b1: J(0, 1, 2)
        # = -b1, J(0, 1, 3) = -b0 and J(0, 1, 4) = b0, so the defect of
        # (ad b0, ad b1), the first pair that fails, is nonzero in the
        # columns 2, 3 and 4; column 2 sits in row 1, the other two in row 0
        table = {(0, 1): {3: F(1), 4: F(1)}, (3, 4): {0: F(1)}, (2, 4): {1: F(1)}}
        L = LieAlgebra(5, [f"b{i}" for i in range(5)], table)
        units = [unit_vector(5, i) for i in range(5)]
        nonzero = [
            k for k in range(2, 5)
            if any(sum(col) for col in zip(
                brute_bracket(5, table, brute_bracket(5, table, units[0], units[1]), units[k]),
                brute_bracket(5, table, brute_bracket(5, table, units[1], units[k]), units[0]),
                brute_bracket(5, table, brute_bracket(5, table, units[k], units[0]), units[1]),
            ))
        ]
        assert nonzero == [2, 3, 4]
        assert brute_jacobi_witness(5, table) == (0, 1, 2)
        assert check_axioms(L)["witnesses"]["jacobi"] == (0, 1, 2)
        assert bracket_defect(L, [r.transpose() for r in L.ad_rows]) == (0, 1, 2)

    def test_jacobi_witness_with_fractional_constants(self):
        # sl2^lam in bases rescaled by fractions, so most structure
        # constants are not integers; every other table has one bracket
        # replaced, which breaks Jacobi in most of them
        witnesses = []
        for seed in range(40):
            rng = random.Random(seed)
            base, _ = build_sl2_lambda(rng.randint(1, 3))
            dim = base.dim
            perm = rng.sample(range(dim), dim)
            scales = [rng.choice([F(1, 2), F(-3, 2), F(2, 3), F(-5, 7), 3]) for _ in range(dim)]
            table = rebased(base.structure, perm, scales)
            if seed % 2:
                table = corrupt_bracket(rng, table, dim)
            assert any(F(c).denominator > 1 for row in table.values() for c in row.values())
            report = check_axioms(LieAlgebra(dim, [f"b{i}" for i in range(dim)], table))
            witness = brute_jacobi_witness(dim, table)
            assert report["witnesses"]["jacobi"] == witness, seed
            witnesses.append(witness)
        assert witnesses.count(None) >= 20 and witnesses.count(None) < 35

    @pytest.mark.parametrize("table, expected", [
        # one term [[b_a, b_b], b_x] = [b_2, b_3] = b_4 with x above b
        ({(0, 1): {2: 1}, (2, 3): {4: 1}}, (0, 1, 3)),
        # [[b_1, b_2], b_0] = [b_3, b_0] = -b_4 with x below a
        ({(1, 2): {3: 1}, (0, 3): {4: 1}}, (0, 1, 2)),
        # [[b_2, b_0], b_1] = -[b_3, b_1] = b_4 with x between a and b
        ({(0, 2): {3: 1}, (1, 3): {4: 1}}, (0, 1, 2)),
        # the x-above term b_4 cancelled by an x-below one, [[b_1, b_3], b_0]
        # = [b_5, b_0] = -b_4: right only if the two signs differ as shown
        ({(0, 1): {2: 1}, (2, 3): {4: 1}, (1, 3): {5: 1}, (0, 5): {4: 1}}, None),
        # the x-between term b_4 cancelled by an x-above one, [[b_0, b_1], b_2]
        # = [b_5, b_2] = -b_4
        ({(0, 2): {3: 1}, (1, 3): {4: 1}, (0, 1): {5: 1}, (2, 5): {4: 1}}, None),
        # the same with the x-above term doubled: 2 [b_5, b_2] + b_4 = -b_4
        ({(0, 2): {3: 1}, (1, 3): {4: 1}, (0, 1): {5: 2}, (2, 5): {4: 1}}, (0, 1, 2)),
    ])
    def test_jacobi_sign_of_each_branch(self, table, expected):
        L = LieAlgebra(6, [f"b{i}" for i in range(6)], table)
        assert brute_jacobi_witness(6, table) == expected
        assert check_axioms(L)["witnesses"]["jacobi"] == expected

    @pytest.mark.parametrize("table, expected", [
        # J(0, 1, 2) = [[b0, b1], b2] + [[b1, b2], b0] + [[b2, b0], b1]
        # = 1/2 [b3, b2] + 1/3 [b3, b0] - 5/6 [b3, b1] = (1/2 + 1/3 - 5/6) b4:
        # three brackets over their own denominators, cancelling at the lcm
        ({(0, 1): {3: F(1, 2)}, (1, 2): {3: F(1, 3)}, (0, 2): {3: F(5, 6)},
          (2, 3): {4: -1}, (0, 3): {4: -1}, (1, 3): {4: -1}}, (5, 6, 7)),
        # the twin without [b0, b2]: 1/2 + 1/3
        ({(0, 1): {3: F(1, 2)}, (1, 2): {3: F(1, 3)},
          (2, 3): {4: -1}, (0, 3): {4: -1}}, (0, 1, 2)),
        # 1/2 [b3, b2] + 1/3 [b3, b0] = 2/2 b4 - 3/3 b4 over the denominators
        # 2 and 3, whose lcm 6 is none of them
        ({(0, 1): {3: F(1, 2)}, (1, 2): {3: F(1, 3)},
          (2, 3): {4: -2}, (0, 3): {4: 3}}, (5, 6, 7)),
        # its twin, 2/2 b4 - 2/3 b4
        ({(0, 1): {3: F(1, 2)}, (1, 2): {3: F(1, 3)},
          (2, 3): {4: -2}, (0, 3): {4: 2}}, (0, 1, 2)),
    ])
    def test_jacobi_terms_over_different_denominators(self, table, expected):
        # [b5, b6] = b7 and [b5, b7] = b5 fail J(5, 6, 7), after (0, 1, 2)
        table = {**table, (5, 6): {7: 1}, (5, 7): {5: 1}}
        L = LieAlgebra(8, [f"b{i}" for i in range(8)], table)
        assert brute_jacobi_witness(8, table) == expected
        assert check_axioms(L)["witnesses"]["jacobi"] == expected

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_jacobi_on_sparse_tables_fails_late(self, data):
        # every index of 1-4 stored brackets is at least lo, so each of the
        # C(dim, 3) - C(dim - lo, 3) triples below lo has J = 0, and the
        # first failing triple, if any, comes after all of them
        dim = data.draw(st.integers(3, 16))
        lo = data.draw(st.integers(0, dim - 3))
        index = st.integers(lo, dim - 1)
        pairs = st.lists(index, min_size=2, max_size=2, unique=True).map(sorted).map(tuple)
        table = data.draw(st.dictionaries(
            pairs, st.dictionaries(index, small_coeffs.filter(bool), min_size=1, max_size=2),
            min_size=1, max_size=4,
        ))
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        witness = brute_jacobi_witness(dim, table)
        assert witness is None or witness[0] >= lo
        assert check_axioms(L)["witnesses"]["jacobi"] == witness

    @pytest.mark.parametrize("table, expected", [
        ({(700, 1300): {20: 3}}, None),
        # [[b_700, b_1300], b_1400] = 3 [b_20, b_1400] = 3 b_5
        ({(700, 1300): {20: 3}, (20, 1400): {5: 1}}, (700, 1300, 1400)),
    ])
    def test_jacobi_reads_the_stored_rows_only(self, table, expected):
        # a triple with an index in no stored key has J = 0, so the witness
        # is the oracle's on the touched indices, relabelled in order;
        # reading every row of every ad matrix, or looking up every pair of
        # the table, would count dim² = 2.25e6
        dim = 1500
        touched = sorted({i for key, coeffs in table.items() for i in (*key, *coeffs)})
        rank = {i: r for r, i in enumerate(touched)}
        small = {(rank[i], rank[j]): {rank[k]: c for k, c in coeffs.items()}
                 for (i, j), coeffs in table.items()}
        small_witness = brute_jacobi_witness(len(touched), small)
        assert (small_witness and tuple(touched[r] for r in small_witness)) == expected

        class CountingReads(dict):
            def __getitem__(self, key):
                reads[0] += 1
                return super().__getitem__(key)

            def get(self, key, default=None):
                reads[0] += 1
                return super().get(key, default)

            def __contains__(self, key):
                reads[0] += 1
                return super().__contains__(key)

            def __iter__(self):
                for key in super().__iter__():
                    reads[0] += 1
                    yield key

            def keys(self):
                return iter(self)

            def items(self):
                for item in super().items():
                    reads[0] += 1
                    yield item

            def values(self):
                return (value for _, value in self.items())

        reads = [0]
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        counted = {id(m): RatMatrix._from_maps(m.rows, m.cols, CountingReads(m.maps))
                   for m in L.ad_rows}
        L.ad_rows = tuple(counted[id(m)] for m in L.ad_rows)
        L.structure = CountingReads(L.structure)
        report = check_axioms(L)
        assert report["witnesses"]["jacobi"] == expected
        assert report["jacobi"] is (expected is None)
        assert 0 < reads[0] <= 4 * len(table)

    @given(corrupted_tables(), st.data())
    @settings(max_examples=150)
    def test_span_escape_matches_plain_pair_walk(self, case, data):
        # spans with fewer and with more pairs than stored keys; half the
        # time one bracket of two span elements is made to leave the span
        # in one to three terms
        dim, table = case
        span = data.draw(st.one_of(
            st.just([0, 1, 2]),
            st.lists(st.integers(0, dim - 1), max_size=dim + 2),
        ))
        pairs = [(i, j) for i in span for j in span if i < j]
        outside = [k for k in range(dim) if k not in span]
        if pairs and outside and data.draw(st.booleans()):
            targets = st.lists(st.sampled_from(outside), min_size=1, max_size=3)
            table[data.draw(st.sampled_from(pairs))] = {
                k: F(data.draw(st.integers(1, 3))) for k in data.draw(targets)
            }
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        assert span_escape(L, span) == brute_index_escape(dim, table, pairs, span)

    @given(corrupted_tables(), st.data())
    @settings(max_examples=60)
    def test_bracket_and_ad_match_plain_oracle(self, case, data):
        dim, table = case
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        for m in L.ad_rows:
            assert_clean(m)
        vectors = st.lists(st.one_of(st.just(F(0)), small_coeffs),
                           min_size=dim, max_size=dim)
        x, y = data.draw(vectors), data.draw(vectors)
        assert list(bracket(L, x, y)) == brute_bracket(dim, table, x, y)
        units = [[F(int(p == j)) for p in range(dim)] for j in range(dim)]
        assert dense_rows(ad_matrix(L, x)) == [
            [brute_bracket(dim, table, x, units[j])[k] for j in range(dim)]
            for k in range(dim)
        ]


class TestReadOnlyAlgebra:
    def test_structure_rejects_assignment(self):
        L, _ = build_sl2_lambda(1)
        with pytest.raises(TypeError):
            L.structure[(2, 4)] = {3: F(2)}
        with pytest.raises(TypeError):
            L.structure[(0, 1)][0] = F(5)

    def test_each_coefficient_is_coerced_once(self, monkeypatch):
        calls = []

        def counted(value):
            calls.append(value)
            return rat(value)

        monkeypatch.setattr(liealg, "rat", counted)
        L = LieAlgebra(3, ["a", "b", "c"], {(0, 1): {2: "1/2", 0: 0}, (1, 2): {0: F(3)}})
        assert calls == ["1/2", 0, F(3)]
        assert {k: dict(v) for k, v in L.structure.items()} == {(0, 1): {2: F(1, 2)}, (1, 2): {0: F(3)}}

    def test_read_only_rows_leave_every_report_unchanged(self, monkeypatch):
        # with every row of every matrix built by _from_maps read-only, an
        # in-place write to a row that a product or a sum shares raises
        def reports():
            out = []
            for L, levi in [build_sl2_lambda(lam) for lam in range(1, 5)] + [sl2_heisenberg_skewed()]:
                grading = adjoint_grading(L, levi)
                rho = adjoint_representation(L, grading)
                nil = levi.nilrad_indices
                zs = [unit_vector(L.dim, nil[0]),
                      tuple(F(k % 3 - 1, 2) if k in nil else F(0) for k in range(L.dim))]
                out.append((
                    check_axioms(L), verify_levi_data(L, levi), grading.component_bases,
                    [dense_rows(im.matrix) for im in rho.images], verify_representation(rho),
                    [conjugate_levi_check(rho, z) for z in zs],
                ))
            return out

        plain = reports()
        real = RatMatrix._from_maps.__func__

        def read_only(cls, rows, cols, maps):
            return real(cls, rows, cols, MappingProxyType(
                {i: MappingProxyType(m) for i, m in maps.items()}))

        monkeypatch.setattr(RatMatrix, "_from_maps", classmethod(read_only))
        product = RatMatrix.identity(2) @ RatMatrix.identity(2)
        with pytest.raises(TypeError):
            product.maps[0][1] = F(1)
        with pytest.raises(TypeError):
            product.maps[1] = {}
        assert isinstance(build_sl2()[0].ad_rows[0].maps[1], MappingProxyType)
        assert reports() == plain

    def test_unused_indices_share_one_zero_matrix(self):
        # one bracket in 1500 dimensions: no row list for the 1498 other
        # indices (the dense layout peaked at about 18 MB here)
        dim = 1500
        labels = [f"b{i}" for i in range(dim)]
        table = {(3, 1200): {7: F(1, 2)}}
        tracemalloc.start()
        try:
            L = LieAlgebra(dim, labels, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        stored = [(i, j) for i, m in enumerate(L.ad_rows) for j in m.maps]
        assert stored == [(3, 1200), (1200, 3)]
        assert len({id(m) for m in L.ad_rows}) == 3
        # each brute bracket scans all dim^2 index pairs
        for i, j in stored + [(0, 1499)]:
            units = [[F(int(p == q)) for p in range(dim)] for q in (i, j)]
            want = brute_bracket(dim, table, *units)
            assert L.ad_rows[i].maps.get(j, {}) == {k: c for k, c in enumerate(want) if c}

    def test_sl2_lambda_stores_two_rows_per_bracket(self):
        # ad_rows hold [b_i, b_j] and [b_j, b_i] for each stored bracket
        # and nothing else: 24,582 rows for sl2^4096, where a dim-long row
        # list per bracketed index held 16,810,000 row slots
        L, _ = build_sl2_lambda(4096)
        assert sum(len(m.maps) for m in L.ad_rows) == 2 * len(L.structure) == 24_582
        for m in L.ad_rows:
            assert_clean(m)

    @pytest.mark.parametrize("seed", range(16))
    def test_ad_rows_match_plain_oracle(self, seed):
        # sl2^lam in a permuted and rescaled basis, every other table
        # with one random bracket replaced
        rng = random.Random(seed)
        base, _ = build_sl2_lambda(rng.randint(1, 4))
        dim = base.dim
        perm = rng.sample(range(dim), dim)
        scales = [rng.choice([1, -1, 2, F(1, 2), F(-3, 2)]) for _ in range(dim)]
        table = rebased(base.structure, perm, scales)
        if seed % 2:
            table = corrupt_bracket(rng, table, dim)
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        units = [[F(int(p == i)) for p in range(dim)] for i in range(dim)]
        for i in range(dim):
            assert_clean(L.ad_rows[i])
            for j in range(dim):
                want = brute_bracket(dim, table, units[i], units[j])
                assert L.ad_rows[i].maps.get(j, {}) == {k: c for k, c in enumerate(want) if c}
