import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import trilie.exact as exact
import trilie.liealg as liealg
import trilie.rep as rep
from trilie.exact import RatMatrix, exp_nilpotent, invert, unit_vector
from trilie.jsonio import jsonable, matrix_from_json, representation_from_json, representation_to_json
from trilie.family import ModuleParams, build_family_module, enumerate_params
from trilie.graded import (
    GradedMap,
    GradedSpace,
    block_support,
    degree_components,
    is_homogeneous,
    is_triangular,
)
from trilie.liealg import (
    LeviData,
    LieAlgebra,
    adjoint_grading,
    adjoint_representation,
    build_sl2,
    build_sl2_lambda,
)
from trilie.rep import (
    Representation,
    UnsupportedLeviError,
    _structure_conditions,
    conjugate_levi_check,
    is_k_irreducible,
    kernel,
    recognize_sl2,
    verify_homomorphism,
    verify_representation,
    verify_triangular_conditions,
)
from trilie.sl2theory import build_irreducible, weight_decomposition

from helpers import (
    assert_clean,
    brute_block_support,
    brute_bracket,
    brute_exp_nilpotent,
    brute_homomorphism_witness,
    brute_inverse,
    brute_nullspace,
    brute_product,
    brute_rank,
    brute_sl2_triple,
    corrupt_bracket,
    dense_rows,
    is_weight_string,
    mask_triangular,
    mat_power,
    primes_from,
    rebased,
    seeded_rational_matrix,
    seeded_triangular_map,
    sl2_heisenberg_skewed,
)

F = Fraction


def adjoint_of_sl2_lambda(lam):
    L, levi = build_sl2_lambda(lam)
    return adjoint_representation(L, adjoint_grading(L, levi))


class TestDeclarationRange:
    """`LeviData.check` refuses an index outside 0..dim-1 for every way a
    declaration reaches the checks, before any index is read."""

    @staticmethod
    def _entry_points(L, declared):
        rho = adjoint_of_sl2_lambda(1)
        return (
            lambda: verify_representation(Representation(L, declared, rho.space, rho.images)),
            lambda: liealg.verify_levi_data(L, declared),
            lambda: adjoint_grading(L, declared),
        )

    @pytest.mark.parametrize("bad", (-1, -5, 5))
    @pytest.mark.parametrize("position", (0, 1, 2))
    def test_each_list_refuses_each_bad_index(self, position, bad):
        # -1, -dim and dim at sl2^1 (dim 5), as the last index of the
        # Levi, radical or nilradical list
        L, levi = build_sl2_lambda(1)
        lists = [levi.levi_indices, levi.radical_indices, levi.nilrad_indices]
        lists[position] = lists[position][:-1] + (bad,)
        for call in self._entry_points(L, LeviData(*lists)):
            with pytest.raises(IndexError) as exc:
                call()
            assert str(exc.value) == f"unit vector index {bad} out of range for dim 5"

    @pytest.mark.parametrize(
        "declared,bad",
        [
            (LeviData((0, 1, 7), (3, 6), (5, 4)), 5),  # nilradical first
            (LeviData((0, 1, 7), (3, 6), (3, 4)), 6),  # then radical
            (LeviData((0, 1, 7), (3, 4), (3, 4)), 7),  # then Levi
        ],
    )
    def test_nilradical_is_named_first(self, declared, bad):
        L, _ = build_sl2_lambda(1)
        for call in self._entry_points(L, declared):
            with pytest.raises(IndexError) as exc:
                call()
            assert str(exc.value) == f"unit vector index {bad} out of range for dim 5"

    @pytest.mark.parametrize(
        "levi",
        [
            pytest.param((0, 1, -5), id="certified all_pass true"),
            pytest.param((1, 2, -5), id="KeyError 0 in restricted_ad_matrices"),
        ],
    )
    def test_wrapped_levi_index_is_refused(self, levi):
        # -5 was read as index 0 of the sl2^1 adjoint
        rho = adjoint_of_sl2_lambda(1)
        with pytest.raises(IndexError) as exc:
            Representation(rho.algebra, LeviData(levi, (3, 4), (3, 4)), rho.space, rho.images)
        assert str(exc.value) == "unit vector index -5 out of range for dim 5"

    def test_declaration_check_no_longer_raises_key_error(self):
        # the wrapped -1 made verify_levi_data raise KeyError: 4
        L, _ = build_sl2_lambda(1)
        with pytest.raises(IndexError) as exc:
            liealg.verify_levi_data(L, LeviData((0, 1, -1), (3, 4), (3, 4)))
        assert str(exc.value) == "unit vector index -1 out of range for dim 5"


def gate_reference(m):
    """(flags, witnesses) of the gate on the one image m, at basis index
    0, Levi index 9 and nilradical index 0, read off the oracle's dense
    block scan: the least lowering pair is the triangularity witness, (i)
    keeps to the degree-0 pairs, and (ii) has no lowering and no degree-0
    pair."""
    support = brute_block_support(list(m.space.component_dims), dense_rows(m.matrix))
    lowering = sorted(p for p in support if p[1] < p[0])
    witnesses = {}
    if lowering:
        witnesses["triangular_all"] = {"basis_index": 0, "block": lowering[0]}
    cond_i = all(k_from == k_to for k_from, k_to in support)
    if not cond_i:
        witnesses["condition_i"] = {"levi_index": 9}
    if lowering:
        witnesses["condition_ii"] = {"nilrad_index": 0, "block": lowering[0]}
    elif any(k_from == k_to for k_from, k_to in support):
        witnesses["condition_ii"] = {"nilrad_index": 0, "block": "nonzero degree-0 stripe"}
    flags = {
        "triangular_all": not lowering,
        "condition_i": cond_i,
        "condition_ii": "condition_ii" not in witnesses,
    }
    return flags, witnesses


def adjoint_of_sl2():
    L, levi = build_sl2()
    return adjoint_representation(L, adjoint_grading(L, levi))


def zero_rep_of_sl2():
    L, levi = build_sl2()
    space = GradedSpace((1,))
    return Representation(L, levi, space, tuple(RatMatrix.zeros(1, 1) for _ in range(3)))


def glued_v1_v1_rep():
    """sl2 acting block-diagonally on two copies of the 2-dim module."""
    L, levi = build_sl2()
    m = build_irreducible(1)
    space = GradedSpace((4,))

    def glue(a):
        data = [F(0)] * 16
        for blk in (0, 2):
            for i in range(2):
                for j in range(2):
                    data[(blk + i) * 4 + (blk + j)] = a[i, j]
        return RatMatrix(4, 4, data)

    images = (glue(m.f_mat), glue(m.h_mat), glue(m.e_mat))
    return Representation(L, levi, space, images)


class TestConstruction:
    def test_image_count_enforced(self):
        L, levi = build_sl2()
        with pytest.raises(ValueError):
            Representation(L, levi, GradedSpace((1,)), (RatMatrix.zeros(1, 1),))

    def test_ad_h_is_diagonal_in_weight_basis(self):
        rho = adjoint_of_sl2_lambda(1)
        assert rho.images[1].matrix == RatMatrix.diagonal([-2, 0, 2, 1, -1])

    def test_ad_z0_maps_degree_0_into_degree_1(self):
        rho = adjoint_of_sl2_lambda(1)
        z0 = rho.images[3]
        assert z0.block(0, 0).is_zero()
        assert z0.block(1, 1).is_zero()
        assert z0.block(1, 0).is_zero()
        assert not z0.block(0, 1).is_zero()

    def test_abelian_1dim_ad_is_zero(self):
        L = LieAlgebra(1, ("c",), {})
        levi = LeviData((), (0,), (0,))
        rho = adjoint_representation(L, adjoint_grading(L, levi))
        assert rho.images[0].is_zero()
        assert rho.space.component_dims == (0, 1)

    def test_zero_algebra_images_and_conjugation(self):
        # no images to combine: the image of () is the zero map of the space
        L = LieAlgebra(0, (), {})
        space = GradedSpace((2,))
        rho = Representation(L, LeviData((), (), ()), space, ())
        assert rho.image_of(()) == GradedMap.zero(space)
        assert conjugate_levi_check(rho, ())["all_pass"]


class TestHomomorphism:
    def test_adjoint_sl2(self):
        assert verify_homomorphism(adjoint_of_sl2()) == (True, None)

    @pytest.mark.parametrize("lam", range(1, 5))
    def test_adjoint_sl2_lambda(self, lam):
        assert verify_homomorphism(adjoint_of_sl2_lambda(lam)) == (True, None)

    def test_corrupted_structure_detected(self):
        L, levi = build_sl2_lambda(1)
        # [e, z1] := 2 z0
        L = LieAlgebra(L.dim, L.basis_labels, {**L.structure, (2, 4): {3: F(2)}})
        rho = adjoint_representation(L, adjoint_grading(L, levi))
        ok, witness = verify_homomorphism(rho)
        assert not ok
        assert witness == (0, 2)


def adjoint_lists(dim, table, pad=0):
    """Plain-list ad(b_i) of a table, each followed by `pad` zero rows
    and columns (a trivial summand): entry (k, j) of image i is the b_k
    coefficient of [b_i, b_j] by brute_bracket."""
    units = [[F(int(p == i)) for p in range(dim)] for i in range(dim)]
    cols = {(i, j): brute_bracket(dim, table, units[i], units[j])
            for i in range(dim) for j in range(dim)}
    return [
        [[cols[i, j][k] if k < dim and j < dim else F(0) for j in range(dim + pad)]
         for k in range(dim + pad)]
        for i in range(dim)
    ]


def list_representation(dim, table, images):
    L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
    n = len(images[0]) if images else 0
    return Representation(L, LeviData((), (), ()), GradedSpace((n,)),
                          tuple(RatMatrix.from_rows(m) for m in images))


near_2_64 = st.integers(2**64 - 2**16, 2**64 + 2**16)
signs = st.sampled_from((1, -1))
scale_entries = st.one_of(
    st.sampled_from((1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 4))),
    st.builds(lambda p, s: s * p, near_2_64, signs),
    st.builds(lambda q, s: F(s, q), near_2_64, signs),
    st.builds(lambda p, q: F(p, q), near_2_64, near_2_64),
)
image_entries = st.one_of(
    st.just(F(0)),
    st.integers(-3, 3).map(F),
    st.builds(lambda p, s: F(s * p), near_2_64, signs),
    st.builds(F, st.integers(-6, 6), near_2_64),
)


@st.composite
def homomorphism_cases(draw):
    """(dim, table, images): the adjoint representation of sl2 or sl2^lam
    (lam <= 2) in a permuted basis rescaled by integers, fractions and
    numbers near ±2^64, plus up to two trivial dimensions; then, in a
    third of the cases each, one bracket of the table replaced, or one
    image entry redrawn."""
    lam = draw(st.integers(0, 2))
    base = (build_sl2() if lam == 0 else build_sl2_lambda(lam))[0]
    dim = base.dim
    perm = draw(st.permutations(range(dim)))
    scales = draw(st.lists(scale_entries, min_size=dim, max_size=dim))
    table = rebased(base.structure, perm, scales)
    images = adjoint_lists(dim, table, draw(st.integers(0, 2)))
    kind = draw(st.sampled_from(("plain", "bracket", "image")))
    if kind == "bracket":
        table = corrupt_bracket(draw(st.randoms(use_true_random=False)), table, dim)
    elif kind == "image":
        n = len(images[0])
        i, r, c = draw(st.tuples(st.integers(0, dim - 1), st.integers(0, n - 1),
                                 st.integers(0, n - 1)))
        images[i][r][c] = draw(image_entries)
    return dim, table, images


@st.composite
def sparse_image_cases(draw):
    """(dim, table, images): up to 24 basis elements whose n x n images
    (n <= 3) are zero but for the last four, or for the first four, and
    up to four stored brackets, each with up to two terms, anywhere in
    the table. A pair with an empty image can fail only by a stored
    bracket, so the first failing pair, if any, tends to come after many
    pairs that cannot fail: pairs of two empty images when those come
    first, pairs of a nonempty image and an empty one when they come
    last. There, in a third of the cases, the four images are multiples
    of one matrix, so that they commute and the first failure is a
    stored bracket of a nonempty image with an empty one."""
    dim = draw(st.integers(5, 24))
    n = draw(st.integers(1, 3))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, F(1, 2)))
    images = [[[F(0)] * n for _ in range(n)] for _ in range(dim - 4)]
    images += [[[F(draw(entries)) for _ in range(n)] for _ in range(n)] for _ in range(4)]
    layout = draw(st.sampled_from(("nonzero last", "nonzero first", "commuting first")))
    if layout != "nonzero last":
        front = images[-4:]
        if layout == "commuting first":
            front = [[[F(c) * x for x in row] for row in front[0]]
                     for c in draw(st.lists(entries, min_size=4, max_size=4))]
        images = front + images[:-4]
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)).filter(
        lambda key: key[0] < key[1])
    coeffs = st.dictionaries(st.integers(0, dim - 1), st.sampled_from((1, -1, 2)),
                             min_size=1, max_size=2)
    table = draw(st.dictionaries(pairs, coeffs, max_size=4))
    return dim, {key: {k: F(c) for k, c in terms.items()} for key, terms in table.items()}, images


class TestHomomorphismOracle:
    @given(homomorphism_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_plain_oracle(self, case):
        dim, table, images = case
        rho = list_representation(dim, table, images)
        assert verify_homomorphism(rho) == brute_homomorphism_witness(dim, table, images)

    @given(sparse_image_cases())
    @settings(max_examples=80, deadline=None)
    # the nonempty b_0 fails only with its stored partner b_4, whose
    # image is empty
    @example((6, {(0, 4): {0: F(1)}}, [[[F(1)]]] * 4 + [[[F(0)]]] * 2))
    def test_sparse_images_match_plain_oracle(self, case):
        dim, table, images = case
        rho = list_representation(dim, table, images)
        assert verify_homomorphism(rho) == brute_homomorphism_witness(dim, table, images)

    def test_empty_images_visit_only_stored_partners(self):
        # 3000 basis elements, one stored bracket [b_2998, b_2999] = b_0,
        # and 1 x 1 images. Every product with an empty image vanishes, so
        # with all images zero the scan visits the stored pair alone, and
        # with image 0 = [[1]] too, since b_0 has no stored partner and no
        # other image is nonempty: then the stored pair fails in column 0;
        # a scan of every pair visits 4.5e6
        dim = 3000
        table = {(dim - 2, dim - 1): {0: F(1)}}
        visits = [0]

        class CountingRows(dict):
            # row j of ad_rows[i] is looked up once per visited pair (i, j)
            def get(self, j, default=None):
                visits[0] += 1
                if visits[0] > 2 * dim:
                    raise AssertionError("the scan visited pairs that cannot fail")
                return super().get(j, default)

        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        counted = {id(m): RatMatrix._from_maps(m.rows, m.cols, CountingRows(m.maps))
                   for m in L.ad_rows}
        L.ad_rows = tuple(counted[id(m)] for m in L.ad_rows)
        zero, one = RatMatrix.from_rows([[0]]), RatMatrix.from_rows([[1]])
        for first, want, pairs in ((zero, (True, None), 1),
                                   (one, (False, (dim - 2, dim - 1)), 1)):
            visits[0] = 0
            rho = Representation(L, LeviData((), (), ()), GradedSpace((1,)),
                                 (first,) + (zero,) * (dim - 1))
            assert verify_homomorphism(rho) == want
            assert visits[0] == pairs

    def test_nonempty_images_skip_empty_ones_without_a_stored_bracket(self):
        # 3000 basis elements and no stored bracket; 1 x 1 images, the
        # first 1500 [[1]] and the last 1500 zero. A pair with a zero
        # image and no stored bracket cannot fail, so the scan visits the
        # pairs of two nonempty images alone: 1500 * 1499 / 2, against
        # 3.4e6 when every later image is visited
        dim, half = 3000, 1500
        visits = [0]

        class CountingRows(dict):
            def get(self, j, default=None):
                visits[0] += 1
                if visits[0] > half * (half - 1) // 2:
                    raise AssertionError("the scan visited pairs that cannot fail")
                return super().get(j, default)

        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], {})
        L.ad_rows = tuple(RatMatrix._from_maps(m.rows, m.cols, CountingRows(m.maps))
                          for m in L.ad_rows)
        zero, one = RatMatrix.from_rows([[0]]), RatMatrix.from_rows([[1]])
        rho = Representation(L, LeviData((), (), ()), GradedSpace((1,)),
                             (one,) * half + (zero,) * half)
        assert verify_homomorphism(rho) == (True, None)
        assert visits[0] == half * (half - 1) // 2

    @pytest.mark.parametrize("corrupt", (False, True))
    def test_huge_coprime_rescaling_matches_plain_oracle(self, corrupt):
        # sl2^16 (dim 20) rescaled by the 400-digit q_t = M (K + t) + 1,
        # M = lcm(1..20), K = 10^391. A common divisor of q_t and q_u
        # divides (K + u) q_t - (K + t) q_u = u - t, whose primes all
        # divide M, while q_t = 1 mod M: so, as with distinct primes, no
        # two scales share a factor, and a common denominator of the
        # images would have about 8000 digits.
        base, _ = build_sl2_lambda(16)
        dim = base.dim
        m = math.lcm(*range(1, dim + 1))
        scales = [m * (10**391 + t) + 1 for t in range(1, dim + 1)]
        assert {len(str(q)) for q in scales} == {400}
        table = rebased(base.structure, range(dim), scales)
        images = adjoint_lists(dim, table)
        if corrupt:
            images[dim - 1][2][3] += 1
        rho = list_representation(dim, table, images)
        start = time.perf_counter()
        got = verify_homomorphism(rho)
        assert time.perf_counter() - start < 2
        assert got == brute_homomorphism_witness(dim, table, images)
        assert got[0] is not corrupt

    def test_builds_no_matrix_product_or_commutator(self, monkeypatch):
        good = adjoint_of_sl2_lambda(3)
        L, levi = build_sl2_lambda(1)
        L = LieAlgebra(L.dim, L.basis_labels, {**L.structure, (2, 4): {3: F(2)}})
        bad = adjoint_representation(L, adjoint_grading(L, levi))

        def refuse(*args):
            raise AssertionError("the homomorphism check built a matrix")

        monkeypatch.setattr(RatMatrix, "__matmul__", refuse)
        monkeypatch.setattr(GradedMap, "bracket", refuse)
        assert verify_homomorphism(good) == (True, None)
        assert verify_homomorphism(bad) == (False, (0, 2))


def refuse_fraction_arithmetic(patch):
    """Make every arithmetic operator of Fraction raise, and building a
    Fraction too, for the scope of the monkeypatch context `patch`."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built or combined")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__new__"):
        patch.setattr(Fraction, name, refuse)
    if hasattr(Fraction, "_from_coprime_ints"):
        # CPython 3.12 on builds arithmetic results past __new__
        patch.setattr(Fraction, "_from_coprime_ints", classmethod(refuse))


def lower_conjugated(diagonal):
    """P diag(D) P^-1 as plain lists, P the lower triangular all-ones
    matrix: D_r on the diagonal, D_c - D_(c+1) at (r, c) below it, 0
    above. Any two such matrices commute."""
    n = len(diagonal)
    return [
        [diagonal[r] if c == r else diagonal[c] - diagonal[c + 1] if c < r else F(0)
         for c in range(n)]
        for r in range(n)
    ]


class TestIntegerScan:
    def test_fractional_images_take_no_fraction_arithmetic(self, monkeypatch):
        # a λ=2 family module with a = (1/2, -1/3), which fails, and the
        # adjoint of sl2^3 in a basis rescaled by fractions, which holds
        # until one image entry is changed
        family = build_family_module(ModuleParams(2, 4, 2, 0, 0, (F(1, 2), F(-1, 3))))
        family_lists = [dense_rows(im.matrix) for im in family.images]
        base, _ = build_sl2_lambda(3)
        dim = base.dim
        scales = [F(2, 3), F(-5, 7), 3, F(7, 4), F(-1, 6), F(11, 9), F(5, 2)]
        table = rebased(base.structure, [6, 2, 0, 4, 1, 5, 3], scales)
        good = adjoint_lists(dim, table)
        bad = [[list(row) for row in image] for image in good]
        bad[4][5][2] += F(1, 3)
        cases = [
            (family, brute_homomorphism_witness(family.algebra.dim,
                                                dict(family.algebra.structure),
                                                family_lists)),
            (list_representation(dim, table, good),
             brute_homomorphism_witness(dim, table, good)),
            (list_representation(dim, table, bad),
             brute_homomorphism_witness(dim, table, bad)),
        ]
        assert [want[0] for _, want in cases] == [False, True, False]
        assert any(im.matrix.dens for im in family.images)
        for rho, want in cases:
            with monkeypatch.context() as patch:
                refuse_fraction_arithmetic(patch)
                got = verify_homomorphism(rho)
            assert got == want

    def test_reading_rank_and_irreducibility_build_no_fraction(self, monkeypatch):
        # an integral document is read with one Fraction per distinct
        # bracket coefficient, for the algebra's read-only table, and none
        # for its images; rank and is_k_irreducible build none, also on a
        # module in a basis rescaled by fractions
        doc = jsonable(representation_to_json(adjoint_of_sl2_lambda(3)))
        built = []
        real_new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            rho = representation_from_json(doc)
        coefficients = {c for _, _, terms in doc["algebra"]["brackets"] for _, c in terms}
        assert len(built) == len(coefficients) > 0
        with monkeypatch.context() as patch:
            refuse_fraction_arithmetic(patch)
            images = [matrix_from_json(doc["images"][label]) for label in rho.algebra.basis_labels]
        assert images == [im.matrix for im in rho.images]

        base, _ = build_sl2_lambda(3)
        perm = [6, 2, 0, 4, 1, 5, 3]  # f, h, e land on 2, 4, 1; h is negated
        scales = [F(2, 3), F(-5, 7), 3, F(7, 4), -1, F(11, 9), F(5, 2)]
        table = rebased(base.structure, perm, scales)
        L = LieAlgebra(7, [f"b{i}" for i in range(7)], table)
        rest = (0, 3, 5, 6)
        rescaled = Representation(L, LeviData((2, 4, 1), rest, rest), GradedSpace((7,)),
                                  tuple(RatMatrix.from_rows(m) for m in adjoint_lists(7, table)))
        assert any(im.matrix.dens for im in rescaled.images)
        kernels: list[int] = []
        want = (is_k_irreducible(rescaled, kernels), kernels,
                [brute_rank(dense_rows(im.matrix)) for im in rescaled.images])
        assert want[:2] == ([False], [2])  # V(2) + V(3)
        with monkeypatch.context() as patch:
            refuse_fraction_arithmetic(patch)
            kernels = []
            got = (is_k_irreducible(rescaled, kernels), kernels,
                   [exact.rank(im.matrix) for im in rescaled.images])
        assert got == want

    def test_dense_coprime_image_keeps_integral_pairs_small(self, monkeypatch):
        # twelve commuting 40 x 40 images P D_k P^-1 (`lower_conjugated`);
        # D_0 holds 1/p over forty 64-bit primes, so image 0 alone has a
        # 2560-bit least common denominator, and the other D_k hold small
        # integers. Image 0 comes first, so the pairs (0, j) are scanned
        # before every pair of two integral images
        n = 40
        rng = random.Random(19)
        diagonals = [[F(1, p) for p in primes_from(2**63, n)]]
        diagonals += [[F(rng.randint(-9, 9)) for _ in range(n)] for _ in range(11)]
        images = [lower_conjugated(d) for d in diagonals]
        rho = list_representation(12, {}, images)

        calls = []
        real_add = exact.add_scaled_row

        def recording_add(out, row, c):
            calls.append((row, c))
            real_add(out, row, c)

        # bracket_defect sums through exact.add_product and add_scaled_rows
        monkeypatch.setattr(exact, "add_scaled_row", recording_add)
        # the images commute, so the oracle's answer is (True, None)
        assert verify_homomorphism(rho) == (True, None)

        # the last calls are the integral pairs', one per stored (r, k)
        # of a factor whose row k of the other factor is stored
        stored = [{r for r, row in enumerate(m) if any(row)} for m in images]

        def terms(a, b):
            return sum(1 for row in images[a] for k, x in enumerate(row) if x and k in stored[b])

        count = sum(terms(i, j) + terms(j, i) for i in range(1, 12) for j in range(i + 1, 12))

        def bits(call):
            row, c = call
            return max(c.bit_length(), *(x.bit_length() for x in row.values()))

        assert max(map(bits, calls[-count:])) <= 64
        # the call before them, in the pair (0, 11), carries image 0
        assert bits(calls[-count - 1]) > 64

        # one entry of image 1 changed: the first pair fails
        images[1][0][n - 1] += 1
        bad = list_representation(12, {}, images)
        assert verify_homomorphism(bad) == brute_homomorphism_witness(12, {}, images)


class TestTriangularConditions:
    @pytest.mark.parametrize("lam", range(1, 5))
    def test_adjoint_with_lcs_grading(self, lam):
        report = verify_triangular_conditions(adjoint_of_sl2_lambda(lam))
        assert report["all_pass"], report

    def test_nonzero_degree0_block_breaks_condition_ii(self):
        rho = adjoint_of_sl2_lambda(1)
        images = list(rho.images)
        spoiled = images[3].matrix + RatMatrix.identity(5)
        images[3] = RatMatrix(5, 5, spoiled.data)
        bad = Representation(rho.algebra, rho.levi, rho.space, tuple(images))
        report = verify_triangular_conditions(bad)
        assert not report["condition_ii"]
        assert report["witnesses"]["condition_ii"]["nilrad_index"] == 3

    def test_gate_matches_stripe_reference(self):
        # the gate on one image at basis index 0, as both a Levi and a
        # nilradical image, against the dense block scan of the oracle
        rng = random.Random(11)
        for _ in range(300):
            f = seeded_triangular_map(rng)
            n = f.space.total_dim
            g = GradedMap(f.space, seeded_rational_matrix(rng, n, n))
            stripe = degree_components(f)[0]
            positive = GradedMap(f.space, f.matrix - stripe.matrix)
            for m in (f, g, stripe, positive):
                support = block_support(m)
                flags, witnesses = _structure_conditions([support], [(9, support)], [0])
                assert (flags, witnesses) == gate_reference(m)

    @given(st.data())
    @settings(max_examples=100)
    def test_gate_matches_oracle_on_random_spaces(self, data):
        dims = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        space = GradedSpace(dims)
        n = space.total_dim
        entry = st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 3)])
        raw = RatMatrix(n, n, data.draw(st.lists(entry, min_size=n * n, max_size=n * n)))
        m = mask_triangular(space, raw) if data.draw(st.booleans()) else GradedMap(space, raw)
        support = block_support(m)
        assert _structure_conditions([support], [(9, support)], [0]) == gate_reference(m)

    def test_gate_and_predicates_copy_no_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a block was copied")

        rho = adjoint_of_sl2_lambda(2)
        for owner, name in ((GradedMap, "block"), (RatMatrix, "submatrix"),
                            (RatMatrix, "from_blocks")):
            monkeypatch.setattr(owner, name, refuse)
        assert verify_triangular_conditions(rho)["all_pass"]
        assert conjugate_levi_check(rho, unit_vector(rho.algebra.dim, 4))["all_pass"]
        f = rho.images[3]
        assert is_triangular(f) == (True, None)
        assert is_homogeneous(f, 1) and not is_homogeneous(f, 0)
        assert degree_components(f)[1] == f

    def test_single_component_grading_cannot_hide_nilradical(self):
        L, levi = build_sl2_lambda(1)
        from trilie.liealg import ad_matrix

        space = GradedSpace((5,))
        images = tuple(ad_matrix(L, unit_vector(5, i)) for i in range(5))
        rho = Representation(L, levi, space, images)
        report = verify_triangular_conditions(rho)
        assert report["triangular_all"]
        assert report["condition_i"]
        assert not report["condition_ii"]


def abelian_rep(n: int, images: list) -> Representation:
    """The n x n images as a representation of the abelian algebra with
    one basis element per image."""
    k = len(images)
    L = LieAlgebra(k, [f"b{i}" for i in range(k)], {})
    return Representation(L, LeviData((), tuple(range(k)), ()), GradedSpace((n,)),
                          tuple(images))


def dense_kernel(n: int, images: list) -> list:
    """brute_nullspace of the dense system, one row per (p, q) entry."""
    dense = [[m[p, q] for m in images] for p in range(n) for q in range(n)]
    return brute_nullspace(dense, len(images))


# every image stores its own positions: all columns drop at once
EMPTY_RESIDUE = (2, [RatMatrix.from_rows([[1, 0], [0, 0]]), RatMatrix.zeros(2, 2),
                     RatMatrix.from_rows([[0, 2], [0, F(1, 3)]])])
# every position is stored by at least two images: nothing drops
NO_SINGLETON = (2, [RatMatrix.from_rows([[1, 0], [1, 0]]),
                    RatMatrix.from_rows([[1, 0], [1, 3]]),
                    RatMatrix.from_rows([[0, 0], [0, -3]])])
# only (0, 1) is a singleton: it drops b_0, and (0, 0) then names b_1
# alone among the live images, so the elimination drops b_1 and b_2
CASCADE = (2, [RatMatrix.from_rows([[1, 1], [0, 0]]),
               RatMatrix.from_rows([[2, 0], [0, 1]]),
               RatMatrix.from_rows([[0, 0], [0, -1]])])
# (1, 1) drops b_2; (0, 0) then names b_0 and b_1, a 1 x 2 residue
SHARED_PAIR = (2, [RatMatrix.from_rows([[1, 0], [0, 0]]),
                   RatMatrix.from_rows([[-2, 0], [0, 0]]),
                   RatMatrix.from_rows([[0, 0], [0, 5]])])


def chain(k: int, dependent: bool = False) -> tuple[int, list]:
    """k images of size k + 1 where image j stores (j, j) and (j + 1,
    j + 1), so images j - 1 and j share position (j, j) and only the ends
    are singletons. With `dependent`, the last image is the combination
    sum_j (j + 1) image j of the others, a kernel vector."""
    n = k + 1
    images = []
    for j in range(k):
        maps = {j: {j: 1}, j + 1: {j + 1: j + 2}}
        images.append(RatMatrix.from_int_rows(n, n, maps, {j + 1: 3}))
    if dependent and k > 1:
        last = RatMatrix.zeros(n, n)
        for j, im in enumerate(images[:-1]):
            last = last + im.scale(j + 1)
        images[-1] = last
    return n, images


@st.composite
def sparse_families(draw):
    """0-5 sparse n x n images, n <= 3: half-zero entries, with zero
    images, repeated and rescaled images drawn in, and for three or more
    the last one may be 2 rho(b_0) - rho(b_1)."""
    n = draw(st.integers(0, 3))
    entries = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(1, 2), F(2), F(-3, 2)])
    images = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "rescaled"]))
        if kind == "zero":
            images.append(RatMatrix.zeros(n, n))
        elif kind == "rescaled" and images:
            scale = draw(st.sampled_from([F(1), F(-1), F(2), F(1, 3)]))
            images.append(draw(st.sampled_from(images)).scale(scale))
        else:
            images.append(RatMatrix(n, n, draw(st.lists(entries, min_size=n * n,
                                                        max_size=n * n))))
    if len(images) > 2 and draw(st.booleans()):
        images[-1] = images[0].scale(2) - images[1]
    return n, images


class TestKernel:
    @pytest.mark.parametrize("lam", range(1, 5))
    def test_adjoint_sl2_lambda_is_faithful(self, lam):
        assert kernel(adjoint_of_sl2_lambda(lam)) == []

    def test_abelian_adjoint_kernel_is_everything(self):
        L = LieAlgebra(1, ("c",), {})
        levi = LeviData((), (0,), (0,))
        rho = adjoint_representation(L, adjoint_grading(L, levi))
        assert kernel(rho) == [(F(1),)]

    def test_zero_rep_kernel_is_whole_algebra(self):
        assert len(kernel(zero_rep_of_sl2())) == 3

    @pytest.mark.parametrize("seed", range(16))
    def test_kernel_matches_dense_oracle(self, seed):
        # half-zero images of an abelian algebra; for odd seeds with three
        # or more images the last is 2 rho(b_0) - rho(b_1), a kernel vector
        rng = random.Random(seed)
        n, k = rng.randint(0, 4), rng.randint(1, 4)
        images = [
            RatMatrix(n, n, [rng.choice([0, 0, F(rng.randint(-3, 3), rng.randint(1, 3))])
                             for _ in range(n * n)])
            for _ in range(k)
        ]
        if k > 2 and seed % 2:
            images[-1] = images[0].scale(2) - images[1]
        L = LieAlgebra(k, [f"b{i}" for i in range(k)], {})
        rho = Representation(L, LeviData((), tuple(range(k)), ()), GradedSpace((n,)),
                             tuple(images))
        dense = [[m[p, q] for m in images] for p in range(n) for q in range(n)]
        assert [list(v) for v in kernel(rho)] == brute_nullspace(dense, k)

    @given(sparse_families())
    @example(EMPTY_RESIDUE)
    @example(NO_SINGLETON)
    @example(CASCADE)
    @settings(max_examples=200)
    def test_kernel_matches_dense_oracle_on_sparse_families(self, family):
        n, images = family
        assert [list(v) for v in kernel(abelian_rep(n, images))] == dense_kernel(n, images)

    @pytest.mark.parametrize(
        "family, residue",
        [(EMPTY_RESIDUE, None), (NO_SINGLETON, (3, 3)), (CASCADE, (2, 2)), (SHARED_PAIR, (1, 2)),
         (chain(4), (3, 2))],
        ids=["empty-residue", "no-singleton", "cascade", "shared-pair", "chain"],
    )
    def test_presolve_eliminates_only_the_residue(self, monkeypatch, family, residue):
        # the residue is the equations naming two or more images, over the
        # live columns, with empty rows skipped; None: nothing is eliminated
        seen = []
        real = rep.nullspace_basis

        def record(a):
            seen.append((a.rows, a.cols))
            return real(a)

        monkeypatch.setattr(rep, "nullspace_basis", record)
        n, images = family
        assert [list(v) for v in kernel(abelian_rep(n, images))] == dense_kernel(n, images)
        assert seen == ([] if residue is None else [residue])

    @pytest.mark.parametrize("dependent", (False, True), ids=["faithful", "dependent"])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_chain_matches_dense_oracle(self, k, dependent):
        n, images = chain(k, dependent)
        got = [list(v) for v in kernel(abelian_rep(n, images))]
        assert got == dense_kernel(n, images)
        assert bool(got) == (dependent and k > 1)

    def test_long_chain_is_faithful(self):
        # the elimination drops the chain one image at a time, as a
        # singleton cascade would
        assert kernel(abelian_rep(*chain(1000))) == []

    def test_family_modules_need_no_elimination(self, monkeypatch):
        # h is diagonal, f and e are off by one and each z_j has its own
        # weight diagonal, so every stored entry belongs to one image: the
        # presolve drops every nonzero image and the zero ones are free
        def forbidden(a):
            raise AssertionError(f"eliminated a {a.rows}x{a.cols} residue")

        monkeypatch.setattr(rep, "nullspace_basis", forbidden)
        for lam in (1, 2):
            for m, n, s, big_n in enumerate_params(lam, 4, 4):
                for a in (F(1), F(-1, 2), F(0)):
                    for paper_literal in (False, True):
                        p = ModuleParams(lam, m, n, s, big_n, (a,) * (n - s))
                        rho = build_family_module(p, paper_literal)
                        dim = len(rho.images)
                        assert kernel(rho) == [
                            unit_vector(dim, k)
                            for k, im in enumerate(rho.images)
                            if im.matrix.is_zero()
                        ]


class TestRecognizeSl2:
    def test_standard_basis(self):
        L, levi = build_sl2()
        f, h, e = recognize_sl2(L, levi.levi_indices)
        assert (f, h, e) == (
            unit_vector(3, 0),
            unit_vector(3, 1),
            unit_vector(3, 2),
        )

    def test_permuted_basis(self):
        # basis order (h, e, f)
        L = LieAlgebra(
            3, ("h", "e", "f"), {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
        )
        f, h, e = recognize_sl2(L, (0, 1, 2))
        assert h == unit_vector(3, 0)
        from trilie.liealg import bracket

        assert bracket(L, e, f) == h

    def test_scaled_generator_is_normalized(self):
        # e' = 3e: [h, e'] = 2e', [e', f] = 3h
        L = LieAlgebra(
            3, ("f", "h", "e"), {(0, 1): {0: 2}, (0, 2): {1: -3}, (1, 2): {2: 2}}
        )
        f, h, e = recognize_sl2(L, (0, 1, 2))
        from trilie.liealg import bracket

        assert bracket(L, e, f) == h
        assert bracket(L, h, e) == tuple(2 * c for c in e)

    def test_abelian_levi_rejected(self):
        L = LieAlgebra(3, ("a", "b", "c"), {})
        with pytest.raises(UnsupportedLeviError):
            recognize_sl2(L, (0, 1, 2))

    def test_wrong_dimension_rejected(self):
        L, _ = build_sl2()
        with pytest.raises(UnsupportedLeviError):
            recognize_sl2(L, (0, 1))

    def test_non_jacobi_bracket_rejected(self):
        # [f, e] = -h + f keeps ad(h) = diag(-2, 0, 2), but [e, f] = h - f
        # is no multiple of h, and neither f nor e acts semisimply
        L = LieAlgebra(
            3, ("f", "h", "e"), {(0, 1): {0: 2}, (0, 2): {0: 1, 1: -1}, (1, 2): {2: 2}}
        )
        with pytest.raises(UnsupportedLeviError, match="no Levi basis element"):
            recognize_sl2(L, (0, 1, 2))

    def test_standard_basis_reads_only_the_levi_block(self, monkeypatch):
        # with h last, f and e fail the trace and 2x2-minor test on the
        # 3x3 block; h's two eigenlines are cross products of integer
        # rows and [e, f] is read on the block, so no ambient ad matrix
        # (the dense path) is built, no kernel is eliminated and no
        # ambient bracket is summed
        def forbidden(*args):
            raise AssertionError("left the 3x3 block")

        for module, name in ((liealg, "ad_matrix"), (rep, "ad_matrix"),
                             (liealg, "bracket"), (exact, "nullspace_basis"),
                             (rep, "nullspace_basis"), (exact, "rref")):
            monkeypatch.setattr(module, name, forbidden)
        L, _ = build_sl2()
        assert recognize_sl2(L, (0, 2, 1)) == (
            unit_vector(3, 0), unit_vector(3, 1), unit_vector(3, 2)
        )

    def test_closure_is_one_index_scan(self, monkeypatch):
        # the scan verify_levi_data runs; the matrices are built after it
        calls = []
        real = liealg.span_escape
        monkeypatch.setattr(rep, "span_escape",
                            lambda *args: calls.append(args) or real(*args))
        L, levi = build_sl2_lambda(3)
        recognize_sl2(L, levi.levi_indices)
        assert len(calls) == 1
        with pytest.raises(UnsupportedLeviError, match="Levi span not closed"):
            recognize_sl2(L, (0, 1, 3))
        assert len(calls) == 2


def sl2_tables(seed, count):
    """(dim, table, Levi list) for sl2, sl2 plus one or two central
    elements, or sl2 on its 2-dim module (dims 3-5), each in a permuted
    and rescaled basis b'_p = s_p b_perm[p]; h is scaled by 1 or -1 two
    times in three, so that it can be recognized. A third of the tables
    get one random bracket (most break Jacobi); the Levi list is the
    image of (f, h, e) in random order, or has a repeated index, or is
    drawn at random, or has the wrong length."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(3, 5)
        base = build_sl2_lambda(1)[0] if dim == 5 and rng.random() < 0.5 else build_sl2()[0]
        perm = rng.sample(range(dim), dim)
        where = {old: p for p, old in enumerate(perm)}
        scales = [rng.choice([1, -1, 2, F(1, 2), F(-3, 2)]) for _ in range(dim)]
        scales[where[1]] = rng.choice([1, -1, scales[where[1]]])
        table = rebased(base.structure, perm, scales)
        if rng.random() < 1 / 3:
            table = corrupt_bracket(rng, table, dim)
        levi = [where[0], where[1], where[2]]
        rng.shuffle(levi)
        kind = rng.random()
        if kind < 0.2:
            levi[rng.randrange(3)] = rng.choice(levi)
        elif kind < 0.3:
            levi = [rng.randrange(dim) for _ in range(3)]
        elif kind < 0.35:
            levi = levi[: rng.choice([2, 3])] + [rng.randrange(dim)] * rng.choice([0, 2])
        yield dim, table, levi


@st.composite
def levi_basis_changes(draw):
    """(dim, table, Levi list): sl2 plus up to two central elements, its
    Levi block moved to the basis of the columns of a random invertible
    rational 3x3 matrix, the whole basis permuted and the Levi list in
    random order. A column (a, b, c) in the (f, h, e) coordinates acts
    with eigenvalues 2, 0, -2 exactly when b² + ac = 1, so half the
    columns are drawn on that quadric, where the triple can be found."""
    entries = st.sampled_from((-2, -1, F(-1, 2), 0, F(1, 3), 1, 2, 3))
    cols = []
    for _ in range(3):
        if draw(st.booleans()):
            a, b = F(draw(entries.filter(bool))), F(draw(entries))
            cols.append([a, b, (1 - b * b) / a])
        else:
            cols.append([F(draw(entries)) for _ in range(3)])
    try:
        inverse = brute_inverse([[col[r] for col in cols] for r in range(3)])
    except ValueError:
        assume(False)
    base, _ = build_sl2()
    table = {}
    for p in range(3):
        for q in range(p + 1, 3):
            v = brute_bracket(3, base.structure, cols[p], cols[q])
            terms = {r: x for r in range(3) if (x := sum(inverse[r][k] * v[k] for k in range(3)))}
            if terms:
                table[p, q] = terms
    dim = 3 + draw(st.integers(0, 2))
    perm = draw(st.permutations(range(dim)))
    where = {old: q for q, old in enumerate(perm)}
    levi = draw(st.permutations([where[0], where[1], where[2]]))
    return dim, rebased(table, perm, [1] * dim), list(levi)


class TestRecognizeSl2Oracle:
    def test_matches_plain_oracle_on_seeded_grid(self):
        outcomes = {}
        for dim, table, levi in sl2_tables(seed=8, count=5000):
            L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
            expected = brute_sl2_triple(dim, L.structure, levi)
            try:
                got = recognize_sl2(L, levi)
            except UnsupportedLeviError as exc:
                got = str(exc)
            assert got == expected, (dim, table, levi)
            key = "triple" if isinstance(got, tuple) else got.split(",")[0]
            outcomes[key] = outcomes.get(key, 0) + 1
        # every branch is taken, each many times
        assert len(outcomes) == 4 and min(outcomes.values()) >= 100, outcomes


    @given(levi_basis_changes())
    @settings(max_examples=150, deadline=None)
    def test_matches_plain_oracle_on_changed_levi_bases(self, case):
        dim, table, levi = case
        L = LieAlgebra(dim, [f"b{i}" for i in range(dim)], table)
        try:
            got = recognize_sl2(L, levi)
        except UnsupportedLeviError as exc:
            got = str(exc)
        assert got == brute_sl2_triple(dim, L.structure, levi)


def graded_sl2_module(components, moves=(), perm=(0, 1, 2), scales=(1, 1, 1)):
    """sl2, in the basis b'_p = scales[p] b_perm[p], acting on one graded
    component per entry of `components`: the direct sum of the
    irreducibles of the listed highest weights, moved to the basis of
    P = I + c E_ij for each (k, i, j, c) in `moves` on component k.
    Every image is block diagonal, so the homomorphism and condition (i)
    hold. Returns the representation and each component's (f, h, e)."""
    L, _ = build_sl2()
    blocks = []
    for k, weights in enumerate(components):
        mods = [build_irreducible(d) for d in weights]
        n = sum(m.dim for m in mods)
        fhe = []
        for pick in ("f_mat", "h_mat", "e_mat"):
            placed, off = [], 0
            for m in mods:
                placed.append((off, off, getattr(m, pick)))
                off += m.dim
            fhe.append(RatMatrix.from_blocks(n, n, placed))
        for k2, i, j, c in moves:
            if k2 == k:
                p = RatMatrix.from_blocks(n, n, [
                    (0, 0, RatMatrix.identity(n)), (i, j, RatMatrix(1, 1, [c]))])
                p_inv = invert(p)
                fhe = [p_inv @ x @ p for x in fhe]
        blocks.append(fhe)
    space = GradedSpace(tuple(b[0].rows for b in blocks))
    n = space.total_dim
    images = [
        RatMatrix.from_blocks(n, n, [(o, o, b[g]) for o, b in zip(space.offsets, blocks)])
        for g in range(3)
    ]
    where = {old: q for q, old in enumerate(perm)}
    algebra = LieAlgebra(3, [L.basis_labels[old] for old in perm],
                         rebased(L.structure, perm, scales))
    levi = LeviData(tuple(where[g] for g in range(3)), (), ())
    rho = Representation(algebra, levi, space,
                         tuple(images[perm[q]].scale(scales[q]) for q in range(3)))
    return rho, blocks


@st.composite
def certified_sl2_modules(draw):
    """`graded_sl2_module` on up to three components of up to three
    irreducibles of dim <= 4 (empty components too), some components
    moved by I + c E_ij so that h is not diagonal, in a permuted and
    rescaled sl2 basis whose h keeps the scale 1 or -1."""
    components = draw(st.lists(st.lists(st.integers(0, 3), max_size=3),
                               min_size=1, max_size=3))
    moves = []
    for k, weights in enumerate(components):
        n = sum(d + 1 for d in weights)
        for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            moves.append((k, i, j, draw(st.sampled_from((-2, -1, F(1, 2), 1, 3)))))
    perm = tuple(draw(st.permutations(range(3))))
    scales = [draw(st.sampled_from((1, -1, 2, F(-1, 2), 3))) for _ in range(3)]
    scales[perm.index(1)] = draw(st.sampled_from((1, -1)))
    return components, graded_sl2_module(components, moves, perm, scales)


class TestIrreducibility:
    @pytest.mark.parametrize("lam", range(1, 5))
    def test_adjoint_components(self, lam):
        # degree 0 carries the adjoint (d=2), degree 1 the z-string (d=lam)
        assert is_k_irreducible(adjoint_of_sl2_lambda(lam)) == [True, True]

    def test_glued_copies_rejected(self):
        assert is_k_irreducible(glued_v1_v1_rep()) == [False]

    def test_trivial_component_accepted(self):
        assert is_k_irreducible(zero_rep_of_sl2()) == [True]

    def test_reads_no_image_outside_the_levi_factor(self):
        # rho(e) is the combination of the three Levi images alone
        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"read {name} of an image outside the Levi factor")

        rho = adjoint_of_sl2_lambda(3)
        levi = set(rho.levi.levi_indices)
        assert len(levi) == 3 < len(rho.images)
        object.__setattr__(rho, "images", tuple(
            im if g in levi else Unreadable() for g, im in enumerate(rho.images)))
        assert is_k_irreducible(rho) == [True, True]

    @pytest.mark.parametrize(
        "rho",
        [adjoint_of_sl2_lambda(1), adjoint_of_sl2_lambda(3), glued_v1_v1_rep(),
         zero_rep_of_sl2(), graded_sl2_module([[], [1], [], [0, 2]])[0]],
        ids=["adjoint-1", "adjoint-3", "glued", "trivial", "empty-components"],
    )
    def test_one_rank_per_nonzero_component(self, monkeypatch, rho):
        calls = []
        real_rank = rep.rank

        def counted(a):
            calls.append((a.rows, a.cols))
            return real_rank(a)

        monkeypatch.setattr(rep, "rank", counted)
        is_k_irreducible(rho)
        dims = [d for d in rho.space.component_dims if d]
        assert calls == [(d, d) for d in dims]


class TestOneRankOracle:
    """On modules that pass the homomorphism and condition (i), the one
    rank of e per component agrees with the weight-string scan and with
    the full weight decomposition of h, and counts the summands."""

    @given(certified_sl2_modules())
    @settings(max_examples=80, deadline=None)
    def test_matches_weight_oracles(self, case):
        components, (rho, blocks) = case
        report = verify_representation(rho)
        assert report["homomorphism"] and report["condition_i"]
        kernels = []
        irr = is_k_irreducible(rho, kernels)
        assert report["irreducible_components"] == irr
        assert kernels == [len(w) for w in components]
        for k, (_, h, e) in enumerate(blocks):
            d = h.rows
            if d == 0:
                assert irr[k]
                continue
            expected = {d - 1 - 2 * i: 1 for i in range(d)}
            assert irr[k] == is_weight_string(h, e)
            assert irr[k] == (weight_decomposition(h) == expected)

    @given(certified_sl2_modules())
    @settings(max_examples=40, deadline=None)
    def test_every_reducible_component_has_a_witness(self, case):
        components, (rho, _) = case
        report = verify_representation(rho)
        irr = report["irreducible_components"]
        witness = report["witnesses"].get("irreducibility")
        expected = [
            {"component": k, "dim": sum(d + 1 for d in w), "e_kernel_dim": len(w)}
            for k, (w, ok) in enumerate(zip(components, irr)) if not ok
        ]
        assert witness == (expected or None)
        assert report["all_pass"] == all(irr)


class TestFullReport:
    @pytest.mark.parametrize("lam", (1, 2, 3))
    def test_adjoint_passes_everything(self, lam):
        report = verify_representation(adjoint_of_sl2_lambda(lam))
        assert report["homomorphism"]
        assert report["triangular_all"]
        assert report["condition_i"]
        assert report["condition_ii"]
        assert report["faithful"]
        assert report["irreducible_components"] == [True, True]


def dense_conjugation_report(rho, z):
    """conjugate_levi_check from plain lists: exp(ad z) and P = exp(rho(z))
    as series, P^-1 by elimination, P^-1 M P for every image, each moved
    Levi image as column s of exp(ad z) applied to the conjugated images,
    and every block support by a dense scan; the gate on those supports
    is `_structure_conditions`. Raises ValueError when ad z is not
    nilpotent."""
    L, dims = rho.algebra, list(rho.space.component_dims)
    dim, n = L.dim, rho.space.total_dim
    z = [F(c) for c in z]
    units = [[F(int(p == q)) for p in range(dim)] for q in range(dim)]
    ad_z = [brute_bracket(dim, L.structure, z, units[k]) for k in range(dim)]
    exp_ad = brute_exp_nilpotent([[ad_z[k][r] for k in range(dim)] for r in range(dim)])
    mats = [dense_rows(im.matrix) for im in rho.images]

    def combine(coeffs, family):
        return [[sum((c * m[r][q] for c, m in zip(coeffs, family)), F(0))
                 for q in range(n)] for r in range(n)]

    p = brute_exp_nilpotent(combine(z, mats))
    p_inv = brute_inverse(p)
    conjugated = [brute_product(brute_product(p_inv, m), p) for m in mats]
    moved = [tuple(exp_ad[r][s] for r in range(dim)) for s in rho.levi.levi_indices]
    levi_supports = [
        (s, brute_block_support(dims, combine(v, conjugated)))
        for s, v in zip(rho.levi.levi_indices, moved)
    ]
    flags, witnesses = _structure_conditions(
        [brute_block_support(dims, m) for m in conjugated], levi_supports,
        rho.levi.nilrad_indices,
    )
    report = {**flags, "conjugated_levi_basis": tuple(moved), "all_pass": all(flags.values())}
    if witnesses:
        report["witnesses"] = witnesses
    return report


def sl2_plus_affine():
    """sl2 ⊕ span(x, y) with [x, y] = y: the radical {x, y} is solvable,
    its nilradical is {y}, and ad x is not nilpotent."""
    L = LieAlgebra(5, ("f", "h", "e", "x", "y"),
                   {**build_sl2()[0].structure, (3, 4): {4: F(1)}})
    return L, LeviData((0, 1, 2), (3, 4), (4,))


def conjugation_reps():
    """(name, rho): adjoint representations, family modules, and a
    non-homomorphism."""
    reps = []
    for lam in (1, 2, 3):
        reps.append((f"ad sl2^{lam}", adjoint_of_sl2_lambda(lam)))
    for name, (L, levi) in (("ad sl2+heis", sl2_heisenberg_skewed()),
                            ("ad sl2+aff", sl2_plus_affine())):
        reps.append((name, adjoint_representation(L, adjoint_grading(L, levi))))
    reps.append(("family", build_family_module(ModuleParams(2, 2, 0, 0, 0))))
    reps.append(("family, not a homomorphism",
                 build_family_module(ModuleParams(2, 4, 2, 0, 0, (F(1, 2), F(-1, 3))))))
    bad = adjoint_of_sl2_lambda(2)
    images = [im.matrix for im in bad.images]
    images[4] = images[4] + RatMatrix.from_blocks(6, 6, [(3, 0, RatMatrix.identity(3))])
    images[1] = images[1] + RatMatrix.diagonal([0, 0, 0, 1, 0, 0])
    reps.append(("not a homomorphism", Representation(bad.algebra, bad.levi, bad.space, tuple(images))))
    return reps


def conjugation_cases():
    """(name, rho, z, raises): z random in the nilradical, in the radical
    with a part outside the nilradical, or with an h part (ad z is then
    not nilpotent), for each of `conjugation_reps`."""
    rng = random.Random(2025)
    coeff = lambda: rng.choice([F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(3)])  # noqa: E731
    cases = []
    for name, rho in conjugation_reps():
        levi, dim = rho.levi, rho.algebra.dim
        for t in range(4):
            z = [F(0)] * dim
            for k in levi.nilrad_indices:
                z[k] = coeff()
            cases.append((f"{name} nilradical {t}", rho, tuple(z), False))
        outside = [k for k in levi.radical_indices if k not in levi.nilrad_indices]
        if outside:
            z = [F(0)] * dim
            for k in levi.radical_indices:
                z[k] = coeff()
            z[outside[0]] = F(2)
            cases.append((f"{name} radical", rho, tuple(z), True))
        z = [coeff() for _ in range(dim)]
        z[levi.levi_indices[1]] = F(-1, 2)  # h
        cases.append((f"{name} levi part", rho, tuple(z), True))
    return cases


SCALE_PRIMES = primes_from(11, 40)


def nilpotent_image_plus_identity():
    """The adjoint representation of sl2^1 with I added to the image of
    z0: a non-homomorphism whose rho(z) is not nilpotent when z has a
    z0 part, though ad z is."""
    rho = adjoint_of_sl2_lambda(1)
    images = [im.matrix for im in rho.images]
    images[3] = images[3] + RatMatrix.identity(5)
    return Representation(rho.algebra, rho.levi, rho.space, tuple(images))


class TestConjugation:
    @pytest.mark.parametrize("lam", (1, 2, 3))
    @pytest.mark.parametrize("zi", (0, 1))
    def test_adjoint_regrades_cleanly(self, lam, zi):
        rho = adjoint_of_sl2_lambda(lam)
        z = unit_vector(rho.algebra.dim, 3 + zi)
        report = conjugate_levi_check(rho, z)
        assert report["all_pass"], report

    @pytest.mark.parametrize("case", conjugation_cases(), ids=lambda case: case[0])
    def test_matches_dense_oracle(self, case):
        name, rho, z, raises = case
        if raises:
            with pytest.raises(ValueError):
                dense_conjugation_report(rho, z)
            with pytest.raises(ValueError, match="ad\\(z\\) is not nilpotent"):
                conjugate_levi_check(rho, z)
            return
        assert conjugate_levi_check(rho, z) == dense_conjugation_report(rho, z), name

    @given(st.sampled_from(conjugation_reps() + [("ad sl2^1, z0 image plus I", nilpotent_image_plus_identity())]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_oracle_on_rescaled_images(self, named, data):
        # image i is rescaled by s_i = ±k / q_i, each q_i its own prime, so
        # no two images share a denominator. Rescaling the table to the
        # basis s_i b_i as well keeps a homomorphism one; keeping the table
        # makes most of them non-homomorphisms. z is fractional in the
        # nilradical, plus an h part half the time: ad z is then not
        # nilpotent. Where z0's image has I added, rho(z) is not nilpotent
        # once z0's coefficient is nonzero.
        name, rho = named
        L, levi, dim = rho.algebra, rho.levi, rho.algebra.dim
        primes = data.draw(st.lists(st.sampled_from(SCALE_PRIMES), min_size=dim,
                                    max_size=dim, unique=True))
        scales = [F(data.draw(st.integers(-9, 9).filter(bool)), q) for q in primes]
        if data.draw(st.booleans()):
            L = LieAlgebra(dim, L.basis_labels, rebased(L.structure, range(dim), scales))
        images = tuple(im.matrix.scale(c) for im, c in zip(rho.images, scales))
        rho = Representation(L, levi, rho.space, images)
        fractions = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
        z = [F(0)] * dim
        for k in levi.nilrad_indices:
            z[k] = data.draw(fractions)
        h_part = data.draw(fractions.filter(bool) | st.just(F(0)))
        z[levi.levi_indices[1]] = h_part
        try:
            expected = dense_conjugation_report(rho, z)
        except ValueError:
            with pytest.raises(ValueError) as info:
                conjugate_levi_check(rho, z)
            want = "ad(z) is not nilpotent; conjugation undefined" if h_part else "matrix is not nilpotent"
            assert str(info.value) == want, name
            return
        assert not h_part
        assert conjugate_levi_check(rho, z) == expected, name

    def test_out_of_range_levi_index_raises(self):
        # column s of exp(ad z) is read by index: -1 must not wrap around,
        # so no representation with it reaches the conjugation check
        rho = adjoint_of_sl2_lambda(1)
        for s in (-1, 5):
            levi = LeviData((0, 1, s), rho.levi.radical_indices, rho.levi.nilrad_indices)
            with pytest.raises(IndexError, match=f"index {s} out of range"):
                moved = Representation(rho.algebra, levi, rho.space, rho.images)
                conjugate_levi_check(moved, unit_vector(5, 3))

    def test_zero_element_reproduces_original_verdict(self):
        rho = adjoint_of_sl2_lambda(2)
        z = tuple(F(0) for _ in range(rho.algebra.dim))
        report = conjugate_levi_check(rho, z)
        base = verify_triangular_conditions(rho)
        assert report["triangular_all"] == base["triangular_all"]
        assert report["condition_i"] == base["condition_i"]
        assert report["condition_ii"] == base["condition_ii"]

    def test_failure_witnesses_match_direct_check(self):
        bad = nilpotent_image_plus_identity()
        report = conjugate_levi_check(bad, tuple(F(0) for _ in range(5)))
        assert not report["all_pass"]
        base = verify_triangular_conditions(bad)
        assert report["witnesses"]["condition_ii"] == base["witnesses"]["condition_ii"]

    def test_passing_report_keys(self):
        rho = adjoint_of_sl2_lambda(1)
        report = conjugate_levi_check(rho, unit_vector(5, 3))
        assert list(report) == [
            "triangular_all",
            "condition_i",
            "condition_ii",
            "conjugated_levi_basis",
            "all_pass",
        ]

    def test_non_nilpotent_element_rejected(self):
        rho = adjoint_of_sl2_lambda(1)
        with pytest.raises(ValueError, match=r"^ad\(z\) is not nilpotent; conjugation undefined$"):
            conjugate_levi_check(rho, unit_vector(5, 1))  # ad(h) semisimple
        # ad z0 is nilpotent, but z0's image plus I is not
        with pytest.raises(ValueError, match="^matrix is not nilpotent$"):
            conjugate_levi_check(nilpotent_image_plus_identity(), unit_vector(5, 3))

    def test_exp_restores_after_negation(self):
        rho = adjoint_of_sl2_lambda(2)
        from trilie.liealg import ad_matrix

        z = unit_vector(rho.algebra.dim, 4)
        forward = exp_nilpotent(ad_matrix(rho.algebra, z))
        back = exp_nilpotent(ad_matrix(rho.algebra, tuple(-c for c in z)))
        assert_clean(forward)
        assert_clean(back)
        assert forward @ back == RatMatrix.identity(rho.algebra.dim)

    @pytest.mark.parametrize("lam", (1, 2, 3))
    def test_nilradical_images_square_to_zero(self, lam):
        # conditions (i)+(ii) with two nonzero components force rho(z)^2 = 0
        rho = adjoint_of_sl2_lambda(lam)
        for zi in rho.levi.nilrad_indices:
            assert mat_power(rho.images[zi].matrix, 2).is_zero()
