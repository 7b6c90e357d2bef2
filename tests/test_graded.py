import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trilie.exact import RatMatrix, ShapeError
from trilie.graded import (
    GradedMap,
    GradedSpace,
    TriangularityError,
    block_support,
    degree_components,
    is_homogeneous,
    is_triangular,
)

from helpers import brute_block_support, mask_triangular, mat_power, seeded_triangular_map

F = Fraction


def gmap(dims, rows):
    return GradedMap(GradedSpace(dims), RatMatrix.from_rows(rows))


def stripe_sum(f):
    """The sum of f's degree stripes, as a matrix."""
    n = f.space.total_dim
    return sum((c.matrix for c in degree_components(f).values()), RatMatrix.zeros(n, n))


def closure_failures(f, g):
    """Which closure facts fail for the triangular maps f and g: their
    sum, composition and bracket are triangular, and the composition of
    the degree-j stripe of f with the degree-k stripe of g is
    homogeneous of degree j + k, and so zero when j + k reaches the
    number of components."""
    space = f.space
    failures = [
        name
        for name, h in (
            ("sum", f.matrix + g.matrix),
            ("composition", f.matrix @ g.matrix),
            ("bracket", f.bracket(g).matrix),
        )
        if not is_triangular(GradedMap(space, h))[0]
    ]
    for j, fj in degree_components(f).items():
        for k, gk in degree_components(g).items():
            if not is_homogeneous(GradedMap(space, fj.matrix @ gk.matrix), j + k):
                failures.append((j, k))
    return failures


class TestGradedSpace:
    def test_offsets_and_ranges(self):
        s = GradedSpace((2, 0, 3))
        assert s.total_dim == 5
        assert s.offsets == (0, 2, 2)
        assert list(s.component_range(0)) == [0, 1]
        assert list(s.component_range(1)) == []
        assert list(s.component_range(2)) == [2, 3, 4]

    def test_degree_of_index(self):
        # an index's degree, as block_support reads it for rows and
        # columns: the empty component 1 shares offset 1 with component 2
        s = GradedSpace((1, 0, 2))
        degree = [0, 2, 2]
        for r in range(3):
            for c in range(3):
                m = RatMatrix.from_rows([[int((i, j) == (r, c)) for j in range(3)]
                                         for i in range(3)])
                assert block_support(GradedMap(s, m)) == {(degree[c], degree[r])}
        # the space keeps no per-index table, so a huge one costs nothing
        huge = GradedSpace((10**30, 0, 1))
        assert huge.offsets == (0, 10**30, 10**30) and huge.total_dim == 10**30 + 1

    def test_rejects_negative_dims(self):
        with pytest.raises(ValueError):
            GradedSpace((1, -1))

    def test_matrix_shape_enforced(self):
        with pytest.raises(ShapeError):
            GradedMap(GradedSpace((1, 1)), RatMatrix.zeros(3, 3))


class TestTriangularity:
    def test_lower_block_is_triangular(self):
        f = gmap((1, 1), [[5, 0], [7, 3]])
        assert is_triangular(f) == (True, None)

    def test_degree_lowering_leak_with_witness(self):
        f = gmap((1, 1), [[5, 1], [0, 3]])
        assert is_triangular(f) == (False, (1, 0))

    def test_identity_is_triangular(self):
        f = GradedMap(GradedSpace((2, 1, 3)), RatMatrix.identity(6))
        assert is_triangular(f) == (True, None)

    def test_zero_dim_components_are_skipped(self):
        f = gmap((0, 1, 0, 1), [[1, 0], [4, 2]])
        assert is_triangular(f) == (True, None)
        g = gmap((0, 1, 0, 1), [[1, 8], [4, 2]])
        assert is_triangular(g) == (False, (3, 1))


class TestDegreeComponents:
    def test_three_stripes(self):
        f = gmap((1, 1, 1), [[1, 0, 0], [2, 3, 0], [4, 5, 6]])
        comps = degree_components(f)
        assert comps[0].matrix == RatMatrix.from_rows(
            [[1, 0, 0], [0, 3, 0], [0, 0, 6]]
        )
        assert comps[1].matrix == RatMatrix.from_rows(
            [[0, 0, 0], [2, 0, 0], [0, 5, 0]]
        )
        assert comps[2].matrix == RatMatrix.from_rows(
            [[0, 0, 0], [0, 0, 0], [4, 0, 0]]
        )

    def test_degree_zero_input(self):
        f = gmap((1, 2), [[7, 0, 0], [0, 1, 2], [0, 3, 4]])
        comps = degree_components(f)
        assert comps[0] == f
        assert comps[1].is_zero()

    def test_zero_map(self):
        f = GradedMap.zero(GradedSpace((1, 1, 1)))
        assert all(c.is_zero() for c in degree_components(f).values())

    def test_reconstruction(self):
        f = gmap((2, 1), [[1, 2, 0], [3, 4, 0], [5, 6, 7]])
        assert stripe_sum(f) == f.matrix

    def test_non_triangular_rejected(self):
        f = gmap((1, 1), [[0, 1], [0, 0]])
        with pytest.raises(TriangularityError):
            degree_components(f)

    def test_each_stripe_is_homogeneous(self):
        f = gmap((1, 1, 1), [[1, 0, 0], [2, 3, 0], [4, 5, 6]])
        for j, c in degree_components(f).items():
            assert is_homogeneous(c, j)

    def test_negative_degree_homogeneity(self):
        # answered by the rule for j >= 0: every entry lowers by exactly 1
        lowering = gmap((1, 1), [[0, 4], [0, 0]])
        assert is_homogeneous(lowering, -1)
        assert not is_homogeneous(lowering, 0)
        assert not is_homogeneous(gmap((1, 1), [[0, 4], [0, 1]]), -1)
        assert is_homogeneous(GradedMap.zero(GradedSpace((1, 1))), -2)


class TestNilpotency:
    # the positive-degree part of a triangular map on c components, f
    # minus its degree-0 stripe, raises degree, so its c-th power is 0
    def test_strictly_triangular_2x2(self):
        f = gmap((1, 1), [[0, 0], [5, 0]])
        assert not f.matrix.is_zero()
        assert mat_power(f.matrix, 2).is_zero()

    def test_positive_degree_cube_vanishes_on_three_components(self):
        f = gmap((1, 1, 1), [[0, 0, 0], [2, 0, 0], [4, 5, 0]])
        assert degree_components(f)[0].is_zero()
        assert mat_power(f.matrix, 3).is_zero()

    def test_positive_degree_power_bound(self):
        # degree-0 blocks removed => f^(number of nonzero components) = 0
        rng = random.Random(1234)
        for _ in range(20):
            f = seeded_triangular_map(rng)
            g = f.matrix - degree_components(f)[0].matrix
            c = sum(1 for d in f.space.component_dims if d > 0)
            assert mat_power(g, max(c, 1)).is_zero()


class TestClosure:
    def test_homogeneous_composition_adds_degrees(self):
        f = gmap((1, 1, 1), [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        comps = degree_components(f)
        square = GradedMap(f.space, comps[1].matrix @ comps[1].matrix)
        assert is_homogeneous(square, 2)
        assert not square.is_zero()

    def test_degree_zero_commutator_stays_degree_zero(self):
        f = gmap((1, 1), [[1, 0], [0, 2]])
        g = gmap((1, 1), [[0, 0], [0, 5]])
        assert is_homogeneous(f.bracket(g), 0)

    def test_report_on_random_pairs(self):
        rng = random.Random(99)
        for _ in range(15):
            f = seeded_triangular_map(rng)
            g = mask_triangular(
                f.space,
                RatMatrix(
                    f.space.total_dim,
                    f.space.total_dim,
                    [F(rng.randint(-3, 3)) for _ in range(f.space.total_dim ** 2)],
                ),
            )
            assert not closure_failures(f, g)


@st.composite
def triangular_pairs(draw):
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    space = GradedSpace(dims)
    n = space.total_dim
    ratval = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    d1 = draw(st.lists(ratval, min_size=n * n, max_size=n * n))
    d2 = draw(st.lists(ratval, min_size=n * n, max_size=n * n))
    return (
        mask_triangular(space, RatMatrix(n, n, d1)),
        mask_triangular(space, RatMatrix(n, n, d2)),
    )


class TestClosureProperties:
    @given(triangular_pairs())
    @settings(max_examples=40)
    def test_closure_holds(self, pair):
        f, g = pair
        assert not closure_failures(f, g)

    @given(triangular_pairs())
    @settings(max_examples=40)
    def test_stripe_decomposition_reconstructs(self, pair):
        f, _ = pair
        assert stripe_sum(f) == f.matrix


@st.composite
def graded_maps(draw):
    """A random graded space (empty and single components included) and
    a sparse rational map on it, with its lowering blocks cleared half
    of the time."""
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    space = GradedSpace(dims)
    n = space.total_dim
    entry = st.one_of(
        st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3)
    )
    m = RatMatrix(n, n, draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    if draw(st.booleans()):
        return mask_triangular(space, m)
    return GradedMap(space, m)


class TestBlockSupportOracle:
    @given(graded_maps())
    @settings(max_examples=150)
    def test_predicates_match_dense_scan(self, f):
        dims = list(f.space.component_dims)
        rows = f.matrix.to_lists()
        support = brute_block_support(dims, rows)
        assert block_support(f) == support
        lowering = sorted(p for p in support if p[1] < p[0])
        witness = lowering[0] if lowering else None
        assert is_triangular(f) == (witness is None, witness)
        c = f.space.num_components
        for j in range(-c, c + 1):
            assert is_homogeneous(f, j) == all(t - s == j for s, t in support)
        if witness is not None:
            with pytest.raises(TriangularityError, match=f"block {witness[0]} -> {witness[1]}"):
                degree_components(f)
            return
        comps = degree_components(f)
        assert sorted(comps) == list(range(c))
        degree = [k for k, d in enumerate(dims) for _ in range(d)]
        for j, stripe in comps.items():
            assert stripe.space == f.space
            assert stripe.matrix.to_lists() == [
                [x if degree[r] - degree[q] == j else 0 for q, x in enumerate(row)]
                for r, row in enumerate(rows)
            ]
