import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkit import measures
from vkit.measures import FiniteMeasure, barycentric_distance, convex_combine, dirac, wasserstein
from vkit.metric import space_from_points, validate_metric
from vkit.oracles import wasserstein_bruteforce
from vkit.verify import random_measure, random_space

from common_mass import common_mass_coupling, off_diagonal_mass


def assert_vertex_plan(plan):
    """A vertex of the transportation polytope: the positive cells number
    at most m + n - 1 and form a forest of the rows x columns graph."""
    m, n = plan.mass.shape
    cells = list(zip(*np.nonzero(plan.mass > 0.0)))
    assert len(cells) <= m + n - 1
    root = list(range(m + n))           # union-find over rows, then columns

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j in cells:
        ri, rj = find(int(i)), find(m + int(j))
        assert ri != rj, f"positive cells close a cycle at ({i}, {j})"
        root[ri] = rj


def uniform(space, support):
    return FiniteMeasure(space, tuple(support), (1.0 / len(support),) * len(support))


# every distance 1: all plans of equal mass movement cost the same
TETRAHEDRON = validate_metric([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
SQUARE = space_from_points([[0, 0], [1, 0], [1, 1], [0, 1]])

DEGENERATE_PAIRS = {
    "uniform-square-opposite-sides": (uniform(SQUARE, [0, 1]), uniform(SQUARE, [2, 3])),
    "uniform-square-all-vs-pair": (uniform(SQUARE, [0, 1, 2, 3]), uniform(SQUARE, [1, 3])),
    "uniform-square-all-vs-all": (uniform(SQUARE, [0, 1, 2, 3]), uniform(SQUARE, [0, 1, 2, 3])),
    "square-diracs": (dirac(SQUARE, 0), dirac(SQUARE, 2)),
    "tetrahedron-disjoint-halves": (uniform(TETRAHEDRON, [0, 1]), uniform(TETRAHEDRON, [2, 3])),
    "tetrahedron-all-vs-dirac": (uniform(TETRAHEDRON, [0, 1, 2, 3]), dirac(TETRAHEDRON, 3)),
    "tetrahedron-all-vs-triple": (uniform(TETRAHEDRON, [0, 1, 2, 3]),
                                  uniform(TETRAHEDRON, [1, 2, 3])),
    "square-permuted-weights": (FiniteMeasure(SQUARE, (0, 1, 2, 3), (0.1, 0.2, 0.3, 0.4)),
                                FiniteMeasure(SQUARE, (0, 1, 2, 3), (0.4, 0.3, 0.2, 0.1))),
    "tetrahedron-permuted-weights": (
        FiniteMeasure(TETRAHEDRON, (0, 1, 2, 3), (0.25, 0.25, 0.125, 0.375)),
        FiniteMeasure(TETRAHEDRON, (0, 1, 2, 3), (0.125, 0.375, 0.25, 0.25))),
}


class TestFiniteMeasure:
    def test_dirac(self, line3):
        mu = dirac(line3, 1)
        assert mu.support == (1,) and mu.weights == (1.0,)

    def test_weights_must_be_positive(self, line3):
        with pytest.raises(ValueError):
            FiniteMeasure(line3, (0, 1), (1.5, -0.5))

    def test_support_must_be_distinct(self, line3):
        with pytest.raises(ValueError):
            FiniteMeasure(line3, (0, 0), (0.5, 0.5))

    def test_renormalizes_small_drift(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5 + 2e-10, 0.5))
        assert math.fsum(mu.weights) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self, line3):
        with pytest.raises(ValueError):
            FiniteMeasure(line3, (0, 1), (0.6, 0.5))

    def test_zero_weights_pruned(self, line3):
        mu = FiniteMeasure(line3, (0, 1, 2), (0.5, 0.0, 0.5))
        assert mu.support == (0, 2)

    @pytest.mark.parametrize("support", [(0, 99), (0, -1)])
    def test_zero_weight_index_is_range_checked_before_it_drops(self, line3, support):
        with pytest.raises(IndexError, match=f"support index {support[1]} out of range"):
            FiniteMeasure(line3, support, (1.0, 0.0))


class TestConvexCombine:
    def test_endpoints_exact(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.3, 0.7))
        nu = dirac(line3, 2)
        assert convex_combine(mu, nu, 0.0) == mu
        assert convex_combine(mu, nu, 1.0) == nu

    def test_quarter_mix_of_diracs(self, line3):
        out = convex_combine(dirac(line3, 0), dirac(line3, 1), 0.25)
        assert out.support == (0, 1)
        assert out.weights == (0.75, 0.25)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_associativity_in_the_measure_sense(self, t, s):
        line = space_from_points([[0.0], [1.0], [2.0]])
        mu = FiniteMeasure(line, (0, 1), (0.5, 0.5))
        nu = FiniteMeasure(line, (1, 2), (0.25, 0.75))
        lhs = convex_combine(convex_combine(mu, nu, t), nu, s)
        c = (1 - t) * (1 - s)
        rhs_w = {x: c * mu.weight_of(x) + (1 - c) * nu.weight_of(x) for x in range(3)}
        for x in range(3):
            assert lhs.weight_of(x) == pytest.approx(rhs_w[x], abs=1e-12)


class TestWasserstein:
    def test_diracs_recover_the_metric(self, square):
        for i in range(4):
            for j in range(4):
                d, plan = wasserstein(dirac(square, i), dirac(square, j))
                assert abs(d - square.d(i, j)) <= 1e-12
                assert_vertex_plan(plan)

    def test_split_mass_to_midpoint(self, line3):
        # oracle-verified: both half masses travel distance 1
        mu = FiniteMeasure(line3, (0, 2), (0.5, 0.5))
        nu = dirac(line3, 1)
        d, plan = wasserstein(mu, nu)
        assert d == pytest.approx(1.0, abs=1e-12)
        assert d == pytest.approx(wasserstein_bruteforce(mu, nu), abs=1e-12)
        plan.check_marginals(mu, nu)
        assert_vertex_plan(plan)

    def test_identical_measures_give_zero_diagonal_plan(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.4, 0.6))
        d, plan = wasserstein(mu, mu)
        assert d <= 1e-12
        assert off_diagonal_mass(plan) <= 1e-12
        assert_vertex_plan(plan)

    def test_symmetric_by_construction(self, rng):
        for _ in range(20):
            space = random_space(rng)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            assert wasserstein(mu, nu)[0] == wasserstein(nu, mu)[0]

    def test_matches_bruteforce_vertex_enumeration(self, rng):
        for _ in range(40):
            space = random_space(rng, max_points=8)
            mu = random_measure(rng, space, max_support=4)
            nu = random_measure(rng, space, max_support=4)
            lp, plan = wasserstein(mu, nu)
            plan.check_marginals(mu, nu)
            assert_vertex_plan(plan)
            assert lp == pytest.approx(wasserstein_bruteforce(mu, nu), abs=1e-9)

    def test_optimal_plan_is_a_polytope_vertex(self, rng):
        for _ in range(200):
            space = random_space(rng)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            for plan in (wasserstein(mu, nu)[1], wasserstein(nu, mu)[1]):
                assert_vertex_plan(plan)

    @pytest.mark.parametrize("name", sorted(DEGENERATE_PAIRS))
    def test_degenerate_inputs_terminate_at_the_optimum(self, name):
        mu, nu = DEGENERATE_PAIRS[name]
        d, plan = wasserstein(mu, nu)
        plan.check_marginals(mu, nu)
        assert_vertex_plan(plan)
        assert abs(d - wasserstein_bruteforce(mu, nu)) <= 1e-9

    def test_pivot_cap_raises(self, monkeypatch):
        # the north-west corner pairs 0 -> 2 and 1 -> 3 (cost sqrt 2); the
        # optimum crosses over (cost 1), so reaching it takes a pivot
        mu, nu = DEGENERATE_PAIRS["uniform-square-opposite-sides"]
        assert wasserstein(mu, nu)[0] == pytest.approx(1.0, abs=1e-12)
        monkeypatch.setattr(measures, "MAX_PIVOTS", 0)
        with pytest.raises(RuntimeError, match="exceeded 0 pivots"):
            wasserstein(mu, nu)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_oracle_on_tied_distances(self, data):
        # distinct points of a small integer grid: many distances tie
        grid = [(x, y) for x in range(3) for y in range(3)]
        points = data.draw(st.lists(st.sampled_from(grid), min_size=1, max_size=6, unique=True))
        space = space_from_points([list(p) for p in points])

        def measure():
            support = data.draw(st.lists(st.integers(0, len(points) - 1),
                                         min_size=1, max_size=4, unique=True))
            counts = data.draw(st.lists(st.integers(1, 4), min_size=len(support),
                                        max_size=len(support)))
            total = sum(counts)
            return FiniteMeasure(space, tuple(sorted(support)),
                                 tuple(c / total for c in counts))

        mu, nu = measure(), measure()
        d_ab, plan_ab = wasserstein(mu, nu)
        d_ba, plan_ba = wasserstein(nu, mu)
        d_self, plan_self = wasserstein(mu, mu)
        assert abs(d_ab - wasserstein_bruteforce(mu, nu)) <= 1e-9
        assert d_ab == d_ba
        assert d_self <= 1e-12
        plan_ab.check_marginals(mu, nu)
        plan_ba.check_marginals(nu, mu)
        plan_self.check_marginals(mu, mu)

    def test_triangle_inequality_randomized(self, rng):
        for _ in range(40):
            space = random_space(rng)
            mu, nu, rho = (random_measure(rng, space) for _ in range(3))
            d_ab, _ = wasserstein(mu, nu)
            d_bc, _ = wasserstein(nu, rho)
            d_ac, _ = wasserstein(mu, rho)
            assert d_ac <= d_ab + d_bc + 1e-9


class TestCommonMassCoupling:
    def test_identical_measures(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.4, 0.6))
        plan = common_mass_coupling(mu, mu)
        plan.check_marginals(mu, mu)
        assert off_diagonal_mass(plan) == 0.0

    def test_disjoint_diracs(self, line3):
        mu, nu = dirac(line3, 0), dirac(line3, 2)
        plan = common_mass_coupling(mu, nu)
        assert off_diagonal_mass(plan) == 1.0
        assert plan.mass[0, 0] == 1.0  # the only cell is (0 -> 2)

    def test_partial_overlap(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        nu = dirac(line3, 0)
        plan = common_mass_coupling(mu, nu)
        plan.check_marginals(mu, nu)
        assert plan.mass[0, 0] == 0.5          # diagonal (0, 0)
        assert plan.mass[1, 0] == 0.5          # 1 -> 0 remainder
        assert off_diagonal_mass(plan) == 0.5
        assert off_diagonal_mass(plan) == barycentric_distance(mu, nu) / 2

    def test_off_diagonal_mass_is_half_l1_randomized(self, rng):
        for _ in range(30):
            space = random_space(rng)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            plan = common_mass_coupling(mu, nu)
            plan.check_marginals(mu, nu)
            assert off_diagonal_mass(plan) == pytest.approx(
                barycentric_distance(mu, nu) / 2, abs=1e-12)


class TestBarycentricDistance:
    def test_identical(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        assert barycentric_distance(mu, mu) == 0.0

    def test_disjoint_supports(self, line3):
        assert barycentric_distance(dirac(line3, 0), dirac(line3, 2)) == 2.0

    def test_half_overlap(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        assert barycentric_distance(mu, dirac(line3, 0)) == 1.0

    def test_dirac_pair_in_barycentric_metric(self, line3):
        assert barycentric_distance(dirac(line3, 0), dirac(line3, 1)) == 2.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_range_is_zero_to_two(self, seed):
        rng = np.random.default_rng(seed)
        space = random_space(rng)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        assert 0.0 <= barycentric_distance(mu, nu) <= 2.0 + 1e-12
