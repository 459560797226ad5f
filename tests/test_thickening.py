import math

import numpy as np
import pytest

from vkit.measures import FiniteMeasure, ZeroMass, dirac, stored_rows
from vkit.metric import space_from_points, validate_metric
from vkit.thickening import (DegenerateGap, NoMCP, build_bump, compare_metrics, pump,
                             pump_coordinate, pump_homotopy, pump_rows, shrink_to_inner)
from vkit.verify import random_bump, random_measure, random_space

from common_mass import common_mass_coupling


class TestBuildBump:
    def test_whole_space_is_constant_one(self, line3):
        phi = build_bump(line3, {0, 1, 2}, {0, 1, 2})
        assert phi.values == (1.0, 1.0, 1.0)
        assert phi.lipschitz == 0.0

    def test_clamped_distance_profile(self, line3):
        # gap = d({0}, {2}) = 2; point 1 sits at distance 1 from the zero set
        phi = build_bump(line3, {0}, {0, 1})
        assert phi.values == (1.0, 0.5, 0.0)
        assert phi.lipschitz == 0.5

    def test_zero_exactly_off_target(self, rng):
        for _ in range(20):
            space = random_space(rng)
            phi = random_bump(rng, space)
            for x in space.points():
                assert (phi(x) == 0.0) == (x not in phi.target)
            phi.check()

    def test_degenerate_gap(self):
        space = validate_metric(np.zeros((2, 2)))
        with pytest.raises(DegenerateGap):
            build_bump(space, {0}, {0})


class TestPump:
    def test_constant_one_bump_is_identity_object(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        phi = build_bump(line3, {0, 1, 2}, {0, 1, 2})
        assert pump(mu, phi) is mu

    def test_kills_masked_points(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        phi = build_bump(line3, {0}, {0})
        assert pump(mu, phi) == dirac(line3, 0)

    def test_reweighting_formula(self):
        # phi = (1, 0.5): 0.6/0.8 and 0.2/0.8
        space = space_from_points([[0.0], [1.0], [2.0]])
        mu = FiniteMeasure(space, (0, 1), (0.6, 0.4))
        phi = build_bump(space, {0}, {0, 1})
        out = pump(mu, phi)
        assert out.weights == pytest.approx((0.75, 0.25), abs=1e-15)

    def test_zero_mass(self, line3):
        mu = dirac(line3, 2)
        phi = build_bump(line3, {0}, {0})
        with pytest.raises(ZeroMass):
            pump(mu, phi)

    def test_support_shrinks_into_bump_support(self, rng):
        for _ in range(40):
            space = random_space(rng)
            mu = random_measure(rng, space)
            phi = random_bump(rng, space, must_include=int(mu.support[0]))
            out = pump(mu, phi)
            positive = frozenset(x for x in space.points() if phi(x) > 0.0)
            assert out.support_set() <= (mu.support_set() & positive)

    def test_idempotent_on_plateau_measures(self, rng):
        for _ in range(20):
            space = random_space(rng)
            mu = random_measure(rng, space)
            phi = build_bump(space, mu.support_set(), mu.support_set())
            assert pump(mu, phi) is mu


class TestPumpCoordinate:
    def test_off_support_is_zero(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.6, 0.4))
        phi = build_bump(line3, {0}, {0, 1})
        assert pump_coordinate(mu, phi, 2) == 0.0

    def test_matches_formula_value(self):
        space = space_from_points([[0.0], [1.0], [2.0]])
        mu = FiniteMeasure(space, (0, 1), (0.6, 0.4))
        phi = build_bump(space, {0}, {0, 1})
        assert pump_coordinate(mu, phi, 0) == pytest.approx(0.75, abs=1e-15)

    def test_constant_bump_cancels(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.6, 0.4))
        phi = build_bump(line3, {0, 1, 2}, {0, 1, 2})
        assert pump_coordinate(mu, phi, 0) == mu.weight_of(0)

    def test_exactly_equals_weight_after_pump(self, rng):
        for _ in range(60):
            space = random_space(rng)
            mu = random_measure(rng, space)
            phi = random_bump(rng, space, must_include=int(mu.support[0]))
            out = pump(mu, phi)
            for v in space.points():
                assert pump_coordinate(mu, phi, v) == out.weight_of(v)


class TestPumpRows:
    def test_each_row_is_the_pumped_measure_bit_for_bit(self, rng):
        fixed = 0
        for _ in range(200):
            space = random_space(rng)
            mus = [random_measure(rng, space) for _ in range(4)]
            phi = random_bump(rng, space, must_include=int(mus[0].support[0]))
            mus = [mu for mu in mus if any(phi(x) > 0.0 for x in mu.support)]
            rows = np.zeros((len(mus), space.n_points))
            for row, mu in zip(rows, mus):
                row[list(mu.support)] = mu.weights
            pumped, errors = stored_rows(pump_rows(rows, np.array(phi.values)))
            assert not errors
            for row, mu in zip(pumped, mus):
                out = pump(mu, phi)
                fixed += out is mu
                assert [x.hex() for x in row] == [out.weight_of(x).hex()
                                                  for x in space.points()]
        assert fixed


class TestPumpHomotopy:
    def test_endpoints(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        phi = build_bump(line3, {0}, {0})
        assert pump_homotopy(mu, phi, [0.0, 1.0]) == ((0.0, mu), (1.0, pump(mu, phi)))

    def test_midpoint(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        phi = build_bump(line3, {0}, {0})
        [(_, out)] = pump_homotopy(mu, phi, [0.5])
        assert out.weight_of(0) == pytest.approx(0.75, abs=1e-15)
        assert out.weight_of(1) == pytest.approx(0.25, abs=1e-15)

    def test_stays_inside_u_when_started_inside(self, rng):
        for _ in range(20):
            space = random_space(rng)
            mu = random_measure(rng, space)
            phi = random_bump(rng, space, must_include=int(mu.support[0]))
            U = mu.support_set() | phi.target
            for t, out in pump_homotopy(mu, phi, (0.0, 0.25, 0.5, 0.75, 1.0)):
                assert out.support_set() <= mu.support_set()
                assert out.support_set() <= frozenset(U)


class TestShrinkToInner:
    def test_whole_space_resolves_immediately(self, line3):
        i, inner = shrink_to_inner(dirac(line3, 0), 0.5, {0, 1, 2})
        assert i == 1 and inner == frozenset({0, 1, 2})

    def test_gap_half_needs_index_three(self):
        space = space_from_points([[0.0], [0.5]])
        i, inner = shrink_to_inner(dirac(space, 0), 0.5, {0})
        assert i == 3 and inner == frozenset({0})

    def test_two_point_mass_example(self):
        # d(a, U^C) = 1, d(b, U^C) = 0.1: index 2 captures only a, whose
        # mass 0.9 already clears the 0.85 threshold
        space = space_from_points([[0.0], [0.9], [1.0]])
        mu = FiniteMeasure(space, (0, 1), (0.9, 0.1))
        i, inner = shrink_to_inner(mu, 0.85, {0, 1})
        assert i == 2 and inner == frozenset({0})

    def test_no_mcp(self, line3):
        mu = FiniteMeasure(line3, (0, 2), (0.5, 0.5))
        with pytest.raises(NoMCP):
            shrink_to_inner(mu, 0.8, {0})

    def test_mass_exactly_p_does_not_concentrate(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.85, 0.15))
        assert shrink_to_inner(mu, 0.8, {0})[1] == frozenset({0})
        with pytest.raises(NoMCP):
            shrink_to_inner(mu, 0.85, {0})

    def test_dirac_always_concentrates(self, line3):
        assert shrink_to_inner(dirac(line3, 0), 0.999, {0})[1] == frozenset({0})

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_outside_the_unit_interval_is_refused(self, line3, p):
        with pytest.raises(ValueError, match="threshold p must lie in"):
            shrink_to_inner(dirac(line3, 0), p, {0})

    def test_result_is_separated_from_complement(self, rng):
        for _ in range(20):
            space = random_space(rng)
            mu = random_measure(rng, space)
            U = set(mu.support)
            p = 0.9 * min(1.0, mu.mass_of(U))
            if not mu.mass_of(U) > p:
                continue
            i, inner = shrink_to_inner(mu, p, U)
            comp = [y for y in space.points() if y not in U]
            if comp:
                gap = min(space.d(x, y) for x in inner for y in comp)
                assert gap > 1.0 / i or math.isinf(gap)


class TestCompareMetrics:
    def test_identical(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        rep = compare_metrics(mu, mu)
        assert rep == type(rep)(0.0, 0.0, 0.0, True)

    def test_diracs_make_the_bound_tight(self, line3):
        rep = compare_metrics(dirac(line3, 0), dirac(line3, 2))
        assert rep.d_m == 2.0
        assert rep.bound == pytest.approx(2.0, abs=1e-12)
        assert rep.d_w == pytest.approx(2.0, abs=1e-12)
        assert rep.holds

    def test_holds_on_overlapping_supports(self, rng):
        from vkit.verify import overlapping_measures
        for _ in range(50):
            space = random_space(rng)
            mu, nu = overlapping_measures(rng, space)
            assert compare_metrics(mu, nu).holds

    def test_common_mass_plan_witnesses_the_bound(self, rng):
        # d_W <= cost of the plan keeping the common mass in place <= bound
        for _ in range(50):
            space = random_space(rng)
            mu, nu = random_measure(rng, space), random_measure(rng, space)
            plan = common_mass_coupling(mu, nu)
            plan.check_marginals(mu, nu)
            rep = compare_metrics(mu, nu)
            cost = float((plan.mass * space.dist[np.ix_(plan.rows, plan.cols)]).sum())
            assert rep.d_w <= cost + 1e-9
            assert cost <= rep.bound + 1e-9
