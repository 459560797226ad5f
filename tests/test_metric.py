import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkit.metric import (TRIANGLE_TOL, Cover, EmptySet, MetricValidationError,
                         NegativeDistance, NonFinite, NonSymmetric, NonzeroDiagonal,
                         TriangleViolation, UnboundedCover, space_from_points,
                         validate_metric)


def reference_first_violation(m):
    """The row-major scan validate_metric must agree with: the class and
    indices of the first violation, or None."""
    n = m.shape[0]
    for i in range(n):
        if m[i, i] != 0.0:
            return NonzeroDiagonal, (i,)
    for i in range(n):
        for j in range(i + 1, n):
            if m[i, j] != m[j, i]:
                return NonSymmetric, (i, j)
            if m[i, j] < 0.0:
                return NegativeDistance, (i, j)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            tol = TRIANGLE_TOL * max(1.0, float(m[i, j]))
            for k in range(n):
                if k == i or k == j:
                    continue
                if m[i, j] > m[i, k] + m[k, j] + tol:
                    return TriangleViolation, (i, j, k)
    return None


def raised(m):
    try:
        validate_metric(m)
    except MetricValidationError as err:
        return type(err), tuple(getattr(err, a) for a in "ijk" if hasattr(err, a))
    return None


class TestValidateMetric:
    def test_two_point_space(self):
        space = validate_metric([[0, 1], [1, 0]])
        assert space.n_points == 2
        assert space.d(0, 1) == 1.0

    def test_all_zero_matrix_is_accepted(self):
        space = validate_metric(np.zeros((3, 3)))
        assert space.n_points == 3 and space.diam_of(range(3)) == 0.0

    def test_negative_zeros_are_stored_as_positive_zeros(self):
        given = np.array([[-0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [1.0, 1.0, -0.0]])
        space = validate_metric(given)
        assert math.copysign(1.0, space.diam_of((0,))) == 1.0
        assert math.copysign(1.0, space.d(0, 1)) == 1.0
        assert not np.signbit(space.dist).any()
        assert np.signbit(given).sum() == 4         # the caller's matrix is left alone

    def test_triangle_violation_names_the_triple(self):
        with pytest.raises(TriangleViolation) as err:
            validate_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        # d(0,2) = 3 > 1 + 1 via waypoint 1
        assert (err.value.i, err.value.j, err.value.k) == (0, 2, 1)

    def test_nonsymmetric(self):
        with pytest.raises(NonSymmetric):
            validate_metric([[0, 1], [2, 0]])

    def test_negative(self):
        with pytest.raises(NegativeDistance):
            validate_metric([[0, -1], [-1, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            validate_metric([[1, 1], [1, 0]])

    def test_collinear_grid_points_validate(self):
        # true equality cases of the triangle inequality may round 1 ulp over
        space_from_points([[0, 0], [1, 1], [2, 2], [3, 3]])

    def test_first_violation_matches_the_reference_scan(self, rng):
        kinds = ["diagonal", "asymmetric", "negative", "stretch", "shrink"]
        seen = set()
        for trial in range(200):
            n = int(rng.integers(3, 10))
            m = space_from_points(rng.uniform(0, 2, size=(n, 2))).dist.copy()
            for _ in range(int(rng.integers(1, 4))):
                i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
                kind = kinds[int(rng.integers(len(kinds)))]
                if kind == "diagonal":
                    m[i, i] = 0.5
                elif kind == "asymmetric":
                    m[i, j] += 1e-9
                elif kind == "negative":
                    m[i, j] = m[j, i] = -0.25
                else:   # break the triangle inequality from above or below
                    m[i, j] = m[j, i] = m[i, j] * (4.0 if kind == "stretch" else 0.01)
            want = reference_first_violation(m)
            assert raised(m) == want
            seen.add(None if want is None else want[0])
        assert seen >= {NonzeroDiagonal, NonSymmetric, NegativeDistance, TriangleViolation}

    def test_non_finite_entries_are_named(self):
        with pytest.raises(NonFinite, match=r"dist\[0\]\[1\] = nan"):
            validate_metric([[0, float("nan")], [float("nan"), 0]])
        with pytest.raises(NonFinite, match=r"coords\[1\]\[0\] = inf") as err:
            space_from_points([[0.0, 0.0], [math.inf, 1.0]])
        assert err.value.index == (1, 0)

    @given(st.integers(2, 8), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_random_clouds_validate(self, n, seed):
        rng = np.random.default_rng(seed)
        space = space_from_points(rng.uniform(-1, 1, size=(n, 3)))
        assert space.n_points == n


def containing(cov, S):
    """Ids of the cover elements that contain the set S."""
    return [eid for eid, elem in enumerate(cov.elements) if set(S) <= elem]


class TestCoverMembership:
    def test_ball_cover_square_corners_uncovered(self, square):
        # best witness is a corner at max distance sqrt(2) >= 1.2
        cov = Cover.by_balls(square, 1.2)
        assert containing(cov, {0, 1, 2, 3}) == []

    def test_ball_cover_square_corners_covered_at_larger_radius(self, square):
        cov = Cover.by_balls(square, 1.5)
        assert containing(cov, {0, 1, 2, 3}) == [0, 1, 2, 3]

    def test_ball_at_exactly_the_radius_is_open(self, line3):
        # d(0, 1) = 1: the ball of radius 1 about 0 leaves 1 out
        cov = Cover.by_balls(line3, 1.0)
        assert cov.elements[0] == frozenset({0})
        assert cov.elements[1] == frozenset({1})

    def test_ball_cover_lists_one_element_per_centre(self, square):
        cov = Cover.by_balls(square, 1.2)
        assert len(cov.elements) == square.n_points
        assert all(cov.elements[z] == {x for x in square.points() if square.d(z, x) < 1.2}
                   for z in square.points())

    @pytest.mark.parametrize("r, error, message", [
        (0.0, ValueError, "r > 0"), (-1.0, ValueError, "r > 0"),
        (math.nan, ValueError, "r > 0"), (math.inf, UnboundedCover, "r must be finite")])
    def test_ball_radius_must_be_positive_and_finite(self, line3, r, error, message):
        with pytest.raises(error, match=message):
            Cover.by_balls(line3, r)

    def test_empty_cover_element_rejected(self, square):
        with pytest.raises(EmptySet):
            Cover.explicit(square, [[0, 1, 2, 3], []])

    def test_explicit_cover_must_cover(self, line3):
        with pytest.raises(ValueError):
            Cover.explicit(line3, [[0, 1]])

    def test_explicit_membership(self, line3):
        cov = Cover.explicit(line3, [[0, 1], [1, 2], [0, 1, 2]])
        assert containing(cov, {1}) == [0, 1, 2]
        assert containing(cov, {0, 2}) == [2]

    def test_membership_matches_bruteforce(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 10))
            space = space_from_points(rng.uniform(0, 2, size=(n, 2)))
            r = float(rng.uniform(0.3, 2.0))
            size = int(rng.integers(1, n + 1))
            S = sorted(rng.choice(n, size=size, replace=False).tolist())
            ball = Cover.by_balls(space, r)
            expect = [z for z in range(n)
                      if max(space.d(z, x) for x in S) < r]
            assert containing(ball, S) == expect
