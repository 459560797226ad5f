import math
from itertools import combinations

import numpy as np
import pytest

from vkit import complexes
from vkit.complexes import ComplexTooLarge, build_cech, build_vietoris, build_vr
from vkit.metric import Cover, space_from_points
from vkit.oracles import cech_subset_scan, vr_subset_scan
from vkit.verify import random_space


def dim_count(K, d):
    return sum(1 for s in K.simplices if len(s) == d + 1)


class TestBuildVR:
    def test_equilateral_at_side_length_is_edge_free(self, equilateral):
        K = build_vr(equilateral, 1.0, 2)
        assert dim_count(K, 0) == 3
        assert dim_count(K, 1) == 0

    def test_equilateral_just_above_side_fills(self, equilateral):
        K = build_vr(equilateral, 1.01, 2)
        assert (0, 1, 2) in K.simplices
        assert K.simplices[(0, 1)] == pytest.approx(1.0, abs=1e-12)

    def test_square_below_diagonal_keeps_the_cycle_open(self, square):
        K = build_vr(square, 1.2, 2)
        assert dim_count(K, 0) == 4
        assert dim_count(K, 1) == 4
        assert dim_count(K, 2) == 0

    def test_nonpositive_threshold_gives_empty_complex(self, square):
        assert len(build_vr(square, 0.0, 2)) == 0
        assert len(build_vr(square, -1.0, 2)) == 0

    def test_matches_subset_scan(self, rng):
        for _ in range(25):
            space = random_space(rng, max_points=8)
            r = float(rng.uniform(0.2, 2.5))
            K = build_vr(space, r, 4)
            assert dict(K.simplices) == vr_subset_scan(space, r, 4)
            K.check_face_closure()

    def test_monotone_in_r(self, rng):
        for _ in range(15):
            space = random_space(rng, max_points=8)
            r1 = float(rng.uniform(0.2, 1.5))
            r2 = r1 + float(rng.uniform(0.0, 1.0))
            assert set(build_vr(space, r1, 3).simplices) <= \
                set(build_vr(space, r2, 3).simplices)


class TestBuildCech:
    def test_vertices_enter_at_zero(self, square):
        K = build_cech(square, 0.5, 2)
        assert K.simplices[(0,)] == 0.0

    def test_square_full_simplex_needs_the_diagonal(self, square):
        K = build_cech(square, 2.0, 3)
        assert K.simplices[(0, 1, 2, 3)] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_witness_must_lie_in_the_space(self):
        two = space_from_points([[0.0], [2.0]])
        three = space_from_points([[0.0], [1.0], [2.0]])
        assert build_cech(two, 3.0, 1).simplices[(0, 1)] == 2.0
        assert build_cech(three, 3.0, 1).simplices[(0, 2)] == 1.0

    def test_matches_subset_scan(self, rng):
        for _ in range(20):
            space = random_space(rng, max_points=8)
            r = float(rng.uniform(0.2, 2.0))
            K = build_cech(space, r, 3)
            assert dict(K.simplices) == cech_subset_scan(space, r, 3)

    def test_cech_inside_vr_at_doubled_scale(self, rng):
        for _ in range(20):
            space = random_space(rng, max_points=8)
            r = float(rng.uniform(0.2, 2.0))
            C = build_cech(space, r, 3)
            V = build_vr(space, 2.0 * r, 3)
            assert set(C.simplices) <= set(V.simplices)


class TestExpansionAtTwelvePoints:
    """Both builders share one expansion; check it past the small random
    spaces above, where cliques of four vertices are common."""

    @pytest.mark.parametrize("r", [0.9, 1.4, math.inf])
    def test_vr_matches_subset_scan(self, rng, r):
        space = random_space(rng, min_points=12, max_points=12)
        assert dict(build_vr(space, r, 3).simplices) == vr_subset_scan(space, r, 3)

    @pytest.mark.parametrize("r", [0.6, 1.0, math.inf])
    def test_cech_matches_subset_scan(self, rng, r):
        space = random_space(rng, min_points=12, max_points=12)
        assert dict(build_cech(space, r, 3).simplices) == cech_subset_scan(space, r, 3)

    def test_guard_counts_candidates_before_building(self, rng, monkeypatch):
        # 10 points at r = inf: 45 edges, 120 triangles, 210 tetrahedra
        space = random_space(rng, min_points=10, max_points=10)
        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", 200)
        assert len(build_cech(space, math.inf, 2)) == 10 + 45 + 120
        with pytest.raises(ComplexTooLarge, match="210 candidate 3-simplices"):
            build_vr(space, math.inf, 3)


def _clusters():
    """Two clusters of ten points in squares of side 0.5, ten apart."""
    rng = np.random.default_rng(12)
    points = rng.uniform(0.0, 0.5, (10, 2)).tolist()
    return space_from_points(points + (rng.uniform(0.0, 0.5, (10, 2)) + 10).tolist())


class TestGuardCounts:
    """The guard counts candidates, which differ from the kept simplices."""

    def test_cech_candidates_are_cliques_of_the_kept_cech_edges(self, monkeypatch):
        # at r = 0.3, 34 of the 79 Cech edges have D >= 0.3; the 161 kept
        # triangles have 225 common lower neighbours in the Cech 1-skeleton,
        # of which 197 are kept
        space = _clusters()
        K = build_cech(space, 0.3, 2)
        edges = {s for s in K.simplices if len(s) == 2}
        triangles = [s for s in K.simplices if len(s) == 3]
        assert (len(edges), len(triangles)) == (79, 161)
        assert sum(1 for s in edges if space.dist[s] >= 0.3) == 34
        assert sum(1 for s in triangles for u in range(s[0])
                   if all((u, v) in edges for v in s)) == 225
        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", 225)
        assert dim_count(build_cech(space, 0.3, 3), 3) == 197
        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", 224)
        with pytest.raises(ComplexTooLarge,
                           match="^225 candidate 3-simplices exceed the guard 224$"):
            build_cech(space, 0.3, 3)

    def test_the_edge_guard_admits_1414_points_and_refuses_1415(self):
        # C(1414, 2) = 998,991 and C(1415, 2) = 1,000,405 candidate edges
        complexes.check_edges(1414, math.inf)
        with pytest.raises(ComplexTooLarge,
                           match="^1000405 candidate 1-simplices exceed the guard 1000000$"):
            complexes.check_edges(1415, 0.5)
        complexes.check_edges(1415, 0.0)

    @pytest.mark.parametrize("r", [-1.0, 0.0, 1e-4, math.inf])
    def test_the_edge_guard_counts_as_the_expansion_does(self, monkeypatch, r):
        # a guard of -1 refuses every count, so each message names its count
        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", -1)
        for n in range(1, 12):
            with pytest.raises(ComplexTooLarge) as counted:
                complexes.check_edges(n, r)
            with pytest.raises(ComplexTooLarge) as expanded:
                complexes._candidates(*complexes._vertices(n, r))
            assert str(counted.value) == str(expanded.value)

    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    @pytest.mark.parametrize("r", [1e-4, 0.3, math.inf])
    def test_every_pair_is_a_candidate_edge(self, monkeypatch, builder, r):
        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", 189)
        with pytest.raises(ComplexTooLarge,
                           match="^190 candidate 1-simplices exceed the guard 189$"):
            builder(_clusters(), r, 1)


class TestBuildVietoris:
    def test_single_element_cover_gives_full_skeleton(self, line3):
        cov = Cover.explicit(line3, [[0, 1, 2]])
        K = build_vietoris(cov, 2)
        assert (0, 1, 2) in K.simplices
        assert len(K) == 7

    def test_singleton_cover_gives_vertices_only(self, line3):
        cov = Cover.explicit(line3, [[0], [1], [2]])
        K = build_vietoris(cov, 2)
        assert len(K) == 3

    def test_two_overlapping_elements(self, line3):
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])
        K = build_vietoris(cov, 2)
        assert (0, 1) in K.simplices and (1, 2) in K.simplices
        assert (0, 1, 2) not in K.simplices and (0, 2) not in K.simplices

    def test_cover_by_all_small_diameter_sets_gives_the_vr_complex(self, rng):
        # the cover by every set of diameter below r, listed explicitly, has
        # the open VR complex at r as its Vietoris complex
        for _ in range(20):
            space = random_space(rng, min_points=3, max_points=6)
            r = float(rng.uniform(0.2, 1.5)) * max(space.d(0, x) for x in space.points())
            small = [S for size in range(1, space.n_points + 1)
                     for S in combinations(space.points(), size) if space.diam_of(S) < r]
            K = build_vietoris(Cover.explicit(space, small), 3)
            assert set(K.simplices) == {s for s, _ in build_vr(space, r, 3).sublevel(r)}

    def test_ball_cover_gives_the_intrinsic_cech_complex(self, rng):
        # a set lies in an open ball of radius r iff its Cech value, the
        # smallest radius of a ball about a point containing it, is below r
        for _ in range(40):
            space = random_space(rng, max_points=8)
            r = float(rng.uniform(0.2, 2.5))
            k = int(rng.integers(0, 4))
            assert set(build_vietoris(Cover.by_balls(space, r), k).simplices) == \
                set(build_cech(space, r, k).simplices)

    @pytest.mark.parametrize("r", [1.0, math.sqrt(2), 2.0])
    def test_ball_cover_of_a_grid_at_a_tied_radius_gives_the_cech_complex(self, r):
        grid = space_from_points([[i, j] for i in range(3) for j in range(3)])
        assert (grid.dist == r).any()        # the open balls leave these pairs out
        assert set(build_vietoris(Cover.by_balls(grid, r), 3).simplices) == \
            set(build_cech(grid, r, 3).simplices)


class TestMembership:
    def test_faces_of_stored_simplices(self, square):
        K = build_vr(square, 1.5, 2)
        assert (0, 1) in K.simplices
        assert (0, 1, 2, 3) not in K.simplices

    def test_value_of_is_the_entry_threshold(self, line3):
        K = build_vr(line3, 2.5, 2)
        assert K.simplices[(0,)] == 0.0
        assert K.simplices[(1, 2)] == 1.0
        assert K.simplices[(0, 1, 2)] == 2.0
        assert [s for s, _ in K.sublevel(2.0)] == [(0,), (1,), (2,), (0, 1), (1, 2)]
