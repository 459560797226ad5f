import math
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vkit.fk import (FKSimplex, FKTriangulation, NoLabel, OutOfDomain,
                     facet_counts, is_boundary_face, star_bound, subordinate_resolution)

from exact_locator import simplex_keys_containing
from scalar_sweep import subordinate_resolution_by_samples


class TestEnumeration:
    def test_two_segments_on_the_interval(self):
        tri = FKTriangulation(1, 2)
        keys = [(s.base, s.perm) for s in tri.simplices()]
        assert keys == [((0,), (0,)), ((1,), (0,))]
        assert tri.scaled_vertices(FKSimplex((0,), (0,))).tolist() == [[0.0], [0.5]]

    def test_unit_square_splits_into_the_two_axis_order_triangles(self):
        tri = FKTriangulation(2, 1)
        verts = {(s.base, s.perm): s.vertices() for s in tri.simplices()}
        assert verts[((0, 0), (0, 1))] == ((0, 0), (1, 0), (1, 1))
        assert verts[((0, 0), (1, 0))] == ((0, 0), (0, 1), (1, 1))

    @pytest.mark.parametrize("n, p", [(1, 3), (2, 2), (2, 3), (3, 2)])
    def test_simplex_keys_and_vertex_indices_follow_the_enumeration(self, n, p):
        tri = FKTriangulation(n, p)
        corners = tri.simplex_vertex_indices().tolist()
        for k, s in enumerate(tri.simplices()):
            key = tri.simplex_key(k)
            assert key == (s.base, s.perm) and all(type(c) is int for c in key[0] + key[1])
            assert corners[k] == [tri.vertex_index(v) for v in s.vertices()]
        assert len(corners) == tri.simplex_count

    def test_counts(self):
        assert FKTriangulation(3, 2).simplex_count == 48
        assert sum(1 for _ in FKTriangulation(3, 2).simplices()) == 48

    def test_volume_partition(self):
        for n, p in [(1, 3), (2, 2), (3, 2)]:
            tri = FKTriangulation(n, p)
            total = 0.0
            for s in tri.simplices():
                verts = tri.scaled_vertices(s)
                total += abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(n)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_every_simplex_has_diameter_root_n_over_p(self):
        for n, p in [(1, 2), (2, 3), (3, 2)]:
            tri = FKTriangulation(n, p)
            for s in tri.simplices():
                verts = tri.scaled_vertices(s)
                diam = max(np.linalg.norm(a - b)
                           for i, a in enumerate(verts) for b in verts[i + 1:])
                assert abs(diam - math.sqrt(n) / p) <= 1e-12


class TestLocate:
    def test_sorts_the_larger_fraction_first(self):
        tri = FKTriangulation(2, 1)
        simplex, coords = tri.locate([0.3, 0.7])
        assert simplex.vertices() == ((0, 0), (0, 1), (1, 1))
        assert coords.tolist() == pytest.approx([0.3, 0.4, 0.3], abs=1e-15)

    def test_lattice_vertex_gets_full_weight_on_base(self):
        tri = FKTriangulation(3, 2)
        simplex, coords = tri.locate([0.0, 0.0, 0.0])
        assert simplex.base == (0, 0, 0)
        assert coords[0] == 1.0 and coords[1:].tolist() == [0.0, 0.0, 0.0]

    def test_barycenter_round_trip(self):
        tri = FKTriangulation(3, 2)
        simplex, _ = tri.locate([0.3, 0.6, 0.1])
        center = tri.point_of(simplex, np.full(4, 0.25))
        _, coords = tri.locate(center)
        assert coords.tolist() == pytest.approx([0.25] * 4, abs=1e-12)

    def test_far_corner(self):
        tri = FKTriangulation(2, 2)
        simplex, coords = tri.locate([1.0, 1.0])
        assert simplex.base == (1, 1)
        assert tri.point_of(simplex, coords).tolist() == [1.0, 1.0]

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            FKTriangulation(2, 1).locate([0.5, 1.2])

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, n, p, seed):
        rng = np.random.default_rng(seed)
        tri = FKTriangulation(n, p)
        y = rng.uniform(0.0, 1.0, size=n)
        simplex, coords = tri.locate(y)
        assert (coords >= 0.0).all()
        assert coords.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(tri.point_of(simplex, coords) - y).max() <= 1e-10


class TestStars:
    def test_interior_vertex_counts(self):
        assert FKTriangulation(1, 2).vertex_star_size((1,)) == 2
        assert FKTriangulation(2, 2).vertex_star_size((1, 1)) == 6

    def test_corner_sees_one_cell(self):
        assert FKTriangulation(2, 2).vertex_star_size((0, 0)) == 2
        assert FKTriangulation(3, 2).vertex_star_size((0, 0, 0)) == 6

    def test_star_bound_is_exhaustive(self):
        for n in (1, 2, 3):
            for p in (1, 2, 3):
                tri = FKTriangulation(n, p)
                worst = max(tri.vertex_star_size(v) for v in tri.vertices())
                assert worst <= star_bound(n)

    def test_exact_rational_incidence_agrees_with_stars(self):
        def star(tri, v):
            # reference: every simplex of the up to 2^n cells at v that has v
            # among its vertices
            keys = []
            for delta in product((0, 1), repeat=tri.n):
                base = tuple(c - d for c, d in zip(v, delta))
                if all(0 <= b <= tri.p - 1 for b in base):
                    keys += [(base, perm) for perm in permutations(range(tri.n))
                             if v in FKSimplex(base, perm).vertices()]
            return keys

        for n, p in [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (4, 1)]:
            tri = FKTriangulation(n, p)
            for v in tri.vertices():
                got = [(s.base, s.perm) for s in tri.simplices_containing_fraction(v, tri.p)]
                assert len(got) == len(set(got))
                assert set(got) == set(star(tri, v))


class TestExactLocation:
    @given(st.integers(1, 3), st.sampled_from([1, 2, 3, 4, 5, 6]), st.integers(1, 12),
           st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=3))
    @settings(max_examples=400, deadline=None)
    @example(3, 5, 7, [1, 2, 3])
    @example(3, 5, 7, [0, 7, 7])
    @example(2, 3, 7, [7, 3, 0])
    def test_integer_locator_matches_the_fraction_reference(self, n, p, den, draws):
        # den takes every residue mod p, so p need not divide it; nums reach
        # 0 and den, so lattice points and faces are drawn too
        nums = [d % (den + 1) for d in draws[:n]]
        tri = FKTriangulation(n, p)
        got = [(s.base, s.perm) for s in tri.simplices_containing_fraction(nums, den)]
        assert got == simplex_keys_containing(n, p, nums, (den,) * n)
        assert got and len(got) == len(set(got))

    def test_points_off_the_cube_are_refused(self):
        tri = FKTriangulation(2, 3)
        for nums in [(-1, 0), (0, 8), (8, 7)]:
            with pytest.raises(OutOfDomain):
                tri.simplices_containing_fraction(nums, 7)


class TestFacets:
    def test_interior_facets_shared_by_two_simplices(self):
        for n, p in [(1, 3), (2, 2), (2, 3), (3, 2)]:
            tri = FKTriangulation(n, p)
            for face, count in facet_counts(tri).items():
                assert count == (1 if is_boundary_face(tri, face) else 2)


def _as_ints(shared):
    """Boolean mask rows as integer bitmasks (bit i: element i)."""
    return [sum(1 << int(i) for i in np.flatnonzero(row)) for row in shared]


# every divisor of the slab grids' 64 cells, which are the doubling ones
DOUBLING_TO_64 = [1, 2, 4, 8, 16, 32, 64]


class TestSubordinateResolution:
    @staticmethod
    def _slab_masks(grid: int, left_end: float, right_start: float):
        # grid points i/(grid-1) of [0, 1]; column 0: element [0, left_end],
        # column 1: element [right_start, 1]
        y = np.arange(grid) / (grid - 1)
        return np.column_stack([y <= left_end, y >= right_start]), grid - 1

    def test_single_element_cover_resolves_at_the_coarsest_grid(self):
        p, masks = subordinate_resolution(np.ones((3, 3, 1), bool), 1, [1, 2])
        assert p == 1
        assert _as_ints(masks) == [1, 1]

    def test_misaligned_slab_is_first_subordinate_at_resolution_eight(self):
        # elements [0, 0.4] and [0.3, 1]: overlap width 0.1
        masks, den = self._slab_masks(65, 0.4, 0.3)
        p, shared = subordinate_resolution(masks, 1, DOUBLING_TO_64)
        assert p == 8           # first doubling resolution that fits
        assert len(shared) == 8 and all(_as_ints(shared))

    @pytest.mark.parametrize("stride", [32, 64])
    def test_slab_extruded_along_a_second_axis_is_first_subordinate_at_resolution_eight(
            self, stride):
        # the slab above along axis 0; axis 1 sampled only at every stride-th
        # lattice point, and an unsampled point admits every element, so at
        # resolution 8 the simplices no sample reaches keep the all-ones mask
        slab, den = self._slab_masks(65, 0.4, 0.3)
        masks = np.ones((den + 1, den + 1, 2), bool)
        masks[:, ::stride] = slab[:, None]
        p, shared = subordinate_resolution(masks, 1, DOUBLING_TO_64)
        assert p == 8
        samples = [((i, j), mask) for i, mask in enumerate(_as_ints(slab))
                   for j in range(0, den + 1, stride)]
        ref_p, ref = subordinate_resolution_by_samples(samples, den, DOUBLING_TO_64)
        keys = [(s.base, s.perm) for s in FKTriangulation(2, 8).simplices()]
        assert ref_p == 8 and 0 < len(ref) < len(keys)
        assert _as_ints(shared) == [ref.get(k, 0b11) for k in keys]
        assert all(_as_ints(shared))

    def test_disjoint_memberships_raise_no_label(self):
        masks = np.array([[i < 2, i > 2] for i in range(5)])
        with pytest.raises(NoLabel) as err:
            subordinate_resolution(masks, 1, [1, 2, 4])
        assert err.value.simplex == ((1,), (0,))   # the first cell around the empty sample

    def test_resolutions_must_divide_the_sampled_grid(self):
        with pytest.raises(ValueError, match="must divide"):
            subordinate_resolution(np.ones((13, 1), bool), 3, [1, 3])


class TestSweepByTranslation:
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6), st.integers(1, 3),
           st.floats(0.5, 1.0), st.integers(0, 2 ** 32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    @example(2, 3, 2, 1, 0.98, 7, None)
    def test_matches_the_sample_by_sample_sweep(self, n, depth, res, elements, density,
                                                 seed, data):
        den = depth * res
        masks = np.random.default_rng(seed).random((den + 1,) * n + (elements,)) < density
        divisors = [q for q in range(1, res + 1) if res % q == 0]
        resolutions = (sorted(divisors) if data is None else
                       data.draw(st.lists(st.sampled_from(divisors), min_size=1, unique=True)))
        # vertex samples first, then the dense ones, each in lex order
        order = sorted(product(range(den + 1), repeat=n),
                       key=lambda w: (any(c % depth for c in w), w))
        samples = [(w, _as_ints([masks[w]])[0]) for w in order]
        try:
            expected = subordinate_resolution_by_samples(samples, den, resolutions)
        except NoLabel as exc:
            with pytest.raises(NoLabel) as err:
                subordinate_resolution(masks, depth, resolutions)
            assert err.value.simplex == exc.simplex
            return
        p, shared = subordinate_resolution(masks, depth, resolutions)
        keys = [(s.base, s.perm) for s in FKTriangulation(n, p).simplices()]
        assert (p, dict(zip(keys, _as_ints(shared)))) == expected


class TestOffExport:
    def test_header_and_sizes(self):
        tri = FKTriangulation(2, 1)
        lines = tri.to_off().splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "4 2 0"
        assert lines[2] == "0.0 0.0"        # lexicographic lattice order
        assert lines[-1].startswith("3 ")

    def test_vertex_indices_reference_the_lex_order(self):
        tri = FKTriangulation(1, 2)
        lines = tri.to_off().splitlines()
        assert lines[2:5] == ["0.0", "0.5", "1.0"]
        assert lines[5:] == ["2 0 1", "2 1 2"]
