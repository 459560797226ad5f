import dataclasses
import math
import sys
import time
from itertools import combinations

import numpy as np
import pytest

import bottleneck_reference
import coboundary_reference as ref
import complex_oracle_reference as dense
from vkit import complexes, persistence
from vkit.cli import main
from vkit.complexes import (RULE_BLOCK_CELLS, CofaceRule, FilteredComplex, build_cech,
                            build_vietoris, build_vr)
from vkit.metric import Cover, space_from_points
from vkit.persistence import (INF, PersistenceDiagram, SkeletonTooShallow, _listed_pivots,
                              _rule_pivots, betti_at, compute_diagram, diagram_distance)
from vkit.verify import random_space


def alive_count(diagram, dim, r):
    return sum(1 for q, b, d in diagram.intervals
               if q == dim and b < r and (math.isinf(d) or r <= d))


class TestComputeDiagram:
    def test_one_point(self):
        space = space_from_points([[0.0]])
        D = compute_diagram(build_vr(space, math.inf, 1), 0)
        assert D.intervals == ((0, 0.0, INF),)

    def test_two_points_merge_at_their_distance(self):
        space = space_from_points([[0.0], [1.5]])
        D = compute_diagram(build_vr(space, math.inf, 1), 0)
        assert D.intervals == ((0, 0.0, 1.5), (0, 0.0, INF))

    def test_unit_square(self, square):
        D = compute_diagram(build_vr(square, math.inf, 2), 1)
        expected = PersistenceDiagram.of(
            [(0, 0.0, INF), (0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, 1.0),
             (1, 1.0, math.sqrt(2))])
        assert len(D.intervals) == len(expected.intervals)
        for got, want in zip(D.intervals, expected.intervals):
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-12)
            assert got[2] == pytest.approx(want[2], abs=1e-12)

    def test_cech_square_has_no_one_dimensional_bar(self, square):
        # diagonals admit side-midpoint witnesses at value 1, so the cycle
        # fills the moment it is born
        D = compute_diagram(build_cech(square, math.inf, 2), 1)
        assert D.in_dim(1) == []

    def test_requires_the_right_skeleton(self, square):
        # a VR complex reads its top cofaces from its rule, so the
        # 1-skeleton gives H1; without the rule it needs the 2-skeleton
        assert compute_diagram(build_vr(square, math.inf, 1), 1).in_dim(1) == [
            (1.0, math.sqrt(2))]
        with pytest.raises(SkeletonTooShallow):
            compute_diagram(build_vr(square, math.inf, 0), 1)
        # H0 reads the built edges, so even dimension 0 needs the 1-skeleton
        with pytest.raises(SkeletonTooShallow):
            compute_diagram(build_vr(square, math.inf, 0), 0)
        cov = Cover.explicit(square, [[0, 1, 2], [0, 2, 3]])
        assert build_vietoris(cov, 1).extend is None
        with pytest.raises(SkeletonTooShallow):
            compute_diagram(build_vietoris(cov, 1), 1)
        assert compute_diagram(build_vietoris(cov, 2), 1).in_dim(1) == []

    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    def test_columns_are_the_coface_pairs(self, builder):
        # on the 3x3 grid many simplices share a value, so the pivot's tie
        # break by lex order matters; a coface is named by its position in
        # the level above, sorted by (value, lex)
        K = builder(_grid(3), math.inf, 3)
        # filtration order: by value, then size, then lex
        order = sorted(K.simplices, key=lambda s: (K.simplices[s], len(s), s))
        for size in range(1, 4):
            (rows, _), (upper, upper_values) = _level(K, size), _level(K, size + 1)
            pivots, cofaces, death = _listed_pivots(rows, upper, upper_values, 9)
            everyone = list(range(len(rows)))
            for i, pivot in zip(everyone, pivots(everyone)):
                s = tuple(rows[i].tolist())
                col = [(upper_values[p], tuple(upper[p].tolist())) for p in cofaces(i)]
                assert col == sorted((v, t) for t, v in K.simplices.items()
                                     if len(t) == size + 1 and set(s) < set(t))
                if col:
                    earliest = next(t for t in order if len(t) == size + 1 and set(s) < set(t))
                    assert tuple(upper[pivot].tolist()) == earliest
                    assert death(pivot) == K.simplices[earliest]
                else:
                    assert pivot == -1


def _grid(side):
    return space_from_points([[x, y] for x in range(side) for y in range(side)])


def _level(K, size):
    """The rows and values of the simplices of K with ``size`` vertices, in
    (value, lex) order."""
    pairs = sorted((v, s) for s, v in K.simplices.items() if len(s) == size)
    return (np.array([s for _, s in pairs], dtype=np.int64).reshape(-1, size),
            np.array([v for v, _ in pairs]))


def _shift(n, width):
    """The bits of the lex part of a rule key: a base-n number of ``width``
    digits."""
    return (n ** width - 1).bit_length()


def _decode(levels, key, n, width):
    """The (value, simplex) pair of the integer key rank << shift | lex,
    rank among the distinct rule values ``levels``."""
    shift = _shift(n, width)
    lex, digits = key & ((1 << shift) - 1), []
    for _ in range(width):
        lex, digit = divmod(lex, n)
        digits.append(digit)
    return float(levels[key >> shift]), tuple(reversed(digits))


def _rule_spaces():
    """Seeded random spaces and the tied 3x3 and 4x4 integer grids, each
    with r = inf and r = an exact pairwise distance."""
    rng = np.random.default_rng(31)
    spaces = [random_space(rng, min_points=5, max_points=9) for _ in range(3)]
    spaces += [_grid(3), _grid(4)]
    for space in spaces:
        D = space.dist
        yield space, math.inf
        yield space, float(np.sort(D[np.triu_indices(space.n_points, 1)])[space.n_points])


RULE_CASES = [(builder, space, r, k_max) for space, r in _rule_spaces()
              for builder in (build_vr, build_cech) for k_max in range(4)]


class TestCofaceRule:
    """The rule a VR or Cech complex carries against the level it skips."""

    @pytest.mark.parametrize("builder, space, r, k_max", RULE_CASES)
    def test_rule_is_the_next_level_bit_for_bit(self, builder, space, r, k_max):
        K = builder(space, r, k_max)
        above = builder(space, r, k_max + 1).simplices
        for s in K.simplices:
            values = ref.rule_values(K.extend, s)
            assert values.shape == (space.n_points,)
            for k, v in enumerate(values.tolist()):
                t = tuple(sorted({*s, k}))
                if k in s or t not in above:
                    assert v == INF, (s, k)
                else:
                    assert float.hex(v) == float.hex(above[t]), (s, k)

    @pytest.mark.parametrize("builder, space, r, k_max", RULE_CASES)
    def test_ranks_are_the_values_ranked_on_their_grid(self, builder, space, r, k_max):
        # the rank rule is the float rule looked up among the distinct rule
        # values; past the end exactly where the float rule gives +inf
        K = builder(space, r, k_max)
        grid = K.extend.values
        assert np.all(grid[1:] > grid[:-1]) and np.all(grid < r)
        for s in K.simplices:
            values = ref.rule_values(K.extend, s)
            ranks = K.extend.ranks(np.array([s]))[0]
            assert ranks.tolist() == np.searchsorted(grid, values).tolist(), s
            assert np.array_equal(ranks == len(grid), values == INF), s
            finite = values < INF
            assert np.array_equal(grid[ranks[finite]], values[finite]), s
        for size in range(1, k_max + 2):
            block, _ = _level(K, size)
            if len(block):
                assert np.array_equal(K.extend.ranks(block),
                                      np.searchsorted(grid, ref.rule_values(K.extend, block)))

    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    def test_the_rank_table_is_built_on_first_use(self, builder):
        # H0 reads only the edges, so a diagram of dimension 0 never ranks
        K = builder(_grid(3), math.inf, 1)
        compute_diagram(K, 0)
        assert "_ranked" not in vars(K.extend)
        compute_diagram(K, 1)
        assert "_ranked" in vars(K.extend)

    @pytest.mark.parametrize("builder, space, r, k_max", RULE_CASES)
    def test_diagram_equals_the_explicit_one(self, builder, space, r, k_max):
        K = builder(space, r, k_max)
        if k_max == 0:      # H0 reads the edges, which the rule does not stand in for
            with pytest.raises(SkeletonTooShallow):
                compute_diagram(K, k_max)
            return
        explicit = dataclasses.replace(builder(space, r, k_max + 1), extend=None)
        assert compute_diagram(K, k_max) == compute_diagram(explicit, k_max)

    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    def test_pivot_is_the_earliest_coface(self, builder):
        # on the 3x3 grid many cofaces share a value, so the tie break by
        # lex order matters; the block pivots are checked against the
        # cofaces listed from the next level
        for k_max in range(3):
            K = builder(_grid(3), math.inf, k_max)
            above = builder(_grid(3), math.inf, k_max + 1).simplices
            rows, _ = _level(K, k_max + 1)
            pivots, cofaces, death = _rule_pivots(K.extend, rows, 9)
            everyone = list(range(len(rows)))
            for i, pivot in zip(everyone, pivots(everyone)):
                s = tuple(rows[i].tolist())
                col = sorted((v, t) for t, v in above.items()
                             if len(t) == k_max + 2 and set(s) < set(t))
                listed = cofaces(i)
                decoded = [_decode(K.extend.values, key, 9, k_max + 2) for key in listed]
                assert sorted(decoded) == col
                assert pivot == min(listed, default=-1)
                if col:
                    assert _decode(K.extend.values, pivot, 9, k_max + 2) == col[0]
                    assert death(pivot) == col[0][0]

    @pytest.mark.parametrize("kmax, keyed", [(1, 0), (2, 1), (3, 1)])
    def test_only_the_rule_level_is_keyed(self, kmax, keyed, monkeypatch, tmp_path):
        # a built level names its simplices by position; integer keys are
        # made once, for the level read from the rule
        made = []

        def counted(*args):
            made.append(args)
            return _rule_pivots(*args)

        monkeypatch.setattr(persistence, "_rule_pivots", counted)
        points = np.random.default_rng(3).uniform(0, 1, (12, 2)).tolist()
        (tmp_path / "cloud.csv").write_text("".join(f"{x!r},{y!r}\n" for x, y in points))
        assert main(["persist", "--input", str(tmp_path / "cloud.csv"), "--kmax", str(kmax),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(made) == keyed

    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    def test_rule_blocks_stay_within_the_cell_bound(self, builder, monkeypatch):
        # 4,950 edge columns of 100 ranks each take several blocks
        space = space_from_points(np.random.default_rng(5).uniform(0, 1, (100, 2)))
        K = builder(space, math.inf, 1)
        cells = []
        ranks = CofaceRule.ranks

        def counted(rule, S):
            cells.append(len(S) * space.n_points)
            return ranks(rule, S)

        monkeypatch.setattr(CofaceRule, "ranks", counted)
        D = compute_diagram(K, 1)
        assert _hexed(D) == _hexed(ref.compute_diagram(K, 1))
        assert max(cells) <= RULE_BLOCK_CELLS
        # the edge pivots took several blocks of many rows
        assert sum(c > space.n_points for c in cells) >= 2

    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    def test_blocks_of_any_size_give_the_same_diagram(self, builder, monkeypatch):
        # down to one simplex per block, and one per chunk of the Cech cube
        space = space_from_points(np.random.default_rng(6).uniform(0, 1, (14, 2)))
        want = _hexed(ref.compute_diagram(builder(space, math.inf, 2), 2))
        for cells in (1, 14, 14 * 14 * 3 + 1, 300):
            monkeypatch.setattr(persistence, "RULE_BLOCK_CELLS", cells)
            monkeypatch.setattr(complexes, "RULE_BLOCK_CELLS", cells)
            assert _hexed(compute_diagram(builder(space, math.inf, 2), 2)) == want


def _hexed(D):
    return [(q, float.hex(b), float.hex(d)) for q, b, d in D.intervals]


def _keys_by_hand(rule, rows, n):
    """The key rank << shift | lex of every coface s | {k} of every row s,
    in Python ints, with the rank of its value among the rule's values, in
    order of s and then of k; and the (value, simplex) pairs they name."""
    keys, pairs = [], []
    shift = _shift(n, rows.shape[1] + 1)
    for s, values in zip(rows.tolist(), ref.rule_values(rule, rows).tolist()):
        for k, v in enumerate(values):
            if v < INF:
                t = tuple(sorted(s + [k]))
                lex = sum(digit * n ** e for e, digit in enumerate(reversed(t)))
                rank = int(np.searchsorted(rule.values, v))
                keys.append(rank << shift | lex)
                pairs.append((v, t))
    return keys, pairs


def _rule_of_random_distances(seed, n):
    """The Cech rule of a seeded random metric on n points, whose distinct
    distances are past 2 ** 11 in number when n is large enough."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, min_points=n, max_points=n)
    return build_cech(space, math.inf, 1).extend, rng


class TestKeys:
    def test_wide_keys_are_exact_and_ordered(self):
        # in base 5000, 5-vertex lex codes need 62 bits and the 2,016
        # distinct distances of 64 points 11 more: past int64, so the keys
        # are Python ints
        rule, rng = _rule_of_random_distances(8, 64)
        assert len(rule.values) > 2 ** 10
        rows = np.sort(np.array([rng.choice(64, 4, replace=False) for _ in range(40)]), axis=1)
        rows[:10] = rows[10:20]             # repeated rows
        pivots, cofaces, death = _rule_pivots(rule, rows, 5000)
        codes = [key for i in range(len(rows)) for key in cofaces(i)]
        want, pairs = _keys_by_hand(rule, rows, 5000)
        assert codes == want
        assert all(type(c) is int for c in codes)
        assert max(codes) >= 2 ** 63
        assert [_decode(rule.values, c, 5000, 5) for c in codes] == pairs
        assert sorted(range(len(codes)), key=codes.__getitem__) == \
            sorted(range(len(codes)), key=pairs.__getitem__)
        everyone = list(range(len(rows)))
        assert pivots(everyone) == [min(cofaces(i)) for i in everyone]
        assert [death(p) for p in pivots(everyone)] == \
            ref.rule_values(rule, rows).min(axis=1).tolist()

    def test_narrow_keys_agree_with_wide_arithmetic(self):
        rule, rng = _rule_of_random_distances(9, 30)
        rows = np.sort(np.array([rng.choice(30, 3, replace=False) for _ in range(100)]), axis=1)
        pivots, cofaces, death = _rule_pivots(rule, rows, 30)
        codes = [key for i in range(len(rows)) for key in cofaces(i)]
        assert codes == _keys_by_hand(rule, rows, 30)[0]
        assert max(codes) < 2 ** 63
        everyone = list(range(len(rows)))
        assert pivots(everyone) == [min(cofaces(i)) for i in everyone]


def _spaces(rng):
    """Seeded spaces of 1 to 30 points: uniform clouds, subsets of integer
    grids (ties everywhere) and clouds with repeated points."""
    for trial in range(36):
        n = int(rng.integers(1, 31))
        if trial % 3 == 0:
            points = rng.uniform(0, 1, (n, 2))
        elif trial % 3 == 1:
            side = int(rng.integers(1, 7))
            grid = [[x, y] for x in range(side) for y in range(side)]
            points = np.array(grid, dtype=float)[rng.permutation(len(grid))[:n]]
        else:
            points = rng.uniform(0, 1, (n, 2))
            points[rng.integers(0, n, n // 3)] = points[0]
        yield space_from_points(points)


def _hand_made(rng):
    """A random filtered complex on labels with gaps: the faces of up to
    seven random simplices of 1 to 4 vertices, vertices in no simplex kept
    as components of their own, vertex values 0 to 2 (so the elder rule
    picks births), and each simplex entering 0, 0.5 or 1 after its
    latest facet."""
    labels = sorted(rng.choice(40, size=int(rng.integers(1, 12)), replace=False).tolist())
    simplices = {(v,): float(rng.integers(0, 3)) for v in labels}
    for _ in range(int(rng.integers(0, 8))):
        top = sorted(rng.choice(labels, size=int(rng.integers(1, min(4, len(labels)) + 1)),
                                replace=False).tolist())
        for size in range(2, len(top) + 1):
            for s in combinations(top, size):
                if s not in simplices:
                    simplices[s] = max(simplices[f] for f in combinations(s, size - 1)) \
                        + float(rng.choice([0.0, 0.5, 1.0]))
    return FilteredComplex.of(simplices, 4)


def _noisy_circles(family, n):
    """n points of the unit circle at seeded uniform angles, or of two unit
    circles three apart, with Gaussian noise of 0.05 in each coordinate."""
    rng = np.random.default_rng(n)
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    if family == "two_circles":
        points[:, 0] += np.where(np.arange(n) % 2 == 0, -1.5, 1.5)
    return space_from_points(points + rng.normal(0.0, 0.05, (n, 2)))


# (builder, family, n, --kmax, r): r = None is a quarter of the way up the
# sorted pairwise distances, so it equals one of them exactly
CIRCLE_CASES = [(build_vr, "circle", 100, 2, math.inf),
                (build_vr, "two_circles", 100, 2, math.inf),
                (build_vr, "circle", 80, 2, None),
                (build_vr, "circle", 40, 3, math.inf),
                (build_vr, "two_circles", 60, 3, None),
                (build_cech, "circle", 60, 2, math.inf),
                (build_cech, "two_circles", 80, 2, None),
                (build_cech, "two_circles", 40, 3, math.inf),
                (build_cech, "circle", 50, 3, None)]


class TestAgainstReference:
    """The integer-keyed reduction against the tuple-keyed reference, bit
    for bit."""

    @pytest.mark.parametrize("builder, family, n, kmax, r", CIRCLE_CASES)
    def test_noisy_circles(self, builder, family, n, kmax, r):
        # the circle's columns fill in: reduced columns are added, and
        # hundreds of rule columns are listed again as emergent owners
        space = _noisy_circles(family, n)
        if r is None:
            pairs = np.sort(space.dist[np.triu_indices(n, 1)])
            r = float(pairs[len(pairs) // 4])
        K = builder(space, r, kmax - 1)
        assert _hexed(compute_diagram(K, kmax - 1)) == _hexed(ref.compute_diagram(K, kmax - 1))

    def test_the_circle_at_200_points_stays_fast(self):
        # VR r = inf --kmax 2: the working columns fill in to over 10^5
        # keys, and a column scanned for its least key on every step took
        # over 5 s; a heap takes well under a second
        space = _noisy_circles("circle", 200)
        start = time.perf_counter()
        D = compute_diagram(build_vr(space, math.inf, 1), 1)
        assert time.perf_counter() - start < 3.0
        assert max(d - b for b, d in D.in_dim(1)) > 1.0

    def test_vr_and_cech_with_and_without_the_rule(self):
        rng = np.random.default_rng(14)
        for space in _spaces(rng):
            n = space.n_points
            kmax = int(rng.integers(1, 5 if n <= 10 else 4 if n <= 16 else 3))
            pairs = np.sort(space.dist[np.triu_indices(n, 1)])
            r = math.inf if n < 2 or rng.random() < 0.5 else float(rng.choice(pairs))
            for builder in (build_vr, build_cech):
                K = builder(space, r, max(1, kmax - 1))
                assert _hexed(compute_diagram(K, kmax - 1)) == \
                    _hexed(ref.compute_diagram(K, kmax - 1)), (builder, n, r, kmax)
                explicit = dataclasses.replace(builder(space, r, kmax), extend=None)
                assert _hexed(compute_diagram(explicit, kmax - 1)) == \
                    _hexed(ref.compute_diagram(explicit, kmax - 1)), (builder, n, r, kmax)

    def test_vietoris_complexes(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            space = random_space(rng, max_points=9, min_points=1)
            n = space.n_points
            elements = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)),
                                          replace=False).tolist())
                        for _ in range(int(rng.integers(1, 6)))]
            K = build_vietoris(Cover.explicit(space, elements + [[i] for i in range(n)]), 4)
            for max_dim in range(4):
                assert _hexed(compute_diagram(K, max_dim)) == \
                    _hexed(ref.compute_diagram(K, max_dim))

    def test_hand_made_complexes(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            K = _hand_made(rng)
            for max_dim in range(4):
                assert _hexed(compute_diagram(K, max_dim)) == \
                    _hexed(ref.compute_diagram(K, max_dim)), K.simplices

    def test_elder_rule_births(self):
        # 0 -- 1 at 3 and 2 -- 3 at 4, then 1 -- 2 at 5: the component of
        # vertex 2 (born at 1) dies, the one of vertex 0 (born at 2) lives on
        K = FilteredComplex.of({(0,): 2.0, (1,): 2.5, (2,): 1.0, (3,): 1.5, (0, 1): 3.0,
                                (2, 3): 4.0, (1, 2): 5.0}, 2)
        assert compute_diagram(K, 0).intervals == ((0, 1.0, INF), (0, 1.5, 4.0),
                                                   (0, 2.0, 5.0), (0, 2.5, 3.0))


class TestBettiAt:
    def test_square_cycle_window(self, square):
        K = build_vr(square, math.inf, 2)
        assert betti_at(K, 1.1, 1) == 1
        assert betti_at(K, 1.5, 1) == 0

    def test_strict_sublevel_at_zero_is_empty(self, square):
        K = build_vr(square, math.inf, 2)
        assert betti_at(K, 0.0, 0) == 0

    def test_components_before_edges(self, square):
        K = build_vr(square, math.inf, 2)
        assert betti_at(K, 0.5, 0) == 4
        assert betti_at(K, 1.1, 0) == 1

    def test_agrees_with_diagram_at_midpoints(self, rng):
        for _ in range(30):
            space = random_space(rng, max_points=8)
            K = build_vr(space, math.inf, 2)
            D = compute_diagram(K, 1)
            crit = sorted(set(K.simplices.values()))
            probes = [(a + b) / 2 for a, b in zip(crit, crit[1:])]
            probes.append(crit[-1] + 1.0)
            for r in probes:
                for dim in (0, 1):
                    assert alive_count(D, dim, r) == betti_at(K, r, dim)


def assert_matches_dense_betti(K, dims):
    """betti_at against the dense reference below the first critical value,
    at every critical value, at every midpoint and above the last."""
    crit = sorted(set(K.simplices.values()))
    for r in [crit[0] - 1.0] + crit + midpoint_probes(K):
        for dim in dims:
            assert betti_at(K, r, dim) == dense.betti_at(K, r, dim), (r, dim)


class TestBettiAtAgainstDenseReference:
    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    def test_random_complexes(self, builder):
        # half of them cut at a finite r, so the top of the filtration is sparse
        rng = np.random.default_rng(25)
        for trial in range(200):
            r = math.inf if trial % 2 else float(rng.uniform(0.2, 2.5))
            assert_matches_dense_betti(builder(random_space(rng, max_points=8), r, 3), range(3))

    @pytest.mark.parametrize("builder", [build_vr, build_cech])
    def test_grid_ties_and_repeated_points(self, builder):
        rng = np.random.default_rng(26)
        spaces = [_grid(3)]
        for _ in range(20):
            points = rng.uniform(0, 2, (int(rng.integers(2, 8)), 2))
            points[rng.integers(1, len(points), 2)] = points[0]
            spaces.append(space_from_points(points))
        for space in spaces:
            assert space is spaces[0] or np.triu(space.dist == 0.0, 1).any()
            assert_matches_dense_betti(builder(space, math.inf, 3), range(3))

    def test_vietoris_complexes_of_random_covers(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            space = random_space(rng, max_points=8)
            n = space.n_points
            elements = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 5) + 1)),
                                          replace=False).tolist())
                        for _ in range(int(rng.integers(1, 7)))]
            elements += [[i] for i in range(n)]
            assert_matches_dense_betti(build_vietoris(Cover.explicit(space, elements), 3), range(3))

    def test_hand_made_complexes(self):
        # gapped labels, vertex values 0 to 2 and simplices of up to 4 vertices
        rng = np.random.default_rng(28)
        for _ in range(100):
            assert_matches_dense_betti(_hand_made(rng), range(4))


def assert_matches_oracle(K, max_dim, probes):
    D = compute_diagram(K, max_dim)
    for r in probes:
        for dim in range(max_dim + 1):
            assert alive_count(D, dim, r) == betti_at(K, r, dim), (r, dim)


def midpoint_probes(K):
    crit = sorted(set(K.simplices.values()))
    return [(a + b) / 2 for a, b in zip(crit, crit[1:])] + [crit[-1] + 1.0]


class TestReductionAgainstOracle:
    """compute_diagram against betti_at beyond full clique complexes."""

    def test_vietoris_complexes_of_random_covers(self, rng):
        for _ in range(30):
            space = random_space(rng, max_points=8)
            n = space.n_points
            elements = [sorted(rng.choice(n, size=int(rng.integers(1, min(n, 4) + 1)),
                                          replace=False).tolist())
                        for _ in range(int(rng.integers(1, 7)))]
            elements += [[i] for i in range(n)]
            K = build_vietoris(Cover.explicit(space, elements), 3)
            assert_matches_oracle(K, 2, [0.0, 1.0])

    def test_truncated_vr_and_cech(self, rng):
        for _ in range(20):
            space = random_space(rng, max_points=8)
            r = float(rng.uniform(0.3, 2.0))
            for K in (build_vr(space, r, 3), build_cech(space, r, 3)):
                if len(K):
                    assert_matches_oracle(K, 2, midpoint_probes(K))

    def test_grid_ties_follow_the_open_convention(self):
        # integer grids tie many edges at 1, sqrt 2, 2, ...; probing at the
        # critical values themselves checks that a simplex with value c is
        # absent at scale c
        for cols, rows in ((3, 3), (4, 3), (4, 4)):
            grid = space_from_points([[x, y] for y in range(rows) for x in range(cols)])
            for K in (build_vr(grid, math.inf, 2), build_cech(grid, math.inf, 2)):
                crit = sorted(set(K.simplices.values()))
                assert_matches_oracle(K, 1, crit + midpoint_probes(K))


class TestOpenConvention:
    def test_simplex_born_at_r_is_absent_at_r(self):
        space = space_from_points([[0.0], [1.0]])
        vr = build_vr(space, math.inf, 1)
        assert ((0, 1) in dict(vr.sublevel(1.0 + 1e-9))) is True
        assert ((0, 1) in dict(vr.sublevel(1.0))) is False
        cech = build_cech(space, math.inf, 1)
        # witness value of the edge is the full gap: no midpoint in the space
        assert cech.simplices[(0, 1)] == 1.0
        assert ((0, 1) in dict(cech.sublevel(1.0))) is False

    def test_build_at_exact_threshold_excludes(self, equilateral):
        assert (0, 1) not in build_vr(equilateral, 1.0, 2).simplices
        assert (0, 1) not in build_cech(space_from_points([[0.0], [1.0]]), 1.0, 1).simplices


class TestBottleneck:
    def test_identical_diagrams(self, square):
        D = compute_diagram(build_vr(square, math.inf, 2), 1)
        assert diagram_distance(D, D) == 0.0

    def test_single_bar_against_empty(self):
        D1 = PersistenceDiagram.of([(1, 1.0, 2.0)])
        D2 = PersistenceDiagram.of([])
        assert diagram_distance(D1, D2) == 0.5

    def test_unmatched_essential_class(self):
        D1 = PersistenceDiagram.of([(0, 0.0, INF)])
        D2 = PersistenceDiagram.of([])
        assert diagram_distance(D1, D2) == INF

    def test_symmetry(self, rng):
        for _ in range(20):
            bars1 = [(0, b, b + g) for b, g in rng.uniform(0.1, 1.0, size=(3, 2))]
            bars2 = [(0, b, b + g) for b, g in rng.uniform(0.1, 1.0, size=(4, 2))]
            D1, D2 = PersistenceDiagram.of(bars1), PersistenceDiagram.of(bars2)
            assert diagram_distance(D1, D2) == diagram_distance(D2, D1)

    def test_matches_exhaustive_matching(self, rng):
        def brute(A, B):
            best = math.inf
            idx_b = range(len(B))
            for k in range(min(len(A), len(B)) + 1):
                for a_sel in combinations(range(len(A)), k):
                    for b_sel in combinations(idx_b, k):
                        import itertools
                        for b_perm in itertools.permutations(b_sel):
                            cost = 0.0
                            for i, j in zip(a_sel, b_perm):
                                cost = max(cost,
                                           max(abs(A[i][0] - B[j][0]),
                                               abs(A[i][1] - B[j][1])))
                            for i in set(range(len(A))) - set(a_sel):
                                cost = max(cost, (A[i][1] - A[i][0]) / 2)
                            for j in set(idx_b) - set(b_perm):
                                cost = max(cost, (B[j][1] - B[j][0]) / 2)
                            best = min(best, cost)
            return best if best is not math.inf else 0.0

        def bars(integral):
            # integer bars tie pair costs with diagonal costs
            size = (int(rng.integers(0, 4)), 2)
            draws = rng.integers(0, 4, size=size).astype(float) if integral \
                else rng.uniform(0.1, 1.0, size=size)
            return [(float(b), float(b + g)) for b, g in draws]

        for trial in range(30):
            A, B = bars(trial % 2 == 1), bars(trial % 2 == 1)
            D1 = PersistenceDiagram.of([(0, b, d) for b, d in A])
            D2 = PersistenceDiagram.of([(0, b, d) for b, d in B])
            # both sides compute the same IEEE costs, so they agree exactly
            assert diagram_distance(D1, D2) == brute(A, B)

    def test_diagrams_past_the_recursion_limit(self):
        # the size at which a recursive augmenting-path search fails
        N = sys.getrecursionlimit() + 100
        D1 = PersistenceDiagram.of([(1, float(i), float(i + 10)) for i in range(N)])
        D2 = PersistenceDiagram.of([(1, i + 0.25, i + 10.25) for i in range(N)])
        assert diagram_distance(D1, D2) == 0.25

    def test_random_diagrams_of_hundreds_of_bars_stay_fast(self):
        # thresholds just below the distance leave banded graphs without a
        # perfect matching; a Hopcroft-Karp matching rebuilt from nothing at
        # each threshold ran for over five minutes on this pair
        import numpy as np
        rng = np.random.default_rng(400)
        D1, D2 = (PersistenceDiagram.of((1, b, b + length) for b, length
                                        in rng.uniform(0, 1, (400, 2)).tolist())
                  for _ in range(2))
        start = time.perf_counter()
        d = diagram_distance(D1, D2)
        assert time.perf_counter() - start < 5.0
        assert 0.0 < d <= max((e - b) / 2 for D in (D1, D2) for _, b, e in D.intervals)

    def test_matches_the_max_flow_reference(self):
        # the maximum matching size does not depend on how it is found, so
        # the same cost entry comes back; ties come from integer and
        # half-integer bars, infinity from unequal essential counts
        rng = np.random.default_rng(11)

        def side(scale, essential):
            n = int(rng.integers(0, 9))
            draws = rng.uniform(0, 4, (n, 2)) if scale is None \
                else rng.integers(0, 4 * scale, (n, 2)) / scale
            bars = [(int(q), b, b + g) for q, (b, g)
                    in zip(rng.integers(0, 2, n).tolist(), draws.tolist())]
            return PersistenceDiagram.of(bars + [(0, float(b), INF) for b in
                                                 rng.integers(0, 3, essential).tolist()])

        seen = set()
        for trial in range(1200):
            scale = (None, 1, 2)[trial % 3]
            essential = int(rng.integers(0, 3))
            odd = essential + int(trial % 10 == 0)
            D1, D2 = side(scale, essential), side(scale, odd)
            got = diagram_distance(D1, D2)
            assert repr(got) == repr(bottleneck_reference.diagram_distance(D1, D2)), (D1, D2)
            seen.add((not D1.intervals or not D2.intervals, got == INF))
        assert seen == {(False, False), (True, False), (False, True), (True, True)}

    def test_hundreds_of_bars_match_the_max_flow_reference(self):
        rng = np.random.default_rng(400)
        D1, D2 = (PersistenceDiagram.of((1, b, b + length) for b, length
                                        in rng.uniform(0, 1, (400, 2)).tolist())
                  for _ in range(2))
        assert repr(diagram_distance(D1, D2)) == \
            repr(bottleneck_reference.diagram_distance(D1, D2))

    def test_stability_smoke(self, rng):
        import numpy as np
        for _ in range(15):
            coords = rng.uniform(0, 2, size=(6, 3))
            delta = 0.05
            jitter = rng.uniform(-1, 1, size=coords.shape)
            jitter *= delta / (2 * np.linalg.norm(jitter, axis=1, keepdims=True))
            D1 = compute_diagram(build_vr(space_from_points(coords), math.inf, 2), 1)
            D2 = compute_diagram(build_vr(space_from_points(coords + jitter), math.inf, 2), 1)
            assert diagram_distance(D1, D2) <= 2 * delta + 1e-9


class TestFunctoriality:
    def test_nested_thresholds_include_and_agree(self, rng):
        # the inclusion VR(r1) -> VR(r2) is simplexwise, and truncating the
        # filtration at r2 does not change any homology seen below r2
        for _ in range(15):
            space = random_space(rng, max_points=8)
            full = build_vr(space, math.inf, 2)
            crit = sorted(set(full.simplices.values()))
            r2 = crit[-1] * 0.8 + 0.1
            r1 = r2 / 2
            K1, K2 = build_vr(space, r1, 2), build_vr(space, r2, 2)
            assert set(K1.simplices) <= set(K2.simplices)
            for r in (r1 / 2, r1):
                for dim in (0, 1):
                    assert betti_at(K1, r, dim) == betti_at(K2, r, dim) \
                        == betti_at(full, r, dim)


class TestCSV:
    def test_export_format(self):
        D = PersistenceDiagram.of([(0, 0.0, INF), (1, 1.0, math.sqrt(2))])
        lines = D.to_csv().splitlines()
        assert lines[0] == "dim,birth,death"
        assert lines[1] == "0,0.0,inf"
        assert lines[2] == f"1,1.0,{math.sqrt(2)!r}"
