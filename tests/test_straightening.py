import json
import math
import sys

import numpy as np
import pytest

from vkit import measures, thickening
from vkit.fk import FKTriangulation
from vkit.generators import (constant_map, sliding_dirac_map, spread_map,
                             two_ball_map)
from vkit.measures import FiniteMeasure, dirac
from vkit.metric import Cover, space_from_points
from vkit.straightening import (BoundViolated, CertificationLog, NoLabel, PipelineError,
                                SampledMap, _json_numbers, choose_p, label_simplices,
                                linearize, prism_retract, pump_vertex, sample_masks,
                                straighten)

from exact_locator import simplex_keys_containing
from per_sample_maps import (from_function, reference_weights, sliding_dirac_measure,
                             two_ball_measure)
from per_vertex_pump import (intersection_mass_bound, label_dict, measure, read_records,
                             sample_at, vertex_labels, vertex_measures, vertex_rows)


class TestChooseP:
    def test_small_dimensions(self):
        assert choose_p(1) == 0.75           # bound 2^1 1! = 2
        assert choose_p(2) == 1 - 1 / 16     # bound 2^2 2! = 8

    def test_always_strictly_inside_the_interval(self):
        for n in range(1, 7):
            bound = (2 ** n) * math.factorial(n)
            assert 1 - 1 / bound < choose_p(n) < 1


class TestSampledMap:
    @pytest.mark.parametrize("n, res, depth", [(1, 4, 3), (2, 5, 3), (2, 3, None),
                                               (3, 2, 2), (2, 20, 3)])
    def test_fn_runs_once_per_point_of_the_sampled_lattice(self, line3, n, res, depth):
        calls = []

        def fn(y):
            calls.append(tuple(y))
            return dirac(line3, 0)

        smap = from_function(FKTriangulation(n, res), fn, depth)
        fine = (depth or 1) * res
        assert len(calls) == len(set(calls)) == (fine + 1) ** n == len(smap.weights)
        assert set(calls) == {tuple(c / fine for c in w) for w in smap.grid.vertices()}

    def test_grid_vertices_are_the_multiples_of_the_depth(self, line3):
        def fn(y):
            return dirac(line3, 1 if float(y[0] * 2).is_integer() else 0)

        smap = from_function(FKTriangulation(1, 2), fn, 3)
        assert smap.grid.p == 6
        assert [sample_at(smap, smap.tri, (i,)).support for i in range(3)] == [(1,)] * 3
        assert sample_at(smap, FKTriangulation(1, 1), (1,)) == sample_at(smap, smap.grid, (6,))
        assert sum(sample_at(smap, smap.grid, w).support == (0,)
                   for w in smap.grid.vertices()) == 4

    def test_the_guard_counts_the_sampled_lattice(self, line3):
        def never(y):
            raise AssertionError("nothing may be sampled on a refused lattice")

        with pytest.raises(ValueError, match="resource guard"):
            from_function(FKTriangulation(2, 4), never, 10 ** 4)
        with pytest.raises(ValueError, match="dense_depth"):
            from_function(FKTriangulation(1, 4), never, 0)

    def test_weights_need_a_row_per_point_of_the_lattice(self, line3):
        smap = from_function(FKTriangulation(2, 2), lambda y: dirac(line3, 0), 2)
        with pytest.raises(ValueError, match="expected"):
            SampledMap(smap.tri, line3, smap.weights[1:], smap.depth)


LEAKS = [0.0, 0.05, 0.0713, 1.0]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestGeneratorWeights:
    @pytest.mark.parametrize("leak", LEAKS)
    @pytest.mark.parametrize("n, res, depth", [(1, 8, 3), (1, 13, None), (1, 24, 2),
                                               (2, 4, 3), (2, 7, 1), (2, 12, 3),
                                               (3, 2, 3), (3, 5, 2)])
    def test_two_ball_rows_are_the_per_sample_measures(self, n, res, depth, leak):
        space, _, smap = two_ball_map(n=n, res=res, leak=leak, dense_depth=depth)
        assert _same_bits(smap.weights, reference_weights(smap, two_ball_measure(space, leak)))

    @pytest.mark.parametrize("leak", LEAKS)
    @pytest.mark.parametrize("res, depth", [(8, 3), (13, None), (24, 2), (40, 3)])
    def test_sliding_dirac_rows_are_the_per_sample_measures(self, res, depth, leak):
        space, _, smap = sliding_dirac_map(res=res, leak=leak, dense_depth=depth)
        assert _same_bits(smap.weights,
                          reference_weights(smap, sliding_dirac_measure(space, leak)))

    def test_every_row_sums_to_one_within_four_ulps(self):
        # so FiniteMeasure keeps every row as it is (it renormalizes only
        # beyond WEIGHT_SUM_EXACT, far above these sums' error)
        leaks = [0.0, 5e-324, 1 / 3, 0.0713, 1.0, *np.random.default_rng(5).random(204)]
        for i, leak in enumerate(leaks):
            maps = [two_ball_map(n=n, res=[4, 7, 2][n - 1] + i % 3, leak=leak,
                                 dense_depth=[3, 2, 1][n - 1]) for n in (1, 2, 3)]
            maps.append(sliding_dirac_map(res=4 + i % 21, leak=leak))
            for _, _, smap in maps:
                sums = np.array([math.fsum(row) for row in smap.weights.tolist()])
                assert np.abs(sums - 1.0).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("gen", [sliding_dirac_map, two_ball_map])
    @pytest.mark.parametrize("leak", [-0.5, 1.5, 1e308, math.nan, math.inf, -math.inf])
    def test_leak_outside_the_unit_interval_is_refused(self, gen, leak):
        with pytest.raises(ValueError, match="'leak' must be a number in \\[0, 1\\]"):
            gen(leak=leak)

    def test_two_ball_takes_three_dimensions_and_no_more(self):
        assert two_ball_map(n=3)[2].grid.p == 12
        with pytest.raises(ValueError, match="n in {1, 2, 3}"):
            two_ball_map(n=4)


class TestSampleMasks:
    @pytest.mark.parametrize("gen, kwargs", [
        (constant_map, {"n": 2}), (sliding_dirac_map, {"leak": 0.0713}),
        (two_ball_map, {"n": 2, "res": 6, "leak": 0.05}),
        (two_ball_map, {"n": 3, "res": 2, "leak": 0.0713}), (spread_map, {"n": 2})])
    def test_every_mask_is_the_strict_mass_test(self, gen, kwargs):
        _, cover, smap = gen(**kwargs)
        for p in (0.5, choose_p(smap.tri.n)):
            masks = sample_masks(smap, cover, p)
            expected = [[sample_at(smap, smap.grid, w).mass_of(elem) > p
                         for elem in cover.elements]
                        for w in smap.grid.vertices()]
            assert masks.tolist() == expected

    # Element {0, 1, 2} of each row: every order of summing the three
    # weights rounds one ulp off their exact sum, above it in the first row
    # and below it in the second, so a float sum alone decides these wrong.
    @pytest.mark.parametrize("row, side", [((0.014, 0.182, 0.735, 0.069), 1.0),
                                           ((0.074, 0.625, 0.209, 0.092), -1.0)])
    def test_masses_within_an_ulp_of_p_are_decided_exactly(self, row, side):
        a, b, c = row[:3]
        exact = math.fsum(row[:3])
        assert {(a + b) + c, a + (b + c), (a + c) + b} == {np.nextafter(exact, exact + side)}
        space = space_from_points([[0.0], [1.0], [2.0], [3.0]])
        cover = Cover.explicit(space, [[0, 1, 2], [3]])
        smap = SampledMap(FKTriangulation(1, 1), space, np.array([row, row]))
        # at this p numpy's sum and the exact sum fall on opposite sides
        split = exact if side > 0 else np.nextafter(exact, 0.0)
        assert (np.sum(row[:3]) > split) != (exact > split)
        for p in (np.nextafter(exact, 0.0), exact, np.nextafter(exact, 1.0)):
            masks = sample_masks(smap, cover, p)
            assert masks[:, 0].tolist() == [exact > p] * 2


class TestWork:
    """Deterministic counts of the work behind a sampled map and its labels."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        """Count the calls of ``owner.name``, rebinding it also wherever a vkit
        module imported it by name."""
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        for mod in [m for key, m in sys.modules.items() if key.startswith("vkit.")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
        return calls

    def test_generators_build_no_measure_per_lattice_point(self, monkeypatch):
        built = self._count(monkeypatch, FiniteMeasure, "__post_init__")
        _, cover, smap = two_ball_map(n=2, res=24, leak=0.07)
        assert smap.weights.shape == (73 ** 2, 3)
        assert len(built) == 0
        gmap, log = straighten(smap, cover)
        assert log.all_pass()
        # the samples, the pumped vertices and the certificate are all rows
        assert len(built) == 0

    def test_straighten_reads_labels_and_pumps_each_vertex_once(self, monkeypatch):
        _, cover, smap = two_ball_map(n=2, res=24, leak=0.07)
        mixes = self._count(monkeypatch, measures, "mix")
        pumps = self._count(monkeypatch, thickening, "pump")
        located = self._count(monkeypatch, FKTriangulation, "simplices_containing_fraction")
        built = self._count(monkeypatch, FiniteMeasure, "__post_init__")
        gmap, log = straighten(smap, cover)
        assert log.all_pass() and gmap.tri.vertex_count == 25
        # every vertex is pumped, as one row of the vertex stage: the leak
        # leaves its support, and no measure is built
        assert ((gmap.weights != 0.0).sum(axis=1) < 3).all()
        assert log.stage_counts()["mass_bound"]["pass"] == 25
        assert len(mixes) == len(pumps) == len(located) == len(built) == 0

    def test_labeling_locates_no_sample(self, monkeypatch):
        _, cover, smap = two_ball_map(n=2, res=24, leak=0.07)
        located = self._count(monkeypatch, FKTriangulation, "simplices_containing_fraction")
        lab = label_simplices(smap, cover, choose_p(2))
        assert lab.tri.p == 4 and len(located) == 0


class TestLabelSimplices:
    def test_single_element_cover_labels_everything(self, line3):
        cov = Cover.explicit(line3, [[0, 1, 2]])
        tri = FKTriangulation(1, 4)
        smap = from_function(tri, lambda y: dirac(line3, 0))
        lab = label_simplices(smap, cov, 0.9)
        assert set(label_dict(lab).values()) == {0}

    def test_dirac_cells_get_their_ball(self, line3):
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])
        tri = FKTriangulation(1, 2)

        def fn(y):
            if y[0] == 0.5:
                return dirac(line3, 1)     # shared vertex serves both cells
            return dirac(line3, 0 if y[0] < 0.5 else 2)

        smap = from_function(tri, fn, dense_depth=None)
        lab = label_simplices(smap, cov, 0.9)
        assert label_dict(lab)[((0,), (0,))] == 0
        assert label_dict(lab)[((1,), (0,))] == 1

    def test_spread_measures_fail_at_extreme_threshold(self, line3):
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])
        tri = FKTriangulation(1, 2)
        spread = FiniteMeasure(line3, (0, 1, 2), (0.4, 0.2, 0.4))
        smap = from_function(tri, lambda y: spread)
        with pytest.raises(NoLabel):
            label_simplices(smap, cov, 0.999)

    def test_ties_break_to_the_smallest_id(self, line3):
        cov = Cover.explicit(line3, [[0, 1, 2], [0, 1]])
        tri = FKTriangulation(1, 1)
        smap = from_function(tri, lambda y: dirac(line3, 0))
        lab = label_simplices(smap, cov, 0.5)
        assert label_dict(lab)[((0,), (0,))] == 0

    def test_vertex_stars_respect_the_dimension_bound(self, line3):
        import math as _math
        cov = Cover.explicit(line3, [[0, 1, 2]])
        for n, res in [(1, 4), (2, 2)]:
            tri = FKTriangulation(n, res)
            smap = from_function(tri, lambda y: dirac(line3, 0),
                                            dense_depth=None)
            lab = label_simplices(smap, cov, 0.5, [tri.p])
            bound = (2 ** n) * _math.factorial(n)
            for v in tri.vertices():
                assert len(vertex_labels(lab)[v]) <= tri.vertex_star_size(v) <= bound

    def test_coarse_grid_uses_fine_samples(self, line3):
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])
        fine = FKTriangulation(1, 4)

        def fn(y):
            # mass crosses through the shared point halfway through the cube
            if y[0] == 0.5:
                return dirac(line3, 1)
            return dirac(line3, 0 if y[0] < 0.5 else 2)

        smap = from_function(fine, fn, dense_depth=None)
        with pytest.raises(NoLabel):
            # at resolution 1 the only cell sees both Diracs
            label_simplices(smap, cov, 0.9, [1])
        lab = label_simplices(smap, cov, 0.9, [2])
        assert label_dict(lab)[((0,), (0,))] == 0 and label_dict(lab)[((1,), (0,))] == 1

    def test_resolutions_must_divide_the_sampled_one(self, line3):
        cov = Cover.explicit(line3, [[0, 1, 2]])
        smap = from_function(FKTriangulation(1, 4), lambda y: dirac(line3, 0))
        with pytest.raises(ValueError, match="must divide"):
            label_simplices(smap, cov, 0.9, [2, 3])
        assert label_simplices(smap, cov, 0.9).tri.p == 1    # the default starts at 1


class TestIntersectionMassBound:
    def test_single_label(self, line3):
        mu = FiniteMeasure(line3, (0, 1), (0.95, 0.05))
        assert intersection_mass_bound(mu, [frozenset({0})], 0.9) == pytest.approx(0.95)

    def test_two_labels_inclusion_exclusion_worst_case(self):
        space = space_from_points([[0.0], [1.0], [2.0]])
        mu = FiniteMeasure(space, (0, 1, 2), (0.9, 0.05, 0.05))
        mass = intersection_mass_bound(
            mu, [frozenset({0, 1}), frozenset({0, 2})], 0.9)
        assert mass == pytest.approx(0.9)
        assert mass > 1 - 2 * (1 - 0.9)

    def test_disjoint_complements_add_exactly(self):
        space = space_from_points([[0.0], [1.0], [2.0]])
        mu = FiniteMeasure(space, (0, 1, 2), (0.9, 0.05, 0.05))
        sets = [frozenset({0, 1}), frozenset({0, 2})]
        mass = intersection_mass_bound(mu, sets, 0.9)
        assert mass == pytest.approx(mu.mass_of(sets[0]) + mu.mass_of(sets[1]) - 1.0,
                                     abs=1e-12)

    def test_violation_reports(self, line3):
        mu = FiniteMeasure(line3, (0, 2), (0.5, 0.5))
        with pytest.raises(BoundViolated):
            intersection_mass_bound(mu, [frozenset({0})], 0.9)


class TestPumpVertex:
    def _setup(self, weights):
        space = space_from_points([[0.0], [1.0], [5.0]])
        cov = Cover.explicit(space, [[0], [0, 1, 2]])
        tri = FKTriangulation(1, 1)
        mu = FiniteMeasure(space, (0, 1), weights)
        smap = from_function(tri, lambda y: mu, dense_depth=None)
        lab = label_simplices(smap, cov, 0.85)
        return smap, lab

    @staticmethod
    def _records(log, ident):
        return [(r["stage"], r["quantity"]) for r in read_records(log)
                if r["id"].split(":")[0] == ident]

    def test_concentrating_pump_and_its_track(self):
        smap, lab = self._setup((0.9, 0.1))
        assert label_dict(lab)[((0,), (0,))] == 0       # element {0} qualifies first
        log = CertificationLog()
        rows = pump_vertex(smap, lab, 0.85, log)
        assert measure(smap.space, rows[0]) == dirac(smap.space, 0)
        records = self._records(log, "0")
        assert [stage for stage, _ in records] == ["mass_bound"] + ["track"] * 5 + ["boundary"]
        # the floor of each track sample is its mass on the only label, {0}
        assert [q for _, q in records[1:6]] == pytest.approx([0.9, 0.925, 0.95, 0.975, 1.0],
                                                            abs=1e-12)
        assert records[0] == ("mass_bound", 0.9)
        assert records[-1] == ("boundary", pytest.approx(0.2, abs=1e-12))
        assert log.all_pass()

    def test_already_supported_vertex_is_fixed(self, line3):
        cov = Cover.explicit(line3, [[0, 1, 2]])
        tri = FKTriangulation(1, 2)
        mu = FiniteMeasure(line3, (0, 1), (0.5, 0.5))
        smap = from_function(tri, lambda y: mu)
        lab = label_simplices(smap, cov, 0.9, [tri.p])
        log = CertificationLog()
        rows = pump_vertex(smap, lab, 0.9, log)
        assert all(m == mu for m in vertex_measures(line3, tri, rows).values())
        assert len(rows) == tri.vertex_count
        # an interior vertex: its region mass, then a constant track
        assert self._records(log, "1") == [("mass_bound", 1.0)] + [("track", 1.0)] * 5

    def test_first_vertex_that_cannot_be_pumped_ends_the_log(self):
        # point 1 coincides with point 0, outside the label {1, 2}
        space = space_from_points([[0.0], [0.0], [2.0]])
        cov = Cover.explicit(space, [[0], [1, 2]])
        weights = np.array([[0.05, 0.9, 0.05], [0.0, 0.0, 1.0]])
        smap = SampledMap(FKTriangulation(1, 1), space, weights)
        lab = label_simplices(smap, cov, 0.75)
        log = CertificationLog()
        with pytest.raises(thickening.NoMCP, match="touching the complement"):
            pump_vertex(smap, lab, 0.75, log)
        assert [(r["stage"], r["id"], r["pass"]) for r in read_records(log)] == \
            [("pump", "0", False)]


class TestLinearize:
    def test_certified_map_keeps_the_vertex_values_and_labels(self, line3):
        cov = Cover.explicit(line3, [[0, 1, 2]])
        tri = FKTriangulation(1, 2)
        mu = FiniteMeasure(line3, (0, 1), (0.25, 0.75))
        smap = from_function(tri, lambda y: mu)
        lab = label_simplices(smap, cov, 0.9, [tri.p])
        rows = vertex_rows(tri, {v: mu for v in tri.vertices()})
        gmap = linearize(rows, lab, CertificationLog())
        assert gmap.tri == lab.tri and gmap.weights is rows and gmap.labeling is lab

    def test_log_records_one_passing_check_per_simplex(self, line3):
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])
        tri = FKTriangulation(2, 1)
        smap = from_function(tri, lambda y: dirac(line3, 1), dense_depth=None)
        lab = label_simplices(smap, cov, 0.9)
        log = CertificationLog()
        linearize(vertex_rows(tri, {v: dirac(line3, 1) for v in tri.vertices()}), lab, log)
        assert [(r["stage"], r["quantity"], r["pass"]) for r in read_records(log)] == \
            [("linearize", 0, True)] * tri.simplex_count

    def test_log_ends_at_the_offending_simplex(self, line3):
        cov = Cover.explicit(line3, [[0], [1, 2]])
        tri = FKTriangulation(1, 2)
        smap = from_function(tri, lambda y: dirac(line3, 0), dense_depth=None)
        lab = label_simplices(smap, cov, 0.9, [tri.p])
        values = {(0,): dirac(line3, 0), (1,): dirac(line3, 0),
                  (2,): FiniteMeasure(line3, (0, 1, 2), (0.5, 0.25, 0.25))}
        log = CertificationLog()
        from vkit.straightening import NotSubordinate
        with pytest.raises(NotSubordinate) as err:
            linearize(vertex_rows(tri, values), lab, log)
        assert err.value.simplex == ((1,), (0,))
        assert err.value.offending == frozenset({1, 2})
        assert [(r["quantity"], r["pass"]) for r in read_records(log)] == [(0, True), (2, False)]

    def test_escaping_support_is_rejected(self, line3):
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])
        tri = FKTriangulation(1, 1)
        values = {(0,): dirac(line3, 0), (1,): dirac(line3, 2)}
        smap = from_function(tri, lambda y: dirac(line3, 0),
                                        dense_depth=None)
        lab = label_simplices(smap, cov, 0.9)
        from vkit.straightening import NotSubordinate
        with pytest.raises(NotSubordinate):
            linearize(vertex_rows(tri, values), lab, CertificationLog())


class TestCertificationLog:
    def test_each_line_is_json_dumps_of_its_record(self):
        log, added = CertificationLog(), []

        def add(stage, ident, quantity, threshold, passed):
            log.add(stage, ident, quantity, threshold, passed)
            added.append({"stage": stage, "id": ident, "quantity": quantity,
                          "threshold": threshold, "pass": bool(passed)})

        add("build_fk", "simplices", 48, 0.0, True)
        add("linearize", "0,0|0,1", 2, 0.0, False)
        for q in (np.float64(0.1) / 3, math.inf, -math.inf, math.nan, np.float64(math.nan),
                  -0.0, 5e-324, 1e22, 1.0, np.float64(2.5)):
            add("track", "0,1:t=0.25", q, np.float64(0.9375), q > 0.9)
        add("pump", 'a "quote", a back\\slash, \u00fcn\u00efcode \u2713\n', 0.0, math.nan, False)
        add("choose_p", "p", 1, -math.inf, True)
        assert log.to_jsonl() == "".join(json.dumps(r, sort_keys=True) + "\n" for r in added)

    def test_an_empty_log_writes_nothing(self):
        assert CertificationLog().to_jsonl() == ""

    def test_counts_and_records_follow_the_lines(self):
        log = CertificationLog()
        assert log.all_pass() and log.stage_counts() == {} and log.records == []
        log.add("choose_p", "p", 0.9, 0.8, True)
        line = '{"id": "0", "pass": %s, "quantity": 0.5, "stage": "track", "threshold": 0.9}\n'
        log.extend(line % "true" + line % "false", {"track": (1, 1), "boundary": (0, 0)})
        assert log.stage_counts() == {"choose_p": {"pass": 1, "fail": 0},
                                      "track": {"pass": 1, "fail": 1}}
        assert not log.all_pass()
        assert log.records == log.to_jsonl().splitlines() and len(log.records) == 3
        assert [r["pass"] for r in read_records(log)] == [True, True, False]

    def test_number_columns_are_json_dumps_of_each_float(self):
        values = np.array([[0.0, -0.0, 0.1 + 0.2, 5e-324], [math.inf, -math.inf, math.nan, 1e16],
                           [0.0, 1.0, -0.0, 0.3]])
        assert _json_numbers(values) == [json.dumps(x) for x in values.ravel().tolist()]
        assert _json_numbers(values[:, 1]) == ["-0.0", "-Infinity", "1.0"]
        assert _json_numbers(np.zeros(0)) == []


def reference_labels(smap, cov, p, tri):
    """Smallest-id element every sample of each simplex of ``tri`` puts mass
    above p on, gathered sample by sample with the test's own rational
    locator; None when some simplex has none."""
    samples = {}
    dens = (smap.depth * smap.tri.p,) * tri.n
    for w, mu in ((w, sample_at(smap, smap.grid, w)) for w in smap.grid.vertices()):
        for key in simplex_keys_containing(tri.n, tri.p, w, dens):
            samples.setdefault(key, []).append(mu)
    labels = {}
    for s in tri.simplices():
        ids = [eid for eid, elem in enumerate(cov.elements)
               if all(mu.mass_of(elem) > p for mu in samples[(s.base, s.perm)])]
        if not ids:
            return None
        labels[(s.base, s.perm)] = ids[0]
    return labels


GENERATOR_CASES = [
    (constant_map, {}), (constant_map, {"n": 2}),
    (sliding_dirac_map, {}), (sliding_dirac_map, {"leak": 0.05}),
    (two_ball_map, {}), (two_ball_map, {"leak": 0.05}),
    (two_ball_map, {"n": 2}), (two_ball_map, {"n": 2, "leak": 0.05}),
    (two_ball_map, {"n": 3, "leak": 0.02}),
]


class TestResolutionSweep:
    @pytest.mark.parametrize("gen, kwargs", GENERATOR_CASES)
    def test_sweep_labels_match_label_simplices_and_the_reference(self, gen, kwargs):
        _, cover, smap = gen(**kwargs)
        p = choose_p(smap.tri.n)
        gmap, _ = straighten(smap, cover)
        lab = label_simplices(smap, cover, p, [gmap.tri.p])
        labels = label_dict(lab)
        assert label_dict(gmap.labeling) == labels == reference_labels(smap, cover, p, gmap.tri)
        # each vertex carries the labels of its star, as point location finds it
        tri = lab.tri
        assert vertex_labels(lab) == {
            v: tuple(sorted({labels[(s.base, s.perm)]
                             for s in tri.simplices_containing_fraction(v, tri.p)}))
            for v in tri.vertices()}
        # and the chosen resolution is the first divisor the reference can label
        for q in range(1, gmap.tri.p):
            if smap.tri.p % q == 0:
                assert reference_labels(smap, cover, p, FKTriangulation(smap.tri.n, q)) is None

    def test_dense_samples_refine_a_resolution_the_vertices_accept(self, line3):
        # every grid vertex sits on the shared point, so the vertices alone
        # accept resolution 1; interior samples cross from one element to
        # the other at y = 1/2, which only resolution 2 separates
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])

        def fn(y):
            if float(y[0] * 4).is_integer():
                return dirac(line3, 1)
            return dirac(line3, 0 if y[0] < 0.5 else 2)

        smap = from_function(FKTriangulation(1, 4), fn)
        gmap, log = straighten(smap, cov)
        assert log.all_pass()
        assert gmap.tri.p == 2
        assert label_dict(gmap.labeling) == {((0,), (0,)): 0, ((1,), (0,)): 1}
        with pytest.raises(NoLabel):
            label_simplices(smap, cov, choose_p(1), [1])

    def test_vertex_samples_are_visited_before_dense_ones(self, line3):
        # lattice 0..6 at res 2, depth 3; the vertices 3 and 6 already empty
        # the right simplex, the dense sample 1 would empty the left one first
        # in plain lex order; the sweep names the one the vertices show
        cov = Cover.explicit(line3, [[0, 1], [1, 2]])
        points = {0: 1, 1: 2, 2: 1, 3: 0, 4: 0, 5: 0, 6: 2}
        smap = from_function(
            FKTriangulation(1, 2), lambda y: dirac(line3, points[round(y[0] * 6)]), 3)
        with pytest.raises(NoLabel) as err:
            label_simplices(smap, cov, choose_p(1))
        assert err.value.simplex == ((1,), (0,))


class TestStraighten:
    def test_constant_map_is_all_trivial(self):
        _, cover, smap = constant_map()
        gmap, log = straighten(smap, cover)
        assert log.all_pass()
        values = vertex_measures(smap.space, gmap.tri, gmap.weights)
        for v in gmap.tri.vertices():
            assert values[v] == sample_at(smap, gmap.tri, v)

    def test_sliding_dirac_certifies(self):
        _, cover, smap = sliding_dirac_map()
        gmap, log = straighten(smap, cover)
        assert log.all_pass()
        # already subordinate: vertexwise exact equality with the input
        values = vertex_measures(smap.space, gmap.tri, gmap.weights)
        for v in gmap.tri.vertices():
            assert values[v] == sample_at(smap, gmap.tri, v)

    def test_leaky_two_ball_needs_real_pumps(self):
        _, cover, smap = two_ball_map(n=1, leak=0.05)
        gmap, log = straighten(smap, cover)
        assert log.all_pass()
        values = vertex_measures(smap.space, gmap.tri, gmap.weights)
        changed = [v for v in gmap.tri.vertices() if values[v] != sample_at(smap, gmap.tri, v)]
        assert changed, "leak must force at least one non-identity pump"

    def test_two_dimensional_benchmark(self):
        _, cover, smap = two_ball_map(n=2, leak=0.05)
        gmap, log = straighten(smap, cover)
        assert log.all_pass()
        stages = log.stage_counts()
        assert stages["track"]["fail"] == 0
        assert stages["linearize"]["fail"] == 0

    def test_three_dimensional_benchmark(self):
        _, cover, smap = two_ball_map(n=3, res=4, leak=0.02)
        gmap, log = straighten(smap, cover)
        assert log.all_pass()
        assert gmap.tri.n == 3
        assert log.stage_counts()["linearize"]["pass"] == gmap.tri.simplex_count

    def test_spread_benchmark_names_the_failing_stage(self):
        _, cover, smap = spread_map()
        with pytest.raises(PipelineError) as err:
            straighten(smap, cover)
        assert err.value.stage == "estimate_lebesgue"

    def test_log_is_deterministic(self):
        _, cover, smap = two_ball_map(n=1, leak=0.05)
        _, log1 = straighten(smap, cover)
        _, log2 = straighten(smap, cover)
        assert log1.to_jsonl() == log2.to_jsonl()


class TestPrismRetract:
    def test_bottom_face_is_fixed(self):
        x = (0.2, 0.3, 0.5)
        assert prism_retract(x, 0.0) == (x, 0.0)

    def test_walls_are_fixed(self):
        x = (0.0, 0.4, 0.6)
        point, t = prism_retract(x, 0.7)
        assert point == pytest.approx(x, abs=1e-15)
        assert t == 0.7

    def test_top_center_projects_to_bottom_center(self):
        point, t = prism_retract((1 / 3, 1 / 3, 1 / 3), 1.0)
        assert point == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
        assert t == 0.0

    def test_idempotent(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 6))
            x = rng.dirichlet(np.ones(k))
            t = float(rng.uniform(0, 1))
            p1, t1 = prism_retract(x, t)
            p2, t2 = prism_retract(p1, t1)
            assert max(abs(a - b) for a, b in zip(p1, p2)) <= 1e-12
            assert abs(t1 - t2) <= 1e-12

    def test_lands_in_the_target_set(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 6))
            x = rng.dirichlet(np.ones(k))
            t = float(rng.uniform(0, 1))
            point, new_t = prism_retract(x, t)
            assert new_t == 0.0 or min(point) <= 1e-12
