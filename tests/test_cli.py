import ast
import copy
import functools
import inspect
import itertools
import json
import math
import os
import string
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vkit.cli import _map_from_spec, _summary_json, main, make_parser
from vkit.complexes import FilteredComplex, build_vr
from vkit.generators import GENERATORS
from vkit.metric import space_from_points
from vkit.persistence import compute_diagram

from test_outputs_are_pinned import tiny_gap_spec

SQUARE_CSV = "0,0\n1,0\n1,1\n0,1\n"


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text(SQUARE_CSV)
    return path


class TestPersist:
    def test_square_vr_diagram(self, tmp_path, square_csv):
        out = tmp_path / "out"
        assert main(["persist", "--input", str(square_csv), "--out", str(out)]) == 0
        rows = (out / "diagram.csv").read_text().splitlines()
        assert rows[0] == "dim,birth,death"
        h1 = [r for r in rows if r.startswith("1,")]
        assert h1 == [f"1,1.0,{math.sqrt(2)!r}"]
        assert (out / "diagram.svg").read_text().startswith("<svg")

    def test_cech_filtration(self, tmp_path, square_csv):
        out = tmp_path / "out"
        code = main(["persist", "--input", str(square_csv),
                     "--filtration", "cech", "--out", str(out)])
        assert code == 0
        rows = (out / "diagram.csv").read_text().splitlines()
        assert all(not r.startswith("1,") for r in rows[1:])  # cycle fills at birth

    def test_empty_file_is_an_input_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["persist", "--input", str(empty), "--out", str(tmp_path / "o")]) == 2

    def test_distance_matrix_input(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("0,1\n1,0\n")
        out = tmp_path / "out"
        assert main(["persist", "--input", str(csv), "--out", str(out)]) == 0
        assert "0,0.0,1.0" in (out / "diagram.csv").read_text()

    def test_corrupt_matrix_is_an_input_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("0,1,3\n1,0,1\n3,1,0\n")
        assert main(["persist", "--input", str(csv), "--input-kind", "matrix",
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("kind", ["auto", "points", "matrix"])
    def test_ragged_rows_are_named_for_every_kind(self, tmp_path, capsys, kind):
        csv = tmp_path / "ragged.csv"
        csv.write_text("0,1\n1,0,2\n")
        assert main(["persist", "--input", str(csv), "--input-kind", kind,
                     "--out", str(tmp_path / "o")]) == 2
        assert "rows have inconsistent column counts" in capsys.readouterr().err

    @pytest.mark.parametrize("row, named", [("nan,1", "nan"), ("inf,1", "inf")])
    def test_non_finite_coordinate_is_an_input_error(self, tmp_path, capsys, row, named):
        csv = tmp_path / "bad.csv"
        csv.write_text(f"0,0\n{row}\n1,1\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["persist", "--input", str(csv), "--out", str(out)]) == 2
        assert f"coords[1][0] = {named} is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_size_guard_refuses_before_building(self, tmp_path, capsys):
        # 100 points with --kmax 4 would build about 3.9 million tetrahedra
        # (the 4-simplices are read from the rule, not built)
        csv = tmp_path / "cloud.csv"
        rng = np.random.default_rng(0)
        np.savetxt(csv, rng.uniform(0, 1, size=(100, 2)), delimiter=",")
        code = main(["persist", "--input", str(csv), "--kmax", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "3921225 candidate 3-simplices exceed the guard" in capsys.readouterr().err

    def test_two_hundred_points_pass_the_guard(self, tmp_path):
        # --kmax 2 builds the 19,900 edges and reads the 1,313,400 triangles
        # from the rule, so the guard no longer refuses
        from scipy.sparse.csgraph import minimum_spanning_tree

        points = np.random.default_rng(0).uniform(0, 1, size=(200, 2))
        csv = tmp_path / "cloud.csv"
        np.savetxt(csv, points, delimiter=",", fmt="%.18e")
        out = tmp_path / "o"
        assert main(["persist", "--input", str(csv), "--kmax", "2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "diagram.csv").read_text().splitlines()[1:]]
        deaths = sorted(float(d) for q, _, d in rows if q == "0" and d != "inf")
        dist = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=-1))
        assert deaths == pytest.approx(sorted(minimum_spanning_tree(dist).data), abs=1e-12)
        assert sum(1 for q, _, d in rows if q == "0" and d == "inf") == 1

    @pytest.mark.parametrize("filtration", ["vr", "cech"])
    def test_kmax_one_shares_the_guard(self, tmp_path, capsys, monkeypatch, filtration):
        # every pair is a candidate edge, and --kmax 1 builds the edges too
        from vkit import complexes

        csv = tmp_path / "cloud.csv"
        np.savetxt(csv, np.random.default_rng(0).uniform(0, 1, size=(30, 2)), delimiter=",")
        argv = ["persist", "--input", str(csv), "--filtration", filtration, "--kmax", "1"]
        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", 30 * 29 // 2 - 1)
        assert main(argv + ["--out", str(tmp_path / "refused")]) == 2
        assert "435 candidate 1-simplices exceed the guard 434" in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()
        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", 30 * 29 // 2)
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("kmax", ["1", "2", "3"])
    def test_an_over_guard_cloud_is_refused_before_any_distance(self, tmp_path, capsys,
                                                                 monkeypatch, kmax):
        # C(1415, 2) = 1,000,405 candidate edges; neither the distances nor
        # the triangle scan of the metric may run
        from vkit import metric

        def never(*args):
            raise AssertionError("a distance was computed")

        monkeypatch.setattr(metric, "space_from_points", never)
        monkeypatch.setattr(metric, "validate_metric", never)
        csv = tmp_path / "cloud.csv"
        np.savetxt(csv, np.random.default_rng(0).uniform(0, 1, size=(1415, 2)), delimiter=",")
        assert main(["persist", "--input", str(csv), "--kmax", kmax,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == \
            "error: 1000405 candidate 1-simplices exceed the guard 1000000\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("filtration", ["vr", "cech"])
    @pytest.mark.parametrize("r", [None, "0.3"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kmax_one_gives_the_h0_rows_of_kmax_two(self, tmp_path, filtration, r, seed):
        # seeded clouds with some points repeated, so some edges enter at 0
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 1, size=(int(rng.integers(8, 40)), 2))
        points = np.concatenate([points, points[rng.choice(len(points), size=3)]])
        csv = tmp_path / "cloud.csv"
        np.savetxt(csv, points, delimiter=",", fmt="%.18e")
        h0 = []
        for kmax in ("1", "2"):
            out = tmp_path / f"k{kmax}"
            argv = ["persist", "--input", str(csv), "--filtration", filtration,
                    "--kmax", kmax, "--out", str(out)]
            assert main(argv + (["--r", r] if r else [])) == 0
            h0.append([row for row in (out / "diagram.csv").read_text().splitlines()
                       if row.startswith("0,")])
        assert h0[0] == h0[1] and h0[0]

    @pytest.mark.parametrize("filtration", ["vr", "cech"])
    @pytest.mark.parametrize("kmax", [1, 2, 3])
    def test_the_top_level_is_not_built(self, tmp_path, monkeypatch, square_csv,
                                        filtration, kmax):
        import vkit.cli
        seen = []

        def capture(K, max_dim):
            seen.append((K, max_dim))
            return compute_diagram(K, max_dim)

        monkeypatch.setattr(vkit.cli, "compute_diagram", capture)
        assert main(["persist", "--input", str(square_csv), "--filtration", filtration,
                     "--kmax", str(kmax), "--out", str(tmp_path / "o")]) == 0
        [(K, max_dim)] = seen
        assert max_dim == kmax - 1 and K.extend is not None
        # the edges are built even at --kmax 1, since H0 reads them
        assert max(map(len, K.simplices)) == max(2, kmax)

    @pytest.mark.parametrize("filtration", ["vr", "cech"])
    @pytest.mark.parametrize("kmax", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [None, "0.6"])
    def test_builds_no_simplex_dict(self, tmp_path, monkeypatch, filtration, kmax, r):
        # the complex is its levels' arrays; the dict is a view for other readers
        def refuse(K):
            raise AssertionError("persist read FilteredComplex.simplices")

        monkeypatch.setattr(FilteredComplex, "simplices", property(refuse))
        with pytest.raises(AssertionError):
            build_vr(space_from_points([[0.0], [1.0]]), math.inf, 1).simplices
        csv = tmp_path / "cloud.csv"
        np.savetxt(csv, np.random.default_rng(5).uniform(0, 1, size=(12, 2)), delimiter=",")
        argv = ["persist", "--input", str(csv), "--filtration", filtration,
                "--kmax", str(kmax), "--out", str(tmp_path / "o")]
        assert main(argv + (["--r", r] if r else [])) == 0
        assert (tmp_path / "o" / "diagram.csv").read_text().startswith("dim,birth,death\n0,")

    def test_nan_threshold_is_an_input_error(self, tmp_path, capsys, square_csv):
        out = tmp_path / "o"
        assert main(["persist", "--input", str(square_csv), "--r", "nan",
                     "--out", str(out)]) == 2
        assert "--r must be a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        (["--kmax", "0"], "persistence needs --kmax >= 1"),
        (["--r", "nan"], "--r must be a number, got nan")])
    def test_bad_flags_are_refused_before_the_input_is_read(self, tmp_path, capsys,
                                                            monkeypatch, square_csv,
                                                            flag, message):
        def never(path):
            raise AssertionError("the input was read")

        monkeypatch.setattr("vkit.cli.read_csv_rows", never)
        assert main(["persist", "--input", str(square_csv), *flag,
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_nonpositive_threshold_gives_an_empty_diagram(self, tmp_path, square_csv, r,
                                                          monkeypatch):
        # no vertex, so no candidate edge: even a guard of 0 refuses nothing
        from vkit import complexes

        monkeypatch.setattr(complexes, "PERSIST_SIMPLEX_GUARD", 0)
        out = tmp_path / "o"
        assert main(["persist", "--input", str(square_csv), "--r", r, "--out", str(out)]) == 0
        assert (out / "diagram.csv").read_text() == "dim,birth,death\n"

    @pytest.mark.parametrize("filtration, top", [("vr", "1"), ("cech", "2")])
    def test_kmax_far_above_the_complex_costs_nothing(self, tmp_path, filtration, top):
        # 5 points span at most a 4-simplex: the expansion stops there and
        # the diagram is the one any --kmax >= 5 gives, however large
        csv = tmp_path / "five.csv"
        csv.write_text(SQUARE_CSV + "3,0\n")
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["persist", "--input", str(csv), "--filtration", filtration,
                     "--kmax", str(10 ** 6), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        assert (out / "diagram.csv").read_text() == (
            "dim,birth,death\n" + "0,0.0,1.0\n" * 3 + "0,0.0,2.0\n0,0.0,inf\n"
            f"{top},1.0,{math.sqrt(2)!r}\n")

    def test_svg_title_of_any_file_name_is_well_formed(self, tmp_path):
        from xml.etree import ElementTree

        csv = tmp_path / "a&b<c>d.csv"
        csv.write_text(SQUARE_CSV)
        out = tmp_path / "o"
        assert main(["persist", "--input", str(csv), "--out", str(out)]) == 0
        svg = ElementTree.fromstring((out / "diagram.svg").read_text())
        title = svg.find("{http://www.w3.org/2000/svg}text").text
        assert title == "vr persistence (a&b<c>d.csv)"

    def test_byte_identical_reruns(self, tmp_path, square_csv):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["persist", "--input", str(square_csv), "--out", str(out)])
            outs.append(((out / "diagram.csv").read_bytes(),
                         (out / "diagram.svg").read_bytes()))
        assert outs[0] == outs[1]


class TestFK:
    def test_certificate_values(self, tmp_path):
        out = tmp_path / "fk"
        assert main(["fk", "--n", "2", "--res", "2", "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["simplex_count"] == 8
        assert cert["max_vertex_star"] == 6
        assert cert["max_diameter"] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert (out / "mesh.off").read_text().startswith("OFF\n9 8 0\n")

    def test_tetrahedra_count(self, tmp_path):
        out = tmp_path / "fk3"
        assert main(["fk", "--n", "3", "--res", "1", "--out", str(out)]) == 0
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["simplex_count"] == 6

    def test_resource_guard(self, tmp_path):
        assert main(["fk", "--n", "5", "--res", "10", "--out", str(tmp_path / "x")]) == 2


class TestStraighten:
    def test_generator_run_passes(self, tmp_path):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "sliding_dirac", "leak": 0.05}))
        out = tmp_path / "out"
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_pass"] is True
        log_lines = (out / "certification.jsonl").read_text().splitlines()
        assert all(json.loads(line)["pass"] for line in log_lines)

    def test_explicit_vertex_measures(self, tmp_path):
        spec = {
            "points": [[0.0], [1.0], [2.0]],
            "cover": [[0, 1], [1, 2]],
            "n": 1,
            "res": 2,
            "vertices": {
                "0": {"support": [0], "weights": [1.0]},
                "1": {"support": [1], "weights": [1.0]},
                "2": {"support": [2], "weights": [1.0]},
            },
        }
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert main(["straighten", "--input", str(path), "--out", str(out)]) == 0

    def test_unknown_generator_parameter_is_an_input_error(self, tmp_path, capsys):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "bogus": 1}))
        assert main(["straighten", "--input", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "'bogus'" in capsys.readouterr().err

    def test_failing_generator_exits_three(self, tmp_path):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "spread"}))
        out = tmp_path / "out"
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed_stage"] == "estimate_lebesgue"

    @pytest.mark.parametrize("pmass", ["nan", "inf", "-inf"])
    def test_nonfinite_pmass_is_an_input_error(self, tmp_path, capsys, pmass):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 1}))
        out = tmp_path / "o"
        assert main(["straighten", "--input", str(spec), f"--pmass={pmass}",
                     "--out", str(out)]) == 2
        assert "error: --pmass must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("pmass", ["0.1", "1.0", "2"])
    def test_finite_pmass_out_of_range_fails_at_choose_p(self, tmp_path, pmass):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 1}))
        out = tmp_path / "o"
        assert main(["straighten", "--input", str(spec), "--pmass", pmass,
                     "--out", str(out)]) == 3
        assert json.loads((out / "summary.json").read_text())["failed_stage"] == "choose_p"

    @pytest.mark.parametrize("generator", ["two_ball", "sliding_dirac"])
    @pytest.mark.parametrize("leak", [-0.5, 1.5, 1e308, math.nan, math.inf])
    def test_leak_outside_the_unit_interval_is_named(self, tmp_path, capsys, generator, leak):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": generator, "leak": leak}))
        out = tmp_path / "o"
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 2
        assert "'leak' must be a number in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_full_leak_is_accepted_and_fails_at_labeling(self, tmp_path):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "leak": 1.0}))
        out = tmp_path / "o"
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 3
        assert json.loads((out / "summary.json").read_text())["failed_stage"] == \
            "estimate_lebesgue"

    def test_three_dimensional_two_ball_certifies(self, tmp_path):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 3, "res": 4, "leak": 0.02}))
        out = tmp_path / "o"
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_pass"] is True and summary["dimension"] == 3

    def test_three_dimensional_leak_above_the_margin_fails_at_labeling(self, tmp_path):
        # p = 1 - 1/96 at n = 3: a leak above 3(1 - p), about 0.031, leaves no
        # cover element with mass above p at any sample
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 3, "res": 4, "leak": 0.04}))
        out = tmp_path / "o"
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 3
        assert json.loads((out / "summary.json").read_text())["failed_stage"] == \
            "estimate_lebesgue"

    def test_three_dimensional_guard_counts_the_dense_depth(self, tmp_path, capsys):
        # 3! * (3 * 19)^3 = 1,111,158 simplices at the default depth
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 3, "res": 19}))
        assert main(["straighten", "--input", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "3! * 57^3 simplices exceed the resource guard" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 1, "leak": 0.05}))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 0
            blobs.append(((out / "certification.jsonl").read_bytes(),
                          (out / "summary.json").read_bytes()))
        assert blobs[0] == blobs[1]


    @pytest.mark.parametrize("gap, kind", [(1e-7, "points"), (1e-300, "distances")])
    def test_a_tiny_gap_to_the_region_costs_no_time(self, tmp_path, gap, kind):
        # vertex "0" keeps its mass only in the inner set reached at i near 1 / gap
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps(tiny_gap_spec(gap, kind)))
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        vertices = json.loads((out / "summary.json").read_text())["vertices"]
        assert vertices["0"]["support"] == [0, 2]

    def test_a_gap_below_every_float_step_fails_at_the_vertex_stage(self, tmp_path, capsys):
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps(tiny_gap_spec(5e-324, "distances")))
        out = tmp_path / "o"
        assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "pipeline failed at stage 'pump_vertex': a point of U lies 5e-324 from its "
            "complement, below 1/i for every i\n")
        assert json.loads((out / "summary.json").read_text())["failed_stage"] == "pump_vertex"

    def test_seed_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            make_parser().parse_args(["straighten", "--input", "x.json", "--seed", "5"])
        assert err.value.code == 2

    def test_size_guard_refuses_before_the_generator_runs(self, tmp_path, capsys, monkeypatch):
        real = GENERATORS["two_ball"]

        @functools.wraps(real)          # keeps the signature the CLI inspects
        def never(**kwargs):
            raise AssertionError("the generator must not run on a refused spec")

        monkeypatch.setitem(GENERATORS, "two_ball", never)
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 2, "res": 5000}))
        assert main(["straighten", "--input", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "resource guard" in capsys.readouterr().err

    def test_size_guard_refuses_an_explicit_grid(self, tmp_path, capsys):
        spec = dict(EXPLICIT_SPEC, res=10 ** 7)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        assert main(["straighten", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "resource guard" in capsys.readouterr().err

    def test_size_guard_counts_the_dense_depth(self, tmp_path, capsys, monkeypatch):
        real = GENERATORS["constant"]

        @functools.wraps(real)
        def never(**kwargs):
            raise AssertionError("the generator must not run on a refused spec")

        monkeypatch.setitem(GENERATORS, "constant", never)
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "constant", "n": 2, "res": 4,
                                    "dense_depth": 10 ** 4}))
        assert main(["straighten", "--input", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "resource guard" in capsys.readouterr().err

    def test_size_guard_counts_the_dense_depth_at_a_default_resolution(self, tmp_path, capsys):
        # two_ball picks its resolution itself, so the guard runs where it samples
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "two_ball", "n": 2, "dense_depth": 10 ** 4}))
        assert main(["straighten", "--input", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "resource guard" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, named", [
        ({"generator": "two_ball", "dense_depth": "3"}, "'dense_depth' must be int or null"),
        ({"generator": "two_ball", "dense_depth": 2.5}, "'dense_depth' must be int or null"),
        ({"generator": "two_ball", "dense_depth": True}, "'dense_depth' must be int or null"),
        ({"generator": "two_ball", "dense_depth": 0}, "'dense_depth' must be an integer >= 1"),
        ({"generator": "constant", "dense_depth": -1}, "'dense_depth' must be an integer >= 1"),
        ({"generator": "two_ball", "leak": "x"}, "'leak' must be int or float"),
        ({"generator": "sliding_dirac", "leak": None}, "'leak' must be int or float"),
        ({"generator": "constant", "res": None}, "'res' must be int"),
        ({"generator": "two_ball", "n": 1.0}, "'n' must be int"),
        ({"generator": "constant", "point": False}, "'point' must be int"),
        ({"generator": ["two_ball"]}, "unknown generator ['two_ball']"),
    ])
    def test_generator_parameter_of_the_wrong_type_is_an_input_error(self, tmp_path, capsys,
                                                                      spec, named):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        assert main(["straighten", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("extra, named", [
        ({"extra": 1}, "'extra'"),
        ({"distances": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}, "'distances'"),
        ({"cover": {"balls": 1.5, "radius": 2.0}}, "'radius'"),
    ])
    def test_explicit_spec_with_an_unknown_key_is_an_input_error(self, tmp_path, capsys,
                                                                extra, named):
        spec = {**EXPLICIT_SPEC, **extra}
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        assert main(["straighten", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err

    def test_zero_weight_support_index_out_of_range_is_an_input_error(self, tmp_path, capsys):
        spec = copy.deepcopy(EXPLICIT_SPEC)
        spec["vertices"]["1"] = {"support": [1, 99], "weights": [1.0, 0.0]}
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        assert main(["straighten", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "support index 99 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, named", [
        (lambda s: s.update(vertices=[]), "'vertices'"),
        (lambda s: s["vertices"]["0"].update(support=5), "vertex '0' support"),
        (lambda s: s["vertices"]["0"].update(support=[3]), "support index 3 out of range"),
        (lambda s: s.update(cover=[[0, 1], [1, 3]]), "cover element index 3 out of range"),
        (lambda s: s["vertices"].update({"7": s["vertices"]["0"]}), "(7,)"),
        (lambda s: s["vertices"].update({"0,0": s["vertices"]["0"]}), "(0, 0)"),
        (lambda s: s["vertices"].update({"01": s["vertices"]["0"]}), "'01'"),
    ])
    def test_malformed_explicit_spec_is_an_input_error(self, tmp_path, capsys, corrupt, named):
        spec = copy.deepcopy(EXPLICIT_SPEC)
        corrupt(spec)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        assert main(["straighten", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        assert named in capsys.readouterr().err


def _grid_keys(n, res):
    """The vertex keys of a grid, in lattice (not string) order."""
    return [",".join(map(str, v)) for v in itertools.product(range(res + 1), repeat=n)]


STAGES = {"label": {"pass": 128, "fail": 0}, "boundary": {"pass": 40, "fail": 0},
          "choose_p": {"pass": 1, "fail": 0}}
SUMMARY_CASES = {
    "res 11 keys": (STAGES, 11, 2, {key: ((0, 1), (0.25, 0.75)) for key in _grid_keys(2, 11)}),
    "n=3 keys and one-point supports": (
        STAGES, 3, 3, {key: ((i % 3,), (1.0,)) for i, key in enumerate(_grid_keys(3, 3))}),
    "extreme weights": (STAGES, 1, 1, {"0": ((0, 1, 2, 7), (5e-324, 1e16, 0.1 + 0.2, 1.0)),
                                       "1": ((3,), (1.0,))}),
    "no stages": ({}, 1, 1, {"0": ((0,), (1.0,)), "1": ((1,), (1.0,))}),
    "a failing stage": ({**STAGES, "track": {"pass": 3, "fail": 2}}, 10, 1,
                        {key: ((0, 1), (0.5, 0.5)) for key in _grid_keys(1, 10)}),
}


@pytest.mark.parametrize("stages, res, n, vertices", SUMMARY_CASES.values(),
                         ids=SUMMARY_CASES.keys())
def test_summary_template_is_json_dumps_of_the_summary(stages, res, n, vertices):
    summary = {"all_pass": all(c["fail"] == 0 for c in stages.values()), "stages": stages,
               "resolution": res, "dimension": n,
               "vertices": {key: {"support": list(support), "weights": list(weights)}
                            for key, (support, weights) in vertices.items()}}
    # the measures as rows of point weights, one per vertex in lattice order
    assert list(vertices) == _grid_keys(n, res)
    weights = np.zeros((len(vertices), 1 + max(max(s) for s, _ in vertices.values())))
    for row, (support, w) in zip(weights, vertices.values()):
        row[list(support)] = w
    assert _summary_json(stages, res, n, weights) == \
        json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_straighten_never_runs_the_pure_python_json_encoder(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):        # the guard catches indented dumps
        json.dumps({"a": 1}, indent=2)
    spec = tmp_path / "map.json"
    spec.write_text(json.dumps({"generator": "two_ball", "n": 2, "res": 11, "leak": 0.05}))
    out = tmp_path / "out"
    assert main(["straighten", "--input", str(spec), "--out", str(out)]) == 0
    monkeypatch.undo()
    summary = (out / "summary.json").read_text()
    assert '"0,10": {' in summary
    assert summary == json.dumps(json.loads(summary), indent=2, sort_keys=True) + "\n"
    for line in (out / "certification.jsonl").read_text().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)


EXPLICIT_SPEC = {
    "points": [[0.0], [1.0], [2.0]],
    "cover": [[0, 1], [1, 2]],
    "n": 1,
    "res": 2,
    "vertices": {str(i): {"support": [i], "weights": [1.0]} for i in range(3)},
}

# JSON values of every type; each corruption below draws from these only
# values that cannot stand where it puts them
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(string.ascii_letters, max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(string.ascii_letters, max_size=3), inner, max_size=3),
    max_leaves=6)
NOT_A_LIST = JSON.filter(lambda v: not isinstance(v, list))
NOT_A_NUMBER = JSON.filter(lambda v: type(v) not in (int, float))
NOT_AN_INT = JSON.filter(lambda v: type(v) is not int)


def _with_entry(entry):
    """A nonempty list holding ``entry`` among valid-looking integers."""
    return st.tuples(st.lists(st.integers(0, 2), max_size=2), entry).map(
        lambda pair: pair[0] + [pair[1]])


def _set(path, value):
    def corrupt(spec):
        *parents, last = path
        node = spec
        for key in parents:
            node = node[key]
        node[last] = value
    return corrupt


def _replaced_by(new):
    def corrupt(spec):
        spec.clear()
        spec.update(new)
    return corrupt


# a value no generator accepts for the parameter: the wrong JSON type, or
# an integer out of range (null stands only for two_ball's default res and
# for dense_depth, so it is left out where it could be valid)
BAD_PARAM = {
    "n": NOT_AN_INT | st.integers(max_value=0),
    "res": NOT_AN_INT.filter(lambda v: v is not None) | st.integers(max_value=0),
    "point": NOT_AN_INT | st.integers().filter(lambda i: not 0 <= i < 3),
    "leak": NOT_A_NUMBER | st.sampled_from([-0.5, 1.5, 1e308, math.nan]),
    "dense_depth": NOT_AN_INT.filter(lambda v: v is not None) | st.integers(max_value=0),
}
BAD_GENERATOR_NAME = JSON.filter(lambda v: not (type(v) is str and v in GENERATORS)).map(
    lambda v: _replaced_by({"generator": v}))
BAD_GENERATOR_SPEC = st.sampled_from(
    [(name, key) for name, gen in sorted(GENERATORS.items())
     for key in inspect.signature(gen).parameters]).flatmap(
    lambda nk: BAD_PARAM[nk[1]].map(lambda v: _replaced_by({"generator": nk[0], nk[1]: v})))

MALFORMED = st.one_of(
    NOT_A_LIST.map(lambda v: _set(("points",), v)),
    _with_entry(NOT_A_NUMBER).map(lambda row: _set(("points", 1), row)),
    NOT_A_LIST.filter(lambda v: not (isinstance(v, dict) and "balls" in v))
    .map(lambda v: _set(("cover",), v)),
    _with_entry(NOT_AN_INT | st.integers().filter(lambda i: not 0 <= i < 3))
    .map(lambda e: _set(("cover", 1), e)),
    JSON.filter(lambda v: not (type(v) is int and v == 1)).map(lambda v: _set(("n",), v)),
    JSON.filter(lambda v: not (type(v) is int and v == 2)).map(lambda v: _set(("res",), v)),
    NOT_A_LIST.filter(lambda v: not isinstance(v, dict)).map(lambda v: _set(("vertices",), v)),
    JSON.filter(lambda v: not isinstance(v, dict)).map(lambda v: _set(("vertices", "1"), v)),
    st.text(string.digits + ", -+ab", min_size=1, max_size=5)
    .filter(lambda k: k not in ("0", "1", "2"))
    .map(lambda k: _set(("vertices", k), {"support": [0], "weights": [1.0]})),
    NOT_A_LIST.map(lambda v: _set(("vertices", "1", "support"), v)),
    _with_entry(NOT_AN_INT | st.integers().filter(lambda i: not 0 <= i < 3))
    .map(lambda s: _set(("vertices", "1", "support"), s)),
    NOT_A_LIST.map(lambda v: _set(("vertices", "1", "weights"), v)),
    _with_entry(NOT_A_NUMBER).map(lambda w: _set(("vertices", "1", "weights"), w)),
    BAD_GENERATOR_SPEC,
    BAD_GENERATOR_NAME,
)


class TestMalformedInputFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.filter_too_much])
    @given(corrupt=MALFORMED)
    def test_every_malformed_map_spec_exits_two(self, tmp_path, corrupt):
        spec = copy.deepcopy(EXPLICIT_SPEC)
        corrupt(spec)
        path = tmp_path / "map.json"
        path.write_text(json.dumps(spec))
        assert main(["straighten", "--input", str(path), "--out", str(tmp_path / "o")]) == 2
        with pytest.raises((ValueError, KeyError, IndexError)):
            _map_from_spec(spec)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=3).map(
               lambda r: r[:2]), min_size=2, max_size=5),
           how=st.sampled_from(["word", "ragged", "nonfinite", "empty"]),
           word=st.text(string.ascii_letters, min_size=1, max_size=4),
           bad=st.sampled_from(["nan", "inf", "-inf"]),
           at=st.integers(0, 100),
           kind=st.sampled_from(["auto", "points", "matrix"]))
    def test_every_malformed_csv_exits_two(self, tmp_path, rows, how, word, bad, at, kind):
        cells = [[repr(x) for x in r] for r in rows]
        i = at % len(cells)
        if how == "word":
            cells[i][at % 2] = word
        elif how == "ragged":
            cells[i].pop()
        elif how == "nonfinite":
            cells[i][at % 2] = bad
        else:
            cells = []
        path = tmp_path / "bad.csv"
        path.write_text("".join(",".join(r) + "\n" for r in cells))
        assert main(["persist", "--input", str(path), "--input-kind", kind,
                     "--out", str(tmp_path / "o")]) == 2


class TestVerify:
    def test_small_run_passes(self):
        assert main(["verify", "--trials", "5", "--seed", "11"]) == 0

    def test_zero_trials_is_a_vacuous_pass(self, capsys):
        assert main(["verify", "--trials", "0"]) == 0
        assert "vacuous" in capsys.readouterr().err

    def test_negative_trials_is_an_input_error(self, capsys):
        assert main(["verify", "--trials", "-3"]) == 2
        captured = capsys.readouterr()
        assert "--trials must be >= 0, got -3" in captured.err
        assert captured.out == ""

    def test_negative_seed_is_an_input_error(self, capsys):
        assert main(["verify", "--trials", "1", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    @staticmethod
    def _stub_checks(monkeypatch) -> list:
        import vkit.cli
        from vkit.verify import CheckResult
        calls = []

        def run_all(seed, trials):
            calls.append((seed, trials))
            return [CheckResult("stub", trials, 0)]

        monkeypatch.setattr(vkit.cli, "run_all", run_all)
        return calls

    def test_trials_above_the_guard_are_refused(self, capsys, monkeypatch):
        calls = self._stub_checks(monkeypatch)
        assert main(["verify", "--trials", "10001"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --trials must be <= 10000, got 10001\n"
        assert captured.out == "" and calls == []

    def test_trials_at_the_guard_run(self, capsys, monkeypatch):
        calls = self._stub_checks(monkeypatch)
        assert main(["verify", "--trials", "10000", "--seed", "3"]) == 0
        assert calls == [(3, 10000)]

    @pytest.mark.parametrize("text, named", [(None, "No such file or directory"),
                                             ("a,b\n", "could not convert string to float")])
    def test_unreadable_input_is_an_input_error(self, tmp_path, capsys, monkeypatch,
                                                text, named):
        calls = self._stub_checks(monkeypatch)
        path = tmp_path / "in.csv"
        if text is not None:
            path.write_text(text)
        assert main(["verify", "--trials", "1", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot load {path}: ")
        assert named in captured.err
        assert captured.out == "" and calls == []

    def test_corrupted_metric_input_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1,3\n1,0,1\n3,1,0\n")
        assert main(["verify", "--trials", "0", "--input", str(bad),
                     "--input-kind", "matrix"]) == 1


class TestUnwritableOut:
    """An --out that cannot be made a directory is an input error, for
    every command that writes one; nothing is created, and persist refuses
    it before it builds the complex."""

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["persist", "fk", "straighten"])
    def test_exits_2_with_a_message(self, tmp_path, capsys, monkeypatch, square_csv, command,
                                    under):
        def build_vr(*args):
            raise AssertionError("the complex was built")

        monkeypatch.setattr("vkit.cli.build_vr", build_vr)
        spec = tmp_path / "map.json"
        spec.write_text(json.dumps({"generator": "sliding_dirac", "leak": 0.05}))
        argv = {"persist": ["persist", "--input", str(square_csv)],
                "fk": ["fk", "--n", "2", "--res", "2"],
                "straighten": ["straighten", "--input", str(spec)]}[command]
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        files = sorted(tmp_path.iterdir())
        out = blocker / "x" if under else blocker
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write to {out}: ")
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == files
        assert blocker.read_text() == "kept\n"


class TestOverflowingCoordinates:
    """Points whose differences overflow are refused with the one line that
    says so, and no numpy warning, by every command that reads points."""

    ROWS = [[0, 0], [1e308, 0], [-1e308, 0]]

    @staticmethod
    def _run(tmp_path, *argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
        return subprocess.run([sys.executable, "-m", "vkit.cli", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    def _csv(self, tmp_path):
        (tmp_path / "big.csv").write_text("".join(f"{x},{y}\n" for x, y in self.ROWS))
        return "big.csv"

    def test_persist(self, tmp_path):
        run = self._run(tmp_path, "persist", "--input", self._csv(tmp_path), "--out", "o")
        assert run.returncode == 2
        assert run.stderr == "error: cannot load big.csv: dist[0][1] = inf is not finite\n"

    def test_straighten(self, tmp_path):
        spec = {"points": self.ROWS, "cover": [[0, 1, 2]], "n": 1, "res": 1,
                "vertices": {k: {"support": [0], "weights": [1.0]} for k in ("0", "1")}}
        (tmp_path / "big.json").write_text(json.dumps(spec))
        run = self._run(tmp_path, "straighten", "--input", "big.json", "--out", "o")
        assert run.returncode == 2
        assert run.stderr == \
            "error: cannot build map from big.json: dist[0][1] = inf is not finite\n"

    def test_verify_input(self, tmp_path):
        # verify reports a refused input as its failing first row, exit 1
        run = self._run(tmp_path, "verify", "--trials", "0", "--input", self._csv(tmp_path))
        assert run.returncode == 1
        assert run.stderr == "warning: --trials 0 makes every randomized check vacuous\n"
        assert "FAIL  (dist[0][1] = inf is not finite)" in run.stdout.splitlines()[1]


class TestEnvironment:
    def test_no_thread_variable_is_read(self, monkeypatch, tmp_path, square_csv):
        # every path is serial, so no thread count is read from the environment
        monkeypatch.setenv("VKIT_THREADS", "abc")
        assert main(["persist", "--input", str(square_csv), "--out", str(tmp_path / "o")]) == 0

    def test_verify_loads_no_scipy_module(self):
        # verify reaches every check, the bottleneck distance included; list
        # the scipy modules loaded rather than time the run, so start-up cost
        # cannot creep back unnoticed
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys; from vkit.cli import main; code = main(['verify', '--trials', '2']); "
                 "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
                 "file=sys.stderr)")
        run = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stderr.splitlines()[-1] == "0 []"

    def test_no_module_imports_scipy(self):
        for path in sorted((Path(__file__).resolve().parent.parent / "src" / "vkit").glob("*.py")):
            tree = ast.parse(path.read_text())
            names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
            names |= {node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and node.module}
            assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


class TestParser:
    @pytest.mark.parametrize("cmd", ["persist", "fk", "straighten", "verify"])
    def test_help_exits_zero(self, cmd):
        with pytest.raises(SystemExit) as err:
            make_parser().parse_args([cmd, "--help"])
        assert err.value.code == 0
