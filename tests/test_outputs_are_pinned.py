"""Golden outputs: a fixed list of CLI calls whose every byte is pinned.

Each call runs ``vkit.cli.main`` in-process with its inputs and outputs
under ``tmp_path`` at fixed file names.  A call is pinned by its exit code
and one SHA-256 over its stdout, its stderr (with the temporary directory
replaced by a placeholder) and the SHA-256 of every file it wrote.  A
change that must keep the CLI's behaviour, such as a refactor, keeps
every pin; a change that means to alter an output updates the pin and
says why.
"""

import hashlib
import json

import numpy as np
import pytest

from vkit.cli import main

# vertex (i, j) puts 0.9 on point MAIN[i + j] and 0.05 on each other point,
# so every vertex is pumped and labeling needs resolution 2
MAIN = [0, 1, 1, 1, 2]
EXPLICIT_SPEC = {
    "points": [[0.0], [1.0], [2.0]],
    "cover": [[0, 1], [1, 2]],
    "n": 2,
    "res": 2,
    "vertices": {f"{i},{j}": {"support": [0, 1, 2],
                              "weights": [0.9 if x == MAIN[i + j] else 0.05 for x in range(3)]}
                 for i in range(3) for j in range(3)},
}


def _cloud_csv() -> str:
    points = np.random.default_rng(7).uniform(0.0, 1.0, size=(30, 2))
    return "".join(f"{x!r},{y!r}\n" for x, y in points.tolist())


# both vertices are labelled {1, 2}; vertex "0" puts most of its mass on
# point 1, which coincides with point 0 outside the label, so no inner set
# of the region keeps the mass and the vertex stage refuses to pump
PUMP_REFUSED_SPEC = {
    "points": [[0.0], [0.0], [2.0]],
    "cover": [[0], [1, 2]],
    "n": 1,
    "res": 1,
    "vertices": {"0": {"support": [0, 1, 2], "weights": [0.05, 0.9, 0.05]},
                 "1": {"support": [2], "weights": [1.0]}},
}


# the 4x4 integer grid: every distance is tied, and --kmax 3 reduces H2
# columns after clearing
GRID_CSV = "".join(f"{x}.0,{y}.0\n" for x in range(4) for y in range(4))


def _duplicates_csv() -> str:
    """Sixteen random points and four repeats of them: a pseudometric whose
    coincident points merge at 0, giving zero-length H0 pairs."""
    points = np.random.default_rng(11).uniform(0.0, 1.0, size=(16, 2)).tolist()
    points += [points[i] for i in (0, 3, 3, 7)]
    return "".join(f"{x!r},{y!r}\n" for x, y in points)


def _clusters_csv() -> str:
    """Two clusters of ten points in squares of side 0.5, ten apart."""
    rng = np.random.default_rng(12)
    points = rng.uniform(0.0, 0.5, (10, 2)).tolist()
    points += (rng.uniform(0.0, 0.5, (10, 2)) + 10).tolist()
    return "".join(f"{x!r},{y!r}\n" for x, y in points)


def _circle_csv(n: int) -> str:
    """n points of the unit circle at uniform angles, with Gaussian noise
    of 0.05 in each coordinate."""
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    points = np.column_stack([np.cos(angles), np.sin(angles)]) + rng.normal(0.0, 0.05, (n, 2))
    return "".join(f"{x!r},{y!r}\n" for x, y in points.tolist())


# the path metric of the 10-cycle: integer distances 0..5, each tied ten ways
CYCLE_MATRIX_CSV = "".join(",".join(f"{min(abs(i - j), 10 - abs(i - j))}.0" for j in range(10))
                           + "\n" for i in range(10))

# the 3x3 integer grid
GRID3_CSV = "".join(f"{x}.0,{y}.0\n" for x in range(3) for y in range(3))


# name -> (input file name, its text, argv after the subcommand's --input/--out)
CALLS = {
    "constant": ("map.json", json.dumps({"generator": "constant"}), ["straighten"]),
    "sliding_dirac": ("map.json", json.dumps({"generator": "sliding_dirac"}), ["straighten"]),
    "two_ball": ("map.json", json.dumps({"generator": "two_ball"}), ["straighten"]),
    "spread": ("map.json", json.dumps({"generator": "spread"}), ["straighten"]),
    "two_ball_n2_res16": ("map.json", json.dumps({"generator": "two_ball", "n": 2, "res": 16,
                                                  "leak": 0.07}), ["straighten"]),
    # labels at resolution 23, pumps every vertex and logs boundary drift
    "two_ball_n2_res23": ("map.json", json.dumps({"generator": "two_ball", "n": 2, "res": 23,
                                                  "leak": 0.07}), ["straighten"]),
    # a composite resolution: labels at 6, its coarsest subordinate divisor
    "two_ball_n2_res18": ("map.json", json.dumps({"generator": "two_ball", "n": 2, "res": 18,
                                                  "leak": 0.07}), ["straighten"]),
    "two_ball_n3_res7": ("map.json", json.dumps({"generator": "two_ball", "n": 3, "res": 7,
                                                 "leak": 0.02}), ["straighten"]),
    "explicit": ("map.json", json.dumps(EXPLICIT_SPEC), ["straighten"]),
    "pump_refused": ("map.json", json.dumps(PUMP_REFUSED_SPEC), ["straighten"]),
    "leak_refused": ("map.json", json.dumps({"generator": "two_ball", "leak": 1.5}),
                     ["straighten"]),
    "persist_vr": ("cloud.csv", _cloud_csv(), ["persist", "--filtration", "vr"]),
    "persist_cech": ("cloud.csv", _cloud_csv(), ["persist", "--filtration", "cech"]),
    "persist_grid_vr": ("grid.csv", GRID_CSV, ["persist", "--filtration", "vr", "--kmax", "3"]),
    "persist_grid_cech": ("grid.csv", GRID_CSV,
                          ["persist", "--filtration", "cech", "--kmax", "3"]),
    # an open cut at a tied distance: the edges and triangles at 2.0 are out
    "persist_grid_vr_r2": ("grid.csv", GRID_CSV,
                           ["persist", "--filtration", "vr", "--r", "2.0", "--kmax", "2"]),
    "persist_grid_cech_r2": ("grid.csv", GRID_CSV,
                             ["persist", "--filtration", "cech", "--r", "2.0", "--kmax", "2"]),
    # H0 only: the edges are the cofaces of the last column layer
    "persist_h0": ("cloud.csv", _cloud_csv(), ["persist", "--filtration", "vr", "--kmax", "1"]),
    "persist_duplicates": ("cloud.csv", _duplicates_csv(), ["persist", "--filtration", "vr"]),
    # a cut below the clusters' diameters: two essential H0 classes, and the
    # coface rule cuts values at r inside each cluster too
    "persist_clusters_vr_r": ("cloud.csv", _clusters_csv(),
                              ["persist", "--filtration", "vr", "--r", "0.3"]),
    "persist_clusters_cech_r": ("cloud.csv", _clusters_csv(),
                                ["persist", "--filtration", "cech", "--r", "0.3"]),
    # the expansion past the edges at a finite r: 34 of the 79 Cech edges
    # have D >= 0.3, so its triangles are cliques of the Cech edges
    "persist_clusters_vr_r_k3": ("cloud.csv", _clusters_csv(),
                                 ["persist", "--filtration", "vr", "--r", "0.3", "--kmax", "3"]),
    "persist_clusters_cech_r_k3": ("cloud.csv", _clusters_csv(),
                                   ["persist", "--filtration", "cech", "--r", "0.3",
                                    "--kmax", "3"]),
    "persist_cycle_matrix": ("cycle.csv", CYCLE_MATRIX_CSV,
                             ["persist", "--input-kind", "matrix", "--kmax", "3"]),
    # H3: the coface rule scores 5-vertex simplices
    "persist_grid3_k4": ("grid.csv", GRID3_CSV, ["persist", "--filtration", "vr", "--kmax", "4"]),
    # the noisy circle: eight H1 bars at n = 120; --kmax 3 reduces H2 columns
    "persist_circle_vr_n120": ("circle.csv", _circle_csv(120),
                               ["persist", "--filtration", "vr", "--kmax", "2"]),
    "persist_circle_vr_k3": ("circle.csv", _circle_csv(40),
                             ["persist", "--filtration", "vr", "--kmax", "3"]),
    "persist_circle_cech_k3": ("circle.csv", _circle_csv(30),
                               ["persist", "--filtration", "cech", "--kmax", "3"]),
    "verify": (None, None, ["verify", "--trials", "5", "--seed", "1"]),
}

PINS = {
    "constant": (0, "a4d6ddb1e87cae668fb0cb808c4439b3375a0b81b3588a1db3eacdf2ab176222"),
    "explicit": (0, "65218d6f5bb8fd4f17ab6bd66a45ae786f9eff1064b619391aa7c28eca166cee"),
    "leak_refused": (2, "4df27d014885d9e9b0e6afd91bf504645a92f7fa70ca624b3367ea5d81ffac6e"),
    "persist_circle_cech_k3": (0, "95cb50d65db95243fa8f7e9a9591b3c25083c9d6ad158554f66161be874c2776"),
    "persist_circle_vr_k3": (0, "f3fc4c391e242096b7162f552e373a94de84af3548c1851282e41c0582b24364"),
    "persist_circle_vr_n120": (0, "4cee6fab6d1923fb0438fe9767fdc4ba5828f4ec98fff34064a0b13c72ddd45c"),
    "persist_cech": (0, "fca80d7aa3478357c523951bfa27de1ddff5c211ee8e124318c4d84149bf7dd8"),
    "persist_clusters_cech_r": (0, "bf4ff1a097ba61c61efe0303c293ce1d765a940bfb9ae8789c1d4d908ddfbd61"),
    "persist_clusters_cech_r_k3": (0, "b317483652a9bb1a1edf43d9f012c9c8ed24bf1b1f41d21e00766d7bb8a02f04"),
    "persist_clusters_vr_r": (0, "044ba3c8a04abdc362b928463e6cbd51845bb66f879f8d663ba21eb9ceb7d8c6"),
    "persist_clusters_vr_r_k3": (0, "044ba3c8a04abdc362b928463e6cbd51845bb66f879f8d663ba21eb9ceb7d8c6"),
    "persist_cycle_matrix": (0, "3cb126c1ad50a3a49bbafaf8c6bcce2a4179e6be32520d336094b4eb256346f4"),
    "persist_duplicates": (0, "383599c148cfa72b222f715ab6ff5f24f8f03013ea97c3b7ddfcdff7c7c95c36"),
    "persist_grid3_k4": (0, "a2b609c5beb1feb6b2329785e2d8497a08b0adb80818f60f1070fa183f2c3070"),
    "persist_grid_cech": (0, "b68628f6069d725c1b1c9f1354e8f992a5efb7193fcc9b253e550089ded12d88"),
    "persist_grid_cech_r2": (0, "b3d5417922d097d59c11e4d9058031166194b4b3fbd6594f82822ca7c489a4c5"),
    "persist_grid_vr": (0, "45dfcc19d2bf28fe1384a1c573004c93b970a4e74f4ac6e8c7ca0c3abdfdb725"),
    "persist_grid_vr_r2": (0, "45dfcc19d2bf28fe1384a1c573004c93b970a4e74f4ac6e8c7ca0c3abdfdb725"),
    "persist_h0": (0, "7c7f6c643b224aa5fac9537976cd2faf1ae0789fd885dd732ff563cef11bcb89"),
    "persist_vr": (0, "0f4650269c038f7f52bfc38ca85cea137f806cde2db688253b618f0df08ff78c"),
    "pump_refused": (3, "c3e485fe0e79684d6fb95129855ff0e7b92c29e35d16f4b3b5259eed833ba48d"),
    "sliding_dirac": (0, "f83f075b854eaaa8cf9bd8de5b0a74adb4ebc3351a7cfc74034c60bb2940d7ef"),
    "spread": (3, "ea450aefa526a35e57cbeb460e8cd89c6ed2a14b4637de977bb8fdbc3eae3ec3"),
    "two_ball": (0, "106441b79b4da441687a02b12f054b5de9cc152785edac6c405c91a537a4d8ee"),
    "two_ball_n2_res16": (0, "7c2df43b68a0d6335d292f08bde90bb0d2f8de1d8d937e58fcb6b0fc9dc4460e"),
    "two_ball_n2_res23": (0, "be69e1f6b732e087eb059c16c079d64e1ffcfb1f7c26eb559f86b048ef19e833"),
    "two_ball_n2_res18": (0, "889fd23779ab13381a8bba2938845cdee293a6ad990710f2e90205f3da654d38"),
    "two_ball_n3_res7": (0, "92f67ebd733ee0e89f3ba36b6cfa4b31661dedfb1cf7c677a86c384c54c325f5"),
    "verify": (0, "f700c2b93773694ba062538965a0e7d1d493977ff24a5162ae9a8a1670130fcf"),
}


def run_call(name, tmp_path, capsys) -> tuple[int, str]:
    """The exit code of one call and the SHA-256 of everything it printed
    and wrote."""
    input_name, text, argv = CALLS[name]
    out = tmp_path / "out"
    argv = list(argv)
    if input_name is not None:
        (tmp_path / input_name).write_text(text)
        argv += ["--input", str(tmp_path / input_name), "--out", str(out)]
    capsys.readouterr()
    code = main(argv)
    printed = capsys.readouterr()
    digest = hashlib.sha256()
    for stream in (printed.out, printed.err):
        digest.update(stream.replace(str(tmp_path), "<TMP>").encode() + b"\0")
    files = sorted(out.iterdir()) if out.exists() else []
    for path in files:
        digest.update(path.name.encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).hexdigest().encode() + b"\0")
    return code, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_output_is_pinned(name, tmp_path, capsys):
    assert run_call(name, tmp_path, capsys) == PINS[name]


def test_composite_resolution_labels_at_a_proper_divisor(tmp_path, capsys):
    run_call("two_ball_n2_res18", tmp_path, capsys)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    lines = (tmp_path / "out" / "certification.jsonl").read_text().splitlines()
    assert (summary["resolution"], len(lines), summary["all_pass"]) == (6, 465, True)
