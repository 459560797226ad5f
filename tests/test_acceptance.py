"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and instance count is pinned here; runtime-bounded criteria
measure their own wall time.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from vkit.cli import main
from vkit.complexes import build_cech, build_vr
from vkit.fk import FKTriangulation, facet_counts, is_boundary_face, star_bound
from vkit.generators import sliding_dirac_map, two_ball_map
from vkit.measures import dirac, stored_rows, wasserstein
from vkit.metric import space_from_points
from vkit.oracles import wasserstein_bruteforce
from vkit.persistence import betti_at, compute_diagram
from vkit.straightening import _fsums, straighten
from vkit.thickening import build_bump, compare_metrics, pump_coordinate, pump_rows
from vkit.verify import (mass_bound_instance, overlapping_measures, random_bump,
                         random_measure, random_space, weight_row)

from per_vertex_pump import label_dict, sample_at, vertex_measures

SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


def test_01_wasserstein_metric_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(1000):
        space = random_space(rng, max_points=10)
        mu, nu, rho = (random_measure(rng, space, max_support=6) for _ in range(3))
        d_ab, _ = wasserstein(mu, nu)
        d_ba, _ = wasserstein(nu, mu)
        if d_ab != d_ba:
            violations += 1
            continue
        d_bc, _ = wasserstein(nu, rho)
        d_ac, _ = wasserstein(mu, rho)
        if d_ac > d_ab + d_bc + 1e-9:
            violations += 1
    oracle_bad = 0
    for _ in range(200):
        space = random_space(rng, max_points=10)
        mu = random_measure(rng, space, max_support=4)
        nu = random_measure(rng, space, max_support=4)
        lp, _ = wasserstein(mu, nu)
        if abs(lp - wasserstein_bruteforce(mu, nu)) > 1e-9:
            oracle_bad += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and oracle_bad == 0 and elapsed < 30.0
    report(1, "Wasserstein metric axioms + LP vs polytope-vertex oracle", ok,
           f"violations={violations}, oracle mismatches={oracle_bad}, {elapsed:.1f}s")


def test_02_isometric_embedding():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        space = random_space(rng, max_points=10)
        for i, j in combinations(range(space.n_points), 2):
            d, _ = wasserstein(dirac(space, i), dirac(space, j))
            worst = max(worst, abs(d - space.d(i, j)))
    report(2, "Dirac embedding is isometric", worst <= 1e-12, f"worst={worst:.2e}")


def test_03_comparison_bound():
    rng = np.random.default_rng(103)
    violations = 0
    for _ in range(1000):
        space = random_space(rng, max_points=10)
        mu, nu = overlapping_measures(rng, space, max_support=5)
        rep = compare_metrics(mu, nu)
        if not rep.holds:
            violations += 1
    report(3, "d_W <= diam(supports)/2 * d_m on intersecting supports",
           violations == 0, f"violations={violations}")


def test_04_pump_formula():
    # the pump the vertex stage of straighten runs, on the row of a measure
    rng = np.random.default_rng(104)
    bad = 0
    for _ in range(500):
        space = random_space(rng, max_points=10)
        mu = random_measure(rng, space, max_support=6)
        phi = random_bump(rng, space, must_include=int(mu.support[0]))
        row, values = weight_row(mu), np.array(phi.values)
        out, errors = stored_rows(pump_rows(row[None], values))
        if errors or (out[0][(row == 0.0) | (values == 0.0)] != 0.0).any():
            bad += 1
            continue
        if any(pump_coordinate(mu, phi, v) != out[0][v] for v in space.points()):
            bad += 1
            continue
        plateau = build_bump(space, mu.support_set(), mu.support_set())
        if not np.array_equal(pump_rows(row[None], np.array(plateau.values))[0], row):
            bad += 1
    report(4, "pump coordinates exact, plateau fixed point, support inclusion",
           bad == 0, f"bad instances={bad}")


def test_05_mass_bound():
    # the region mass the vertex stage of straighten sums, against the bound it logs
    rng = np.random.default_rng(105)
    violations = 0
    for _ in range(500):
        mu, sets, p = mass_bound_instance(rng)
        if any(not mu.mass_of(U) > p for U in sets):
            violations += 1
            continue
        mass = _fsums(weight_row(mu)[None], sorted(frozenset.intersection(*sets)))[0]
        if not mass > 1.0 - len(sets) * (1.0 - p):
            violations += 1
    report(5, "intersection mass exceeds 1 - N(1-p)", violations == 0,
           f"violations={violations}")


def test_06_fk_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    problems = []
    for n in (1, 2, 3, 4):
        for p in (1, 2, 3):
            tri = FKTriangulation(n, p)
            simplices = list(tri.simplices())
            if len(simplices) != math.factorial(n) * p ** n:
                problems.append(f"count n={n} p={p}")
                continue
            volume = 0.0
            for s in simplices:
                verts = tri.scaled_vertices(s)
                diam = max(np.linalg.norm(a - b)
                           for i, a in enumerate(verts) for b in verts[i + 1:])
                if abs(diam - math.sqrt(n) / p) > 1e-12:
                    problems.append(f"diameter n={n} p={p}")
                    break
                volume += abs(np.linalg.det(verts[1:] - verts[0])) / math.factorial(n)
            if abs(volume - 1.0) > 1e-9:
                problems.append(f"volume n={n} p={p}")
            if max(tri.vertex_star_size(v) for v in tri.vertices()) > star_bound(n):
                problems.append(f"star n={n} p={p}")
            for face, count in facet_counts(tri).items():
                if count != (1 if is_boundary_face(tri, face) else 2):
                    problems.append(f"facet n={n} p={p}")
                    break
            for _ in range(10_000 // 12):
                y = rng.uniform(0.0, 1.0, size=n)
                simplex, coords = tri.locate(y)
                if (coords < 0).any() or np.abs(tri.point_of(simplex, coords) - y).max() > 1e-10:
                    problems.append(f"locate n={n} p={p}")
                    break
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 60.0
    report(6, "Freudenthal-Kuhn certificates for n<=4, p<=3", ok,
           f"problems={problems or 'none'}, {elapsed:.1f}s")


def test_07_straightening_pipeline():
    start = time.perf_counter()
    problems = []
    benchmarks = [
        ("sliding_dirac", sliding_dirac_map()),
        ("sliding_dirac leak", sliding_dirac_map(leak=0.05)),
        ("two_ball n=1", two_ball_map(n=1, leak=0.05)),
        ("two_ball n=2", two_ball_map(n=2, leak=0.05)),
    ]
    for name, (space, cover, smap) in benchmarks:
        gmap, log = straighten(smap, cover)
        if not log.all_pass():
            problems.append(f"{name}: log failures")
            continue
        counts = log.stage_counts()
        if counts.get("track", {}).get("fail", 1) != 0:
            problems.append(f"{name}: track thresholds")
        if counts.get("linearize", {}).get("fail", 1) != 0:
            problems.append(f"{name}: simplex certificates")
        values = vertex_measures(space, gmap.tri, gmap.weights)
        labels = label_dict(gmap.labeling)
        for s in gmap.tri.simplices():
            union = set()
            for v in s.vertices():
                union |= values[v].support_set()
            elem = gmap.labeling.cover.elements[labels[(s.base, s.perm)]]
            if not union <= elem:
                problems.append(f"{name}: union support escapes label")
                break
    # already-subordinate input comes back vertexwise identical
    for name, (space, cover, smap) in [("sliding_dirac", sliding_dirac_map()),
                                       ("two_ball n=1", two_ball_map(n=1))]:
        gmap, log = straighten(smap, cover)
        values = vertex_measures(space, gmap.tri, gmap.weights)
        for v in gmap.tri.vertices():
            if values[v] != sample_at(smap, gmap.tri, v):
                problems.append(f"{name}: subordinate input changed at {v}")
                break
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 120.0
    report(7, "straightening benchmarks certify end to end", ok,
           f"problems={problems or 'none'}, {elapsed:.1f}s")


def test_08_persistence_correctness():
    start = time.perf_counter()
    square = space_from_points(SQUARE)
    K = build_vr(square, math.inf, 2)
    D = compute_diagram(K, 1)
    expected = sorted([(0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, 1.0),
                       (0, 0.0, math.inf), (1, 1.0, math.sqrt(2))])
    exact_ok = len(D.intervals) == 5 and all(
        got[0] == want[0]
        and abs(got[1] - want[1]) <= 1e-12
        and (got[2] == want[2] or abs(got[2] - want[2]) <= 1e-12)
        for got, want in zip(D.intervals, expected))
    oracle_ok = (betti_at(K, 0.5, 0) == 4 and betti_at(K, 1.1, 1) == 1
                 and betti_at(K, 1.5, 1) == 0)
    rng = np.random.default_rng(108)
    mismatches = 0
    for _ in range(50):
        space = random_space(rng, max_points=8)
        K = build_vr(space, math.inf, 2)
        D = compute_diagram(K, 1)
        crit = sorted(set(K.simplices.values()))
        probes = [(a + b) / 2 for a, b in zip(crit, crit[1:])] + [crit[-1] + 1.0]
        for r in probes:
            for dim in (0, 1):
                alive = sum(1 for q, b, d in D.intervals
                            if q == dim and b < r and (math.isinf(d) or r <= d))
                if alive != betti_at(K, r, dim):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    ok = exact_ok and oracle_ok and mismatches == 0 and elapsed < 60.0
    report(8, "unit-square diagram exact and reduction matches Betti oracle", ok,
           f"square={exact_ok}, oracle probes ok={mismatches == 0}, {elapsed:.1f}s")


def test_09_open_convention_strictness():
    pair = space_from_points([[0.0], [1.0]])
    vr = build_vr(pair, math.inf, 1)
    cech = build_cech(pair, math.inf, 1)
    ok = True
    # the edge enters both filtrations at exactly 1; strict sublevels at 1 omit it
    ok &= vr.simplices[(0, 1)] == 1.0 and (0, 1) not in dict(vr.sublevel(1.0))
    ok &= cech.simplices[(0, 1)] == 1.0 and (0, 1) not in dict(cech.sublevel(1.0))
    ok &= (0, 1) not in build_vr(pair, 1.0, 1).simplices
    ok &= (0, 1) not in build_cech(pair, 1.0, 1).simplices
    ok &= betti_at(vr, 1.0, 0) == 2 and betti_at(vr, 1.0 + 1e-12, 0) == 1
    report(9, "diameter-exactly-r simplices are excluded at r", bool(ok))


def test_10_determinism(tmp_path):
    csv = tmp_path / "square.csv"
    csv.write_text("0,0\n1,0\n1,1\n0,1\n")
    spec = tmp_path / "map.json"
    spec.write_text(json.dumps({"generator": "two_ball", "n": 2, "leak": 0.05}))
    blobs = []
    for run in ("r1", "r2"):
        out_p = tmp_path / f"persist_{run}"
        out_s = tmp_path / f"straighten_{run}"
        assert main(["persist", "--input", str(csv), "--out", str(out_p)]) == 0
        assert main(["straighten", "--input", str(spec), "--out", str(out_s)]) == 0
        blobs.append(tuple((p / name).read_bytes() for p, name in
                           [(out_p, "diagram.csv"), (out_p, "diagram.svg"),
                            (out_s, "certification.jsonl"), (out_s, "summary.json")]))
    report(10, "cmd_persist and cmd_straighten are byte-identical across runs",
           blobs[0] == blobs[1])
