"""Randomized property suites behind the ``verify`` subcommand.

Each check draws its own instances from a seeded generator and reports a
:class:`CheckResult`; the CLI renders the table and turns failures into
the exit code.  Tests reuse the same instance generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracles
from .complexes import build_cech, build_vr
from .fk import FKTriangulation, facet_counts, is_boundary_face, star_bound
from .generators import (constant_map, sliding_dirac_map, spread_map,
                         two_ball_map)
from .measures import FiniteMeasure, dirac, stored_rows, wasserstein
from .metric import FiniteMetricSpace, space_from_points
from .persistence import betti_at, compute_diagram, diagram_distance
from .straightening import PipelineError, _fsums, prism_retract, straighten
from .thickening import BumpFunction, build_bump, compare_metrics, pump_coordinate, pump_rows


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: int
    note: str = ""


# -- instance generators -------------------------------------------------


def random_space(rng: np.random.Generator, max_points: int = 10,
                 min_points: int = 2, dim: int = 3) -> FiniteMetricSpace:
    n = int(rng.integers(min_points, max_points + 1))
    return space_from_points(rng.uniform(0.0, 2.0, size=(n, dim)))


def random_measure(rng: np.random.Generator, space: FiniteMetricSpace,
                   max_support: int = 6) -> FiniteMeasure:
    k = int(rng.integers(1, min(max_support, space.n_points) + 1))
    support = sorted(rng.choice(space.n_points, size=k, replace=False).tolist())
    weights = rng.dirichlet(np.ones(k))
    return FiniteMeasure(space, tuple(support), tuple(weights))


def random_bump(rng: np.random.Generator, space: FiniteMetricSpace,
                must_include: int | None = None) -> BumpFunction:
    n = space.n_points
    size = int(rng.integers(1, n + 1))
    target = set(rng.choice(n, size=size, replace=False).tolist())
    if must_include is not None:
        target.add(must_include)
    plateau: set[int] = set()
    if rng.random() < 0.5:
        k = int(rng.integers(1, len(target) + 1))
        plateau = set(rng.choice(sorted(target), size=k, replace=False).tolist())
    return build_bump(space, plateau, target)


def weight_row(mu: FiniteMeasure) -> np.ndarray:
    """The row of point weights of mu, as the vertex stage of ``straighten``
    holds a measure."""
    row = np.zeros(mu.space.n_points)
    row[list(mu.support)] = mu.weights
    return row


def overlapping_measures(rng: np.random.Generator, space: FiniteMetricSpace,
                         max_support: int = 5) -> tuple[FiniteMeasure, FiniteMeasure]:
    """A measure pair whose supports share at least one point."""
    mu = random_measure(rng, space, max_support)
    nu = random_measure(rng, space, max_support)
    shared = int(rng.choice(mu.support))
    if shared not in nu.support:
        sup = sorted(set(nu.support) | {shared})
        w = [nu.weight_of(x) + (0.2 if x == shared else 0.0) for x in sup]
        total = sum(w)
        nu = FiniteMeasure(space, tuple(sup), tuple(x / total for x in w))
    return mu, nu


def mass_bound_instance(rng: np.random.Generator):
    """Measure and sets satisfying the strict concentration preconditions.

    Core point 0 carries the intersection mass, points 1..n carry per-set
    exclusive mass, point n+1 sits outside every set; the construction
    forces mu(U_i) > p for each of the n sets, n at most the N that p
    is drawn for.
    """
    N = int(rng.integers(2, 5))
    n = int(rng.integers(1, N + 1))
    p = 1.0 - rng.uniform(0.05, 0.95) / N
    x = rng.uniform(0.0, (1.0 - p) / n, size=n)
    slack = (1.0 - p) - (x.sum() - x.min())
    o = float(rng.uniform(0.0, 0.9 * slack))
    core = 1.0 - float(x.sum()) - o
    coords = [[float(i)] for i in range(n + 2)]
    space = space_from_points(coords)
    support = [0] + [i + 1 for i in range(n) if x[i] > 0.0] + ([n + 1] if o > 0.0 else [])
    weights = [core] + [float(x[i]) for i in range(n) if x[i] > 0.0] + ([o] if o > 0.0 else [])
    mu = FiniteMeasure(space, tuple(support), tuple(weights))
    sets = [frozenset({0, i + 1}) for i in range(n)]
    return mu, sets, p


# -- checks ---------------------------------------------------------------


def check_wasserstein_metric(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        space = random_space(rng)
        mu, nu, rho = (random_measure(rng, space) for _ in range(3))
        d_ab, plan = wasserstein(mu, nu)
        d_ba, _ = wasserstein(nu, mu)
        plan.check_marginals(mu, nu)
        d_bc, _ = wasserstein(nu, rho)
        d_ac, _ = wasserstein(mu, rho)
        d_self, _ = wasserstein(mu, mu)
        if d_ab != d_ba or d_ab < 0.0:
            failures += 1
        elif d_ac > d_ab + d_bc + 1e-9:
            failures += 1
        elif abs(d_self) > 1e-12:
            failures += 1
    return CheckResult("wasserstein-metric", trials, failures)


def check_wasserstein_oracle(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        space = random_space(rng, max_points=8)
        mu = random_measure(rng, space, max_support=4)
        nu = random_measure(rng, space, max_support=4)
        lp, _ = wasserstein(mu, nu)
        bf = oracles.wasserstein_bruteforce(mu, nu)
        if abs(lp - bf) > 1e-9:
            failures += 1
    return CheckResult("wasserstein-oracle", trials, failures)


def check_dirac_isometry(rng, trials) -> CheckResult:
    failures = 0
    spaces = max(1, trials // 10)
    pairs = 0
    for _ in range(spaces):
        space = random_space(rng)
        for i in range(space.n_points):
            for j in range(i + 1, space.n_points):
                d, _ = wasserstein(dirac(space, i), dirac(space, j))
                pairs += 1
                if abs(d - space.d(i, j)) > 1e-12:
                    failures += 1
    return CheckResult("dirac-isometry", pairs, failures)


def check_comparison_bound(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        space = random_space(rng)
        mu, nu = overlapping_measures(rng, space)
        rep = compare_metrics(mu, nu)
        if not rep.holds:
            failures += 1
    return CheckResult("comparison-bound", trials, failures)


def check_pump_formula(rng, trials) -> CheckResult:
    """The pump ``pump_vertex`` runs, ``stored_rows(pump_rows(row, phi))``,
    against the per-coordinate formula, bit for bit."""
    failures = 0
    for _ in range(trials):
        space = random_space(rng)
        mu = random_measure(rng, space)
        anchor = int(rng.choice(mu.support))
        phi = random_bump(rng, space, must_include=anchor)
        row, values = weight_row(mu), np.array(phi.values)
        out, errors = stored_rows(pump_rows(row[None], values))
        if errors or (out[0][(row == 0.0) | (values == 0.0)] != 0.0).any():
            failures += 1
            continue
        if any(pump_coordinate(mu, phi, v) != out[0][v] for v in space.points()):
            failures += 1
            continue
        plateau_phi = build_bump(space, mu.support_set(), set(mu.support) | {anchor})
        if not np.array_equal(pump_rows(row[None], np.array(plateau_phi.values))[0], row):
            failures += 1
    return CheckResult("pump-formula", trials, failures)


def check_mass_bound(rng, trials) -> CheckResult:
    """The region mass ``pump_vertex`` sums, against the bound it logs."""
    failures = 0
    for _ in range(trials):
        mu, sets, p = mass_bound_instance(rng)
        if any(not mu.mass_of(U) > p for U in sets):
            failures += 1
            continue
        mass = _fsums(weight_row(mu)[None], sorted(frozenset.intersection(*sets)))[0]
        if not mass > 1.0 - len(sets) * (1.0 - p):
            failures += 1
    return CheckResult("mass-bound", trials, failures)


def check_vr_bruteforce(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        space = random_space(rng, max_points=8)
        r = float(rng.uniform(0.2, 2.5))
        K = build_vr(space, r, k_max=4)
        expected = oracles.vr_subset_scan(space, r, k_max=4)
        if dict(K.simplices) != expected:
            failures += 1
            continue
        K.check_face_closure()
        r2 = r + float(rng.uniform(0.0, 1.0))
        K2 = build_vr(space, r2, k_max=4)
        if not set(K.simplices) <= set(K2.simplices):
            failures += 1
    return CheckResult("vr-bruteforce", trials, failures)


def check_cech_interleaving(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        space = random_space(rng, max_points=8)
        r = float(rng.uniform(0.2, 2.0))
        C = build_cech(space, r, k_max=3)
        if dict(C.simplices) != oracles.cech_subset_scan(space, r, k_max=3):
            failures += 1
            continue
        V = build_vr(space, 2.0 * r, k_max=3)
        if not set(C.simplices) <= set(V.simplices):
            failures += 1
    return CheckResult("cech-vr-interleave", trials, failures)


def check_fk_certificates(rng, trials) -> CheckResult:
    failures = 0
    cases = 0
    for n in (1, 2, 3):
        for p in (1, 2):
            tri = FKTriangulation(n, p)
            cases += 1
            simplices = list(tri.simplices())
            if len(simplices) != tri.simplex_count:
                failures += 1
                continue
            vol = 0.0
            diam_ok = True
            for s in simplices:
                verts = tri.scaled_vertices(s)
                edges = verts[1:] - verts[0]
                vol += abs(np.linalg.det(edges)) / math.factorial(n)
                dmax = max(np.linalg.norm(a - b) for i, a in enumerate(verts)
                           for b in verts[i + 1:])
                if abs(dmax - tri.simplex_diameter) > 1e-12:
                    diam_ok = False
            if abs(vol - 1.0) > 1e-9 or not diam_ok:
                failures += 1
                continue
            if max(tri.vertex_star_size(v) for v in tri.vertices()) > star_bound(n):
                failures += 1
                continue
            for face, cnt in facet_counts(tri).items():
                want = 1 if is_boundary_face(tri, face) else 2
                if cnt != want:
                    failures += 1
                    break
            else:
                for _ in range(max(1, trials // 6)):
                    y = rng.uniform(0.0, 1.0, size=n)
                    simplex, coords = tri.locate(y)
                    back = tri.point_of(simplex, coords)
                    if np.abs(back - y).max() > 1e-10:
                        failures += 1
                        break
    return CheckResult("fk-certificates", cases, failures)


def check_persistence_oracle(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        space = random_space(rng, max_points=8)
        K = build_vr(space, math.inf, k_max=2)
        diagram = compute_diagram(K, max_dim=1)
        crit = sorted(set(K.simplices.values()))
        probes = [(a + b) / 2.0 for a, b in zip(crit, crit[1:])] + [crit[-1] + 1.0]
        for r in probes:
            for dim in (0, 1):
                alive = sum(1 for q, b, d in diagram.intervals
                            if q == dim and b < r and (math.isinf(d) or r <= d))
                if alive != betti_at(K, r, dim):
                    failures += 1
                    break
            else:
                continue
            break
    return CheckResult("persistence-oracle", trials, failures)


def check_diagram_stability(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        coords = rng.uniform(0.0, 2.0, size=(int(rng.integers(3, 8)), 3))
        delta = float(rng.uniform(0.001, 0.05))
        jitter = rng.uniform(-1.0, 1.0, size=coords.shape)
        jitter *= delta / (2.0 * np.linalg.norm(jitter, axis=1, keepdims=True))
        s1 = space_from_points(coords)
        s2 = space_from_points(coords + jitter)
        d1 = compute_diagram(build_vr(s1, math.inf, 1), 1)
        d2 = compute_diagram(build_vr(s2, math.inf, 1), 1)
        if diagram_distance(d1, d2) > 2.0 * delta + 1e-9:
            failures += 1
    return CheckResult("diagram-stability", trials, failures)


def check_straighten_benchmarks(rng, trials) -> CheckResult:
    failures = 0
    cases = 0
    runs = [
        constant_map(),
        sliding_dirac_map(),
        sliding_dirac_map(leak=0.05),
        two_ball_map(n=1),
        two_ball_map(n=1, leak=0.05),
    ]
    for space, cover, smap in runs:
        cases += 1
        try:
            gmap, log = straighten(smap, cover)
        except PipelineError:
            failures += 1
            continue
        if not log.all_pass():
            failures += 1
    cases += 1
    space, cover, smap = spread_map()
    try:
        straighten(smap, cover)
        failures += 1       # the spread benchmark must fail with a named stage
    except PipelineError:
        pass
    return CheckResult("straighten-benchmarks", cases, failures,
                       note="deterministic benchmark set")


def check_prism_idempotent(rng, trials) -> CheckResult:
    failures = 0
    for _ in range(trials):
        k = int(rng.integers(1, 5))
        x = rng.dirichlet(np.ones(k + 1))
        t = float(rng.uniform(0.0, 1.0))
        y1, t1 = prism_retract(x, t)
        y2, t2 = prism_retract(y1, t1)
        if max(abs(a - b) for a, b in zip(y1, y2)) > 1e-12 or abs(t1 - t2) > 1e-12:
            failures += 1
    return CheckResult("prism-idempotent", trials, failures)


ALL_CHECKS: list[tuple[str, Callable]] = [
    ("wasserstein-metric", check_wasserstein_metric),
    ("wasserstein-oracle", check_wasserstein_oracle),
    ("dirac-isometry", check_dirac_isometry),
    ("comparison-bound", check_comparison_bound),
    ("pump-formula", check_pump_formula),
    ("mass-bound", check_mass_bound),
    ("vr-bruteforce", check_vr_bruteforce),
    ("cech-vr-interleave", check_cech_interleaving),
    ("fk-certificates", check_fk_certificates),
    ("persistence-oracle", check_persistence_oracle),
    ("diagram-stability", check_diagram_stability),
    ("straighten-benchmarks", check_straighten_benchmarks),
    ("prism-idempotent", check_prism_idempotent),
]


def run_all(seed: int, trials: int) -> list[CheckResult]:
    results = []
    for idx, (name, fn) in enumerate(ALL_CHECKS):
        if trials == 0:
            results.append(CheckResult(name, 0, 0, note="vacuous: 0 trials"))
            continue
        rng = np.random.default_rng([seed, idx])
        results.append(fn(rng, trials))
    return results
