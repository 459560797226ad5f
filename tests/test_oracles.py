import ast
import math
from pathlib import Path

import numpy as np
import pytest

import complex_oracle_reference as complex_ref
import transport_reference as ref
from vkit import oracles
from vkit.measures import FiniteMeasure, wasserstein
from vkit.metric import space_from_points
from vkit.oracles import BASIS_BLOCK_SUBSETS, MAX_ORACLE_SUPPORT, wasserstein_bruteforce
from vkit.verify import random_space

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vkit"

SHAPES = [(m, n) for m in range(1, 5) for n in range(1, 5)]
# distinct points of a small integer grid: many distances tie
GRID = [[x, y] for x in range(3) for y in range(3)]


def random_pair(rng, m, n):
    space = space_from_points(rng.uniform(0.0, 2.0, size=(8, 3)))
    return tuple(FiniteMeasure(space, tuple(sorted(rng.choice(8, k, replace=False).tolist())),
                               tuple(rng.dirichlet(np.ones(k))))
                 for k in (m, n))


def tied_pair(rng, m, n):
    # masses of small integer ratios on a grid: equal partial sums make degenerate bases
    space = space_from_points(GRID)
    pair = []
    for k in (m, n):
        counts = rng.integers(1, 4, size=k)
        pair.append(FiniteMeasure(space, tuple(sorted(rng.choice(9, k, replace=False).tolist())),
                                  tuple((counts / counts.sum()).tolist())))
    return tuple(pair)


@pytest.mark.parametrize("m,n", SHAPES)
@pytest.mark.parametrize("pair", [random_pair, tied_pair])
def test_agrees_with_the_per_subset_reference(pair, m, n):
    rng = np.random.default_rng(100 * m + n)
    for _ in range(4):
        mu, nu = pair(rng, m, n)
        assert len(mu.support) == m and len(nu.support) == n
        assert abs(wasserstein_bruteforce(mu, nu) - ref.wasserstein_bruteforce(mu, nu)) <= 1e-12


@pytest.mark.parametrize("m,n", [(5, 4), (4, 5)])
def test_agrees_with_the_lp_at_the_largest_shapes(m, n):
    rng = np.random.default_rng(100 * m + n)
    for pair in (random_pair, tied_pair):
        mu, nu = pair(rng, m, n)
        assert abs(wasserstein_bruteforce(mu, nu) - wasserstein(mu, nu)[0]) <= 1e-9


def test_blocks_stay_within_the_subset_cap(monkeypatch):
    # a 5 x 4 call scores every one of the C(20, 8) = 125,970 subsets
    sizes = []
    block_cost = oracles._block_cost

    def counted(subsets, *args):
        sizes.append(len(subsets))
        return block_cost(subsets, *args)

    monkeypatch.setattr(oracles, "_block_cost", counted)
    mu, nu = random_pair(np.random.default_rng(54), 5, 4)
    wasserstein_bruteforce(mu, nu)
    assert sum(sizes) == math.comb(20, 8) == 125_970
    assert len(sizes) == math.ceil(125_970 / BASIS_BLOCK_SUBSETS)
    assert max(sizes) <= BASIS_BLOCK_SUBSETS


@pytest.mark.parametrize("pair", [random_pair, tied_pair])
def test_blocks_of_any_size_give_the_same_value(pair, monkeypatch):
    # C(12, 6) = 924 subsets: one per block, blocks that split it unevenly, one block
    mu, nu = pair(np.random.default_rng(33), 3, 4)
    want = wasserstein_bruteforce(mu, nu)
    for cap in (1, 100, 923, 924):
        monkeypatch.setattr(oracles, "BASIS_BLOCK_SUBSETS", cap)
        assert wasserstein_bruteforce(mu, nu) == want


def test_refuses_supports_past_the_cap():
    space = space_from_points(np.arange(MAX_ORACLE_SUPPORT + 1, dtype=float)[:, None])
    wide = FiniteMeasure(space, tuple(range(MAX_ORACLE_SUPPORT + 1)),
                         (1.0 / (MAX_ORACLE_SUPPORT + 1),) * (MAX_ORACLE_SUPPORT + 1))
    point = FiniteMeasure(space, (0,), (1.0,))
    for mu, nu in ((wide, point), (point, wide)):
        with pytest.raises(ValueError, match="exponential"):
            wasserstein_bruteforce(mu, nu)


def test_refuses_measures_on_different_spaces():
    mu = FiniteMeasure(space_from_points([[0.0], [1.0]]), (0,), (1.0,))
    nu = FiniteMeasure(space_from_points([[0.0], [1.0]]), (1,), (1.0,))
    with pytest.raises(ValueError, match="different spaces"):
        wasserstein_bruteforce(mu, nu)


def scan_spaces():
    """Seeded clouds of 2 to 8 points, one point alone, the 3x3 grid (ties
    everywhere) and clouds with repeated points (pseudometrics)."""
    rng = np.random.default_rng(25)
    spaces = [random_space(rng, max_points=8) for _ in range(20)]
    spaces += [space_from_points([[0.0]]), space_from_points(GRID)]
    for _ in range(6):
        points = rng.uniform(0.0, 2.0, size=(int(rng.integers(2, 8)), 2))
        points[rng.integers(1, len(points), 2)] = points[0]
        spaces.append(space_from_points(points))
    return spaces


def hexed(scan):
    """A scan as its items in order, each value's exact bits; every value
    must be a Python float, as the reference's are."""
    assert all(type(v) is float for v in scan.values())
    return [(s, float.hex(v)) for s, v in scan.items()]


@pytest.mark.parametrize("name", ["vr_subset_scan", "cech_subset_scan"])
def test_subset_scans_agree_with_the_reference(name):
    scan, reference = getattr(oracles, name), getattr(complex_ref, name)
    rng = np.random.default_rng(26)
    for space in scan_spaces():
        edges = space.dist[np.triu_indices(space.n_points, 1)].tolist()
        # r <= 0, r an exact edge length (a simplex with value r is absent at r)
        radii = [-1.0, 0.0, *rng.choice(edges, min(3, len(edges))).tolist(),
                 float(rng.uniform(0.2, 2.5)), math.inf]
        for r in radii:
            for k_max in range(5):
                assert hexed(scan(space, r, k_max)) == hexed(reference(space, r, k_max)), \
                    (r, k_max)


def test_oracles_share_no_code_with_the_paths_they_check():
    # oracles.py reads only the measure and space types of the package, and
    # betti_at and _gf2_rank call no other function of persistence.py
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.split(".")[0] == "vkit")
                for alias in node.names}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name.split(".")[0] == "vkit"}
    assert imported <= {"FiniteMeasure", "FiniteMetricSpace"}
    tree = ast.parse((PACKAGE / "persistence.py").read_text())
    functions = {stmt.name: stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    oracle = {"betti_at", "_gf2_rank"}
    for name in oracle:
        used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
        assert used & set(functions) <= oracle, name
