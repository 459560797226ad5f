import math

import numpy as np
import pytest

import transport_reference as ref
from vkit import oracles
from vkit.measures import FiniteMeasure, wasserstein
from vkit.metric import space_from_points
from vkit.oracles import BASIS_BLOCK_SUBSETS, MAX_ORACLE_SUPPORT, wasserstein_bruteforce

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
