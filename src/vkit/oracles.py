"""Independent brute-force oracles used by the certification suites.

These deliberately share no code with the production paths they check:
the transport oracle enumerates basic feasible solutions of the
transportation polytope instead of running an LP solver, and the complex
oracles scan all vertex subsets instead of doing clique expansion.  They
read the distance matrix once, as lists of Python floats, and take each
subset's diameter or witness value as a max or min of those floats, so
each value is a matrix entry the builders read, bit for bit (a lone
point's diameter is 0.0, as its vertex value in ``build_vr``).

A basis of the transportation polytope is a spanning tree of the complete
bipartite graph on the two supports: a subset of cells whose node-cell
incidence matrix, with one redundant marginal row dropped, is nonsingular
(Hoffman--Kruskal 1956).  The oracle scores every candidate subset by
that matrix's determinant and solves the bases' flows with
``numpy.linalg``, which the simplex path in ``measures`` does not use, in
blocks of at most ``BASIS_BLOCK_SUBSETS`` subsets.
"""

from __future__ import annotations

from itertools import combinations, islice
from math import comb
from typing import Callable

import numpy as np

from .measures import FiniteMeasure
from .metric import FiniteMetricSpace

MAX_ORACLE_SUPPORT = 5
# Subsets scored per numpy block of the transport oracle.  A block holds one
# (m + n - 1)-square float64 matrix per subset, at most 9 x 9, so 2,048 of
# them take 1.3 MB; all C(25, 9) = 2,042,975 subsets of a 5 x 5 call at once
# would take 1.3 GB.
BASIS_BLOCK_SUBSETS = 2048


def _block_cost(subsets: np.ndarray, incidence: np.ndarray, marginals: np.ndarray,
                cost: np.ndarray) -> float:
    """Least cost over the feasible bases among a block of cell subsets.

    ``subsets`` holds one subset of cell indices per row, and ``incidence``
    is the node-cell incidence matrix without its last column-node row.
    +inf when no subset of the block is a feasible basis.
    """
    M = incidence[:, subsets].transpose(1, 0, 2)
    # totally unimodular: every determinant is exactly 0 or +-1
    bases = np.abs(np.linalg.det(M)) > 0.5
    rhs = np.broadcast_to(marginals[:, None], (int(bases.sum()), len(marginals), 1))
    flows = np.linalg.solve(M[bases], rhs)[..., 0]
    feasible = (flows >= -1e-12).all(axis=1)
    costs = np.maximum(flows[feasible], 0.0) * cost[subsets[bases][feasible]]
    return float(costs.sum(axis=1).min(initial=np.inf))


def wasserstein_bruteforce(mu: FiniteMeasure, nu: FiniteMeasure) -> float:
    """Exact 1-Wasserstein value by enumerating transportation-polytope vertices.

    Every vertex of the polytope is a basic feasible solution supported on a
    spanning tree of the complete bipartite graph on the two supports, so
    scanning all spanning trees and keeping the feasible ones covers every
    vertex; the optimum of the LP is attained at one of them.  A set of
    m + n - 1 cells is a spanning tree iff its columns of the node-cell
    incidence matrix, with one redundant marginal row dropped, form a
    nonsingular matrix (Hoffman--Kruskal 1956); that matrix is totally
    unimodular, so its determinant is exactly 0 or +-1.  Every
    (m + n - 1)-subset of the m * n cells is scored, in
    ``itertools.combinations`` order and in blocks of at most
    ``BASIS_BLOCK_SUBSETS``: a block's bases are solved in one batched
    solve, and the least cost of the feasible ones is kept.
    """
    if mu.space is not nu.space:
        raise ValueError("measures live on different spaces")
    m, n = len(mu.support), len(nu.support)
    if m > MAX_ORACLE_SUPPORT or n > MAX_ORACLE_SUPPORT:
        raise ValueError("oracle is exponential; supports must stay small")
    k = m + n - 1
    cells = np.arange(m * n)
    incidence = np.vstack([cells // n == np.arange(m)[:, None],
                           cells % n == np.arange(n - 1)[:, None]]).astype(np.float64)
    marginals = np.array(mu.weights + nu.weights[:-1])
    cost = mu.space.dist[np.ix_(mu.support, nu.support)].ravel()
    subsets = combinations(range(m * n), k)
    best = min(_block_cost(np.fromiter(islice(subsets, BASIS_BLOCK_SUBSETS), np.dtype((np.intp, k))),
                           incidence, marginals, cost)
               for _ in range(0, comb(m * n, k), BASIS_BLOCK_SUBSETS))
    assert best < np.inf, "transportation problem is always feasible"
    return best


def _subset_scan(space: FiniteMetricSpace, r: float, k_max: int,
                 value: Callable[[list[list[float]], tuple[int, ...]], float]
                 ) -> dict[tuple[int, ...], float]:
    """Every subset of 1 to k_max + 1 points, in ``combinations`` order,
    whose value, read from the distances as lists of Python floats, is
    strictly below r."""
    out: dict[tuple[int, ...], float] = {}
    if r <= 0.0:
        return out
    D = space.dist.tolist()
    for size in range(1, k_max + 2):
        for sub in combinations(space.points(), size):
            if (v := value(D, sub)) < r:
                out[sub] = v
    return out


def vr_subset_scan(space: FiniteMetricSpace, r: float, k_max: int) -> dict[tuple[int, ...], float]:
    """All subsets of diameter strictly below r, with their diameters."""
    return _subset_scan(space, r, k_max, lambda D, sub: max(
        [D[i][j] for i, j in combinations(sub, 2)], default=0.0))


def cech_subset_scan(space: FiniteMetricSpace, r: float, k_max: int) -> dict[tuple[int, ...], float]:
    """All subsets admitting a witness z in X with max d(z, x) strictly below r."""
    return _subset_scan(space, r, k_max, lambda D, sub: min(
        max(row[x] for x in sub) for row in D))
