"""Per-subset reference for the transport oracle.

Scores the (m + n - 1)-subsets of the m x n cells one at a time, in
``itertools.combinations`` order: :func:`_tree_flows` solves the marginal
equations on a subset by leaf elimination and rejects a subset with a
cycle, so the feasible subsets are the basic feasible solutions of the
transportation polytope.  The oracle in ``vkit.oracles`` scores the same
subsets in numpy blocks and must agree with this loop.
"""

from itertools import combinations

import numpy as np

from vkit.measures import FiniteMeasure
from vkit.oracles import MAX_ORACLE_SUPPORT


def _tree_flows(m: int, n: int, edges: list[tuple[int, int]],
                a: list[float], b: list[float]) -> list[float] | None:
    """Solve the marginal equations on a spanning tree by leaf elimination."""
    supply = a + [-x for x in b]          # nodes 0..m-1 rows, m..m+n-1 cols
    incident: dict[int, set[int]] = {v: set() for v in range(m + n)}
    for e, (i, j) in enumerate(edges):
        incident[i].add(e)
        incident[m + j].add(e)
    flows = [0.0] * len(edges)
    alive = set(range(m + n))
    used = [False] * len(edges)
    while len(alive) > 1:
        leaf = None
        for v in alive:
            live = [e for e in incident[v] if not used[e]]
            if len(live) == 1:
                leaf = v
                e = live[0]
                break
        if leaf is None:
            return None               # cycle: not a tree
        i, j = edges[e]
        other = m + j if leaf == i else i
        sign = 1.0 if leaf < m else -1.0
        flows[e] = sign * supply[leaf]
        supply[other] += supply[leaf]
        supply[leaf] = 0.0
        used[e] = True
        alive.remove(leaf)
    return flows


def wasserstein_bruteforce(mu: FiniteMeasure, nu: FiniteMeasure) -> float:
    """Exact 1-Wasserstein value by enumerating transportation-polytope vertices.

    Every vertex of the polytope is a basic feasible solution supported on a
    spanning tree of the complete bipartite graph on the two supports, so
    scanning all spanning trees and keeping the feasible ones covers every
    vertex; the optimum of the LP is attained at one of them.
    """
    if mu.space is not nu.space:
        raise ValueError("measures live on different spaces")
    m, n = len(mu.support), len(nu.support)
    if m > MAX_ORACLE_SUPPORT or n > MAX_ORACLE_SUPPORT:
        raise ValueError("oracle is exponential; supports must stay small")
    a, b = list(mu.weights), list(nu.weights)
    d = mu.space.dist[np.ix_(mu.support, nu.support)]
    cells = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for tree in combinations(cells, m + n - 1):
        flows = _tree_flows(m, n, list(tree), a, b)
        if flows is None:
            continue
        if any(f < -1e-12 for f in flows):
            continue
        cost = sum(max(f, 0.0) * d[i, j] for f, (i, j) in zip(flows, tree))
        if best is None or cost < best:
            best = cost
    assert best is not None, "transportation problem is always feasible"
    return best
