"""Max-flow reference for ``persistence.diagram_distance``.

The same dense cost matrix, row/column lower bound and binary search over
its entries as the production code, with each threshold decided by a
unit-capacity maximum flow on a CSR network, solved by scipy's Dinic
solver.  The maximum matching size does not depend on how it is found, so
both must return the same matrix entry bit for bit.
"""

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

INF = math.inf


def finite_bottleneck(A, B):
    if not A and not B:
        return 0.0
    a = np.array(A, dtype=np.float64).reshape(-1, 2)
    b = np.array(B, dtype=np.float64).reshape(-1, 2)
    nA, nB = len(a), len(b)
    size = nA + nB
    cost = np.full((size, size), INF)
    cost[:nA, :nB] = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                                np.abs(a[:, None, 1] - b[None, :, 1]))
    cost[nA:, nB:] = cost[:nA, :nB].T
    cost[np.arange(nA), nB + np.arange(nA)] = (a[:, 1] - a[:, 0]) / 2.0
    cost[nA + np.arange(nB), np.arange(nB)] = (b[:, 1] - b[:, 0]) / 2.0
    lower = max(cost.min(axis=0).max(), cost.min(axis=1).max())
    thresholds = np.unique(cost[np.isfinite(cost) & (cost >= lower)])
    source, sink = 2 * size, 2 * size + 1
    ends = np.arange(size)

    def feasible(theta):
        # source -> rows -> columns -> sink, every capacity 1
        rows, cols = np.nonzero(cost <= theta)
        tails = np.concatenate([np.full(size, source), rows, size + ends])
        heads = np.concatenate([ends, size + cols, np.full(size, sink)])
        network = csr_matrix((np.ones(len(tails), dtype=np.int32), (tails, heads)),
                             shape=(sink + 1, sink + 1))
        return maximum_flow(network, source, sink, method="dinic").flow_value == size

    lo, hi, mid = 0, len(thresholds) - 1, 0
    while lo < hi:
        if feasible(thresholds[mid]):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return float(thresholds[lo])


def diagram_distance(D1, D2):
    """Essential classes matched by sorted births, as in production; the
    finite points by :func:`finite_bottleneck`."""
    dims = {q for q, _, _ in D1.intervals} | {q for q, _, _ in D2.intervals}
    best = 0.0
    for q in sorted(dims):
        a_fin = [(b, d) for b, d in D1.in_dim(q) if not math.isinf(d)]
        b_fin = [(b, d) for b, d in D2.in_dim(q) if not math.isinf(d)]
        a_inf = sorted(b for b, d in D1.in_dim(q) if math.isinf(d))
        b_inf = sorted(b for b, d in D2.in_dim(q) if math.isinf(d))
        if len(a_inf) != len(b_inf):
            return INF
        if a_inf:
            best = max(best, max(abs(x - y) for x, y in zip(a_inf, b_inf)))
        best = max(best, finite_bottleneck(a_fin, b_fin))
    return best
