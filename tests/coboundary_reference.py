"""Tuple-keyed reference for ``persistence.compute_diagram``.

The coboundary reduction one dimension at a time, every column a set of
(value, coface) pairs and every pivot the least pair, with clearing and
emergent pairs, H0 included.  The cofaces of the top layer are read one
simplex at a time from the complex's rule ``K.extend``, the others are
listed from the explicit layer above.  The integer-keyed production loop
must give the same diagram bit for bit.
"""

from itertools import combinations

import numpy as np

from vkit.persistence import INF, PersistenceDiagram, SkeletonTooShallow


def _by_dimension(K, top):
    """(value, simplex) pairs of each dimension 0..min(top, dim K + 1)."""
    top = min(top, max(map(len, K.simplices), default=0))
    layers = [[] for _ in range(top + 1)]
    for s, v in K.simplices.items():
        if len(s) <= top + 1:
            layers[len(s) - 1].append((v, s))
    return layers


def cofaces_by_facet(upper):
    """The (value, coface) pairs of ``upper``, listed under each of their
    facets, in no particular order."""
    cofaces = {}
    for pair in upper:
        t = pair[1]
        for f in combinations(t, len(t) - 1):
            cofaces.setdefault(f, []).append(pair)
    return cofaces


def _listed_columns(upper):
    cofaces = cofaces_by_facet(upper)

    def column(s):
        col = cofaces.get(s, [])
        return min(col, default=None), lambda: col
    return column


def _rule_columns(extend):
    """The pivot is the least value, ties going to the least added vertex
    k, since s | {k} grows in lex order with k."""
    def column(s):
        values = extend(s)
        k = int(values.argmin())
        if values[k] == INF:
            return None, lambda: []

        def pairs():
            ks = np.flatnonzero(values < INF).tolist()
            return [(v, tuple(sorted((*s, j)))) for j, v in zip(ks, values[ks].tolist())]
        return (float(values[k]), tuple(sorted((*s, k)))), pairs
    return column


def compute_diagram(K, max_dim):
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    top = max_dim if K.extend is not None else max_dim + 1
    if K.k_max < top:
        raise SkeletonTooShallow(f"need the {top}-skeleton, complex capped at {K.k_max}")
    layers = _by_dimension(K, top)
    intervals = []
    died = set()
    for d in range(min(len(layers), max_dim + 1)):
        if d + 1 < len(layers):
            column = _listed_columns(layers[d + 1])
        else:
            column = _rule_columns(K.extend)
        owner = {}
        reduced = {}
        for sigma in sorted(layers[d], reverse=True):
            if sigma in died:
                continue
            pivot, pairs = column(sigma[1])
            if pivot is not None and pivot not in owner:
                owner[pivot] = sigma
                continue
            col = set(pairs())
            while col:
                pivot = min(col)
                k = owner.get(pivot)
                if k is None:
                    owner[pivot] = sigma
                    reduced[sigma] = col
                    break
                col.symmetric_difference_update(
                    reduced[k] if k in reduced else column(k[1])[1]())
            else:
                intervals.append((d, sigma[0], INF))
        for (death, _), (birth, _) in owner.items():
            if birth != death:
                intervals.append((d, birth, death))
        died = set(owner)
    return PersistenceDiagram.of(intervals)
