"""Persistent homology over Z/2 of filtered complexes, plus diagram metrics.

Two independent computation routes are kept deliberately separate: the
coboundary reduction with clearing and emergent pairs of Bauer's Ripser
(:func:`compute_diagram`; over a field cohomology has the pairs of
homology) and plain Gaussian-elimination Betti numbers of strict sublevel
complexes (:func:`betti_at`), used as the oracle for the former.  As in
Ripser, the top coface level of a VR or Cech complex need not be built:
the reduction reads each column's cofaces from the complex's value rule
(``FilteredComplex.extend``) when it reduces the column.
Sublevels follow the open convention: a simplex with value b is present
at scale r iff b < r, so an interval born at b is populated only for r > b.

Diagrams are undecorated (birth, death) multisets; with the open
convention the decorations would differ from the closed one, and nothing
downstream needs them.  Coefficients are Z/2 only; swapping the field
would only touch the two elimination routines.

A filtration over a finite space is locally finite, so the weight-vector
topology of its realization and the Wasserstein topology on the same
underlying set of measures agree; the diagram computed here is declared
the diagram of both pictures, and instead of a (nonexistent) second
computation path the suite checks functoriality of the sublevel inclusion
maps across nested thresholds.

The bottleneck distance (:func:`diagram_distance`) compares such
diagrams, e.g. to check stability under perturbation.  It is exact: a
binary search over the entries of one numpy cost matrix, deciding each
threshold by a maximum bipartite matching, computed as a unit-capacity
maximum flow by scipy's Dinic solver (Hopcroft-Karp's phase bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .complexes import FilteredComplex, Simplex

INF = math.inf


class SkeletonTooShallow(ValueError):
    """The complex's dimension cap cannot support the requested homology."""


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (dimension, birth, death) intervals, canonically sorted."""

    intervals: tuple[tuple[int, float, float], ...]

    @staticmethod
    def of(items: Iterable[tuple[int, float, float]]) -> "PersistenceDiagram":
        norm = []
        for dim, b, d in items:
            if d < b:
                raise ValueError(f"death {d} before birth {b}")
            if dim < 0:
                raise ValueError("dimension must be nonnegative")
            norm.append((int(dim), float(b), float(d)))
        return PersistenceDiagram(tuple(sorted(norm)))

    def in_dim(self, dim: int) -> list[tuple[float, float]]:
        return [(b, d) for q, b, d in self.intervals if q == dim]

    def to_csv(self) -> str:
        lines = ["dim,birth,death"]
        for dim, b, d in self.intervals:
            death = "inf" if math.isinf(d) else repr(d)
            lines.append(f"{dim},{b!r},{death}")
        return "\n".join(lines) + "\n"


def _by_dimension(K: FilteredComplex, top: int) -> list[list[tuple[float, Simplex]]]:
    """(value, simplex) pairs of each dimension 0..top, unsorted.  The
    layers stop at dimension min(top, dim K + 1): those above dim K are
    empty, and only the first of them is made."""
    top = min(top, max(map(len, K.simplices), default=0))
    layers: list[list[tuple[float, Simplex]]] = [[] for _ in range(top + 1)]
    for s, v in K.simplices.items():
        if len(s) <= top + 1:
            layers[len(s) - 1].append((v, s))
    return layers


def _cofaces(upper: list) -> dict[Simplex, list[tuple[float, Simplex]]]:
    """The (value, coface) pairs of ``upper``, listed under each of their
    facets, in no particular order."""
    cofaces: dict[Simplex, list[tuple[float, Simplex]]] = {}
    for pair in upper:
        t = pair[1]
        for f in combinations(t, len(t) - 1):
            cofaces.setdefault(f, []).append(pair)
    return cofaces


def _listed_columns(upper: list):
    """Columns of an explicit upper layer: ``column(s)`` is the pivot of s
    and a function listing its (value, coface) pairs."""
    cofaces = _cofaces(upper)

    def column(s: Simplex):
        col = cofaces.get(s, [])
        return min(col, default=None), lambda: col
    return column


def _rule_columns(extend):
    """Columns read from a complex's coface rule.  The pivot is the least
    value, ties going to the least added vertex k, since s | {k} grows in
    lex order with k; the pairs are only listed for columns that are
    reduced or added."""
    def column(s: Simplex):
        values = extend(s)
        k = int(values.argmin())
        if values[k] == INF:
            return None, lambda: []

        def pairs() -> list[tuple[float, Simplex]]:
            ks = np.flatnonzero(values < INF).tolist()
            return [(v, tuple(sorted((*s, j)))) for j, v in zip(ks, values[ks].tolist())]
        return (float(values[k]), tuple(sorted((*s, k)))), pairs
    return column


def compute_diagram(K: FilteredComplex, max_dim: int) -> PersistenceDiagram:
    """Persistence diagram of the filtration, dimensions 0 through max_dim.

    Reduces the coboundary matrix one dimension d at a time, taking the
    d-simplices in reverse filtration order, which within one dimension is
    reverse (value, lex) order.  A column is the set of (value, coface)
    pairs of its d-simplex, and its pivot is the least pair, the earliest
    coface.  Clearing skips the d-simplices that died in dimension d-1
    (their columns reduce to zero), and an emergent pair, a column whose
    pivot has no owner yet, is paired without copying it.  A pair (s, t)
    is the interval [value(s), value(t)); zero-length ones are discarded,
    and a column reducing to zero is an essential class.

    The cofaces of the columns of dimension max_dim are read from the
    complex's rule ``K.extend`` when it has one, as Ripser enumerates
    them from the metric: only the pivot of an emergent pair is looked
    up, and the pairs are listed for the columns that are reduced and the
    owners they add.  Without a rule they come from the explicit
    (max_dim + 1)-simplices.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    top = max_dim if K.extend is not None else max_dim + 1     # the last explicit layer
    if K.k_max < top:
        raise SkeletonTooShallow(f"need the {top}-skeleton, complex capped at {K.k_max}")
    layers = _by_dimension(K, top)
    intervals = []
    died: set[tuple[float, Simplex]] = set()
    for d in range(min(len(layers), max_dim + 1)):
        if d + 1 < len(layers):
            column = _listed_columns(layers[d + 1])
        else:
            column = _rule_columns(K.extend)
        owner: dict[tuple[float, Simplex], tuple[float, Simplex]] = {}
        reduced: dict[tuple[float, Simplex], set] = {}
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
                # an emergent owner's pairs are listed again, not kept
                col.symmetric_difference_update(
                    reduced[k] if k in reduced else column(k[1])[1]())
            else:
                intervals.append((d, sigma[0], INF))
        for (death, _), (birth, _) in owner.items():
            if birth != death:
                intervals.append((d, birth, death))
        died = set(owner)
    return PersistenceDiagram.of(intervals)


def _gf2_rank(rows: np.ndarray) -> int:
    """Rank over Z/2 by in-place elimination of a dense 0/1 matrix."""
    A = rows.copy().astype(np.uint8)
    m, n = A.shape
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, m):
            if A[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        A[[rank, pivot]] = A[[pivot, rank]]
        for r in range(m):
            if r != rank and A[r, col]:
                A[r] ^= A[rank]
        rank += 1
        if rank == m:
            break
    return rank


def betti_at(K: FilteredComplex, r: float, dim: int) -> int:
    """Betti number of the strict sublevel complex {s : value(s) < r}.

    Independent of the reduction path: builds the two boundary matrices of
    the sublevel complex and ranks them by Gaussian elimination, so it can
    serve as an oracle for :func:`compute_diagram`.
    """
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    if K.k_max < dim + 1:
        raise SkeletonTooShallow(
            f"need the {dim + 1}-skeleton, complex capped at {K.k_max}")
    present = [s for s, _ in K.sublevel(r)]
    layer = sorted(s for s in present if len(s) == dim + 1)
    below = sorted(s for s in present if len(s) == dim)
    above = sorted(s for s in present if len(s) == dim + 2)
    if not layer:
        return 0

    def boundary(upper: list[Simplex], lower: list[Simplex]) -> np.ndarray:
        idx = {s: i for i, s in enumerate(lower)}
        M = np.zeros((len(lower), len(upper)), dtype=np.uint8)
        for j, s in enumerate(upper):
            for f in combinations(s, len(s) - 1):
                M[idx[f], j] = 1
        return M

    rank_down = _gf2_rank(boundary(layer, below)) if dim > 0 else 0
    rank_up = _gf2_rank(boundary(above, layer)) if above else 0
    return len(layer) - rank_down - rank_up


# -- bottleneck distance ------------------------------------------------


def _finite_bottleneck(A: list[tuple[float, float]],
                       B: list[tuple[float, float]]) -> float:
    if not A and not B:
        return 0.0
    # imported here: loading scipy.sparse would add to every vkit start-up
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    a = np.array(A, dtype=np.float64).reshape(-1, 2)
    b = np.array(B, dtype=np.float64).reshape(-1, 2)
    nA, nB = len(a), len(b)
    size = nA + nB
    # rows: A points then one diagonal slot per B point; columns: B points
    # then one diagonal slot per A point.  A matching of A to B extends to a
    # perfect one iff every unmatched point fits its own diagonal slot, and
    # then the slots of matched pairs pair along the transposed pair block,
    # so that block serves the slots as well as a complete one would
    cost = np.full((size, size), INF)
    cost[:nA, :nB] = np.maximum(np.abs(a[:, None, 0] - b[None, :, 0]),
                                np.abs(a[:, None, 1] - b[None, :, 1]))
    cost[nA:, nB:] = cost[:nA, :nB].T
    cost[np.arange(nA), nB + np.arange(nA)] = (a[:, 1] - a[:, 0]) / 2.0
    cost[nA + np.arange(nB), np.arange(nB)] = (b[:, 1] - b[:, 0]) / 2.0
    # every row and every column needs an entry within the threshold; on
    # diagrams a small perturbation apart this bound is the distance itself
    lower = max(cost.min(axis=0).max(), cost.min(axis=1).max())
    thresholds = np.unique(cost[np.isfinite(cost) & (cost >= lower)])
    source, sink = 2 * size, 2 * size + 1
    ends = np.arange(size)

    def feasible(theta: float) -> bool:
        # unit-capacity network source -> rows -> columns -> sink, on which
        # Dinic's blocking flows are the phases of Hopcroft-Karp
        rows, cols = np.nonzero(cost <= theta)
        tails = np.concatenate([np.full(size, source), rows, size + ends])
        heads = np.concatenate([ends, size + cols, np.full(size, sink)])
        network = csr_matrix((np.ones(len(tails), dtype=np.int32), (tails, heads)),
                             shape=(sink + 1, sink + 1))
        return maximum_flow(network, source, sink, method="dinic").flow_value == size

    lo, hi, mid = 0, len(thresholds) - 1, 0        # probe the bound first
    while lo < hi:
        if feasible(thresholds[mid]):
            hi = mid
        else:
            lo = mid + 1
        mid = (lo + hi) // 2
    return float(thresholds[lo])


def diagram_distance(D1: PersistenceDiagram, D2: PersistenceDiagram) -> float:
    """Exact bottleneck distance via bipartite matching with diagonal slots.

    Essential classes (death +inf) must match each other within a
    dimension; mismatched counts give +inf, matched ones contribute their
    sorted birth differences.  The finite part of each dimension is one
    dense cost matrix (pair costs, each point's half-persistence to its own
    diagonal slot): the distance is the smallest entry at which the entries
    within it admit a perfect matching, found by binary search over the
    entries from the row/column lower bound up, each step one maximum-flow
    test with scipy's Dinic solver, so the matching neither recurses nor
    loops in Python.
    """
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
        best = max(best, _finite_bottleneck(a_fin, b_fin))
    return best
