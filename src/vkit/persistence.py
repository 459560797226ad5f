"""Persistent homology over Z/2 of filtered complexes, plus diagram metrics.

Two independent computation routes are kept deliberately separate: the
coboundary reduction with clearing and emergent pairs of Bauer's Ripser
(:func:`compute_diagram`; over a field cohomology has the pairs of
homology) and Betti numbers of strict sublevel complexes, their boundary
columns held as int bitmasks and ranked by an xor basis
(:func:`betti_at`), used as the oracle for the former.  It
reads each dimension's rows and values from ``FilteredComplex.levels``,
sorts them in (value, lex) order and names a simplex by its position
there.  As in Ripser, H0 comes from union-find over the built edge level
with the elder rule, and the working column is a heap of coface names
whose pivot is its least name of odd multiplicity.  The top coface level
of a VR or Cech complex need not be built: the pivots of the top columns
come from the complex's coface rule (``FilteredComplex.extend``) in
blocks, a column's cofaces are read from the rule when it is reduced,
and they are named by integer keys, the rank of the value shifted past
the base-n number of the vertices.  Sublevels follow the open
convention: a simplex with value b is present at scale r iff b < r, so
an interval born at b is populated only for r > b.

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
from heapq import heapify, heappop, heappush
from itertools import combinations
from typing import Iterable

import numpy as np

from .complexes import RULE_BLOCK_CELLS, CofaceRule, FilteredComplex, Simplex

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


def _lex(rows: np.ndarray, n: int) -> np.ndarray:
    """The base-n number whose digits are the entries of each row, so they
    order as the rows do: int64 where every one fits, else Python ints."""
    width = rows.shape[1]
    dtype = np.int64 if (n ** width - 1).bit_length() <= 63 else object
    return rows.astype(dtype) @ np.array([n ** e for e in range(width - 1, -1, -1)], dtype=dtype)


def _components(vertices: np.ndarray, births: np.ndarray, edges: np.ndarray,
                values: np.ndarray, n: int) -> tuple[list, set[int]]:
    """H0 by union-find over the edges, given in (value, lex) order.

    A merge kills the younger of the two components, the one whose oldest
    vertex comes later in (value, index) order (the elder rule), with the
    interval [value of that vertex, value of the edge).  Returns the
    intervals, zero-length ones dropped, and the positions of the merging
    edges, which are the pivots of the H0 columns.  The scan stops at the
    merge that leaves one component, since no later edge can merge.
    """
    age: list = [None] * n
    for v, b in zip(vertices[:, 0].tolist(), births.tolist()):
        age[v] = (b, v)
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    intervals, merging = [], set()
    for e, ((u, v), death) in enumerate(zip(edges.tolist(), values.tolist())):
        u, v = root(u), root(v)
        if u == v:
            continue
        if age[v] < age[u]:
            u, v = v, u
        parent[v] = u               # the root of a component is its oldest vertex
        merging.add(e)
        if age[v][0] != death:
            intervals.append((0, age[v][0], death))
        if len(merging) == len(vertices) - 1:
            break
    intervals += [(0, age[v][0], INF) for v in vertices[:, 0].tolist() if parent[v] == v]
    return intervals, merging


def _listed_pivots(rows: np.ndarray, upper: np.ndarray, upper_values: np.ndarray, n: int):
    """Columns listed from the built level ``upper`` above, in (value, lex)
    order, a coface named by its position there.  ``pivots(order)`` gives
    the pivot of each column in ``order``, -1 for none, ``cofaces(i)`` the
    cofaces of column i, ascending, and ``death(pivot)`` its value."""
    width = rows.shape[1]
    by_lex = np.lexsort(rows.T[::-1])
    lex = _lex(rows, n)[by_lex]
    facets = np.stack([_lex(np.delete(upper, j, axis=1), n) for j in range(width + 1)], axis=1)
    column = by_lex[np.searchsorted(lex, facets.ravel())]
    listed = (np.argsort(column, kind="stable") // (width + 1)).tolist()
    starts = [0] + np.cumsum(np.bincount(column, minlength=len(rows))).tolist()

    def pivots(order: list[int]) -> list[int]:
        return [listed[starts[i]] if starts[i] < starts[i + 1] else -1 for i in order]

    def cofaces(i: int) -> list[int]:
        return listed[starts[i]:starts[i + 1]]
    return pivots, cofaces, upper_values.tolist().__getitem__


def _rule_pivots(rule: CofaceRule, rows: np.ndarray, n: int):
    """Columns read from a complex's coface rule, as in :func:`_listed_pivots`
    but a coface named by an integer key: rank << shift | lex, its value's
    rank among ``rule.values`` above the base-n number of its vertices, so
    keys order as the (value, lex) pairs do.  They are Python ints,
    computed in int64 where every key fits.  The pivots come from one rank
    call per block of columns, as a row-wise argmin: the least rank, ties
    going to the least added vertex k, since s | {k} grows in lex order
    with k.  A column's keys are listed, in order of k, only when it is
    reduced or added."""
    q = rows.shape[1]
    levels = rule.values.tolist()
    shift = (n ** (q + 1) - 1).bit_length()
    dtype = np.int64 if shift + (len(levels) - 1).bit_length() <= 63 else object
    lex = _lex(rows, n).astype(dtype)
    # k's place in s | {k} when p vertices of s are below it
    places = np.array([n ** e for e in range(q, -1, -1)], dtype=dtype)

    def keys(i, k: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        # the vertices of s_i below k keep their digits, shifted one place up
        place = places[(rows[i] < k[:, None]).sum(axis=1)]
        low = lex[i] % place
        lex_t = (lex[i] - low) * n + k.astype(dtype) * place + low
        return (ranks.astype(dtype) << shift) | lex_t

    def pivots(order: list[int]) -> list[int]:
        out: list[int] = []
        step = max(1, RULE_BLOCK_CELLS // n)
        for start in range(0, len(order), step):
            i = np.array(order[start:start + step])
            ranks = rule.ranks(rows[i])
            k = ranks.argmin(axis=1)
            low = ranks[np.arange(len(i)), k]
            found = low < len(levels)
            pivot = np.full(len(i), -1, dtype=dtype)
            pivot[found] = keys(i[found], k[found], low[found])
            out += pivot.tolist()
        return out

    def cofaces(i: int) -> list[int]:
        ranks = rule.ranks(rows[i:i + 1])[0]
        k = np.flatnonzero(ranks < len(levels))
        return keys(i, k, ranks[k]).tolist()
    return pivots, cofaces, lambda key: levels[key >> shift]


def _pivot(column: list) -> int | None:
    """The pivot of a Z/2 column kept as a heap of keys: the least key of
    odd multiplicity, left at the top once the equal pairs of lesser keys
    have been popped, or None once the column is zero."""
    while column:
        top = column[0]
        if top not in column[1:3]:      # the next least key is a child of the top
            return top
        heappop(column)
        heappop(column)
    return None


def compute_diagram(K: FilteredComplex, max_dim: int) -> PersistenceDiagram:
    """Persistence diagram of the filtration, dimensions 0 through max_dim.

    A built level is sorted in (value, lex) order, and a simplex named by
    its position there.  H0 comes from union-find over the edge level with
    the elder rule (:func:`_components`); its merging edges are the pivots
    of the H0 columns.  So the 1-skeleton must be built, even for
    max_dim 0.  Each dimension d >= 1 reduces the coboundary matrix, taking
    the d-simplices in reverse (value, lex) order.  A column is a Z/2 sum
    of cofaces of its d-simplex, kept as a heap (Ripser's working
    coboundary): adding a column pushes its cofaces, and the pivot, the
    earliest coface, is the top of the heap once equal pairs have
    cancelled.  A reduced column is stored as its heap, pairs and all.
    Clearing skips the d-simplices that died in dimension d-1 (their
    columns reduce to zero), and an emergent pair, a column whose pivot
    has no owner yet, is paired without listing it.  A pair (s, t) is the
    interval [value(s), value(t)); zero-length ones are discarded, and a
    column reducing to zero is an essential class.

    The cofaces of the columns of dimension max_dim >= 1 are read from the
    complex's rule ``K.extend`` when it has one, as Ripser enumerates
    them from the metric.  That level is not built, so its cofaces are
    named by integer keys (:func:`_rule_pivots`) made from the rule's
    ranks: the pivots come in blocks of rule rows, and the keys are listed
    for the columns that are reduced and the owners they add.  Without a
    rule they come from the built (max_dim + 1)-simplices.
    """
    if max_dim < 0:
        raise ValueError("max_dim must be nonnegative")
    # the last built level read; H0 reads the edges, so it is at least the first
    top = max(1, max_dim if K.extend is not None else max_dim + 1)
    if K.k_max < top:
        raise SkeletonTooShallow(f"need the {top}-skeleton, complex capped at {K.k_max}")
    (vertices, births), *above = K.levels[:top + 1]
    if not len(vertices):
        return PersistenceDiagram.of([])
    n = int(vertices.max()) + 1
    orders = [np.lexsort((*rows.T[::-1], values)) for rows, values in above]
    levels = [None] + [(rows[o], values[o]) for (rows, values), o in zip(above, orders)]
    intervals, died = _components(vertices, births, *levels[1], n)
    for d in range(1, min(len(levels), max_dim + 1)):
        rows, values = levels[d]
        if not len(rows):               # the level above dim K
            break
        if d + 1 < len(levels):
            pivots, cofaces, death = _listed_pivots(rows, *levels[d + 1], n)
        else:
            pivots, cofaces, death = _rule_pivots(K.extend, rows, n)
        values = values.tolist()
        order = [i for i in range(len(values) - 1, -1, -1) if i not in died]
        owner: dict[int, int] = {}
        reduced: dict[int, list[int]] = {}
        for i, pivot in zip(order, pivots(order)):
            if pivot >= 0 and pivot not in owner:
                owner[pivot] = i
                continue
            col = cofaces(i)
            heapify(col)                # a rule column is listed in order of k
            while (pivot := _pivot(col)) is not None:
                j = owner.get(pivot)
                if j is None:
                    owner[pivot] = i
                    reduced[i] = col
                    break
                # an emergent owner's cofaces are listed again, not kept
                for key in reduced[j] if j in reduced else cofaces(j):
                    heappush(col, key)
            else:
                intervals.append((d, values[i], INF))
        for pivot, i in owner.items():
            if values[i] != (dies := death(pivot)):
                intervals.append((d, values[i], dies))
        died = set(owner)
    return PersistenceDiagram.of(intervals)


def _gf2_rank(columns: list[int]) -> int:
    """Rank over Z/2 of columns held as int bitmasks: an xor basis keyed
    by the highest bit of each member."""
    basis: dict[int, int] = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            if top not in basis:
                basis[top] = col
                break
            col ^= basis[top]
    return len(basis)


def betti_at(K: FilteredComplex, r: float, dim: int) -> int:
    """Betti number of the strict sublevel complex {s : value(s) < r}.

    Independent of the reduction path: holds each column of the two
    boundary matrices of the sublevel complex as an int bitmask over the
    faces and ranks them over Z/2 (:func:`_gf2_rank`), so it can serve as
    an oracle for :func:`compute_diagram`.
    """
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    if K.k_max < dim + 1:
        raise SkeletonTooShallow(
            f"need the {dim + 1}-skeleton, complex capped at {K.k_max}")
    present = [s for s, _ in K.sublevel(r)]
    below, layer, above = ([s for s in present if len(s) == q] for q in (dim, dim + 1, dim + 2))
    if not layer:
        return 0

    def boundary(upper: list[Simplex], lower: list[Simplex]) -> list[int]:
        idx = {s: i for i, s in enumerate(lower)}
        return [sum(1 << idx[f] for f in combinations(s, len(s) - 1)) for s in upper]

    rank_down = _gf2_rank(boundary(layer, below)) if dim > 0 else 0
    return len(layer) - rank_down - _gf2_rank(boundary(above, layer))


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
