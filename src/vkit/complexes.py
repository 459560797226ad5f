"""Filtered simplicial complexes: open Vietoris-Rips, intrinsic Cech, Vietoris.

A complex is one pair of arrays per dimension: sorted vertex rows and their
entry thresholds.  The open convention is enforced at query time: a simplex
is present at scale r iff its value is strictly below r, so one built
complex serves all thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from typing import Callable

import numpy as np

from .metric import Cover, FiniteMetricSpace

Simplex = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class FilteredComplex:
    """Abstract simplicial complex with per-simplex filtration values.

    ``levels[d]`` holds the d-simplices, sorted int64 vertex rows and their
    float64 values, for d from 0 to the first empty level or to ``k_max``;
    ``simplices``, the dict of vertex tuples to values, is built on first
    read.  Invariants: closed under faces, face values never exceed coface
    values.  ``k_max`` is the dimension cap the builder honored.  ``extend``,
    when the builder supplies it, is the value rule one level past the cap,
    a :class:`CofaceRule`: given a block of simplices of the complex, the
    rows of an (m, q) int array, ``extend.ranks`` returns for each row s
    and each point k the rank of the value of s | {k} among
    ``extend.values``, the sorted distinct values the rule can return.
    Persistence in dimension d needs ``k_max >= d + 1``, or
    ``k_max >= max(1, d)`` and a rule.
    """

    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    k_max: int
    extend: CofaceRule | None = None

    @staticmethod
    def of(simplices: dict[Simplex, float], k_max: int) -> "FilteredComplex":
        """The complex of the given vertex tuples and values, to dimension k_max."""
        sizes = range(1, min(max(map(len, simplices), default=0), k_max) + 2)
        return FilteredComplex(tuple(
            (np.array([s for s in simplices if len(s) == q], dtype=np.int64).reshape(-1, q),
             np.array([v for s, v in simplices.items() if len(s) == q], dtype=np.float64))
            for q in sizes), k_max)

    @cached_property
    def simplices(self) -> dict[Simplex, float]:
        return {tuple(s): v for rows, values in self.levels
                for s, v in zip(rows.tolist(), values.tolist())}

    def __len__(self) -> int:
        return sum(len(values) for _, values in self.levels)

    def sublevel(self, r: float) -> list[tuple[Simplex, float]]:
        """Simplices with value strictly below r."""
        return [(s, v) for s, v in self.simplices.items() if v < r]

    def check_face_closure(self) -> None:
        for s, v in self.simplices.items():
            if len(s) == 1:
                continue
            for face in combinations(s, len(s) - 1):
                if face not in self.simplices:
                    raise ValueError(f"face {face} of {s} missing")
                if self.simplices[face] > v:
                    raise ValueError(f"face {face} enters after coface {s}")


class CofaceRule:
    """The values of the cofaces s | {k} of a complex's simplices s, one
    level past its cap, from the distance matrix D at scale r.

    The builder's ``cofaces(S, M)`` reads the matrix M for a block of
    simplices S and takes only maxima and minima of its entries.  So on the
    rank table, where each entry of D below r is replaced by its rank among
    ``values`` (the distinct entries below r, ascending) and every other
    entry by ``len(values)``, it gives the ranks of the values directly.
    The table is built on first use.
    """

    def __init__(self, dist: np.ndarray, r: float,
                 cofaces: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.dist, self.r, self.cofaces = dist, r, cofaces

    @cached_property
    def _ranked(self) -> tuple[np.ndarray, np.ndarray]:
        # one sort of the entries below r: a searchsorted over all n^2
        # entries was slower, and np.unique's first call maps more of numpy
        flat = self.dist.ravel()
        below = np.flatnonzero(flat < self.r)
        order = below[np.argsort(flat[below])]
        ordered = flat[order]
        distinct = np.ones(len(order), dtype=bool)
        distinct[1:] = ordered[1:] != ordered[:-1]
        values = ordered[distinct]
        table = np.full(flat.shape, len(values))
        table[order] = np.cumsum(distinct) - 1
        return table.reshape(self.dist.shape), values

    @property
    def values(self) -> np.ndarray:
        return self._ranked[1]

    def ranks(self, S: np.ndarray) -> np.ndarray:
        """The ranks of the values of s | {k} for the rows s of the block S
        and every point k: len(values) for k in s and wherever the value is
        not below r."""
        ranks = self.cofaces(S, self._ranked[0])
        ranks[np.arange(len(S))[:, None], S] = len(self.values)
        return ranks


class ComplexTooLarge(ValueError):
    """A clique expansion would build more simplices than the guard allows."""


# Candidates one built expansion level may score, two int64 indices each:
# 16 MB.  The level past the cap is not built, so it is not counted: its
# rule lists at most n_points cofaces per simplex of the last built level.
PERSIST_SIMPLEX_GUARD = 10 ** 6

# Float cells one call of a coface rule may return, 128 KB: callers pass
# blocks of at most RULE_BLOCK_CELLS // n_points simplices, and the Cech
# rules score their (simplex, point, witness) cells in chunks of at most as
# many cells, one simplex or candidate at least.  Blocks four times larger
# were no faster on the benchmark and raised its peak RSS by 1.1 MB.
RULE_BLOCK_CELLS = 2 ** 14


def _guard(count: int, dim: int) -> None:
    if count > PERSIST_SIMPLEX_GUARD:
        raise ComplexTooLarge(
            f"{count} candidate {dim}-simplices exceed the guard {PERSIST_SIMPLEX_GUARD}")


def _candidates(rows: np.ndarray, adjacent: np.ndarray) -> list:
    """The extensions (u[j],) + block[i[j]] of the simplices ``rows`` by a
    vertex ``adjacent`` to each of theirs, in blocks of at most
    RULE_BLOCK_CELLS // n_points rows; raises ComplexTooLarge first if they
    exceed PERSIST_SIMPLEX_GUARD."""
    step = max(1, RULE_BLOCK_CELLS // len(adjacent))
    blocks, count = [], 0
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        i, u = np.nonzero(reduce(np.logical_and, (adjacent[v] for v in block.T)))
        count += len(u)
        if count <= PERSIST_SIMPLEX_GUARD:
            blocks.append((block, i, u))
    _guard(count, rows.shape[1])
    return blocks


def _vertices(n: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The vertex rows at scale r, none for r <= 0, and all lower points as neighbours."""
    points = np.arange(n)
    return points[:n if r > 0.0 else 0, None], points[:, None] > points


def check_edges(n_points: int, r: float) -> None:
    """The edge guard of a VR or Cech build at scale r, checked before any
    distance exists: every pair of vertices is a candidate edge."""
    _guard(n_points * (n_points - 1) // 2 if r > 0.0 else 0, 1)


def _expand(space: FiniteMetricSpace, r: float, k_max: int,
            rule: Callable, cofaces: Callable) -> FilteredComplex:
    """Lower-neighbour clique expansion (Zomorodian 2010) under a value rule.

    Level 1 scores every pair; level k extends each kept (k-1)-simplex s by
    the vertices u < min(s) that are kept neighbours of every vertex of s.
    For a block S of at most RULE_BLOCK_CELLS // n_points rows of the level
    below, ``rule(S, i, u)`` returns the values of the extensions
    (u[j],) + S[i[j]], which are kept where strictly below r.  More than
    PERSIST_SIMPLEX_GUARD candidates in one level raise ComplexTooLarge
    before any of them is scored.  The complex carries ``cofaces(S, M)``,
    the values of s | {k} for every row s of S and every point k read from
    the matrix M, as its :class:`CofaceRule` one level past the cap.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    D, n = space.dist, space.n_points
    rows, adjacent = _vertices(n, r)    # adjacent[v, u]: u is a lower neighbour of v
    levels = [(rows, np.zeros(len(rows)))]
    for dim in range(1, k_max + 1):
        if not len(rows):           # no (dim-1)-simplex to extend, however large k_max is
            break
        kept = []
        for block, i, u in _candidates(rows, adjacent):
            scores = rule(block, i, u)
            keep = scores < r
            kept.append((np.column_stack([u[keep], block[i[keep]]]), scores[keep]))
        levels.append(tuple(np.concatenate(part) for part in zip(*kept)))
        rows = levels[-1][0]
        if dim == 1:
            adjacent = np.zeros((n, n), dtype=bool)
            adjacent[rows[:, 1], rows[:, 0]] = True
    return FilteredComplex(tuple(levels), k_max, CofaceRule(D, r, cofaces))


def build_vr(space: FiniteMetricSpace, r: float, k_max: int) -> FilteredComplex:
    """Open Vietoris-Rips complex: subsets with diameter strictly below r.

    Filtration value of a simplex is its diameter (0 for vertices).  The
    complex is the clique complex of its 1-skeleton, so higher simplices
    come from lower-neighbor expansion of the graph.  Returns the empty
    complex for r <= 0.
    """
    D = space.dist

    def cofaces(S: np.ndarray, M: np.ndarray) -> np.ndarray:
        # W[i, k] is the largest distance from k to s_i; at k in s_i it is
        # a largest distance within s_i, so the diameter is the row's max there
        W = reduce(np.maximum, (M[v] for v in S.T))
        diam = W[np.arange(len(S))[:, None], S].max(axis=1)
        return np.maximum(W, diam[:, None])

    return _expand(space, r, k_max, lambda S, i, u: cofaces(S, D)[i, u], cofaces)


def build_cech(space: FiniteMetricSpace, r: float, k_max: int) -> FilteredComplex:
    """Intrinsic Cech complex: the witness z ranges over the space itself.

    A subset enters at the min over witnesses z in X of max_{x} d(z, x); it
    is present at scale r iff that value is strictly below r.  Candidate
    simplices are cliques of the 1-skeleton (witness values are monotone
    under inclusion, so every face of a kept simplex was already kept).
    With the witness profile w_s = max_{x in s} D[x, :] of a simplex s,
    the candidates u are scored as min_z max(w_s, D[u])[z], and every point
    k by the same rows of max(w_s, D), for a block of simplices in chunks
    of RULE_BLOCK_CELLS cells.
    """
    D = space.dist

    def witness(S: np.ndarray, i: np.ndarray, u: np.ndarray) -> np.ndarray:
        W = reduce(np.maximum, (D[v] for v in S.T))
        scores = np.empty(len(u))
        step = max(1, RULE_BLOCK_CELLS // len(D))
        for c in range(0, len(u), step):
            np.maximum(W[i[c:c + step]], D[u[c:c + step]]).min(axis=1, out=scores[c:c + step])
        return scores

    def cofaces(S: np.ndarray, M: np.ndarray) -> np.ndarray:
        W = reduce(np.maximum, (M[v] for v in S.T))
        values = np.empty_like(W)
        step = max(1, RULE_BLOCK_CELLS // M.size)
        for i in range(0, len(S), step):
            np.maximum(W[i:i + step, None, :], M).min(axis=2, out=values[i:i + step])
        return values

    return _expand(space, r, k_max, witness, cofaces)


def build_vietoris(cov: Cover, k_max: int) -> FilteredComplex:
    """Vietoris complex of a cover: simplices are subsets of some element.

    Unfiltered (every simplex at value 0).  The Vietoris complex of the
    cover by all sets of diameter below r is :func:`build_vr`.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    simps: dict[Simplex, float] = {}
    for elem in cov.elements:
        members = sorted(elem)
        for size in range(1, min(k_max + 1, len(members)) + 1):
            for sub in combinations(members, size):
                simps[sub] = 0.0
    return FilteredComplex.of(simps, k_max)
