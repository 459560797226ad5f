"""Filtered simplicial complexes: open Vietoris-Rips, intrinsic Cech, Vietoris.

Simplices are stored as sorted vertex-index tuples with an entry threshold
(the value at which the simplex first appears).  The open convention is
enforced at query time: a simplex is present at scale r iff its value is
strictly below r, so one built complex serves all thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, repeat
from typing import Callable

import numpy as np

from .metric import Cover, FiniteMetricSpace

Simplex = tuple[int, ...]


@dataclass(frozen=True)
class FilteredComplex:
    """Abstract simplicial complex with per-simplex filtration values.

    Invariants: closed under faces, face values never exceed coface values,
    simplices canonically sorted.  ``k_max`` is the dimension cap the
    builder honored.  ``extend``, when the builder supplies it, is the
    value rule one level past the cap: for a simplex s of the complex,
    ``extend(s)`` is a float array over the points whose entry k is the
    value of s | {k}, and +inf for k in s and wherever that value is not
    strictly below the builder's r.  Given a block of simplices, the rows
    of an (m, q) int array, it returns their m rows of values at once.
    ``rule_values`` is a sorted array that holds every finite value the
    rule returns.  Persistence in dimension d needs ``k_max >= d + 1``,
    or ``k_max >= d`` and a rule.
    """

    simplices: dict[Simplex, float]
    k_max: int
    extend: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)
    rule_values: np.ndarray | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.simplices)

    def sublevel(self, r: float) -> list[tuple[Simplex, float]]:
        """Simplices with value strictly below r, in filtration order."""
        return [(s, v) for s, v in self.in_filtration_order() if v < r]

    def in_filtration_order(self) -> list[tuple[Simplex, float]]:
        items = list(self.simplices.items())
        items.sort(key=lambda sv: (sv[1], len(sv[0]), sv[0]))
        return items

    def check_face_closure(self) -> None:
        for s, v in self.simplices.items():
            if len(s) == 1:
                continue
            for face in combinations(s, len(s) - 1):
                if face not in self.simplices:
                    raise ValueError(f"face {face} of {s} missing")
                if self.simplices[face] > v:
                    raise ValueError(f"face {face} enters after coface {s}")


class ComplexTooLarge(ValueError):
    """A clique expansion would build more simplices than the guard allows."""


# Candidates one built expansion level may score: at ~300 bytes a simplex,
# ~300 MB.  The level past the cap is not built, so it is not counted: its
# rule lists at most n_points cofaces per simplex of the last built level.
PERSIST_SIMPLEX_GUARD = 10 ** 6

# Float cells one call of a coface rule may return, 128 KB: callers pass
# blocks of at most RULE_BLOCK_CELLS // n_points simplices, and the Cech
# rule scores its (simplex, point, witness) cube in chunks of at most as
# many cells, one simplex at least in either.  Blocks four times larger
# were no faster on the benchmark and raised its peak RSS by 1.1 MB.
RULE_BLOCK_CELLS = 2 ** 14


def _expand(space: FiniteMetricSpace, r: float, k_max: int,
            seed: Callable, rule: Callable, cofaces: Callable) -> FilteredComplex:
    """Lower-neighbour clique expansion (Zomorodian 2010) under a value rule.

    Level 1 scores every pair; level k extends each kept (k-1)-simplex s by
    the vertices u < min(s) that are kept neighbours of every vertex of s.
    Vertex j enters at 0 carrying the state ``seed(j)``, and
    ``rule(s, state, us)`` returns the values of the extensions (u,) + s
    and the states they carry.  An extension is kept iff its value is
    strictly below r.  More than PERSIST_SIMPLEX_GUARD candidates in one
    level raise ComplexTooLarge before the level is scored.  The complex
    carries ``cofaces(S)``, the values of s | {k} for every row s of the
    block S and every point k, as its rule ``extend`` one level past the
    cap; every such value is an entry of the distance matrix, so those
    entries are the rule's values.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    simps: dict[Simplex, float] = {}

    def extend(S) -> np.ndarray:
        S = np.asarray(S)
        block = S.reshape(-1, S.shape[-1])
        values = cofaces(block)
        values[np.arange(len(block))[:, None], block] = np.inf
        if r < np.inf:
            values[values >= r] = np.inf
        return values.reshape(S.shape[:-1] + values.shape[-1:])

    K = FilteredComplex(simps, k_max, extend, np.sort(space.dist, axis=None))
    if r <= 0.0:
        return K
    n = space.n_points
    frontier = [((j,), seed(j)) for j in range(n)]
    simps.update((s, 0.0) for s, _ in frontier)
    below: list = [range(j) for j in range(n)]      # every pair is a candidate edge
    for dim in range(1, k_max + 1):
        if not frontier:            # no (dim-1)-simplex to extend, however large k_max is
            break
        candidates = [sorted(set(below[s[0]]).intersection(*(below[v] for v in s[1:])))
                      for s, _ in frontier]
        count = sum(map(len, candidates))
        if count > PERSIST_SIMPLEX_GUARD:
            raise ComplexTooLarge(
                f"{count} candidate {dim}-simplices exceed the guard {PERSIST_SIMPLEX_GUARD}")
        nxt = []
        for (s, state), us in zip(frontier, candidates):
            values, states = rule(s, state, us)
            for u, value, st in zip(us, values, states):
                if value < r:
                    ext = (u,) + s
                    simps[ext] = value
                    if dim < k_max:         # the last level's states are not needed
                        nxt.append((ext, st))
        if dim == 1:
            below = [{u for u in range(j) if (u, j) in simps} for j in range(n)]
        frontier = nxt
    return K


def build_vr(space: FiniteMetricSpace, r: float, k_max: int) -> FilteredComplex:
    """Open Vietoris-Rips complex: subsets with diameter strictly below r.

    Filtration value of a simplex is its diameter (0 for vertices).  The
    complex is the clique complex of its 1-skeleton, so higher simplices
    come from lower-neighbor expansion of the graph.  Returns the empty
    complex for r <= 0.
    """
    D = space.dist
    rows = D.tolist()

    def diameter(s: Simplex, diam: float, us: list[int]):
        values = list(map(max, repeat(diam), *([rows[v][u] for u in us] for v in s)))
        return values, values

    def cofaces(S: np.ndarray) -> np.ndarray:
        # W[i, k] is the largest distance from k to s_i; at k in s_i it is
        # a largest distance within s_i, so the diameter is the row's max there
        W = reduce(np.maximum, (D[v] for v in S.T))
        diam = W[np.arange(len(S))[:, None], S].max(axis=1)
        return np.maximum(W, diam[:, None])

    return _expand(space, r, k_max, lambda j: 0.0, diameter, cofaces)


def build_cech(space: FiniteMetricSpace, r: float, k_max: int) -> FilteredComplex:
    """Intrinsic Cech complex: the witness z ranges over the space itself.

    A subset enters at the min over witnesses z in X of max_{x} d(z, x); it
    is present at scale r iff that value is strictly below r.  Candidate
    simplices are cliques of the 1-skeleton (witness values are monotone
    under inclusion, so every face of a kept simplex was already kept).
    Each simplex s carries its witness profile w_s = max_{x in s} D[x, :],
    so the candidates u are scored at once as min_z max(w_s, D[u])[z], and
    every point k by the same rows of max(w_s, D), for a block of simplices
    in chunks of RULE_BLOCK_CELLS cells.
    """
    D = space.dist

    def witness(s: Simplex, profile: np.ndarray, us: list[int]):
        profiles = np.maximum(profile, D[us])
        return profiles.min(axis=1).tolist(), profiles

    def cofaces(S: np.ndarray) -> np.ndarray:
        W = reduce(np.maximum, (D[v] for v in S.T))
        values = np.empty_like(W)
        step = max(1, RULE_BLOCK_CELLS // D.size)
        for i in range(0, len(S), step):
            np.maximum(W[i:i + step, None, :], D).min(axis=2, out=values[i:i + step])
        return values

    return _expand(space, r, k_max, lambda j: D[j], witness, cofaces)


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
    return FilteredComplex(simps, k_max)
