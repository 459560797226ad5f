"""Finitely supported probability measures and the two metrics on them.

A measure is a weighted sum of Dirac masses on points of a
:class:`~vkit.metric.FiniteMetricSpace`.  Two distances are implemented:
the exact 1-Wasserstein distance (a transportation simplex in pure Python)
and the barycentric l1 distance between weight vectors.  Couplings are
explicit transport plans with validated marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .metric import FiniteMetricSpace

WEIGHT_SUM_EXACT = 1e-12      # accept the stored weights as-is below this
WEIGHT_SUM_RENORM = 1e-9      # renormalize up to this, reject beyond
MARGINAL_TOL = 1e-10
REDUCED_COST_TOL = 1e-12     # a cell enters the basis below this
MAX_PIVOTS = 10_000          # Bland's rule terminates; this bounds round-off and huge supports


class ZeroMass(ValueError):
    """An operation produced or required strictly positive mass and got none."""


@dataclass(frozen=True)
class FiniteMeasure:
    """Probability measure with finite support on a fixed space.

    Canonical form: support indices strictly increasing, weights strictly
    positive, total weight 1 within ``WEIGHT_SUM_EXACT``.  Construction
    renormalizes drift up to ``WEIGHT_SUM_RENORM`` and rejects anything
    worse, so long chains of convex combinations stay stable.
    """

    space: FiniteMetricSpace
    support: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support indices must be distinct")
        for x, w in zip(self.support, self.weights):   # zero weights too, before they drop
            if not (0 <= x < self.space.n_points):
                raise IndexError(f"support index {x} out of range")
            if w < 0.0 or not math.isfinite(w):
                raise ValueError(f"weight at {x} must be positive, got {w}")
        items = sorted(
            ((int(x), float(w)) for x, w in zip(self.support, self.weights) if w != 0.0)
        )
        if not items:
            raise ZeroMass("a probability measure needs positive total mass")
        total = math.fsum(w for _, w in items)
        if abs(total - 1.0) > WEIGHT_SUM_RENORM:
            raise ValueError(f"weights sum to {total}, beyond renormalization tolerance")
        if abs(total - 1.0) > WEIGHT_SUM_EXACT:
            items = [(x, w / total) for x, w in items]
        object.__setattr__(self, "support", tuple(x for x, _ in items))
        object.__setattr__(self, "weights", tuple(w for _, w in items))

    def weight_of(self, x: int) -> float:
        """Barycentric coordinate of the point x (0 off support)."""
        try:
            return self.weights[self.support.index(x)]
        except ValueError:
            return 0.0

    def mass_of(self, points: Iterable[int]) -> float:
        pts = set(points)
        return math.fsum(w for x, w in zip(self.support, self.weights) if x in pts)

    def support_set(self) -> frozenset[int]:
        return frozenset(self.support)


def stored_rows(rows: np.ndarray) -> tuple[np.ndarray, dict[int, ValueError]]:
    """The weights ``FiniteMeasure`` stores for each row of point weights,
    with the nonzero entries as support, and per refused row the error its
    constructor raises.

    The checks run in the constructor's order.  A row is renormalized, as
    the constructor does it, where its ``math.fsum`` is more than
    ``WEIGHT_SUM_EXACT`` from 1; that sum is taken only for rows whose
    numpy sum, plus its error bound, is not close enough to 1 to rule it
    out.
    """
    rows = np.array(rows, dtype=np.float64)
    errors: dict[int, ValueError] = {}
    support = rows != 0.0
    bad = support & ((rows < 0.0) | ~np.isfinite(rows))
    for r in np.flatnonzero(bad.any(axis=1)).tolist():
        x = int(np.argmax(bad[r]))
        errors[r] = ValueError(f"weight at {x} must be positive, got {float(rows[r, x])}")
    for r in np.flatnonzero(~support.any(axis=1)).tolist():
        errors[r] = ZeroMass("a probability measure needs positive total mass")
    with np.errstate(invalid="ignore", over="ignore"):
        approx = rows.sum(axis=1)
        near = np.abs(approx - 1.0) + rows.shape[1] * np.finfo(float).eps * approx
    for r in np.flatnonzero(~(near <= WEIGHT_SUM_EXACT / 2)).tolist():
        if r in errors:
            continue
        total = math.fsum(rows[r].tolist())
        if abs(total - 1.0) > WEIGHT_SUM_RENORM:
            errors[r] = ValueError(f"weights sum to {total}, beyond renormalization tolerance")
        elif abs(total - 1.0) > WEIGHT_SUM_EXACT:
            rows[r] /= total
    return rows, errors


def dirac(space: FiniteMetricSpace, x: int) -> FiniteMeasure:
    """Unit mass at a single point."""
    return FiniteMeasure(space, (int(x),), (1.0,))


def mix(space: FiniteMetricSpace,
        terms: Sequence[tuple[float, FiniteMeasure]]) -> FiniteMeasure:
    """Convex combination sum(c_i * mu_i); zero coefficients drop out exactly."""
    acc: dict[int, float] = {}
    for c, mu in terms:
        if mu.space is not space:
            raise ValueError("all measures must live on the same space")
        if c == 0.0:
            continue
        if c < 0.0:
            raise ValueError("coefficients must be nonnegative")
        for x, w in zip(mu.support, mu.weights):
            acc[x] = acc.get(x, 0.0) + c * w
    sup = tuple(sorted(x for x, w in acc.items() if w != 0.0))
    return FiniteMeasure(space, sup, tuple(acc[x] for x in sup))


def convex_combine(mu: FiniteMeasure, nu: FiniteMeasure, t: float) -> FiniteMeasure:
    """(1 - t) mu + t nu on the union support; t in [0, 1].

    Endpoints are exact: t=0 returns a measure equal to mu, t=1 to nu.
    """
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    return mix(mu.space, [(1.0 - t, mu), (t, nu)])


def barycentric_distance(mu: FiniteMeasure, nu: FiniteMeasure) -> float:
    """l1 distance between weight vectors over the union support; in [0, 2]."""
    if mu.space is not nu.space:
        raise ValueError("measures live on different spaces")
    pts = sorted(set(mu.support) | set(nu.support))
    return math.fsum(abs(mu.weight_of(x) - nu.weight_of(x)) for x in pts)


@dataclass(frozen=True)
class Coupling:
    """Transport plan between two measures with validated marginals.

    ``mass[i, j]`` is the mass moved from ``rows[i]`` to ``cols[j]``.
    """

    space: FiniteMetricSpace
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=np.float64)
        if m.shape != (len(self.rows), len(self.cols)):
            raise ValueError("mass matrix shape mismatch")
        if (m < -MARGINAL_TOL).any():
            raise ValueError("coupling mass must be nonnegative")
        object.__setattr__(self, "mass", m)

    def check_marginals(self, mu: FiniteMeasure, nu: FiniteMeasure) -> None:
        a = np.array([mu.weight_of(x) for x in self.rows])
        b = np.array([nu.weight_of(y) for y in self.cols])
        if np.abs(self.mass.sum(axis=1) - a).max() > MARGINAL_TOL:
            raise ValueError("row marginals do not match mu")
        if np.abs(self.mass.sum(axis=0) - b).max() > MARGINAL_TOL:
            raise ValueError("column marginals do not match nu")

    def transpose(self) -> "Coupling":
        return Coupling(self.space, self.cols, self.rows, self.mass.T.copy())


def _solve_transport(mu: FiniteMeasure, nu: FiniteMeasure) -> tuple[float, Coupling]:
    """Transportation simplex (Peyre-Cuturi, Computational Optimal Transport,
    2019, ch. 3; the network-simplex view of Bonneel et al., SIGGRAPH Asia
    2011) on the basis tree of the bipartite graph rows x columns."""
    a, b = mu.weights, nu.weights
    m, n = len(a), len(b)
    cost = mu.space.dist[np.ix_(mu.support, nu.support)].tolist()
    # north-west corner: a staircase of m + n - 1 cells, zero-flow cells kept,
    # so the basis is a spanning tree even when the start is degenerate
    flow: dict[tuple[int, int], float] = {}
    i = j = 0
    supply, demand = a[0], b[0]
    for _ in range(m + n - 1):
        x = min(supply, demand)
        flow[i, j] = x
        supply -= x
        demand -= x
        if i < m - 1 and (j == n - 1 or supply <= demand):
            i += 1
            supply = a[i]
        elif j < n - 1:
            j += 1
            demand = b[j]
    pivots = 0
    while True:
        # tree nodes are rows 0..m-1 and columns m..m+n-1
        adj: list[list[int]] = [[] for _ in range(m + n)]
        for i, j in flow:
            adj[i].append(m + j)
            adj[m + j].append(i)
        # MODI potentials u_i + v_j = c_ij (pot[i] = u_i, pot[m + j] = v_j),
        # rooted at row 0
        pot = [0.0] * (m + n)
        prev: dict[int, int] = {0: -1}
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in prev:
                    prev[nxt] = node
                    i, j = (node, nxt - m) if node < m else (nxt, node - m)
                    pot[nxt] = cost[i][j] - pot[node]
                    stack.append(nxt)
        # Bland's rule: the first improving cell in row-major order enters
        enter = next(((i, j) for i in range(m) for j in range(n)
                      if cost[i][j] - pot[i] - pot[m + j] < -REDUCED_COST_TOL
                      and (i, j) not in flow), None)
        if enter is None:
            break
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise RuntimeError(f"transportation simplex exceeded {MAX_PIVOTS} pivots")
        # the entering cell closes one cycle with the tree paths from its row
        # and its column to the root; the cycle's tree edges, walked from the
        # column, alternate minus / plus
        i0, j0 = enter
        up_row, node = [], i0
        while node != -1:
            up_row.append(node)
            node = prev[node]
        up_col, node = [], m + j0
        on_row_path = set(up_row)
        while node not in on_row_path:
            up_col.append(node)
            node = prev[node]
        walk = up_col + [node] + up_row[:up_row.index(node)][::-1]
        edges = [(x, y - m) if x < m else (y, x - m) for x, y in zip(walk, walk[1:])]
        minus, plus = edges[0::2], edges[1::2]
        # leaving cell: the smallest-index minus cell that attains theta
        theta, leave = min((flow[c], c) for c in minus)
        for c in minus:
            flow[c] -= theta
        for c in plus:
            flow[c] += theta
        del flow[leave]
        flow[enter] = theta
    plan = np.zeros((m, n))
    for (i, j), x in flow.items():
        plan[i, j] = x
    value = math.fsum(x * cost[i][j] for (i, j), x in flow.items())
    return value, Coupling(mu.space, mu.support, nu.support, plan)


def wasserstein(mu: FiniteMeasure, nu: FiniteMeasure) -> tuple[float, Coupling]:
    """Exact 1-Wasserstein distance and one optimal coupling.

    Solves the transportation LP min sum(gamma_ij * d(x_i, y_j)) over plans
    with marginals mu, nu by the transportation simplex: a north-west-corner
    start, MODI potentials on the basis tree and cycle pivots under Bland's
    rule, which cannot cycle on degenerate inputs.  The plan is the optimum
    at a vertex of the transportation polytope, so its positive cells number
    at most m + n - 1 and contain no cycle.  More than ``MAX_PIVOTS`` pivots
    raise ``RuntimeError``.  Arguments are ordered canonically before
    solving, so the result is symmetric in (mu, nu) by construction.
    """
    if mu.space is not nu.space:
        raise ValueError("measures live on different spaces")
    if (nu.support, nu.weights) < (mu.support, mu.weights):
        value, plan = _solve_transport(nu, mu)
        return value, plan.transpose()
    return _solve_transport(mu, nu)
