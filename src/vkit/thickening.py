"""Bump functions, the pumping map, and inner sets that keep a measure's mass.

The pumping map reweights a measure by a Lipschitz bump that vanishes
exactly off a target set and renormalizes, concentrating mass inside the
target; the associated linear homotopy interpolates between a measure and
its pumped image.  Strict inequalities (mu(U) > p) are evaluated with exact
floating comparison; callers needing robustness pass p reduced by an
explicit margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .measures import (FiniteMeasure, ZeroMass, barycentric_distance,
                       convex_combine, wasserstein)
from .metric import FiniteMetricSpace, distance_to_complement


class DegenerateGap(ValueError):
    """Plateau and zero set touch (distance zero), so no bump gap exists."""


class NoMCP(ValueError):
    """The measure does not concentrate mass above the threshold."""


INNER_MASS_LOST = "mass concentrates only on points touching the complement"


@dataclass(frozen=True)
class BumpFunction:
    """Clamped-distance bump: 1 on the plateau, 0 exactly off the target.

    ``values[x] = min(1, d(x, target^C) / gap)`` with ``gap`` the distance
    from the plateau to the complement of the target, which makes the bump
    exactly ``1/gap``-Lipschitz.
    """

    space: FiniteMetricSpace
    target: frozenset[int]          # support: the zero set is its complement
    plateau: frozenset[int]
    lipschitz: float
    values: tuple[float, ...]

    def __call__(self, x: int) -> float:
        return self.values[x]

    def check(self) -> None:
        """Exhaustively verify the zero-set, plateau, and Lipschitz invariants."""
        for x in self.space.points():
            if (self.values[x] == 0.0) != (x not in self.target):
                raise ValueError(f"zero set mismatch at {x}")
            if x in self.plateau and self.values[x] != 1.0:
                raise ValueError(f"plateau value below 1 at {x}")
        n = self.space.n_points
        for i in range(n):
            for j in range(i + 1, n):
                gap = abs(self.values[i] - self.values[j])
                if gap > self.lipschitz * self.space.d(i, j) + 1e-12:
                    raise ValueError(f"Lipschitz bound violated on ({i},{j})")


def build_bump(space: FiniteMetricSpace, plateau: Iterable[int],
               target: Iterable[int]) -> BumpFunction:
    """Bump with value 1 on ``plateau`` and zero set exactly off ``target``.

    With an empty plateau the gap is taken as the smallest distance from
    the target to its complement, which puts the whole target on the
    plateau; either way the result is (1/gap)-Lipschitz.
    """
    V = frozenset(int(x) for x in plateau)
    Vp = frozenset(int(x) for x in target)
    if not V <= Vp:
        raise ValueError("plateau must be contained in the target set")
    if not Vp:
        raise ValueError("target set must be nonempty")
    comp = [x for x in space.points() if x not in Vp]
    if not comp:
        values = tuple(1.0 for _ in space.points())
        return BumpFunction(space, Vp, V, 0.0, values)
    if V:
        gap = min(space.d(v, y) for v in V for y in comp)
    else:
        gap = min(space.d(x, y) for x in Vp for y in comp)
    if gap == 0.0:
        raise DegenerateGap("plateau touches the complement of the target")
    values = []
    for x in space.points():
        if x in Vp:
            values.append(min(1.0, min(space.d(x, y) for y in comp) / gap))
        else:
            values.append(0.0)
    bump = BumpFunction(space, Vp, V, 1.0 / gap, tuple(values))
    bump.check()
    return bump


def _weighted_mass(mu: FiniteMeasure, phi: BumpFunction) -> float:
    # plain left-to-right sum in support order; pump, pump_coordinate and
    # pump_rows (the path straighten runs and verify checks) must share it
    # bit-for-bit
    total = 0.0
    for x, w in zip(mu.support, mu.weights):
        total += w * phi(x)
    return total


def pump(mu: FiniteMeasure, phi: BumpFunction) -> FiniteMeasure:
    """Reweight mu by the bump and renormalize.

    Fixed point when the bump is 1 on all of supp(mu) (returned unchanged,
    exactly); otherwise the result is supported on supp(mu) intersected
    with the positivity set of the bump.
    """
    if all(phi(x) == 1.0 for x in mu.support):
        return mu
    total = _weighted_mass(mu, phi)
    if total <= 0.0:
        raise ZeroMass("bump vanishes on the whole support")
    sup, wts = [], []
    for x, w in zip(mu.support, mu.weights):
        f = phi(x)
        if f > 0.0:
            sup.append(x)
            wts.append(w * f / total)
    return FiniteMeasure(mu.space, tuple(sup), tuple(wts))


def pump_rows(weights: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``pump`` on rows of point weights with one bump's values: each row
    that the bump fixes stays, the others are reweighted by phi and divided
    by their plain left-to-right weighted mass, as ``pump`` sums it.

    Every row must keep positive mass where phi is positive; the caller
    checks that, so no row raises ``ZeroMass``.
    """
    terms = weights * phi
    total = np.zeros(len(weights))
    for column in terms.T:
        total += column
    fixed = ((phi == 1.0) | (weights == 0.0)).all(axis=1)
    return np.where(fixed[:, None], weights, terms / np.where(fixed, 1.0, total)[:, None])


def pump_coordinate(mu: FiniteMeasure, phi: BumpFunction, v: int) -> float:
    """Weight of v after pumping, computed without building the measure.

    Matches ``pump(mu, phi).weight_of(v)`` exactly: both sides evaluate the
    same expression a_v phi(v) / sum_j a_j phi(x_j) with an identical
    summation order.
    """
    if all(phi(x) == 1.0 for x in mu.support):
        return mu.weight_of(v)
    total = _weighted_mass(mu, phi)
    if total <= 0.0:
        raise ZeroMass("bump vanishes on the whole support")
    w = mu.weight_of(v)
    if w == 0.0:
        return 0.0
    return w * phi(v) / total


def pump_homotopy(mu: FiniteMeasure, phi: BumpFunction,
                  times: Iterable[float]) -> tuple[tuple[float, FiniteMeasure], ...]:
    """The linear homotopy (1 - t) mu + t pump(mu, phi) sampled at ``times``,
    one ``(t, measure)`` pair per time, pumping once."""
    pumped = pump(mu, phi)
    return tuple((t, convex_combine(mu, pumped, t)) for t in times)


def inner_sets(space: FiniteMetricSpace, U: Iterable[int]) -> list[tuple[int, frozenset[int]]]:
    """The distinct nonempty inner sets V_i = {x in U : d(x, U^C) > 1/i}
    for i = 1, ..., ceil(1 / least positive gap) + 1, each with the first i
    that gives it; ``[(1, U)]`` when U is the whole space.

    The sets grow with i.  They depend on U alone, so one table serves
    every measure shrunk into U; raises NoMCP when no point of U is
    separated from its complement.
    """
    pts = frozenset(int(x) for x in U)
    gaps = {x: distance_to_complement(space, pts, x) for x in sorted(pts)}
    if all(math.isinf(g) for g in gaps.values()):
        return [(1, pts)]
    positive = [g for g in gaps.values() if g > 0.0]
    if not positive:
        raise NoMCP("no point of U is separated from its complement")
    out: list[tuple[int, frozenset[int]]] = []
    for i in range(1, int(math.ceil(1.0 / min(positive))) + 2):
        inner = frozenset(x for x, g in gaps.items() if g > 1.0 / i)
        if inner and (not out or inner != out[-1][1]):
            out.append((i, inner))
    return out


def shrink_to_inner(mu: FiniteMeasure, p: float, U: Iterable[int]) -> tuple[int, frozenset[int]]:
    """Smallest i >= 1 whose inner set V_i = {x in U : d(x, U^C) > 1/i}
    still carries mass above p.

    V_i pulls U away from its complement by 1/i, so the returned set
    satisfies d(V_i, U^C) >= 1/i > 0.  Exists for finite measures over U
    (compactness is replaced by finiteness here); raises NoMCP when mu
    does not put mass strictly above p on U in the first place.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("threshold p must lie in (0, 1)")
    pts = frozenset(int(x) for x in U)
    if not mu.mass_of(pts) > p:
        raise NoMCP(f"the measure has mass <= {p} on U")
    for i, inner in inner_sets(mu.space, pts):
        if mu.mass_of(inner) > p:
            return i, inner
    raise NoMCP(INNER_MASS_LOST)


@dataclass(frozen=True)
class MetricComparison:
    d_m: float
    d_w: float
    bound: float
    holds: bool


def compare_metrics(mu: FiniteMeasure, nu: FiniteMeasure) -> MetricComparison:
    """Wasserstein vs barycentric distance with the coupling-cost bound.

    bound = diam(supp(mu) union supp(nu)) * d_m / 2, the cost ceiling of
    the common-mass coupling; the comparison always holds when the supports
    intersect.
    """
    d_m = barycentric_distance(mu, nu)
    d_w, _ = wasserstein(mu, nu)
    union = sorted(mu.support_set() | nu.support_set())
    bound = 0.5 * mu.space.diam_of(union) * d_m
    return MetricComparison(d_m, d_w, bound, d_w <= bound + 1e-9)
