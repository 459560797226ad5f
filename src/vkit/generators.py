"""Built-in benchmark inputs for the straightening pipeline.

Each generator returns (space, cover, sampled map).  The measure paths are
piecewise-linear in the weights, so cell-by-cell mass thresholds can be
checked by hand; the optional leak parameter spreads a small uniform mass
over the whole space, which keeps labels valid but forces genuine
(non-identity) pumps at the vertices.  Every generator fills the weight
array of its sampled map directly: the constant maps repeat one measure's
row, and the moving paths are evaluated on the whole sampled lattice at
once with the arithmetic ``mix`` does point by point.  Their rows sum to 1
within a few ulps, which ``FiniteMeasure`` keeps as it is, so the weights
are the same floats as the per-point measures'.
"""

from __future__ import annotations

import numpy as np

from .fk import FKTriangulation
from .measures import FiniteMeasure, dirac
from .metric import Cover, FiniteMetricSpace, space_from_points
from .straightening import DENSE_DEPTH, SampledMap, sample_points


def line3_space() -> FiniteMetricSpace:
    """Three collinear points at 0, 1, 2."""
    return space_from_points([[0.0], [1.0], [2.0]])


def far_clusters_space() -> FiniteMetricSpace:
    """Two well-separated pairs; no small ball sees both."""
    return space_from_points([[0.0], [1.0], [10.0], [11.0]])


def _check_leak(leak: float) -> None:
    if not 0.0 <= leak <= 1.0:
        raise ValueError(f"'leak' must be a number in [0, 1], got {leak!r}")


def _with_leak(weights: np.ndarray, leak: float) -> np.ndarray:
    """Each row mixed with the uniform measure, (1 - leak) mu + leak / n."""
    if leak == 0.0:
        return weights
    n = weights.shape[1]
    return (1.0 - leak) * weights + leak * (1.0 / n)


def _segment_path(u: np.ndarray, stops: list[tuple[float, int]], n_points: int) -> np.ndarray:
    """Piecewise-linear Dirac interpolation through (parameter, point) stops,
    one weight row per parameter in ``u``: weight 1 - s on a segment's first
    point, then s added on its second."""
    weights = np.zeros((u.size, n_points))
    todo = u > stops[0][0]
    weights[~todo, stops[0][1]] = 1.0
    for (u0, a), (u1, b) in zip(stops, stops[1:]):
        rows = todo & (u <= u1)
        s = (u[rows] - u0) / (u1 - u0)
        weights[rows, a] = 1.0 - s
        weights[rows, b] += s
        todo &= ~rows
    weights[todo, stops[-1][1]] = 1.0
    return weights


def _constant(tri: FKTriangulation, mu: FiniteMeasure, dense_depth: int | None) -> SampledMap:
    """The map taking the value mu at every point of the sampled lattice."""
    depth, points = sample_points(tri, dense_depth)
    weights = np.zeros((len(points), mu.space.n_points))
    weights[:, list(mu.support)] = mu.weights
    return SampledMap(tri, mu.space, weights, depth)


def constant_map(n: int = 1, res: int = 4, point: int = 0,
                 dense_depth: int | None = DENSE_DEPTH):
    """Constant Dirac map; every stage of the pipeline is trivial."""
    space = line3_space()
    cover = Cover.by_balls(space, 1.5)
    return space, cover, _constant(FKTriangulation(n, res), dirac(space, point), dense_depth)


def sliding_dirac_map(n: int = 1, res: int = 8, leak: float = 0.0,
                      dense_depth: int | None = DENSE_DEPTH):
    """Dirac mass sliding along the 3-point line under its ball cover.

    The measure path moves 0 -> 1 -> 2 linearly in the weights; with
    res = 8 the map is sampled at 9 grid vertices and every edge of the
    grid stays inside one ball of radius 1.5.  ``leak`` lies in [0, 1].
    """
    if n != 1:
        raise ValueError("sliding Dirac benchmark is one-dimensional")
    _check_leak(leak)
    space = line3_space()
    cover = Cover.by_balls(space, 1.5)
    tri = FKTriangulation(1, res)
    depth, points = sample_points(tri, dense_depth)
    path = _segment_path(points[:, 0], [(0.0, 0), (0.5, 1), (1.0, 2)], space.n_points)
    return space, cover, SampledMap(tri, space, _with_leak(path, leak), depth)


def two_ball_map(n: int = 1, res: int | None = None, leak: float = 0.0,
                 dense_depth: int | None = DENSE_DEPTH):
    """Transit between two overlapping explicit cover elements (n = 1, 2 or 3).

    The path rests on the shared point for parameters in [3/8, 5/8].  A grid
    cell may straddle that interval (at resolution 3 the middle one does),
    but the sweep accepts only a grid whose every simplex shares a cover
    element at all its samples; the n-dimensional version drives the same
    path by the coordinate mean.
    ``leak`` lies in [0, 1]; above 3(1 - p), with p the dimension's mass
    threshold, no sample clears it and labeling fails.
    """
    if n not in (1, 2, 3):
        raise ValueError("two-ball benchmark supports n in {1, 2, 3}")
    _check_leak(leak)
    if res is None:
        res = 8 if n == 1 else 4
    space = line3_space()
    cover = Cover.explicit(space, [[0, 1], [1, 2]])
    tri = FKTriangulation(n, res)
    depth, points = sample_points(tri, dense_depth)
    stops = [(0.0, 0), (0.375, 1), (0.625, 1), (1.0, 2)]
    path = _segment_path(points.mean(axis=1), stops, space.n_points)
    return space, cover, SampledMap(tri, space, _with_leak(path, leak), depth)


def spread_map(n: int = 1, res: int = 4, dense_depth: int | None = DENSE_DEPTH):
    """Failure benchmark: mass split across far-apart clusters.

    Every measure gives each small ball only half its mass, so no cover
    element ever clears a threshold above 1/2 and labeling must fail at
    every resolution.
    """
    space = far_clusters_space()
    cover = Cover.by_balls(space, 1.5)
    half = FiniteMeasure(space, (0, 2), (0.5, 0.5))
    return space, cover, _constant(FKTriangulation(n, res), half, dense_depth)


GENERATORS = {
    "constant": constant_map,
    "sliding_dirac": sliding_dirac_map,
    "two_ball": two_ball_map,
    "spread": spread_map,
}
