"""Per-sample reference for sampled maps and the weight arrays of the
built-in generators.

Builds the measure at every point of the sampled lattice on its own, with
``dirac`` and ``mix``, and writes its weights into a row: the arithmetic of
the measures the vectorized generators must reproduce bit for bit.
:func:`from_function` samples any measure-valued function of the cube the
same way.
"""

import numpy as np

from vkit.measures import FiniteMeasure, dirac, mix
from vkit.straightening import DENSE_DEPTH, SampledMap, sample_points

SLIDING_DIRAC_STOPS = [(0.0, 0), (0.5, 1), (1.0, 2)]
TWO_BALL_STOPS = [(0.0, 0), (0.375, 1), (0.625, 1), (1.0, 2)]


def with_leak(space, mu, leak):
    if leak == 0.0:
        return mu
    n = space.n_points
    uniform = FiniteMeasure(space, tuple(range(n)), tuple(1.0 / n for _ in range(n)))
    return mix(space, [(1.0 - leak, mu), (leak, uniform)])


def segment_path(space, u, stops):
    """Piecewise-linear Dirac interpolation through (parameter, point) stops."""
    if u <= stops[0][0]:
        return dirac(space, stops[0][1])
    for (u0, a), (u1, b) in zip(stops, stops[1:]):
        if u <= u1:
            s = (u - u0) / (u1 - u0)
            return mix(space, [(1.0 - s, dirac(space, a)), (s, dirac(space, b))])
    return dirac(space, stops[-1][1])


def sliding_dirac_measure(space, leak):
    return lambda y: with_leak(space, segment_path(space, float(y[0]), SLIDING_DIRAC_STOPS),
                               leak)


def two_ball_measure(space, leak):
    return lambda y: with_leak(space, segment_path(space, float(np.mean(y)), TWO_BALL_STOPS),
                               leak)


def _rows(measures, n_points):
    out = np.zeros((len(measures), n_points))
    for row, mu in zip(out, measures):
        row[list(mu.support)] = mu.weights
    return out


def reference_weights(smap, measure_at):
    """One row of weights per point of the sampled lattice of ``smap``, in lex
    order, from the measure ``measure_at`` builds at that point."""
    grid = smap.grid
    measures = [measure_at(np.asarray(w, dtype=np.float64) / grid.p) for w in grid.vertices()]
    return _rows(measures, smap.space.n_points)


def from_function(tri, fn, dense_depth=DENSE_DEPTH):
    """The sampled map of ``fn``, called once per point of the lattice
    ``dense_depth`` times finer than ``tri`` (None: its vertices), once the
    guard has passed."""
    depth, points = sample_points(tri, dense_depth)
    measures = [fn(y) for y in points]
    space = measures[0].space
    if any(mu.space is not space for mu in measures):
        raise ValueError("all measures must live on the same space")
    return SampledMap(tri, space, _rows(measures, space.n_points), depth)
