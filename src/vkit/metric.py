"""Finite metric spaces and covers of them.

A :class:`FiniteMetricSpace` is a validated distance matrix over an indexed
point set, optionally carrying Euclidean coordinates.  A :class:`Cover` is
the tuple of its element sets, each element named by its position: the open
balls of a fixed radius about every point (ids are the centres), or an
explicit list of index subsets.  The cover by all sets of diameter below r
is not a :class:`Cover`: its Vietoris complex is the Vietoris-Rips complex,
built directly by ``complexes.build_vr``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Relative slack for the triangle-inequality check only.  Euclidean inputs
# legitimately round one ulp past equality (e.g. collinear grid points), so
# exact comparison would reject valid point clouds.  Strict open-convention
# comparisons elsewhere remain exact.
TRIANGLE_TOL = 1e-12


class MetricValidationError(ValueError):
    """Base class for distance-matrix axiom violations."""


class NonSquare(MetricValidationError):
    def __init__(self, rows: int, cols: int):
        super().__init__(f"distance matrix must be square, got {rows}x{cols}")


class NonSymmetric(MetricValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")


class NegativeDistance(MetricValidationError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] < 0")


class NonzeroDiagonal(MetricValidationError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"dist[{i}][{i}] != 0")


class NonFinite(MetricValidationError):
    def __init__(self, name: str, index: tuple[int, ...], value: float):
        self.index, self.value = index, value
        super().__init__(f"{name}{''.join(f'[{i}]' for i in index)} = {value!r} is not finite")


class TriangleViolation(MetricValidationError):
    """d(i, j) > d(i, k) + d(k, j): the pair (i, j) fails via waypoint k."""

    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"d({i},{j}) > d({i},{k}) + d({k},{j})")


class EmptySet(ValueError):
    """A point set that must be nonempty (a cover element, or the set whose
    complement a distance is taken to) is empty."""


class UnboundedCover(ValueError):
    """A ball cover was asked for an infinite radius."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite (pseudo)metric space given by a validated distance matrix.

    ``is_pseudometric`` flags coincident points (distance zero off the
    diagonal); they are accepted because real data sets contain duplicates
    and no downstream algorithm is affected.
    """

    dist: np.ndarray
    is_pseudometric: bool = field(default=False, compare=False)

    @property
    def n_points(self) -> int:
        return self.dist.shape[0]

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])

    def points(self) -> range:
        return range(self.n_points)

    def diam_of(self, indices: Iterable[int]) -> float:
        """Diameter of a subset: max pairwise distance, 0 for singletons."""
        idx = list(indices)
        if not idx:
            return 0.0
        sub = self.dist[np.ix_(idx, idx)]
        return float(sub.max())


def _check_finite(name: str, values: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        index = tuple(int(i) for i in bad[0])
        raise NonFinite(name, index, float(values[index]))


def validate_metric(dist: Sequence[Sequence[float]] | np.ndarray) -> FiniteMetricSpace:
    """Validate a square matrix as a (pseudo)metric and wrap it.

    Checks, in order: finiteness, squareness, zero diagonal, symmetry,
    nonnegativity, triangle inequality.  Raises the structured error for
    the first violation a row-major (i, j, k) scan finds.  Coincident
    points are accepted and flagged via ``is_pseudometric``.
    """
    m = np.asarray(dist, dtype=np.float64)
    _check_finite("dist", m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        rows = m.shape[0] if m.ndim >= 1 else 0
        cols = m.shape[1] if m.ndim >= 2 else 0
        raise NonSquare(rows, cols)
    n = m.shape[0]
    bad = np.flatnonzero(np.diag(m) != 0.0)
    if len(bad):
        raise NonzeroDiagonal(int(bad[0]))
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    asym = m != m.T
    bad = np.argwhere(upper & (asym | (m < 0.0)))
    if len(bad):
        i, j = (int(x) for x in bad[0])
        raise NonSymmetric(i, j) if asym[i, j] else NegativeDistance(i, j)
    # The waypoints k = i and k = j never fire: the diagonal is zero, so
    # the right side is m[i, j] + tol >= m[i, j].
    tol = TRIANGLE_TOL * np.maximum(1.0, m)
    bad = np.zeros((n, n), dtype=bool)
    for k in range(n):
        bad |= m > (m[:, k, None] + m[k]) + tol
    bad = np.argwhere(bad)
    if len(bad):
        i, j = (int(x) for x in bad[0])
        via = m[i, j] > (m[i] + m[:, j]) + tol[i, j]
        raise TriangleViolation(i, j, int(np.argmax(via)))
    pseudo = bool((m[upper] == 0.0).any())
    return FiniteMetricSpace(dist=m, is_pseudometric=pseudo)


def space_from_points(coords: Sequence[Sequence[float]] | np.ndarray) -> FiniteMetricSpace:
    """Euclidean metric space from an (n, d) coordinate array."""
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    _check_finite("coords", pts)
    with np.errstate(over="ignore"):    # an overflow gives inf, which validation refuses
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return validate_metric(dist)


def distance_to_complement(space: FiniteMetricSpace, U: Iterable[int], x: int) -> float:
    """min over y outside U of d(x, y); +inf when U is the whole space.

    The +inf convention matches d(., emptyset) = inf.  Returns 0 whenever
    x itself lies outside U.
    """
    inside = set(U)
    if not inside:
        raise EmptySet("U must be nonempty")
    outside = [y for y in space.points() if y not in inside]
    if not outside:
        return math.inf
    return float(min(space.d(x, y) for y in outside))


@dataclass(frozen=True)
class Cover:
    """A cover of a finite metric space by its element sets; an element's
    id is its position in ``elements``."""

    elements: tuple[frozenset[int], ...]

    @staticmethod
    def by_balls(space: FiniteMetricSpace, r: float) -> "Cover":
        """The open balls ``{x : d(z, x) < r}`` in centre order, so a ball's
        id is its centre z."""
        if not (r > 0.0):
            raise ValueError("ball cover needs r > 0 to cover every point")
        if math.isinf(r):
            raise UnboundedCover("r must be finite")
        return Cover(tuple(frozenset(np.flatnonzero(row < float(r)).tolist())
                           for row in space.dist))

    @staticmethod
    def explicit(space: FiniteMetricSpace, elements: Iterable[Iterable[int]]) -> "Cover":
        sets = tuple(frozenset(int(i) for i in e) for e in elements)
        if not sets:
            raise ValueError("explicit cover needs at least one element")
        covered: set[int] = set()
        for e in sets:
            if not e:
                raise EmptySet("cover elements must be nonempty")
            for i in e:
                if not (0 <= i < space.n_points):
                    raise IndexError(f"cover element index {i} out of range")
            covered |= e
        missing = set(space.points()) - covered
        if missing:
            raise ValueError(f"points not covered: {sorted(missing)}")
        return Cover(sets)


# -- file formats ------------------------------------------------------


def read_csv_rows(path) -> np.ndarray:
    """The rows of a numeric CSV file as one float array, blank cells and
    lines skipped."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            rec = [c for c in rec if c.strip() != ""]
            if rec:
                rows.append([float(c) for c in rec])
    if not rows:
        raise ValueError(f"no data rows in {path}")
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows have inconsistent column counts")
    return np.asarray(rows)


def space_from_rows(m: np.ndarray, kind: str = "auto") -> FiniteMetricSpace:
    """A point cloud (one point per row, Euclidean metric) or a full
    distance matrix as a validated space: ``kind='auto'`` takes a square
    symmetric matrix with zero diagonal for a distance matrix and anything
    else for points; ``'points'`` or ``'matrix'`` overrides the guess."""
    if kind == "matrix" or (kind == "auto" and m.shape[0] == m.shape[1]
                            and np.allclose(np.diag(m), 0.0)
                            and np.array_equal(m, m.T)):
        return validate_metric(m)
    return space_from_points(m)


def load_space_csv(path, kind: str = "auto") -> FiniteMetricSpace:
    """The space of the rows of a CSV file (:func:`space_from_rows`)."""
    return space_from_rows(read_csv_rows(path), kind)
