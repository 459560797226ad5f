"""Dense reference for the complex oracles.

:func:`betti_at` builds each boundary matrix of a strict sublevel complex
as a dense 0/1 array and ranks it over Z/2 by row-by-row elimination
(:func:`_gf2_rank`).  The subset scans read one distance matrix entry per
call: :func:`vr_subset_scan` takes a subset's diameter from a numpy
gather, :func:`cech_subset_scan` each witness distance from ``space.d``.
The oracles in ``vkit.persistence`` and ``vkit.oracles`` compute the same
values on Python ints and floats and must agree with these bit for bit.
"""

from itertools import combinations

import numpy as np

from vkit.complexes import FilteredComplex, Simplex
from vkit.metric import FiniteMetricSpace
from vkit.persistence import SkeletonTooShallow


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


def vr_subset_scan(space: FiniteMetricSpace, r: float, k_max: int) -> dict[tuple[int, ...], float]:
    """All subsets of diameter strictly below r, with their diameters."""
    out: dict[tuple[int, ...], float] = {}
    if r <= 0.0:
        return out
    pts = list(space.points())
    for size in range(1, k_max + 2):
        for sub in combinations(pts, size):
            diam = space.diam_of(sub)
            if diam < r:
                out[sub] = diam
    return out


def cech_subset_scan(space: FiniteMetricSpace, r: float, k_max: int) -> dict[tuple[int, ...], float]:
    """All subsets admitting a witness z in X with max d(z, x) strictly below r."""
    out: dict[tuple[int, ...], float] = {}
    if r <= 0.0:
        return out
    pts = list(space.points())
    for size in range(1, k_max + 2):
        for sub in combinations(pts, size):
            value = min(max(space.d(z, x) for x in sub) for z in pts)
            if value < r:
                out[sub] = value
    return out
