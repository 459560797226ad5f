"""Freudenthal-Kuhn triangulation of the unit cube, with point location.

The cube [0,1]^n is split into p^n lattice cells and each cell into n!
simplices: a simplex is determined by a base lattice point x and an axis
order pi, its vertices being the chain v_0 = x, v_i = v_{i-1} + e_pi(i).
The triangulation is kept implicit (n! p^n explodes); enumeration, point
location, and star counts only ever touch local combinatorics.

Scale convention: lattice coordinates live in {0, ..., p}^n and map to the
cube by division by p.  Every simplex has diameter sqrt(n)/p (the long
diagonal edge) and volume 1/(n! p^n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable, Iterator, Sequence

import numpy as np

Lattice = tuple[int, ...]
SimplexKey = tuple[Lattice, tuple[int, ...]]

FK_CELL_GUARD = 10 ** 6


class OutOfDomain(ValueError):
    """Query point lies outside the unit cube."""


class NoLabel(ValueError):
    """No cover element concentrates every sample of a simplex; refine."""

    def __init__(self, simplex: SimplexKey):
        self.simplex = simplex
        super().__init__(f"no admissible cover element for simplex {simplex}")


@dataclass(frozen=True)
class FKSimplex:
    """One simplex of the triangulation: base lattice point plus axis order."""

    base: Lattice
    perm: tuple[int, ...]           # axis visit order, 0-indexed

    def vertices(self) -> tuple[Lattice, ...]:
        out = [self.base]
        cur = list(self.base)
        for axis in self.perm:
            cur[axis] += 1
            out.append(tuple(cur))
        return tuple(out)


@dataclass(frozen=True)
class FKTriangulation:
    """Implicit triangulation of [0,1]^n with p cells per axis."""

    n: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("need n >= 1 and p >= 1")

    @property
    def simplex_count(self) -> int:
        return math.factorial(self.n) * self.p ** self.n

    @property
    def vertex_count(self) -> int:
        return (self.p + 1) ** self.n

    @property
    def simplex_diameter(self) -> float:
        return math.sqrt(self.n) / self.p

    def simplices(self) -> Iterator[FKSimplex]:
        """All n-simplices, bases in lexicographic order, axis orders likewise."""
        for base in product(range(self.p), repeat=self.n):
            for perm in permutations(range(self.n)):
                yield FKSimplex(base, perm)

    def simplex_vertex_indices(self) -> np.ndarray:
        """The ``vertex_index`` of every vertex of every n-simplex, one row
        per simplex in ``simplices`` order, along its chain v_0, ..., v_n."""
        strides = (self.p + 1) ** np.arange(self.n - 1, -1, -1)
        chains = np.array([np.concatenate([[0], np.cumsum(strides[list(pi)])])
                           for pi in permutations(range(self.n))])
        bases = lattice_points(self.n, self.p) @ strides
        return (bases[:, None, None] + chains[None]).reshape(-1, self.n + 1)

    def simplex_key(self, k: int) -> SimplexKey:
        """The key of the k-th n-simplex in ``simplices`` order, of Python ints."""
        perms = list(permutations(range(self.n)))
        base = np.unravel_index(k // len(perms), (self.p,) * self.n)
        return tuple(int(c) for c in base), perms[k % len(perms)]

    def vertices(self) -> Iterator[Lattice]:
        yield from product(range(self.p + 1), repeat=self.n)

    def vertex_index(self, v: Lattice) -> int:
        idx = 0
        for c in v:
            idx = idx * (self.p + 1) + c
        return idx

    def scaled_vertices(self, simplex: FKSimplex) -> np.ndarray:
        return np.asarray(simplex.vertices(), dtype=np.float64) / self.p

    # -- point location -------------------------------------------------

    def locate(self, y: Sequence[float]) -> tuple[FKSimplex, np.ndarray]:
        """Containing simplex and barycentric coordinates of a cube point.

        The base is the floored lattice cell (clamped on the far faces) and
        the axis order sorts fractional parts descending, stably, with the
        axis index as tie-breaker, so boundary points resolve
        deterministically.  With fractions sorted f_1 >= ... >= f_n the
        barycentric weights are the gaps (1 - f_1, f_1 - f_2, ..., f_n),
        all nonnegative by construction.
        """
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.n,):
            raise OutOfDomain(f"expected a point of dimension {self.n}")
        if (y < 0.0).any() or (y > 1.0).any():
            raise OutOfDomain("point must lie in the unit cube")
        z = y * self.p
        base = np.minimum(np.floor(z), self.p - 1).astype(int)
        frac = z - base
        order = sorted(range(self.n), key=lambda i: (-frac[i], i))
        coords = np.empty(self.n + 1)
        fs = frac[order]
        coords[0] = 1.0 - fs[0]
        for k in range(1, self.n):
            coords[k] = fs[k - 1] - fs[k]
        coords[self.n] = fs[self.n - 1]
        return FKSimplex(tuple(int(b) for b in base), tuple(order)), coords

    def point_of(self, simplex: FKSimplex, coords: Sequence[float]) -> np.ndarray:
        verts = self.scaled_vertices(simplex)
        return np.asarray(coords, dtype=np.float64) @ verts

    # -- incidence -------------------------------------------------------

    def vertex_star_size(self, v: Lattice) -> int:
        """Number of n-simplices incident to a vertex; at most 2^n n!."""
        if len(v) != self.n or any(c < 0 or c > self.p for c in v):
            raise ValueError("not a triangulation vertex")
        return len(self.simplices_containing_fraction(v, self.p))

    def simplices_containing_fraction(self, nums: Sequence[int], den: int) -> list[FKSimplex]:
        """All n-simplices whose closed realization contains the rational
        point (nums[i]/den)_i, computed exactly in integers.

        Used to assign grid samples to simplices without floating-point tie
        ambiguity: a closed simplex (x, pi) contains the point iff its
        fractional parts in the cell, read in pi order, are descending; they
        are kept as integer numerators over ``den``.  With ``den`` = p and a
        lattice vertex for ``nums`` it lists the star of that vertex.
        """
        axis_bases: list[list[tuple[int, int]]] = []      # (base, fraction numerator)
        for num in nums:
            cell, rem = divmod(int(num) * self.p, den)
            if cell < 0 or cell > self.p or (cell == self.p and rem):
                raise OutOfDomain("point must lie in the unit cube")
            cands = [(cell, rem)] if cell <= self.p - 1 else []
            if rem == 0 and cell >= 1:
                cands.insert(0, (cell - 1, den))
            axis_bases.append(cands)
        out = []
        for choice in product(*axis_bases):
            groups: dict[int, list[int]] = {}
            for i, (_, frac) in enumerate(choice):
                groups.setdefault(frac, []).append(i)
            ordered = sorted(groups.items(), reverse=True)
            base = tuple(b for b, _ in choice)
            for combo in product(*(permutations(axes) for _, axes in ordered)):
                out.append(FKSimplex(base, tuple(i for block in combo for i in block)))
        return out

    # -- export -----------------------------------------------------------

    def to_off(self) -> str:
        """OFF mesh: all lattice vertices (lexicographic) then all simplices."""
        lines = ["OFF", f"{self.vertex_count} {self.simplex_count} 0"]
        lines += [" ".join(repr(c / self.p) for c in v)
                  for v in lattice_points(self.n, self.p + 1).tolist()]
        lines += [f"{self.n + 1} " + " ".join(map(str, idx))
                  for idx in self.simplex_vertex_indices().tolist()]
        return "\n".join(lines) + "\n"


def check_grid(n, res, dense_depth=None) -> int:
    """Refuse a grid of more than ``FK_CELL_GUARD`` simplices, n! * (depth * res)^n,
    before anything is built or sampled on it, and return the depth: a map
    is sampled on the lattice ``dense_depth`` times finer than the grid
    (None: on its vertices, depth 1)."""
    depth = 1 if dense_depth is None else dense_depth
    for name, value in (("n", n), ("res", res), ("dense_depth", depth)):
        if type(value) is not int or value < 1:
            raise ValueError(f"{name!r} must be an integer >= 1, got {value!r}")
    cells = 1
    for k in range(1, n + 1):       # stops within a few factors, however large n is
        cells *= k * depth * res
        if cells > FK_CELL_GUARD:
            raise ValueError(f"{n}! * {depth * res}^{n} simplices exceed the resource guard "
                             f"{FK_CELL_GUARD}")
    return depth


def star_bound(n: int) -> int:
    """Resolution-independent cap on vertex stars: 2^n n!."""
    return (2 ** n) * math.factorial(n)


def facet_counts(tri: FKTriangulation) -> dict[tuple[Lattice, ...], int]:
    """How many n-simplices share each (n-1)-face (enumerates everything)."""
    counts: dict[tuple[Lattice, ...], int] = {}
    for s in tri.simplices():
        verts = s.vertices()
        for drop in range(len(verts)):
            face = tuple(sorted(verts[:drop] + verts[drop + 1:]))
            counts[face] = counts.get(face, 0) + 1
    return counts


def is_boundary_face(tri: FKTriangulation, face: Iterable[Lattice]) -> bool:
    """A face lies on the cube boundary iff some coordinate is constant 0 or p."""
    pts = list(face)
    for axis in range(tri.n):
        col = [v[axis] for v in pts]
        if all(c == 0 for c in col) or all(c == tri.p for c in col):
            return True
    return False


def lattice_points(n: int, size: int) -> np.ndarray:
    """The points of {0, ..., size - 1}^n, one per row, in lexicographic order."""
    return np.indices((size,) * n).reshape(n, -1).T


def subordinate_resolution(masks: np.ndarray, depth: int, resolutions: Sequence[int],
                           ) -> tuple[int, np.ndarray]:
    """First resolution at which every simplex shares an element, with the
    shared mask of each simplex, one row per simplex in ``simplices`` order.

    ``masks`` has shape ``(den + 1,) * n + (elements,)``: ``masks[w]`` marks
    the cover elements admissible at the point w/den.  The samples of a
    simplex are the lattice points of its closed realization.  Each
    resolution must divide ``den / depth``, so a simplex translated by whole
    cells translates its samples: per axis order they are one fixed pattern
    of offsets from the base, and a shared mask is one and-reduction over
    the gathered pattern.

    Raises :class:`NoLabel` when no resolution works, naming the simplex
    that empties first at the last one when the samples are visited one by
    one: the points with every coordinate a multiple of ``depth`` first,
    then the others, each in lex order; of the simplices one sample
    empties, the first in ``simplices`` order, which is the order
    ``simplices_containing_fraction`` lists them in.
    """
    n = masks.ndim - 1
    den = masks.shape[0] - 1
    flat = masks.reshape(-1, masks.shape[-1])
    strides = (den + 1) ** np.arange(n - 1, -1, -1)
    dense = (lattice_points(n, den + 1) % depth).any(axis=1)
    if den % depth or any((den // depth) % q for q in resolutions):
        raise ValueError(f"resolutions {list(resolutions)} must divide the sampled grid "
                         f"{den // depth}")
    perms = list(permutations(range(n)))
    idx = None
    for q in resolutions:
        d = den // q
        offsets = lattice_points(n, d + 1)
        # the pattern of axis order pi: the offsets descending when read in pi
        # order, in visit order, which translation by d * base keeps
        patterns = [offsets[(offsets[:, list(pi[:-1])] >= offsets[:, list(pi[1:])]).all(axis=1)]
                    @ strides for pi in perms]
        pattern = np.stack([np.concatenate([pat[~dense[pat]], pat[dense[pat]]])
                            for pat in patterns])
        bases = (lattice_points(n, q) * d) @ strides
        idx = bases[:, None, None] + pattern[None]          # (bases, axis orders, samples)
        shared = np.bitwise_and.reduce(flat[idx], axis=2)
        if shared.any(axis=-1).all():
            return q, shared.reshape(-1, flat.shape[1])
    if idx is None:
        raise NoLabel(None)
    # the visit rank of the sample at which each simplex's running mask
    # empties, past every rank for a simplex it never empties
    visit = dense * len(flat) + np.arange(len(flat))
    nonempty = np.bitwise_and.accumulate(flat[idx], axis=2).any(axis=-1)
    rank = np.pad(visit[idx], ((0, 0), (0, 0), (0, 1)), constant_values=2 * len(flat))
    k = int(np.argmin(np.take_along_axis(rank, nonempty.sum(axis=2, keepdims=True), axis=2)))
    raise NoLabel(FKTriangulation(n, q).simplex_key(k))
