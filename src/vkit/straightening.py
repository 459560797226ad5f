"""Simplexwise straightening of sampled maps into a Vietoris complex.

Pipeline: pick a mass threshold from the dimension, find a grid resolution
whose simplices are subordinate to the cover (at samples) and label every
top simplex with the id of a cover element it concentrates on, both in the
one sweep of :func:`label_simplices`, pump each vertex measure into the
intersection of the labels around it, and linearize simplexwise.  Every
stage emits pass/fail records into a certification log; the end
certificate is that each top simplex carries its vertex supports inside a
single cover element, i.e. the linearized map lands in the Vietoris
complex of the cover.

Only vertex (0-skeleton) measures are pumped; higher-skeleton deformation
is witnessed by sampled homotopy tracks whose membership thresholds are
checked pointwise.  Continuity itself is not machine-checkable and is out
of scope.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .fk import (FKTriangulation, Lattice, NoLabel, SimplexKey, check_grid,
                 default_resolutions, lattice_points, star_bound, subordinate_resolution)
from .measures import FiniteMeasure, barycentric_distance
from .metric import Cover, FiniteMetricSpace
from .thickening import build_bump, pump_homotopy, shrink_to_inner

TRACK_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)
DENSE_DEPTH = 3


class BoundViolated(ValueError):
    """Intersection mass fell below 1 - N(1-p): a precondition was broken."""

    def __init__(self, mass: float, bound: float):
        self.mass, self.bound = mass, bound
        super().__init__(f"intersection mass {mass} <= bound {bound}")


class NotSubordinate(ValueError):
    """Vertex supports of a simplex escape its assigned cover element."""

    def __init__(self, simplex: SimplexKey, offending: frozenset[int]):
        self.simplex, self.offending = simplex, offending
        super().__init__(f"simplex {simplex} carries support points {sorted(offending)} "
                         "outside its label")


class PipelineError(RuntimeError):
    """A straightening stage failed; ``stage`` names it."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def choose_p(n: int) -> float:
    """Mass threshold strictly inside (1 - 1/(2^n n!), 1).

    The midpoint-like choice 1 - 1/(2 * 2^n n!) keeps labeling as feasible
    as possible while the vertex-region mass bound stays strictly positive.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 - 1.0 / (2.0 * star_bound(n))


def sample_points(tri: FKTriangulation, dense_depth: int | None) -> tuple[int, np.ndarray]:
    """The depth, and the cube points of the lattice ``dense_depth`` times
    finer than ``tri`` (None: its vertices) one per row in lex order, once
    the guard has passed."""
    depth = check_grid(tri.n, tri.p, dense_depth)
    fine = depth * tri.p
    return depth, lattice_points(tri.n, fine + 1) / fine


@dataclass(frozen=True, eq=False)
class SampledMap:
    """A map from the unit cube into measures on ``space``, sampled on one
    lattice.

    ``weights`` holds one row of point weights per point of the grid of
    resolution ``depth * tri.p``, in lex order.  The points with all
    coordinates multiples of ``depth`` are the vertices of ``tri``; the
    others, dense samples, are exactly the depth-``depth`` barycentric
    points of its top simplices.  Integer coordinates assign samples to
    coarser simplices without ties.  A row becomes a
    :class:`FiniteMeasure` only where it is read."""

    tri: FKTriangulation
    space: FiniteMetricSpace
    weights: np.ndarray
    depth: int = 1

    def __post_init__(self):
        shape = (self.grid.vertex_count, self.space.n_points)
        if self.weights.shape != shape:
            raise ValueError(f"weights of shape {self.weights.shape}, expected {shape}")

    @property
    def grid(self) -> FKTriangulation:
        """The sampled lattice, as the grid of resolution depth * tri.p."""
        return FKTriangulation(self.tri.n, self.depth * self.tri.p)

    def value_at(self, w: Lattice) -> FiniteMeasure:
        """The measure at a point of the sampled lattice."""
        grid = self.grid
        if len(w) != grid.n or not all(0 <= c <= grid.p for c in w):
            raise ValueError(f"{w} is no point of the sampled lattice")
        row = self.weights[grid.vertex_index(w)]
        support = np.flatnonzero(row)
        return FiniteMeasure(self.space, tuple(support.tolist()), tuple(row[support].tolist()))

    def value_on_subgrid(self, coarse: FKTriangulation, v: Lattice) -> FiniteMeasure:
        """Value at a vertex of a coarser grid whose resolution divides ours."""
        step = self.tri.p // coarse.p
        if coarse.p * step != self.tri.p:
            raise ValueError("coarse resolution must divide the sampled one")
        return self.value_at(tuple(c * step * self.depth for c in v))


@dataclass(frozen=True)
class Labeling:
    """Assignment of a cover element to every top simplex, and to every
    vertex the sorted labels of the simplices around it."""

    tri: FKTriangulation
    cover: Cover
    ell: dict[SimplexKey, int]
    vertex_labels: dict[Lattice, tuple[int, ...]]

    def element_set(self, element_id: int) -> frozenset[int]:
        return self.cover.elements[element_id]


def sample_masks(smap: SampledMap, cov: Cover, p: float) -> np.ndarray:
    """Per sample and cover element, whether the sample's mass on the
    element is strictly above p, exactly as ``mass_of`` decides it.

    The masses of each element are one sum over its columns of the weights
    for all samples at once.  numpy sums in its own order, within a few
    ulps of the exact sum, so the entries that close to p are summed again
    with ``math.fsum``, as ``mass_of`` sums them.
    """
    columns = [sorted(elem) for elem in cov.elements]
    mass = np.stack([smap.weights[:, cols].sum(axis=1) for cols in columns], axis=1)
    masks = mass > p
    near = np.abs(mass - p) <= 4 * smap.space.n_points * np.finfo(float).eps
    for w, i in zip(*np.nonzero(near)):
        masks[w, i] = math.fsum(smap.weights[w, columns[i]]) > p
    return masks


def label_simplices(smap: SampledMap, cov: Cover, p: float,
                    resolutions: Sequence[int] | None = None) -> Labeling:
    """Labeling at the first resolution whose simplices are subordinate.

    ``resolutions`` must divide the sampled one; by default they are the
    doubling resolutions dividing it, then the sampled resolution itself.
    The samples of a simplex are all points of the sampled lattice inside
    it (a sample on a shared face counts for every incident simplex).
    :func:`~vkit.fk.subordinate_resolution` sweeps the resolutions over the
    masks of :func:`sample_masks`.  A simplex is labelled with the
    smallest-id element all its samples concentrate on.  Raises
    :class:`NoLabel` when no resolution works, naming the simplex that
    empties first at the last one when vertex samples are visited first,
    then the dense ones, each in lex order.
    """
    if resolutions is None:
        resolutions = sorted({q for q in default_resolutions(smap.tri.p)
                              if smap.tri.p % q == 0} | {smap.tri.p})
    n = smap.tri.n
    masks = sample_masks(smap, cov, p)
    res, shared = subordinate_resolution(masks.reshape((smap.grid.p + 1,) * n + (-1,)),
                                         smap.depth, resolutions)
    tri = FKTriangulation(n, res)
    ell: dict[SimplexKey, int] = {}
    around: dict[Lattice, set[int]] = {v: set() for v in tri.vertices()}
    for s, label in zip(tri.simplices(), shared.argmax(axis=1).tolist()):
        ell[s.key] = label
        for v in s.vertices():
            around[v].add(label)
    return Labeling(tri, cov, ell, {v: tuple(sorted(ls)) for v, ls in around.items()})


def intersection_mass_bound(mu: FiniteMeasure,
                            labels: Iterable[frozenset[int]],
                            p: float) -> float:
    """Mass of mu on the intersection of the label sets.

    When mu puts mass above p on each of the N sets, the intersection mass
    exceeds 1 - N(1-p); a value at or below that bound means a precondition
    was not actually satisfied, reported as :class:`BoundViolated`.
    """
    sets = [frozenset(s) for s in labels]
    if not sets:
        raise ValueError("need at least one label")
    inter = sets[0]
    for s in sets[1:]:
        inter &= s
    mass = mu.mass_of(inter)
    bound = 1.0 - len(sets) * (1.0 - p)
    if not mass > bound:
        raise BoundViolated(mass, bound)
    return mass


@dataclass(frozen=True)
class VertexPump:
    """Outcome of pumping one vertex measure into its label region."""

    vertex: Lattice
    source: FiniteMeasure       # the sampled measure at the vertex
    result: FiniteMeasure
    track: tuple[tuple[float, FiniteMeasure], ...]
    labels: tuple[int, ...]
    region: frozenset[int]
    region_mass: float          # mass of source on region
    bound: float                # 1 - N(1 - p), N the number of labels
    floors: tuple[float, ...]   # per track sample: min over labels of the element mass
    identity: bool


def pump_vertex(smap: SampledMap, lab: Labeling, v: Lattice, p: float) -> VertexPump:
    """Deform the measure at v so its support enters the label region.

    The region is the intersection of the elements labeling the simplices
    around v.  Measures already supported there are returned unchanged with
    a constant track (the pump fixes them).  Otherwise the region is
    shrunk away from its complement, a bump over the shrunken set drives
    the pump, and the linear homotopy is sampled at ``TRACK_TIMES``; every
    sample keeps mass above p on every label because pumping only adds
    mass to each of them.  The result is the sample at t = 1, which
    ``convex_combine`` makes exactly the pumped measure.
    """
    mu = smap.value_on_subgrid(lab.tri, v)
    labels = lab.vertex_labels[v]
    label_sets = [lab.element_set(b) for b in labels]
    region = frozenset.intersection(*label_sets)
    bound = 1.0 - len(labels) * (1.0 - p)

    def outcome(track, mass, identity):
        floors = tuple(min(m.mass_of(es) for es in label_sets) for _, m in track)
        return VertexPump(v, mu, track[-1][1], track, labels, region, mass, bound, floors,
                          identity)

    if mu.support_set() <= region:
        return outcome(tuple((t, mu) for t in TRACK_TIMES), mu.mass_of(region), True)
    if bound <= 0.0:
        raise ValueError(f"threshold p={p} too low for {len(labels)} labels; "
                         "need p > 1 - 1/(2^n n!)")
    mass = intersection_mass_bound(mu, label_sets, p)
    _, inner = shrink_to_inner(mu, bound, region)
    bump = build_bump(mu.space, (), inner)
    return outcome(pump_homotopy(mu, bump, TRACK_TIMES), mass, False)


@dataclass(frozen=True)
class SimplexwiseAffineMap:
    """Map that is affine on each simplex: barycentric mixing of vertex values."""

    tri: FKTriangulation
    values: dict[Lattice, FiniteMeasure]
    labeling: Labeling | None = None


def linearize(values: Mapping[Lattice, FiniteMeasure], lab: Labeling,
              log: CertificationLog) -> SimplexwiseAffineMap:
    """Simplexwise-affine map through the given vertex measures.

    Certifies, per top simplex, that the union of its vertex supports sits
    inside the assigned cover element, hence is a simplex of the Vietoris
    complex of the cover; :class:`NotSubordinate` reports the first
    offending simplex otherwise.  Every check up to and including that one
    is recorded in ``log`` under the ``linearize`` stage.
    """
    for s in lab.tri.simplices():
        union: set[int] = set()
        for v in s.vertices():
            union |= values[v].support_set()
        offending = frozenset(union - lab.element_set(lab.ell[s.key]))
        log.add("linearize", _simplex_key(s.key), len(offending), 0.0, not offending)
        if offending:
            raise NotSubordinate(s.key, offending)
    return SimplexwiseAffineMap(lab.tri, dict(values), lab)


@dataclass
class CertificationLog:
    """Flat pass/fail records, one JSON object per check."""

    records: list[dict] = field(default_factory=list)

    def add(self, stage: str, ident: str, quantity: float, threshold: float,
            passed: bool) -> None:
        self.records.append({"stage": stage, "id": ident,
                             "quantity": quantity, "threshold": threshold,
                             "pass": bool(passed)})

    def all_pass(self) -> bool:
        return all(r["pass"] for r in self.records)

    def stage_counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for r in self.records:
            slot = out.setdefault(r["stage"], {"pass": 0, "fail": 0})
            slot["pass" if r["pass"] else "fail"] += 1
        return out

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in self.records)


def vertex_key(v: Lattice) -> str:
    """The canonical ``"i,j,..."`` key of a lattice vertex, used in
    certification records and in the vertex maps of specs and summaries."""
    return ",".join(str(c) for c in v)


def _simplex_key(k: SimplexKey) -> str:
    base, perm = k
    return vertex_key(base) + "|" + vertex_key(perm)


def straighten(smap: SampledMap, cov: Cover,
               p_mass: float | None = None) -> tuple[SimplexwiseAffineMap, CertificationLog]:
    """End-to-end straightening of a sampled map over a cover.

    Stages: choose the mass threshold, sweep grid resolutions for a
    subordinate one with :func:`label_simplices` (labeling its top simplices
    in the same pass over the samples), pump every vertex, linearize.
    The log gets one record per membership check, per track sample, per
    boundary vertex (already-subordinate boundary values must come through
    unchanged), and per simplex certificate.  Stage failures raise
    :class:`PipelineError` naming the stage.
    """
    n = smap.tri.n
    log = CertificationLog()
    p = p_mass if p_mass is not None else choose_p(n)
    p_lo = 1.0 - 1.0 / star_bound(n)
    log.add("choose_p", "p", p, p_lo, p_lo < p < 1.0)
    if not (p_lo < p < 1.0):
        raise PipelineError("choose_p", ValueError(f"p={p} outside ({p_lo}, 1)"))

    try:
        lab = label_simplices(smap, cov, p)
    except NoLabel as exc:
        log.add("estimate_lebesgue", "mesh", 0.0, 0.0, False)
        raise PipelineError("estimate_lebesgue", exc)
    coarse = lab.tri
    log.add("estimate_lebesgue", "mesh", math.sqrt(n) / coarse.p, 0.0, True)
    log.add("build_fk", "simplices", coarse.simplex_count, 0.0, True)
    for key in sorted(lab.ell):
        log.add("label", _simplex_key(key), 1.0, p, True)

    values: dict[Lattice, FiniteMeasure] = {}
    for v in sorted(coarse.vertices()):
        ident = vertex_key(v)
        try:
            vp = pump_vertex(smap, lab, v, p)
        except ValueError as exc:   # BoundViolated, ZeroMass, NoMCP, DegenerateGap
            log.add("pump", ident, 0.0, p, False)
            raise PipelineError("pump_vertex", exc)
        values[v] = vp.result
        log.add("mass_bound", ident, vp.region_mass, vp.bound,
                vp.region_mass > vp.bound)
        for (t, _), floor in zip(vp.track, vp.floors):
            log.add("track", f"{ident}:t={t}", floor, p, floor > p)
        if coarse.is_boundary_vertex(v):
            drift = barycentric_distance(vp.result, vp.source)
            log.add("boundary", ident, drift, 0.0,
                    (not vp.identity) or drift == 0.0)

    try:
        gmap = linearize(values, lab, log)
    except NotSubordinate as exc:
        raise PipelineError("linearize", exc)
    return gmap, log


def prism_retract(x: Sequence[float], t: float) -> tuple[tuple[float, ...], float]:
    """Central-projection retraction of (simplex x [0,1]) onto
    (simplex x {0}) union (boundary x [0,1]).

    Projects from the point (barycenter, 2): follow the ray through (x, t)
    until it first meets the bottom face (time 0) or a wall (some
    barycentric coordinate 0).  Points already in the target are fixed, and
    the retraction is idempotent up to roundoff.
    """
    coords = np.asarray(x, dtype=np.float64)
    if coords.ndim != 1 or coords.size < 1:
        raise ValueError("x must be a nonempty barycentric coordinate vector")
    if (coords < 0.0).any() or abs(coords.sum() - 1.0) > 1e-9:
        raise ValueError("x must be a barycentric point of the simplex")
    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    k = coords.size
    center = 1.0 / k
    s_bottom = 2.0 / (2.0 - t)
    s_wall = math.inf
    for c in coords:
        if c < center:
            s_wall = min(s_wall, center / (center - c))
    s = min(s_bottom, s_wall)
    new = center + s * (coords - center)
    new = np.maximum(new, 0.0)
    new_t = 2.0 + s * (t - 2.0)
    if s == s_bottom:
        new_t = 0.0
    return tuple(float(c) for c in new), float(new_t)
