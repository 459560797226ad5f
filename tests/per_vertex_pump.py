"""Per-vertex reference for the vertex stage and ``linearize`` of the
straightening pipeline.

Pumps one vertex at a time with measures: the sampled measure at the
vertex, the inner set found by the shrinking loop, the bump, ``pump`` and
the five ``mix`` samples of its linear homotopy; checks each simplex with
sets of support points.  :func:`vertex_stage` logs every record of the
vertex loop one by one into a :class:`RecordLog`, one dict per record,
:func:`straighten` runs the whole pipeline with it, and :func:`to_jsonl`
writes the records with one ``json.dumps`` each: the arithmetic and the
bytes the vectorized stage and its line templates must reproduce bit for
bit.  :func:`read_records` parses a production log back into records.

The pipeline keeps a sampled map, the labels and the vertex values as
arrays; the functions after :func:`read_records` read them per vertex and
per simplex, as measures and dicts, for this reference and the tests.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from vkit.fk import NoLabel, star_bound
from vkit.measures import FiniteMeasure, barycentric_distance
from vkit.metric import distance_to_complement
from vkit.straightening import (TRACK_TIMES, BoundViolated, NotSubordinate,
                                PipelineError, SimplexwiseAffineMap, choose_p,
                                label_simplices, vertex_key)
from vkit.thickening import NoMCP, build_bump, pump_homotopy


class RecordLog:
    """A certification log kept as one dict per record."""

    def __init__(self):
        self.records = []

    def add(self, stage, ident, quantity, threshold, passed):
        self.records.append({"stage": stage, "id": ident, "quantity": quantity,
                             "threshold": threshold, "pass": bool(passed)})


@dataclass(frozen=True)
class VertexPump:
    """Outcome of pumping one vertex measure into its label region."""

    vertex: tuple
    source: FiniteMeasure       # the sampled measure at the vertex
    result: FiniteMeasure
    track: tuple
    labels: tuple
    region: frozenset
    region_mass: float          # mass of source on region
    bound: float                # 1 - N(1 - p), N the number of labels
    floors: tuple               # per track sample: min over labels of the element mass
    identity: bool


def shrink_to_inner(mu, p, U):
    """The first inner set {x in U : d(x, U^C) > 1/i}, i = 1, 2, ..., that
    keeps mass above p, searched index by index."""
    if not (0.0 < p < 1.0):
        raise ValueError("threshold p must lie in (0, 1)")
    pts = frozenset(int(x) for x in U)
    if not mu.mass_of(pts) > p:
        raise NoMCP(f"the measure has mass <= {p} on U")
    gaps = {x: distance_to_complement(mu.space, pts, x) for x in sorted(pts)}
    if all(math.isinf(g) for g in gaps.values()):
        return 1, pts
    positive = [g for g in gaps.values() if g > 0.0]
    if not positive:
        raise NoMCP("no point of U is separated from its complement")
    i_max = int(math.ceil(1.0 / min(positive))) + 1
    for i in range(1, i_max + 1):
        inner = frozenset(x for x, g in gaps.items() if g > 1.0 / i)
        if inner and mu.mass_of(inner) > p:
            return i, inner
    raise NoMCP("mass concentrates only on points touching the complement")


def intersection_mass_bound(mu, labels, p) -> float:
    """Mass of mu on the intersection of the label sets.

    When mu puts mass above p on each of the N sets, the intersection mass
    exceeds 1 - N(1-p); a value at or below that bound means a precondition
    was not actually satisfied, reported as :class:`BoundViolated`.
    """
    sets = [frozenset(s) for s in labels]
    if not sets:
        raise ValueError("need at least one label")
    mass = mu.mass_of(frozenset.intersection(*sets))
    bound = 1.0 - len(sets) * (1.0 - p)
    if not mass > bound:
        raise BoundViolated(mass, bound)
    return mass


def pump_vertex(smap, lab, v, labels, p) -> VertexPump:
    """Deform the measure at v, whose simplices carry ``labels``, so its
    support enters its label region."""
    mu = sample_at(smap, lab.tri, v)
    label_sets = [lab.cover.elements[b] for b in labels]
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


def simplex_key(k) -> str:
    base, perm = k
    return vertex_key(base) + "|" + vertex_key(perm)


def linearize(values, lab, log) -> SimplexwiseAffineMap:
    """Check each simplex's union of vertex supports against its label."""
    for s, label in zip(lab.tri.simplices(), lab.labels.tolist()):
        union: set[int] = set()
        for v in s.vertices():
            union |= values[v].support_set()
        offending = frozenset(union - lab.cover.elements[label])
        key = (s.base, s.perm)
        log.add("linearize", simplex_key(key), len(offending), 0.0, not offending)
        if offending:
            raise NotSubordinate(key, offending)
    return SimplexwiseAffineMap(lab.tri, vertex_rows(lab.tri, values), lab)


def vertex_stage(smap, lab, p, log):
    """Pump the vertices in lex order and log each one's checks; the first
    vertex that cannot be pumped logs a failing record and raises."""
    values, around = {}, vertex_labels(lab)
    for v in sorted(lab.tri.vertices()):
        ident = vertex_key(v)
        try:
            vp = pump_vertex(smap, lab, v, around[v], p)
        except ValueError:
            log.add("pump", ident, 0.0, p, False)
            raise
        values[v] = vp.result
        log.add("mass_bound", ident, vp.region_mass, vp.bound, vp.region_mass > vp.bound)
        for (t, _), floor in zip(vp.track, vp.floors):
            log.add("track", f"{ident}:t={t}", floor, p, floor > p)
        if any(c == 0 or c == lab.tri.p for c in v):
            drift = barycentric_distance(vp.result, vp.source)
            log.add("boundary", ident, drift, 0.0, (not vp.identity) or drift == 0.0)
    return values


def straighten(smap, cov, p_mass=None):
    """The straightening pipeline, pumping and checking vertex by vertex."""
    n = smap.tri.n
    log = RecordLog()
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
    for key in sorted(label_dict(lab)):
        log.add("label", simplex_key(key), 1.0, p, True)
    try:
        values = vertex_stage(smap, lab, p, log)
    except ValueError as exc:
        raise PipelineError("pump_vertex", exc)
    try:
        gmap = linearize(values, lab, log)
    except NotSubordinate as exc:
        raise PipelineError("linearize", exc)
    return gmap, log


def to_jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def read_records(log) -> list:
    """The records of a production log, parsed from its ``to_jsonl`` text."""
    return [json.loads(line) for line in log.to_jsonl().splitlines()]


def measure(space, row) -> FiniteMeasure:
    """The measure of a row of point weights: its nonzero entries."""
    support = np.flatnonzero(row)
    return FiniteMeasure(space, tuple(support.tolist()), tuple(row[support].tolist()))


def sample_at(smap, tri, v) -> FiniteMeasure:
    """The sampled measure at the vertex v of ``tri``, a grid whose
    resolution divides the sampled lattice's."""
    step = smap.grid.p // tri.p
    return measure(smap.space, smap.weights[smap.grid.vertex_index(tuple(c * step for c in v))])


def vertex_measures(space, tri, rows) -> dict:
    """The measure of each row, by the vertex of ``tri`` it belongs to."""
    return {v: measure(space, row) for v, row in zip(tri.vertices(), rows)}


def vertex_rows(tri, values) -> np.ndarray:
    """The rows of point weights, one per vertex of ``tri`` in lex order,
    of a dict of vertex measures."""
    space = next(iter(values.values())).space
    rows = np.zeros((tri.vertex_count, space.n_points))
    for row, v in zip(rows, tri.vertices()):
        row[list(values[v].support)] = values[v].weights
    return rows


def label_dict(lab) -> dict:
    """The label of each simplex, by its key."""
    return {(s.base, s.perm): label
            for s, label in zip(lab.tri.simplices(), lab.labels.tolist())}


def vertex_labels(lab) -> dict:
    """The sorted labels of the simplices around each vertex, read off the
    labeling's corners."""
    around = [set() for _ in range(lab.tri.vertex_count)]
    for corners, label in zip(lab.corners.tolist(), lab.labels.tolist()):
        for i in corners:
            around[i].add(label)
    return {v: tuple(sorted(labels)) for v, labels in zip(lab.tri.vertices(), around)}
