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
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np

from .fk import (FKTriangulation, Lattice, NoLabel, SimplexKey, check_grid,
                 lattice_points, star_bound, subordinate_resolution)
from .measures import stored_rows
from .metric import Cover, FiniteMetricSpace
from .thickening import GAP_ZERO, INNER_MASS_LOST, DegenerateGap, NoMCP, inner_sets, pump_rows

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
    coarser simplices without ties."""

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


@dataclass(frozen=True, eq=False)
class Labeling:
    """The id of a cover element for every top simplex of ``tri``, in
    ``labels``, and the ``vertex_index`` of each simplex's vertices, in
    ``corners``; one row per simplex in ``simplices`` order."""

    tri: FKTriangulation
    cover: Cover
    labels: np.ndarray
    corners: np.ndarray

    @cached_property
    def simplex_ids(self) -> list[str]:
        """The ``"base|axis order"`` key of every simplex, in ``simplices`` order."""
        orders = ["|" + vertex_key(pi) for pi in permutations(range(self.tri.n))]
        return [base + order for base in lattice_keys(self.tri.n, self.tri.p)
                for order in orders]


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

    ``resolutions`` must divide the sampled one; by default they are every
    divisor of it, coarsest first, so the labeling is on the coarsest
    subordinate grid the samples resolve.
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
        resolutions = [q for q in range(1, smap.tri.p + 1) if smap.tri.p % q == 0]
    n = smap.tri.n
    masks = sample_masks(smap, cov, p)
    res, shared = subordinate_resolution(masks.reshape((smap.grid.p + 1,) * n + (-1,)),
                                         smap.depth, resolutions)
    tri = FKTriangulation(n, res)
    return Labeling(tri, cov, shared.argmax(axis=1), tri.simplex_vertex_indices())


def _fsums(rows: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """The ``math.fsum`` of every row over ``cols``, as ``mass_of`` sums it;
    one addition of two terms is already their correctly rounded sum."""
    if len(cols) > 2:
        return np.fromiter(map(math.fsum, rows[:, list(cols)].tolist()), float, len(rows))
    out = np.zeros(len(rows))
    for c in cols:
        out = out + rows[:, c]
    return out


def _floors(samples: Sequence[np.ndarray], sets: Sequence[frozenset[int]]) -> np.ndarray:
    """Per row and sample, the least mass over the sets, one column per sample."""
    return np.stack([np.min([_fsums(rows, sorted(s)) for s in sets], axis=0)
                     for rows in samples], axis=1)


def pump_vertex(smap: SampledMap, lab: Labeling, p: float,
                log: CertificationLog) -> np.ndarray:
    """The vertex stage: deform the measure at every vertex of the labeling's
    grid so its support enters its label region, and log the checks.

    The region of a vertex is the intersection of the elements labeling the
    simplices around it.  Measures already supported there are fixed, with
    a constant track (the pump fixes them).  Otherwise the region is shrunk
    to its first inner set T keeping mass above the bound 1 - N(1 - p), N
    the number of labels; the 0/1 indicator phi of T drives the pump
    ``(w * phi) / <w, phi>``, and the linear homotopy
    ``(1 - t) w + t pump(w)`` is sampled at ``TRACK_TIMES``.  Every sample
    keeps mass above p on every label, because pumping only adds mass to
    each of them.  The result is the sample at t = 1, the pumped measure.

    phi is exactly the bump ``build_bump(space, (), T)``, in floats too: with
    an empty plateau its gap is the least of the floats d(x, T^C), x in T,
    so d(x, T^C) / gap >= 1.0 and ``min(1.0, d(x, T^C) / gap)`` is 1.0 on T.
    The one error that bump raises is kept: a zero gap, where T splits two
    coincident points, refuses its vertices with DegenerateGap.

    All vertices are pumped at once, as rows of point weights with the
    arithmetic of ``FiniteMeasure``, ``pump`` and ``mix``; the regions and
    their inner sets are computed once per label tuple.  The pump is
    ``stored_rows(pump_rows(rows, phi))`` and the region mass the
    ``_fsums`` over the sorted region: ``verify``'s ``pump-formula`` and
    ``mass-bound`` checks run these very calls.  The
    result is one row per vertex, in lex order, of the weights a
    ``FiniteMeasure`` stores.  Per vertex, in lex order, the log gets its
    region mass against the bound, the least label mass of each track
    sample against p, and on the cube boundary the drift of its result.
    The first vertex that cannot be pumped gets a failing ``pump`` record
    instead, and its error (BoundViolated, NoMCP, DegenerateGap, or a
    refused measure) is raised.
    """
    tri, space = lab.tri, smap.space
    coords = lattice_points(tri.n, tri.p + 1)
    strides = (smap.grid.p + 1) ** np.arange(tri.n - 1, -1, -1)
    step = smap.depth * (smap.tri.p // tri.p)
    rows, errors = stored_rows(smap.weights[(coords * step) @ strides])
    count = tri.vertex_count
    mass, bound = np.zeros(count), np.zeros(count)
    floors = np.zeros((count, len(TRACK_TIMES)))
    moved = np.zeros(count, dtype=bool)
    result = rows.copy()

    # the sorted labels of the simplices around each vertex, as its group key
    seen = np.zeros((count, len(lab.cover.elements)), dtype=bool)
    seen[lab.corners, lab.labels[:, None]] = True
    ends = np.cumsum(seen.sum(axis=1)).tolist()
    label = np.nonzero(seen)[1].tolist()
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        if i not in errors:
            groups.setdefault(tuple(label[start:end]), []).append(i)
    for labels, members in groups.items():
        idx = np.array(members)
        sets = [lab.cover.elements[b] for b in labels]
        region = frozenset.intersection(*sets)
        b = 1.0 - len(labels) * (1.0 - p)
        bound[idx] = b
        mass[idx] = _fsums(rows[idx], sorted(region))
        off_region = np.ones(space.n_points, dtype=bool)
        off_region[sorted(region)] = False
        leaks = (rows[idx][:, off_region] != 0.0).any(axis=1)
        floors[idx[~leaks]] = _floors([rows[idx[~leaks]]], sets)
        idx = idx[leaks]
        moved[idx] = True
        if len(idx) and b <= 0.0:
            errors.update(dict.fromkeys(idx.tolist(), ValueError(
                f"threshold p={p} too low for {len(labels)} labels; need p > 1 - 1/(2^n n!)")))
            continue
        low = ~(mass[idx] > b)
        errors.update((i, BoundViolated(float(mass[i]), b)) for i in idx[low].tolist())
        idx = idx[~low]
        try:
            candidates = inner_sets(space, region) if len(idx) else []
        except NoMCP as exc:
            errors.update(dict.fromkeys(idx.tolist(), exc))
            continue
        for _, inner in candidates:
            keeps = _fsums(rows[idx], sorted(inner)) > b
            hit, idx = idx[keeps], idx[~keeps]
            if not len(hit):
                continue
            phi = np.zeros(space.n_points)
            phi[sorted(inner)] = 1.0
            # the least distance from the inner set to the rest of the space;
            # never over an empty block, as a leaking row has mass off inner
            if space.dist[phi == 1.0][:, phi == 0.0].min() == 0.0:
                errors.update(dict.fromkeys(hit.tolist(), DegenerateGap(GAP_ZERO)))
                continue
            # the samples at t = 0 and 1 are the source and pumped rows themselves
            source = rows[hit]
            pumped = stored_rows(pump_rows(source, phi))[0]
            track = [stored_rows((1.0 - t) * source + t * pumped)[0] for t in TRACK_TIMES[1:-1]]
            floors[hit] = _floors([source, *track, pumped], sets)
            result[hit] = pumped
        errors.update(dict.fromkeys(idx.tolist(), NoMCP(INNER_MASS_LOST)))

    stop = min(errors, default=count)
    edge = ((coords[:stop] == 0) | (coords[:stop] == tri.p)).any(axis=1)
    drift = np.zeros(stop)
    drift[edge] = _fsums(np.abs(result[:stop][edge] - rows[:stop][edge]),
                         range(space.n_points))
    ok_mass = mass[:stop] > bound[:stop]
    ok_floor = floors[:stop] > p
    ok_drift = moved[:stop] | (drift == 0.0)
    # each vertex's lines come from one template: its mass_bound line, its
    # track lines and, on the cube boundary, its boundary line; a vertex
    # inside the cube leaves the boundary line's three fields unused
    keys = lattice_keys(tri.n, tri.p + 1)
    ids = keys[:stop]
    numbers = _json_numbers(np.concatenate([mass[:stop], bound[:stop], drift,
                                            floors[:stop].ravel()]))
    mass_text, bound_text, drift_text = (numbers[i * stop:(i + 1) * stop] for i in range(3))
    floor_text, floor_pass, k = numbers[3 * stop:], _json_bools(ok_floor), len(TRACK_TIMES)
    columns = [ids, _json_bools(ok_mass), mass_text, bound_text]
    for i in range(k):
        columns += [ids, floor_pass[i::k], floor_text[i::k]]
    columns += [ids, _json_bools(ok_drift), drift_text]
    threshold = json.dumps(p)
    inner = _line_template("mass_bound") + "".join(
        _line_template("track", threshold, f":t={t}") for t in TRACK_TIMES)
    on_boundary = inner + _line_template("boundary", "0.0")
    log.extend("".join(on_boundary % row if on_edge else inner % row[:-3]
                       for on_edge, row in zip(edge.tolist(), zip(*columns))),
               {"mass_bound": _tally(ok_mass), "track": _tally(ok_floor),
                "boundary": _tally(ok_drift[edge])})
    if stop < count:
        log.add("pump", keys[stop], 0.0, p, False)
        raise errors[stop]
    return result


@dataclass(frozen=True, eq=False)
class SimplexwiseAffineMap:
    """Map that is affine on each simplex: barycentric mixing of vertex
    values, given as one row of point weights per vertex of ``tri``, in lex
    order."""

    tri: FKTriangulation
    weights: np.ndarray
    labeling: Labeling | None = None


def linearize(rows: np.ndarray, lab: Labeling, log: CertificationLog) -> SimplexwiseAffineMap:
    """Simplexwise-affine map through the given vertex rows of point weights.

    Certifies, per top simplex, that the union of its vertex supports sits
    inside the assigned cover element, hence is a simplex of the Vietoris
    complex of the cover; :class:`NotSubordinate` reports the first
    offending simplex otherwise.  Every check up to and including that one
    is recorded in ``log`` under the ``linearize`` stage.  The unions are
    one or-reduction of the vertices' support rows (their nonzero
    entries), gathered by the labeling's corners.
    """
    elements = np.zeros((len(lab.cover.elements), rows.shape[1]), dtype=bool)
    for row, elem in zip(elements, lab.cover.elements):
        row[sorted(elem)] = True
    offending = (rows != 0.0)[lab.corners].any(axis=1) & ~elements[lab.labels]
    counts = offending.sum(axis=1)
    bad = np.flatnonzero(counts)
    # every simplex before the first offending one passes with count 0
    passed = int(bad[0]) if len(bad) else len(counts)
    ids, line = lab.simplex_ids, _line_template("linearize", "0.0")
    log.extend(_same_lines(line % ("%s", "true", "0"), ids[:passed]), {"linearize": (passed, 0)})
    if len(bad):
        log.extend(line % (ids[passed], "false", int(counts[passed])), {"linearize": (0, 1)})
        raise NotSubordinate(lab.tri.simplex_key(passed),
                             frozenset(np.flatnonzero(offending[passed]).tolist()))
    return SimplexwiseAffineMap(lab.tri, rows, lab)


class CertificationLog:
    """Pass/fail records, one JSON object per check, kept as the lines of
    ``certification.jsonl`` (each as ``json.dumps(record, sort_keys=True)``
    writes it) and a pass and a fail count per stage.

    A stage renders its records from its arrays and appends them with
    :meth:`extend`; :meth:`add` renders one record."""

    def __init__(self):
        self._text: list[str] = []
        self._counts: dict[str, dict[str, int]] = {}

    def add(self, stage: str, ident: str, quantity: float, threshold: float,
            passed: bool) -> None:
        passed = bool(passed)
        quantity_text, threshold_text = json.dumps([quantity, threshold])[1:-1].split(", ")
        text = encode_basestring_ascii
        self.extend(_RECORD_LINE % (text(ident), _JSON_BOOLS[passed], quantity_text,
                                    text(stage), threshold_text),
                    {stage: (int(passed), int(not passed))})

    def extend(self, lines: str, counts: Mapping[str, tuple[int, int]]) -> None:
        """Append rendered record lines, with their (pass, fail) count per stage."""
        self._text.append(lines)
        for stage, (passed, failed) in counts.items():
            if passed or failed:
                slot = self._counts.setdefault(stage, {"pass": 0, "fail": 0})
                slot["pass"] += int(passed)
                slot["fail"] += int(failed)

    def all_pass(self) -> bool:
        return not any(c["fail"] for c in self._counts.values())

    def stage_counts(self) -> dict[str, dict[str, int]]:
        return {stage: dict(c) for stage, c in self._counts.items()}

    def to_jsonl(self) -> str:
        return "".join(self._text)

    @property
    def records(self) -> list[str]:
        """The JSON line of every record, in order."""
        return self.to_jsonl().splitlines()


_JSON_BOOLS = ("false", "true")
_RECORD_LINE = '{"id": %s, "pass": %s, "quantity": %s, "stage": %s, "threshold": %s}\n'


def _line_template(stage: str, threshold: str = "%s", id_suffix: str = "") -> str:
    """The line of a ``stage`` record with its id (before ``id_suffix``),
    pass and quantity, and by default its threshold, left as ``%s``
    fields; for a stage name and ids that need no escaping."""
    return _RECORD_LINE % (f'"%s{id_suffix}"', "%s", "%s", f'"{stage}"', threshold)


def _same_lines(template: str, ids: list[str]) -> str:
    """``template % ident`` for every id, in one join: for lines that
    differ only in their ids."""
    head, tail = template.split("%s")
    return head + (tail + head).join(ids) + tail if ids else ""


def _json_numbers(values: np.ndarray) -> list[str]:
    """Each float, in row-major order, as ``json.dumps`` writes it.  Equal
    bits give equal text, so each distinct bit pattern is written once, all
    by one ``json.dumps``."""
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    floats = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
    text = dict(zip(distinct, json.dumps(floats)[1:-1].split(", ")))
    return list(map(text.__getitem__, bits))


def _json_bools(mask: np.ndarray) -> list[str]:
    return list(map(_JSON_BOOLS.__getitem__, mask.ravel().tolist()))


def _tally(mask: np.ndarray) -> tuple[int, int]:
    """The (pass, fail) count of a mask of passes."""
    passed = int(np.count_nonzero(mask))
    return passed, mask.size - passed


def vertex_key(v: Lattice) -> str:
    """The canonical ``"i,j,..."`` key of a lattice vertex, used in
    certification records and in the vertex maps of specs and summaries."""
    return ",".join(map(str, v))


def lattice_keys(n: int, size: int) -> list[str]:
    """The ``vertex_key`` of every point of {0, ..., size - 1}^n, in lex order."""
    return [",".join(c) for c in product([str(i) for i in range(size)], repeat=n)]


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
    log.extend(_same_lines(_line_template("label", json.dumps(p)) % ("%s", "true", "1.0"),
                           lab.simplex_ids),
               {"label": (coarse.simplex_count, 0)})
    try:
        rows = pump_vertex(smap, lab, p, log)
    except ValueError as exc:   # BoundViolated, ZeroMass, NoMCP, DegenerateGap
        raise PipelineError("pump_vertex", exc)

    try:
        gmap = linearize(rows, lab, log)
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
