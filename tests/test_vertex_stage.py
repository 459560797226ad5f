"""The vertex stage and ``linearize`` against their per-vertex reference,
bit for bit, on seeded random explicit maps.

Every case is a sampled map built from weight rows, on one to three
dimensions, over a list or a ball cover of a few points, some of them in
coincident pairs.  The rows put most of their mass near a point that
moves with the sample and leak the rest, so most vertices are pumped and
some cannot be.  Some maps have their rows scaled by a factor between
1e-12 and 1e-9 off 1, so ``FiniteMeasure`` renormalizes them, and some
have the row of one vertex broken after labeling, or are pumped at a
threshold other than the labeling's.  Records are compared by stage, id,
pass and the type and repr of their numbers, and the log's text byte for
byte with the reference's one ``json.dumps`` per record; measures by
their support and weights.
"""

from collections import Counter

import numpy as np
import pytest

from vkit.fk import FKTriangulation, NoLabel, lattice_points, star_bound
from vkit.metric import Cover, space_from_points
from vkit.straightening import (CertificationLog, NotSubordinate, PipelineError, SampledMap,
                                choose_p, label_simplices, linearize, pump_vertex, straighten)

import per_vertex_pump as ref

CASES = 300


def random_case(rng):
    """A sampled map, its cover and a mass threshold, and what was done to
    the rows."""
    n = int(rng.integers(1, 4))
    res = int(rng.integers(1, (5, 4, 3)[n - 1]))
    depth = int(rng.integers(1, 3)) if n < 3 else 1
    k = int(rng.integers(3, 7))
    points = rng.uniform(0.0, 3.0, size=(k, int(rng.integers(1, 3))))
    if rng.random() < 0.5:
        points[1::2] = points[0:k - 1:2]      # pairs of coincident points
    space = space_from_points(points.tolist())
    if rng.random() < 0.5:
        cover = Cover.by_balls(space, float(rng.uniform(0.3, 2.5)))
    else:
        most = int(rng.choice([2, k]))
        elements = [set(rng.choice(k, size=int(rng.integers(1, most)), replace=False).tolist())
                    for _ in range(int(rng.integers(2, 5)))]
        for x in set(range(k)).difference(*elements):
            elements[int(rng.integers(len(elements)))].add(x)
        cover = Cover.explicit(space, [sorted(e) for e in elements])
    p = choose_p(n)
    if rng.random() < 0.3:
        p_lo = 1.0 - 1.0 / star_bound(n)
        p = float(rng.uniform(p_lo, 1.0))
    # the point carrying most of a sample's mass moves with the sample
    fine = depth * res
    where = lattice_points(n, fine + 1) / fine
    home = np.minimum((where @ rng.uniform(0.0, 1.0, n) / n * k).astype(int), k - 1)
    order = rng.permutation(k)
    weights = rng.dirichlet(np.ones(k), size=len(where))
    weights *= rng.uniform(0.0, 2.0 * (1.0 - p), size=(len(where), 1))
    weights[rng.random(weights.shape) < 0.4] = 0.0
    weights[np.arange(len(where)), order[home]] += 1.0 - weights.sum(axis=1)
    kind = "plain"
    if rng.random() < 0.25:
        kind = "renormalized"
        weights *= 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(2e-12, 9e-10, size=(len(where), 1))
    return SampledMap(FKTriangulation(n, res), space, weights, depth), cover, p, kind


BROKEN_ROWS = [lambda k: [-0.5] + [1.5 / (k - 1)] * (k - 1), lambda k: [np.nan] * k,
               lambda k: [np.inf] + [0.0] * (k - 1), lambda k: [0.0] * k,
               lambda k: [1.0 + 1e-6] + [0.0] * (k - 1)]


def with_broken_vertex(smap, tri, rng, broken):
    """The map with the row of one random vertex of ``tri`` replaced by the
    ``broken`` row, which no measure takes, as a labeling found before
    would not see it."""
    step = smap.depth * (smap.tri.p // tri.p)
    v = tuple(int(c) * step for c in rng.integers(0, tri.p + 1, size=tri.n))
    weights = smap.weights.copy()
    weights[smap.grid.vertex_index(v)] = broken(smap.space.n_points)
    return SampledMap(smap.tri, smap.space, weights, smap.depth)


def record_bits(records):
    return [(r["stage"], r["id"], type(r["quantity"]), repr(r["quantity"]),
             type(r["threshold"]), repr(r["threshold"]), r["pass"]) for r in records]


def measure_bits(values):
    return [(v, mu.support, [w.hex() for w in mu.weights]) for v, mu in values.items()]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def outcome(fn, *args, log_type=CertificationLog):
    """The log, the value or the error of fn(*args, log)."""
    log = log_type()
    try:
        return log, fn(*args, log), None
    except ValueError as exc:
        return log, None, exc


def test_the_vertex_stage_is_the_per_vertex_reference():
    rng = np.random.default_rng(20261018)
    seen = Counter()
    for _ in range(CASES):
        smap, cover, p, kind = random_case(rng)
        try:
            lab = label_simplices(smap, cover, p)
        except NoLabel:
            seen["no label"] += 1
            continue
        if rng.random() < 0.15:
            broken = BROKEN_ROWS[seen["broken"] % len(BROKEN_ROWS)]
            kind, smap = "broken", with_broken_vertex(smap, lab.tri, rng, broken)
            seen["broken"] += 1
        if rng.random() < 0.2:      # a threshold the labeling did not use, low or high
            p = float(rng.uniform(*[(0.2, 0.45), (0.97, 1.0)][seen["other p"] % 2]))
            kind = "other p"
            seen["other p"] += 1
        log, rows, err = outcome(pump_vertex, smap, lab, p)
        ref_log, ref_values, ref_err = outcome(ref.vertex_stage, smap, lab, p,
                                               log_type=ref.RecordLog)
        assert record_bits(ref.read_records(log)) == record_bits(ref_log.records)
        assert log.to_jsonl() == ref.to_jsonl(ref_log.records)
        assert type(err) is type(ref_err) and str(err) == str(ref_err)
        if err is not None:
            seen[f"{kind}: {err}"] += 1
            continue
        values = ref.vertex_measures(smap.space, lab.tri, rows)
        assert measure_bits(values) == measure_bits(ref_values)
        pumped = sum(r["stage"] == "boundary" and r["quantity"] > 0.0
                     for r in ref.read_records(log))
        seen[f"{kind}: pumped" if pumped else f"{kind}: fixed"] += 1

        # linearize through rows where one vertex leaks onto every point
        leaked = rows.copy()
        leaked[int(rng.integers(len(rows)))] = 1.0 / smap.space.n_points
        for vals in (rows, leaked):
            log, gmap, err = outcome(linearize, vals, lab)
            ref_log, ref_gmap, ref_err = outcome(
                ref.linearize, ref.vertex_measures(smap.space, lab.tri, vals), lab,
                log_type=ref.RecordLog)
            assert record_bits(ref.read_records(log)) == record_bits(ref_log.records)
            assert log.to_jsonl() == ref.to_jsonl(ref_log.records)
            assert type(err) is type(ref_err) and str(err) == str(ref_err)
            if err is None:
                assert same_bits(gmap.weights, ref_gmap.weights) and gmap.tri == ref_gmap.tri
            else:
                assert isinstance(err, NotSubordinate)
                assert (err.simplex, err.offending) == (ref_err.simplex, ref_err.offending)
                assert not ref.read_records(log)[-1]["pass"]
                seen["escapes at linearize"] += 1
    # every path the vertex stage can take was taken
    assert seen["plain: pumped"] and seen["renormalized: pumped"], seen
    assert seen["escapes at linearize"] and seen["no label"], seen
    for message in ("touching the complement", "no point of U is separated",
                    "must be positive, got -0.5", "got nan", "got inf", "positive total mass",
                    "beyond renormalization tolerance"):
        assert any(message in key for key in seen), (message, seen)


@pytest.mark.parametrize("p, error", [(0.4, "too low for 2 labels"),
                                      (0.95, "intersection mass 0.8 <= bound")])
def test_a_threshold_the_labels_cannot_bear_is_refused_as_per_vertex(line3, p, error):
    # vertex 1 sits between the labels {0, 1} and {1, 2} with 0.8 on {1}
    cover = Cover.explicit(line3, [[0, 1], [1, 2]])
    weights = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])
    smap = SampledMap(FKTriangulation(1, 2), line3, weights)
    lab = label_simplices(smap, cover, 0.75, [2])
    log, _, err = outcome(pump_vertex, smap, lab, p)
    ref_log, _, ref_err = outcome(ref.vertex_stage, smap, lab, p, log_type=ref.RecordLog)
    assert error in str(err) and str(err) == str(ref_err) and type(err) is type(ref_err)
    assert record_bits(ref.read_records(log)) == record_bits(ref_log.records)
    assert log.to_jsonl() == ref.to_jsonl(ref_log.records)
    assert [(r["stage"], r["id"].split(":")[0]) for r in ref.read_records(log)] == \
        [("mass_bound", "0")] + [("track", "0")] * 5 + [("boundary", "0"), ("pump", "1")]


@pytest.mark.parametrize("seed", range(40))
def test_straighten_is_the_per_vertex_pipeline(seed):
    smap, cover, p, _ = random_case(np.random.default_rng(seed))
    try:
        gmap, log = straighten(smap, cover, p)
    except PipelineError as exc:
        with pytest.raises(PipelineError) as ref_exc:
            ref.straighten(smap, cover, p)
        assert exc.stage == ref_exc.value.stage
        assert type(exc.cause) is type(ref_exc.value.cause)
        assert str(exc.cause) == str(ref_exc.value.cause)
        return
    ref_gmap, ref_log = ref.straighten(smap, cover, p)
    assert log.to_jsonl() == ref.to_jsonl(ref_log.records)
    assert same_bits(gmap.weights, ref_gmap.weights)
