"""Command-line front end.

Subcommands: ``persist`` (diagram CSV + SVG from a CSV space), ``fk``
(OFF mesh + certificate JSON for a cube triangulation), ``straighten``
(certification log for a sampled map), ``verify`` (randomized property
suites).  Exit codes: 0 ok, 1 property failure, 2 input error, 3 pipeline
stage failure.  Identical (config, seed) pairs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from .complexes import ComplexTooLarge, build_cech, build_vr, check_edges
from .fk import FKTriangulation, check_grid
from .generators import GENERATORS
from .measures import FiniteMeasure
from .metric import (Cover, FiniteMetricSpace, MetricValidationError, load_space_csv,
                     read_csv_rows, space_from_points, space_from_rows, validate_metric)
from .persistence import compute_diagram
from .plots import persistence_diagram_svg
from .straightening import PipelineError, SampledMap, lattice_keys, straighten, vertex_key
from .verify import run_all

DEFAULT_SEED = 1729
VERIFY_TRIALS_GUARD = 10_000        # about 3 minutes: --trials 100 takes about 2 s

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_PIPELINE = 3

# exact JSON types of the generator parameters, so ``true`` is no number and
# ``2.5`` no integer; a parameter whose default is None also takes null
GENERATOR_PARAM_TYPES = {"n": (int,), "res": (int,), "point": (int,),
                         "leak": (int, float), "dense_depth": (int, type(None))}


def _fail_input(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _outdir(args: argparse.Namespace) -> Path | None:
    """The --out directory, made if need be; None, with the error printed,
    if it cannot be made (say, a file is in the way)."""
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail_input(f"cannot write to {args.out}: {exc}")
        return None
    return path


def _out_blocked(args: argparse.Namespace) -> bool:
    """Whether the nearest existing ancestor of --out is no directory, with
    the error printed; checked, creating nothing, before a long build."""
    out = Path(args.out)
    # os.path.exists is False, not an error, where it cannot look
    ancestor = next((p for p in (out, *out.parents) if os.path.exists(p)), None)
    if ancestor is None or ancestor.is_dir():
        return False
    _fail_input(f"cannot write to {args.out}: {ancestor} is not a directory")
    return True


def cmd_persist(args: argparse.Namespace) -> int:
    r = args.r if args.r is not None else math.inf
    try:
        rows = read_csv_rows(args.input)
        check_edges(len(rows), r)       # before any distance exists
        space = space_from_rows(rows, kind=args.input_kind)
    except ComplexTooLarge as exc:
        return _fail_input(str(exc))
    except (OSError, ValueError) as exc:
        return _fail_input(f"cannot load {args.input}: {exc}")
    if args.kmax < 1:
        return _fail_input("persistence needs --kmax >= 1")
    if math.isnan(r):
        return _fail_input("--r must be a number, got nan")
    builder = build_cech if args.filtration == "cech" else build_vr
    if _out_blocked(args):
        return EXIT_INPUT
    try:
        # the --kmax-simplices are read from the complex's coface rule; the
        # edges are always built, since H0 reads them
        K = builder(space, r, max(1, args.kmax - 1))
    except ComplexTooLarge as exc:
        return _fail_input(str(exc))
    diagram = compute_diagram(K, max_dim=args.kmax - 1)
    if (out := _outdir(args)) is None:
        return EXIT_INPUT
    (out / "diagram.csv").write_text(diagram.to_csv())
    title = f"{args.filtration} persistence ({Path(args.input).name})"
    (out / "diagram.svg").write_text(persistence_diagram_svg(diagram, title))
    print(f"wrote {out / 'diagram.csv'} and {out / 'diagram.svg'} "
          f"({len(diagram.intervals)} intervals)")
    return EXIT_OK


def cmd_fk(args: argparse.Namespace) -> int:
    try:
        check_grid(args.n, args.res)
    except ValueError as exc:
        return _fail_input(str(exc))
    if args.n > 4:
        return _fail_input("mesh export supports n <= 4")
    tri = FKTriangulation(args.n, args.res)
    if (out := _outdir(args)) is None:
        return EXIT_INPUT
    (out / "mesh.off").write_text(tri.to_off())
    verts = tri.scaled_vertices(next(tri.simplices()))
    diam = max(float(np.linalg.norm(a - b))
               for i, a in enumerate(verts) for b in verts[i + 1:])
    cert = {
        "n": tri.n,
        "p": tri.p,
        "simplex_count": tri.simplex_count,
        # every vertex of every n-simplex, so a vertex's count is its star
        "max_vertex_star": int(np.bincount(tri.simplex_vertex_indices().ravel()).max()),
        "max_diameter": diam,
    }
    (out / "certificate.json").write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out / 'mesh.off'} and {out / 'certificate.json'}")
    return EXIT_OK


def _listed(value, types: tuple, what: str) -> list:
    """``value`` if it is a JSON list of entries of exactly these types
    (so ``true`` is no number); anything else is refused."""
    if not (isinstance(value, list) and all(type(v) in types for v in value)):
        names = " or ".join(t.__name__ for t in types)
        raise ValueError(f"{what} must be a list of {names}, got {value!r}")
    return value


def _map_from_spec(spec) -> tuple[FiniteMetricSpace, Cover, SampledMap]:
    if not isinstance(spec, dict):
        raise ValueError("map spec must be a JSON object")
    if "generator" in spec:
        name = spec["generator"]
        if type(name) is not str or name not in GENERATORS:
            raise ValueError(f"unknown generator {name!r}; have {sorted(GENERATORS)}")
        kwargs = {k: v for k, v in spec.items() if k != "generator"}
        params = inspect.signature(GENERATORS[name]).parameters
        unknown = sorted(set(kwargs) - set(params))
        if unknown:
            raise ValueError(f"generator {name!r} takes no parameter(s) {unknown}")
        for key, value in kwargs.items():
            types = GENERATOR_PARAM_TYPES[key]
            if type(value) not in types and not (value is None and params[key].default is None):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ValueError(f"generator parameter {key!r} must be {names}, got {value!r}")
        full = {key: kwargs.get(key, param.default) for key, param in params.items()}
        # the guard the generators run where they sample, run here first so a refused
        # spec never reaches them; a None res lets two_ball pick its default
        if full["res"] is not None:
            check_grid(full["n"], full["res"], full["dense_depth"])
        return GENERATORS[name](**kwargs)
    if "points" not in spec and "distances" not in spec:
        raise ValueError("map spec needs 'generator', 'points', or 'distances'")
    kind = "points" if "points" in spec else "distances"
    unknown = sorted(set(spec) - {kind, "cover", "n", "res", "vertices"})
    if unknown:
        raise ValueError(f"a map spec with {kind!r} takes no key(s) {unknown}")
    rows = _listed(spec[kind], (list,), "'points'/'distances'")
    rows = [_listed(r, (int, float), "a row of 'points'/'distances'") for r in rows]
    space = space_from_points(rows) if kind == "points" else validate_metric(rows)
    cov_spec = spec["cover"]
    if isinstance(cov_spec, dict) and "balls" in cov_spec:
        if len(cov_spec) > 1:
            raise ValueError(f"a 'balls' cover takes no key(s) {sorted(set(cov_spec) - {'balls'})}")
        radius = cov_spec["balls"]
        if type(radius) not in (int, float):
            raise ValueError(f"'balls' must be a radius, got {radius!r}")
        cover = Cover.by_balls(space, radius)
    else:
        cover = Cover.explicit(space, [_listed(e, (int,), "a cover element")
                                       for e in _listed(cov_spec, (list,), "'cover'")])
    n, res = spec["n"], spec["res"]
    check_grid(n, res)
    vertices = spec["vertices"]
    if not isinstance(vertices, dict) or not all(isinstance(m, dict) for m in vertices.values()):
        raise ValueError("'vertices' must map lattice keys to {'support', 'weights'} objects")
    values = {}
    for key, m in vertices.items():
        vertex = tuple(int(c) for c in key.split(","))
        if vertex_key(vertex) != key:
            raise ValueError(f"vertex key {key!r} is not of the canonical form 'i,j,...'")
        values[vertex] = FiniteMeasure(
            space, tuple(_listed(m.get("support"), (int,), f"vertex {key!r} support")),
            tuple(_listed(m.get("weights"), (int, float), f"vertex {key!r} weights")))
    tri = FKTriangulation(n, res)
    off_grid = set(values).difference(tri.vertices())
    if off_grid:
        raise ValueError(f"vertex values off the grid, e.g. {min(off_grid)}")
    missing = [v for v in tri.vertices() if v not in values]
    if missing:
        raise ValueError(f"missing vertex values, e.g. {missing[0]}")
    weights = np.zeros((tri.vertex_count, space.n_points))
    for row, v in zip(weights, tri.vertices()):
        row[list(values[v].support)] = values[v].weights
    return space, cover, SampledMap(tri, space, weights)


_SUMMARY = ('{\n  "all_pass": %s,\n  "dimension": %d,\n  "resolution": %d,\n'
            '  "stages": %s,\n  "vertices": %s\n}\n')
_STAGE = '    %s: {\n      "fail": %d,\n      "pass": %d\n    }'
_MEASURE = ('{\n      "support": [\n        %s\n      ],\n'
            '      "weights": [\n        %s\n      ]\n    }')


def _json_object(items: list[str]) -> str:
    return "{\n" + ",\n".join(items) + "\n  }" if items else "{}"


def _json_items(values: list) -> str:
    """The items of a nonempty list as ``json.dumps(..., indent=2)`` writes
    them at the depth of a vertex's support and weights."""
    return json.dumps(values)[1:-1].replace(", ", ",\n        ")


def _summary_json(stages: dict[str, dict[str, int]], resolution: int, dimension: int,
                  weights: np.ndarray) -> str:
    """``summary.json`` of a finished run, byte for byte as
    ``json.dumps(summary, indent=2, sort_keys=True) + "\\n"`` writes it, from
    templates.  ``weights`` holds a row of point weights per vertex of the
    grid, in lex order, each with a nonzero entry; a vertex's measure is
    its row's nonzero entries.  The vertex keys are sorted as strings
    ("0,10" before "0,2"), and each distinct row is written once."""
    failed = sum(c["fail"] for c in stages.values())
    stage_items = [_STAGE % (json.dumps(stage), c["fail"], c["pass"])
                   for stage, c in sorted(stages.items())]
    rows = list(map(tuple, weights.tolist()))
    measures = {}
    for row in rows:
        if row not in measures:
            support = [x for x, w in enumerate(row) if w != 0.0]
            measures[row] = _MEASURE % (_json_items(support),
                                        _json_items([row[x] for x in support]))
    vertex_items = ['    "%s": %s' % (key, measures[row]) for key, row in
                    sorted(zip(lattice_keys(dimension, resolution + 1), rows), key=itemgetter(0))]
    return _SUMMARY % ("false" if failed else "true", dimension, resolution,
                       _json_object(stage_items), _json_object(vertex_items))


def cmd_straighten(args: argparse.Namespace) -> int:
    if args.pmass is not None and not math.isfinite(args.pmass):
        return _fail_input("--pmass must be a finite number")
    try:
        with open(args.input) as fh:
            spec = json.load(fh)
        space, cover, smap = _map_from_spec(spec)
    except (OSError, ValueError, KeyError, IndexError, MetricValidationError) as exc:
        # IndexError: a support or cover index out of range of the space
        return _fail_input(f"cannot build map from {args.input}: {exc}")
    if (out := _outdir(args)) is None:
        return EXIT_INPUT
    try:
        gmap, log = straighten(smap, cover, p_mass=args.pmass)
    except PipelineError as exc:
        (out / "certification.jsonl").write_text("")
        summary = {"all_pass": False, "failed_stage": exc.stage, "error": str(exc.cause)}
        (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"pipeline failed at stage {exc.stage!r}: {exc.cause}", file=sys.stderr)
        return EXIT_PIPELINE
    (out / "certification.jsonl").write_text(log.to_jsonl())
    stages = log.stage_counts()
    failed = sum(c["fail"] for c in stages.values())
    (out / "summary.json").write_text(_summary_json(stages, gmap.tri.p, gmap.tri.n,
                                                    gmap.weights))
    total = sum(c["pass"] + c["fail"] for c in stages.values())
    print(f"wrote {out / 'certification.jsonl'} ({total} checks, {failed} failures)")
    return EXIT_OK if failed == 0 else EXIT_PIPELINE


def cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 0:
        return _fail_input(f"--trials must be >= 0, got {args.trials}")
    if args.trials > VERIFY_TRIALS_GUARD:
        return _fail_input(f"--trials must be <= {VERIFY_TRIALS_GUARD}, got {args.trials}")
    if args.seed < 0:
        return _fail_input(f"--seed must be >= 0, got {args.seed}")
    rows = []
    if args.input is not None:
        try:
            load_space_csv(args.input, kind=args.input_kind)
            rows.append(("input-validation", 1, 0, ""))
        except MetricValidationError as exc:    # a file that is read but is no metric
            rows.append(("input-validation", 1, 1, str(exc)))
        except (OSError, ValueError) as exc:
            return _fail_input(f"cannot load {args.input}: {exc}")
    if args.trials == 0:
        print("warning: --trials 0 makes every randomized check vacuous", file=sys.stderr)
    rows += [(res.name, res.trials, res.failures, res.note)
             for res in run_all(args.seed, args.trials)]
    width = max(len(r[0]) for r in rows)
    print(f"{'check'.ljust(width)}  trials  failures  status")
    for name, trials, fail, note in rows:
        status = "ok" if fail == 0 else "FAIL"
        suffix = f"  ({note})" if note else ""
        print(f"{name.ljust(width)}  {trials:>6}  {fail:>8}  {status}{suffix}")
    return EXIT_OK if all(fail == 0 for _, _, fail, _ in rows) else EXIT_PROPERTY


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vkit",
        description="complexes, measure geometry, cube triangulations, "
                    "straightening, and persistence at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("persist", help="persistence diagram of a CSV space")
    p.add_argument("--input", required=True)
    p.add_argument("--input-kind", choices=["auto", "points", "matrix"], default="auto")
    p.add_argument("--filtration", choices=["vr", "cech"], default="vr")
    p.add_argument("--r", type=float, default=None, help="truncate the filtration at r")
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--out", default="vkit-out")

    p = sub.add_parser("fk", help="export a cube triangulation and its certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--res", type=int, required=True)
    p.add_argument("--out", default="vkit-out")

    p = sub.add_parser("straighten", help="run the straightening pipeline on a map spec")
    p.add_argument("--input", required=True, help="JSON map spec or generator config")
    p.add_argument("--pmass", type=float, default=None)
    p.add_argument("--out", default="vkit-out")

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--input", default=None, help="optional metric CSV to validate")
    p.add_argument("--input-kind", choices=["auto", "points", "matrix"], default="auto")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "persist": cmd_persist,
        "fk": cmd_fk,
        "straighten": cmd_straighten,
        "verify": cmd_verify,
    }
    return handlers[args.command](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
