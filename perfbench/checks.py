"""Output checks that do not use vkit.

Each check reads what one CLI op wrote and returns a list of problems; an
empty list means the op passed.  The references are computed here from
the inputs with numpy, scipy and itertools only:

* persist: the finite H0 deaths are the minimum-spanning-tree edge weights
  of the 1-skeleton values (distances for VR, ``min_z max(D[z,i], D[z,j])``
  for intrinsic Cech); exactly one essential H0 class, no essential H1.
* straighten: every Freudenthal-Kuhn top simplex, rebuilt from its
  definition, has the union of its vertex supports inside one element of
  the generator's cover; the spread spec fails at ``estimate_lebesgue``.
* verify: every row of the table reports zero failures.
"""

from __future__ import annotations

import json
import math
import re
from itertools import permutations, product
from pathlib import Path

import numpy as np
from scipy.sparse.csgraph import minimum_spanning_tree

MST_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-9
# Explicit cover of the ``two_ball`` generator on the 3-point line.
COVERS = {"two_ball": (frozenset({0, 1}), frozenset({1, 2}))}
VERIFY_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(\d+)\s+(ok|FAIL)\b")


def read_diagram(text: str) -> list[tuple[int, float, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != "dim,birth,death":
        raise ValueError("diagram.csv lacks its header")
    rows = []
    for line in lines[1:]:
        dim, birth, death = line.split(",")
        rows.append((int(dim), float(birth), float(death)))
    return rows


def edge_values(points: np.ndarray, filtration: str) -> np.ndarray:
    """Entry value of every edge: the distance (VR) or the best witness (Cech)."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    if filtration == "cech":
        dist = np.maximum(dist[:, :, None], dist[:, None, :]).min(axis=0)
    return dist


def mst_weights(values: np.ndarray) -> list[float]:
    return sorted(minimum_spanning_tree(values).data.tolist())


def check_persist(out: Path, points_csv: Path, filtration: str, rc: int) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        rows = read_diagram((out / "diagram.csv").read_text())
        svg = (out / "diagram.svg").read_text()
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    errors = []
    if not svg.startswith("<svg"):
        errors.append("diagram.svg is not an SVG document")
    points = np.loadtxt(points_csv, delimiter=",", ndmin=2)
    want = mst_weights(edge_values(points, filtration))
    got = sorted(d for dim, _, d in rows if dim == 0 and not math.isinf(d))
    if len(got) != len(want):
        errors.append(f"{len(got)} finite H0 deaths, MST has {len(want)} edges")
    elif max((abs(a - b) for a, b in zip(got, want)), default=0.0) > MST_TOL:
        errors.append("finite H0 deaths differ from the MST edge weights")
    if any(dim == 0 and b != 0.0 for dim, b, _ in rows):
        errors.append("an H0 class is born after 0")
    essential = [dim for dim, _, d in rows if math.isinf(d)]
    if essential.count(0) != 1:
        errors.append(f"{essential.count(0)} essential H0 classes, expected 1")
    if essential.count(1):
        errors.append(f"{essential.count(1)} essential H1 classes, expected 0")
    return errors


def fk_top_simplices(n: int, p: int):
    """(log key, vertex lattice points) of every top simplex of the grid."""
    for base in product(range(p), repeat=n):
        for perm in permutations(range(n)):
            cur = list(base)
            verts = [tuple(cur)]
            for axis in perm:
                cur[axis] += 1
                verts.append(tuple(cur))
            key = ",".join(map(str, base)) + "|" + ",".join(map(str, perm))
            yield key, verts


def check_straighten(out: Path, spec: dict, rc: int) -> list[str]:
    try:
        summary = json.loads((out / "summary.json").read_text())
        log = (out / "certification.jsonl").read_text()
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if spec["generator"] == "spread":
        errors = [] if rc == 3 else [f"exit code {rc}, expected 3"]
        if summary.get("failed_stage") != "estimate_lebesgue":
            errors.append(f"failed stage {summary.get('failed_stage')!r}, "
                          "expected 'estimate_lebesgue'")
        if summary.get("all_pass") is not False or log:
            errors.append("a failed run must report all_pass false and an empty log")
        return errors
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    errors = []
    records = [json.loads(line) for line in log.splitlines()]
    if summary.get("all_pass") is not True or not all(r["pass"] for r in records):
        errors.append("certification has failing records")
    n, p = summary["dimension"], summary["resolution"]
    if n != spec["n"]:
        errors.append(f"dimension {n}, spec asks for {spec['n']}")
    supports = {}
    for key, m in summary["vertices"].items():
        supports[tuple(int(c) for c in key.split(","))] = frozenset(m["support"])
        if min(m["weights"]) <= 0.0 or abs(math.fsum(m["weights"]) - 1.0) > WEIGHT_SUM_TOL:
            errors.append(f"vertex {key} is not a probability measure")
    if set(supports) != set(product(range(p + 1), repeat=n)):
        return errors + ["vertex measures do not cover the grid"]
    cover = COVERS[spec["generator"]]
    keys = set()
    for key, verts in fk_top_simplices(n, p):
        keys.add(key)
        union = frozenset().union(*(supports[v] for v in verts))
        if not any(union <= elem for elem in cover):
            errors.append(f"simplex {key} carries {sorted(union)}, inside no cover element")
    certified = {r["id"] for r in records if r["stage"] == "linearize"}
    if certified != keys:
        errors.append("linearize records do not match the grid's top simplices")
    return errors


def check_verify(stdout: str, rc: int, names: list[str]) -> list[str]:
    rows = [VERIFY_ROW.match(line) for line in stdout.splitlines()[1:]]
    if not all(rows):
        return ["unparseable verify table"]
    errors = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    if [m.group(1) for m in rows] != names:
        errors.append("verify table rows differ from the check list")
    for m in rows:
        if int(m.group(3)) != 0 or m.group(4) != "ok":
            errors.append(f"{m.group(1)}: {m.group(3)} failures")
    return errors


def check_op(op, rc: int, stdout: str, verify_names: list[str]) -> list[str]:
    """Dispatch on the op's kind (see ``workloads.Op``)."""
    if op.kind == "persist":
        return check_persist(op.out, op.points, op.filtration, rc)
    if op.kind == "verify":
        return check_verify(stdout, rc, verify_names)
    return check_straighten(op.out, op.spec, rc)
