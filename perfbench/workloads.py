"""Seeded inputs and op mixes for the benchmark workloads.

A workload turns its seed into a short cycle of ops.  The benchmark runs
the cycle round and round, so every input is run several times and the
repeats can be compared byte for byte.  vkit sees only the files written
here: point-cloud CSVs (lossless ``%.18e``), map-spec JSONs, and the
per-op seeds of ``vkit verify``.

To write one workload's inputs and print its op list:

    python3 perfbench/workloads.py --workload persist --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sizes are spread evenly rather than in a few clusters: with clustered op
# costs the median jumps between clusters when machine speed drifts during
# a run, with spread-out costs it moves smoothly.  Every n of the range is
# used once per filtration, so a run's median spans many cloud geometries
# and moves little between seeds.  The orders interleave small and large
# inputs so every stretch of the cycle has a similar mix.
# VR and Cech ops alternate in one workload: the VR ops are where the Z/2
# reduction dominates, the Cech ops are where build_cech does, and sharing
# one workload leaves the other workloads more run time per seed.
PERSIST_SIZES = {"vr": (40, 47, 54, 44, 51, 41, 48, 55, 45, 52, 42, 49, 56, 46, 53, 43, 50),
                 "cech": (24, 31, 38, 28, 35, 25, 32, 39, 29, 36, 26, 33, 40, 30, 37, 27, 34)}
CLOUD_FAMILIES = ("circle", "two_circles", "uniform")
NOISE = 0.05
# two_ball resolutions, one per op: every res of 12..24 once, for the same
# reason as the persist sizes.
STRAIGHTEN_RES = (12, 17, 22, 14, 19, 24, 16, 21, 13, 18, 23, 15, 20)
MAX_LEAK = 0.12
SPREAD_RES = 16                   # the last op of each cycle is the spread spec
VERIFY_TRIALS = 10
VERIFY_SEEDS = 256                # more than a run completes, so no seed repeats

WORKLOADS = ("persist", "straighten", "verify")


@dataclass(frozen=True)
class Op:
    """One CLI invocation plus what its checker needs to know."""

    kind: str                     # persist | straighten | spread | verify
    argv: tuple[str, ...]
    out: Path | None              # output directory, None for verify
    size: str                     # human-readable input size
    points: Path | None = None    # persist input
    filtration: str | None = None
    spec: dict | None = None      # straighten input


def cloud(rng: np.random.Generator, family: str, n: int) -> np.ndarray:
    """n points in the plane: a noisy circle, two noisy circles, or uniform."""
    if family == "uniform":
        return rng.uniform(0.0, 1.0, size=(n, 2))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    if family == "two_circles":
        pts[:, 0] += np.where(np.arange(n) % 2 == 0, -1.5, 1.5)
    return pts + rng.normal(0.0, NOISE, size=(n, 2))


def _persist_ops(rng: np.random.Generator, root: Path) -> list[Op]:
    pairs = [(filtration, n) for sizes in zip(PERSIST_SIZES["vr"], PERSIST_SIZES["cech"])
             for filtration, n in zip(("vr", "cech"), sizes)]
    ops = []
    for k, (filtration, n) in enumerate(pairs):
        family = CLOUD_FAMILIES[k % len(CLOUD_FAMILIES)]
        path = root / "inputs" / f"cloud{k}_{family}_n{n}.csv"
        np.savetxt(path, cloud(rng, family, n), delimiter=",", fmt="%.18e")
        out = root / "out" / str(k)
        argv = ("persist", "--input", str(path), "--filtration", filtration,
                "--kmax", "2", "--out", str(out))
        ops.append(Op("persist", argv, out, f"{filtration} n={n}", points=path,
                      filtration=filtration))
    return ops


def _straighten_ops(rng: np.random.Generator, root: Path) -> list[Op]:
    ops = []
    for k in range(len(STRAIGHTEN_RES) + 1):
        if k == len(STRAIGHTEN_RES):
            spec = {"generator": "spread", "n": 2, "res": SPREAD_RES}
            kind = "spread"
        else:
            spec = {"generator": "two_ball", "n": 2, "res": STRAIGHTEN_RES[k],
                    "leak": float(rng.uniform(0.0, MAX_LEAK))}
            kind = "straighten"
        path = root / "inputs" / f"spec{k}.json"
        path.write_text(json.dumps(spec, sort_keys=True) + "\n")
        out = root / "out" / str(k)
        argv = ("straighten", "--input", str(path), "--out", str(out))
        ops.append(Op(kind, argv, out, f"n=2 res={spec['res']}", spec=spec))
    return ops


def _verify_ops(rng: np.random.Generator) -> list[Op]:
    seeds = rng.integers(0, 2 ** 31 - 1, size=VERIFY_SEEDS)
    return [Op("verify", ("verify", "--trials", str(VERIFY_TRIALS), "--seed", str(int(s))),
               None, f"trials={VERIFY_TRIALS}")
            for s in seeds]


def make_ops(workload: str, seed: int, root: Path) -> list[Op]:
    """Write the workload's inputs under ``root`` and return its op cycle."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "persist":
        return _persist_ops(rng, root)
    if workload == "straighten":
        return _straighten_ops(rng, root)
    return _verify_ops(rng)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for op in make_ops(args.workload, args.seed, Path(args.out)):
        print(op.kind, op.size, " ".join(op.argv))


if __name__ == "__main__":
    main()
