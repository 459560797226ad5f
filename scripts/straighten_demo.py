#!/usr/bin/env python3
"""Run the leaky two-ball benchmark through the straightening pipeline and
show what each stage certified, including which vertices were genuinely
pumped."""

import numpy as np

from vkit.generators import two_ball_map
from vkit.straightening import straighten

N = 2
LEAK = 0.05


def main() -> None:
    space, cover, smap = two_ball_map(n=N, leak=LEAK)
    gmap, log = straighten(smap, cover)
    print(f"two-ball benchmark, n={N}, leak={LEAK}")
    print(f"resolution chosen: {gmap.tri.p} (grid sampled at {smap.tri.p})")
    print(f"{'stage':<18}{'pass':>6}{'fail':>6}")
    for stage, counts in sorted(log.stage_counts().items()):
        print(f"{stage:<18}{counts['pass']:>6}{counts['fail']:>6}")
    step = smap.grid.p // gmap.tri.p
    moved = []
    for v in sorted(gmap.tri.vertices()):
        before = smap.weights[smap.grid.vertex_index(tuple(c * step for c in v))]
        after = gmap.weights[gmap.tri.vertex_index(v)]
        if not np.array_equal(before, after):
            moved.append((v, np.flatnonzero(before).tolist(), np.flatnonzero(after).tolist()))
    print(f"pumped vertices: {len(moved)}")
    for v, old_sup, new_sup in moved:
        print(f"  {v}: support {old_sup} -> {new_sup}")
    print("all checks passed" if log.all_pass() else "FAILURES in the log")


if __name__ == "__main__":
    main()
