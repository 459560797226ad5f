"""Independent witness for the ``compare_metrics`` bound: a feasible coupling
that keeps the common mass in place.

``vkit.thickening.compare_metrics`` bounds d_W by diam(supports) * d_m / 2,
the cost ceiling of this plan; the tests build the plan and check both that
it is a coupling and that its cost sits between d_W and the bound.
"""

import numpy as np

from vkit.measures import Coupling


def common_mass_coupling(mu, nu):
    """Feasible plan fixing min(mu(x), nu(x)) on the diagonal.

    Residual supply and demand (which live on disjoint point sets once the
    shared mass is pinned) are matched greedily in index order.  The
    off-diagonal mass equals half the barycentric distance.
    """
    if mu.space is not nu.space:
        raise ValueError("measures live on different spaces")
    rows, cols = mu.support, nu.support
    plan = np.zeros((len(rows), len(cols)))
    res_a = list(mu.weights)
    res_b = list(nu.weights)
    col_of = {y: j for j, y in enumerate(cols)}
    for i, x in enumerate(rows):
        j = col_of.get(x)
        if j is not None:
            shared = min(res_a[i], res_b[j])
            plan[i, j] = shared
            res_a[i] -= shared
            res_b[j] -= shared
    i = j = 0
    while i < len(rows) and j < len(cols):
        if res_a[i] <= 0.0:
            i += 1
            continue
        if res_b[j] <= 0.0:
            j += 1
            continue
        moved = min(res_a[i], res_b[j])
        plan[i, j] += moved
        res_a[i] -= moved
        res_b[j] -= moved
    return Coupling(mu.space, rows, cols, plan)


def off_diagonal_mass(plan):
    """Mass the plan moves between distinct points."""
    total = 0.0
    for i, x in enumerate(plan.rows):
        for j, y in enumerate(plan.cols):
            if x != y:
                total += float(plan.mass[i, j])
    return total
