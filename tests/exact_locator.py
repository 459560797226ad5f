"""Independent reference for exact point location in a Freudenthal-Kuhn grid.

Works in ``fractions.Fraction`` with one denominator per axis, so it shares
no arithmetic with the integer locator of ``vkit.fk`` it is checked against.
"""

import math
from fractions import Fraction
from itertools import permutations, product


def simplex_keys_containing(n, p, nums, dens):
    """Keys (base, axis order) of the n-simplices of the resolution-p grid
    whose closed realization contains the point (nums[i]/dens[i])_i, in the
    order bases ascending per axis, then axis-order blocks of equal cell
    fraction, larger fractions first."""
    z = [Fraction(int(nums[i]) * p, int(dens[i])) for i in range(n)]
    axis_bases = []
    for zi in z:
        if zi < 0 or zi > p:
            raise ValueError("point must lie in the unit cube")
        fl = math.floor(zi)
        cands = set()
        if fl <= p - 1:
            cands.add(fl)
        if zi == fl and fl - 1 >= 0:
            cands.add(fl - 1)
        axis_bases.append(sorted(cands))
    out = []
    for base in product(*axis_bases):
        groups = {}
        for i in range(n):
            groups.setdefault(z[i] - base[i], []).append(i)
        ordered = sorted(groups.items(), key=lambda kv: kv[0], reverse=True)
        for combo in product(*(permutations(axes) for _, axes in ordered)):
            out.append((tuple(base), tuple(i for block in combo for i in block)))
    return out
