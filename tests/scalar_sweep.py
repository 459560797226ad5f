"""Sample-by-sample reference for the resolution sweep of ``vkit.fk``.

Visits the samples one by one in the order given, assigns each to every
simplex containing it with the integer locator, and stops at the first
simplex whose shared mask empties.  Masks are Python integers (bit i:
element i admissible).
"""

from vkit.fk import FKTriangulation, NoLabel


def subordinate_resolution_by_samples(samples, den, resolutions):
    """First resolution at which every sampled simplex shares an element,
    with the shared bitmask of each sampled simplex; a sample ``(nums,
    mask)`` is the point (nums[i]/den)_i.  Simplices with no sample pass
    vacuously.  Raises :class:`NoLabel` naming the simplex that emptied at
    the last resolution when none works."""
    n = len(samples[0][0])
    emptied = None
    for p in resolutions:
        tri = FKTriangulation(n, p)
        shared = {}
        emptied = None
        for nums, mask in samples:
            for s in tri.simplices_containing_fraction(nums, den):
                key = (s.base, s.perm)
                shared[key] = shared.get(key, mask) & mask
                if shared[key] == 0:
                    emptied = key
                    break
            if emptied is not None:
                break
        if emptied is None:
            return p, shared
    raise NoLabel(emptied)
