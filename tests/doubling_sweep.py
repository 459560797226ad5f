"""The doubling resolution sweep, kept as a reference for the default one
of ``vkit.straightening.label_simplices``: the resolutions 1, 2, 4, ...
that divide the sampled resolution, then the sampled resolution itself.
Every one of them divides the sampled resolution, so the default sweep,
which tries every divisor, may only label on a coarser grid."""

from unittest import mock

from vkit import straightening


def doubling_resolutions(p: int) -> list[int]:
    """The doubling resolutions below p that divide it, then p."""
    out, q = [], 1
    while q < p:
        if p % q == 0:
            out.append(q)
        q *= 2
    return out + [p]


def straighten_by_doubling(smap, cov):
    """``straighten`` with its labeling swept over the doubling resolutions."""
    label = straightening.label_simplices

    def by_doubling(smap, cov, p):
        return label(smap, cov, p, doubling_resolutions(smap.tri.p))
    with mock.patch.object(straightening, "label_simplices", by_doubling):
        return straightening.straighten(smap, cov)
