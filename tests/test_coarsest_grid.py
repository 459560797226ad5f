"""The default resolution sweep against the doubling one on a grid of
generator specs: every outcome is kept (success, or the failing stage and
its message), every certification passes, and the chosen resolution
divides the sampled one and is never finer than the doubling choice."""

import pytest

from vkit.generators import sliding_dirac_map, two_ball_map
from vkit.straightening import PipelineError, straighten

from doubling_sweep import doubling_resolutions, straighten_by_doubling

GENERATORS = {"two_ball": two_ball_map, "sliding_dirac": sliding_dirac_map}
LEAKS = (0.0, 0.01, 0.03, 0.07, 0.12, 0.2)
CASES = ([("two_ball", n, res) for n in (1, 2) for res in range(1, 25)]
         + [("two_ball", 3, res) for res in range(1, 13)]
         + [("sliding_dirac", 1, res) for res in range(1, 25)])


def outcome(run):
    """(exit code, failing stage, message), the chosen resolution and the
    log; the CLI exits 3 on a failing stage."""
    try:
        gmap, log = run()
    except PipelineError as exc:
        return (3, exc.stage, str(exc.cause)), None, None
    return (0, None, None), gmap.tri.p, log


def test_the_doubling_reference_is_the_powers_of_two_then_the_resolution():
    assert doubling_resolutions(1) == [1]
    assert doubling_resolutions(8) == [1, 2, 4, 8]
    assert doubling_resolutions(18) == [1, 2, 18]
    assert doubling_resolutions(23) == [1, 23]


@pytest.mark.parametrize("name, n, res", CASES)
def test_default_sweep_keeps_the_outcome_on_a_grid_no_finer(name, n, res):
    for leak in LEAKS:
        _, cov, smap = GENERATORS[name](n=n, res=res, leak=leak)
        got, q, log = outcome(lambda: straighten(smap, cov))
        want, ref_q, _ = outcome(lambda: straighten_by_doubling(smap, cov))
        assert got == want, leak
        if q is not None:
            assert res % q == 0 and q <= ref_q, leak
            assert log.all_pass(), leak
